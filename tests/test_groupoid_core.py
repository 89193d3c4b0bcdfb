"""Finite groupoid backend: axioms, isotropy, orbits, stabilization."""

import hashlib
import json
import math
import re
from collections import Counter
from itertools import chain, combinations

import pytest

from groupoid_forge import groupoid_core
from groupoid_forge.groupoid_core import (
    Cocycle,
    FiniteGroupoid,
    GroupoidAutomorphism,
    build_groupoid,
    cyclic_group_groupoid,
    cyclic_multiplier_automorphism,
    cycles,
    disjoint_union,
    full_relation,
    group_bundle,
    groupoid_from_json,
    identity_automorphism,
    is_principal,
    isotropy_group,
    orbit,
    orbits,
    relation_automorphism,
    verify_groupoid_axioms,
    weight_cocycle,
    _generators,
)
from groupoid_forge.twisted_product import twisted_product
from groupoid_forge.validation import StructuralError, Violation

from families import rng_for, seeded_twisted_instances
from helpers import (
    bench_inputs,
    brute_groupoid_axioms,
    brute_orbit_length,
    cartesian_product,
    is_minimal,
    label_tables,
    product_with_full_relation,
    rotated_power_mapping,
)


class TestAxioms:
    def test_full_relation_passes(self):
        assert verify_groupoid_axioms(full_relation(range(3))).passed

    def test_corrupted_associativity_names_the_triple(self):
        G = full_relation(range(2))
        tables = label_tables(G)
        tables["composition"][((0, 1), (1, 0))] = (1, 1)  # should be (0, 0)
        bad = build_groupoid(G.elements, G.units, **tables)
        report = verify_groupoid_axioms(bad)
        assert not report.passed
        assert any("associativity" == v.invariant for v in report.violations) or any(
            "r(gh)" in v.invariant or "s(gh)" in v.invariant or "g^{-1}g" in v.invariant
            for v in report.violations
        )

    def test_inverse_is_involution_and_units_characterized(self):
        for G in (full_relation(range(3)), cyclic_group_groupoid(4)):
            for g in G.elements:
                assert G.inv(G.inv(g)) == g
            assert G.units == frozenset(
                g for g in G.elements if G.r(g) == g and G.s(g) == g
            )

    def test_json_round_trip_verifies(self):
        G = full_relation(range(2))
        G2 = groupoid_from_json(G.to_json())
        assert verify_groupoid_axioms(G2).passed
        assert len(G2) == len(G)

    def test_golden_dump_stable(self):
        # dumps feed golden files; the serialization must stay deterministic
        G = full_relation(range(2))
        dump = G.to_json()
        assert dump["units"] == ["(0, 0)", "(1, 1)"]
        assert dump["compose"][0] == ["(0, 0)", "(0, 0)", "(0, 0)"]
        assert ["(0, 1)", "(1, 0)", "(0, 0)"] in dump["compose"]
        assert dump == full_relation(range(2)).to_json()

    @pytest.mark.parametrize("product", ["(1, 1)", "(0, 0)"], ids=["wrong-first", "same-twice"])
    def test_a_pair_listed_twice_is_refused(self, product):
        # a second entry for a pair would overwrite the first one silently
        dump = full_relation(range(2)).to_json()
        dump["compose"].insert(0, ["(0, 1)", "(1, 0)", product])
        with pytest.raises(StructuralError, match=re.escape("pair ((0, 1), (1, 0)) listed twice")):
            groupoid_from_json(dump)

    def test_ids_outside_the_elements_are_coded_after_them(self):
        # in order of first appearance: range, source and inverse maps, then
        # the table; each has a row
        G = full_relation(range(2))
        tables = label_tables(G)
        tables["inverse_map"][(0, 1)] = "late"
        tables["range_map"][(1, 0)] = "early"
        tables["composition"][("ghost", (0, 0))] = "ghost"
        bad = build_groupoid(G.elements, G.units, **tables)
        assert bad.strays == ("early", "late", "ghost")
        assert (bad.range_of[2], bad.inverse_of[1]) == (4, 5)
        assert bad.rows[4:] == [{}, {}, {0: 6}]
        assert (bad.r((1, 0)), bad.inv((0, 1))) == ("early", "late")
        assert bad.mul("ghost", (0, 0)) == "ghost"

    def test_encoding_reads_back_its_label_tables(self):
        # every factory groupoid and corrupted copy is the record its own
        # label tables encode to
        rng = rng_for(409)
        for G in _factory_groupoids(twisted=4):
            for X in [G, *(bad for _, bad in _corruptions(G, rng))]:
                tables = label_tables(X)
                again = build_groupoid(X.elements, X.units, **tables)
                assert again == X
                assert label_tables(again) == tables


def _factory_groupoids(twisted: int):
    """One groupoid from each factory, then ``twisted`` seeded twisted products."""
    out = [
        full_relation(range(3)),
        full_relation("abc"),
        cyclic_group_groupoid(5),
        group_bundle({"u": 2, "w": 3}),
        disjoint_union(full_relation(range(2)), cyclic_group_groupoid(3)),
        cartesian_product(full_relation(range(2)), group_bundle({0: 2})),
        product_with_full_relation(cyclic_group_groupoid(2), 1),
        groupoid_from_json(full_relation("ab").to_json()),
    ]
    for H, c, G, alpha in seeded_twisted_instances(twisted, 3):
        out.append(twisted_product(H, c, G, alpha).finite_form)
    return out


def _corruptions(G: FiniteGroupoid, rng):
    """(name, G with that one defect at a seeded place) for each defect of
    the corpus."""
    els = list(G.elements)
    tables = label_tables(G)
    table = tables["composition"]
    pair = rng.choice(sorted(table, key=repr))
    g = rng.choice(els)
    loose = [(x, y) for x in els for y in els if not G.composable(x, y)]

    def rebuild_all(**replaced):
        return build_groupoid(G.elements, G.units, **{**tables, **replaced})

    def rebuild(**changed):
        return rebuild_all(**{key: {**tables[key], x: y} for key, (x, y) in changed.items()})

    dropped = {k: v for k, v in table.items() if k != pair}
    yield "dropped product", rebuild_all(composition=dropped)
    if loose:
        yield "non-composable product", rebuild(composition=(rng.choice(loose), g))
    others = [x for x in els if x != table[pair]]
    if others:
        yield "wrong product", rebuild(composition=(pair, rng.choice(others)))
    yield "product outside", rebuild(composition=(pair, "ghost"))
    wrong_inverses = [
        x for x in els if x != G.inv(g) and (G.s(x) == G.r(g) or G.r(x) == G.s(g))
    ]
    if wrong_inverses:
        yield "broken inverse", rebuild(inverse_map=(g, rng.choice(wrong_inverses)))
    detached = [x for x in els if G.s(x) != G.r(g) and G.r(x) != G.s(g)]
    if detached:
        yield "non-composable inverse", rebuild(inverse_map=(g, rng.choice(detached)))
    yield "inverse outside", rebuild(inverse_map=(g, "ghost"))
    yield "range outside", rebuild(range_map=(g, "nowhere"))
    yield "source outside", rebuild(source_map=(g, "nowhere"))
    swappable = _swappable(G)
    if swappable:
        yield "swapped products", _swapped(G, *rng.choice(swappable))
    # one product replaced by another element of its range and source: with
    # neither factor a unit and h not g^{-1}, only associativity can break
    misplaced = [
        ((g, h), x)
        for (g, h), gh in sorted(table.items(), key=repr)
        if not {g, h} & G.units and h != G.inv(g)
        for x in G.elements
        if G.r(x) == G.r(gh) and x != gh and G.s(x) == G.s(gh)
    ]
    if misplaced:
        yield "wrong product, r and s kept", rebuild(composition=rng.choice(misplaced))
    # a table key whose left factor is no element: a row of its own, past
    # the elements' rows
    yield "factor outside", rebuild(composition=(("ghost", g), g))


def _swappable(G: FiniteGroupoid) -> list[tuple]:
    """(x, h1, h2) whose products x·h1 and x·h2 can be traded keeping r and
    s: with x a non-unit and h1, h2 neither s(x) nor x^{-1}, only
    associativity can break."""
    return [
        (x, h1, h2)
        for x in G.elements
        if x not in G.units
        for h1, h2 in combinations([h for h in G.elements if G.r(h) == G.s(x)], 2)
        if G.s(h1) == G.s(h2) and not {h1, h2} & {G.s(x), G.inv(x)}
    ]


def _swapped(G: FiniteGroupoid, x, h1, h2) -> FiniteGroupoid:
    """G with the products x·h1 and x·h2 traded."""
    tables = label_tables(G)
    comp = tables["composition"]
    tables["composition"] = {**comp, (x, h1): comp[(x, h2)], (x, h2): comp[(x, h1)]}
    return build_groupoid(G.elements, G.units, **tables)


def _moved_across(G: FiniteGroupoid, i: int) -> FiniteGroupoid:
    """G with the last key of row i moved to the front of row i + 1, its
    product kept.  It is built on G's codes directly, since ``build_groupoid``
    would sort the moved key back into code order."""
    rows = [dict(row) for row in G.rows]
    last, product = rows[i].popitem()
    rows[i + 1] = {last: product, **rows[i + 1]}
    return FiniteGroupoid(
        G.elements, G.units, G.range_of, G.source_of, G.inverse_of, rows, G.strays
    )


def _generators_of(G: FiniteGroupoid) -> list:
    """The elements ``groupoid_core._generators`` picks for a groupoid whose
    products all exist with the right range and source."""
    return [G.elements[i] for i in _generators(G.rows, G.range_of, G.source_of)]


def _word_products(G: FiniteGroupoid, gens) -> set:
    """Every product g1·g2·...·gm of ``gens``, multiplied left to right
    through the composition table."""
    words = set(gens)
    todo = list(gens)
    while todo:
        w = todo.pop()
        for g in gens:
            if G.composable(w, g) and (wg := G.mul(w, g)) not in words:
                words.add(wg)
                todo.append(wg)
    return words


def _violations(report):
    return Counter((v.invariant, v.subject) for v in report.violations)


class TestAxiomOracle:
    """The bucketed axiom check against the n^2-scan oracle."""

    def test_factories_match_oracle(self):
        for G in _factory_groupoids(twisted=12):
            report = verify_groupoid_axioms(G)
            assert report.passed
            assert _violations(report) == _violations(brute_groupoid_axioms(G))

    def test_corruption_corpus_matches_oracle(self):
        rng = rng_for(406)
        seen = Counter()
        for G in _factory_groupoids(twisted=4):
            for name, bad in _corruptions(G, rng):
                expected = brute_groupoid_axioms(bad)
                assert not expected.passed, name
                assert _violations(verify_groupoid_axioms(bad)) == _violations(expected), name
                if name in ("swapped products", "wrong product, r and s kept"):
                    assert {v.invariant for v in expected.violations} == {"associativity"}
                seen[name] += 1
        assert len(seen) == 12

    def test_defect_outside_the_generator_rows_is_found(self):
        # the generator rows decide associativity only because every other
        # row is a product of them: a defect in another row makes one fail
        rng = rng_for(408)
        swapped = 0
        for G in _factory_groupoids(twisted=4):
            gens = set(_generators_of(G))
            choices = [t for t in _swappable(G) if t[0] not in gens]
            if not choices:
                continue
            bad = _swapped(G, *rng.choice(choices))
            expected = brute_groupoid_axioms(bad)
            assert {v.invariant for v in expected.violations} == {"associativity"}
            assert _violations(verify_groupoid_axioms(bad)) == _violations(expected)
            swapped += 1
        assert swapped >= 5

    def test_generators_reach_every_element(self):
        for G in _factory_groupoids(twisted=12):
            gens = _generators_of(G)
            assert _word_products(G, gens) == set(G.elements)
            # each generator is one that the generators before it miss
            for i, g in enumerate(gens):
                assert g not in _word_products(G, gens[:i])

    def test_generators_are_few_on_the_benchmark_products(self):
        items = bench_inputs().twisted_instances(0)
        products = [twisted_product(*item).finite_form for item in items]
        elements = sum(map(len, products))
        picked = sum(len(_generators_of(G)) for G in products)
        assert elements == 10066
        assert 4 * picked <= elements

    def test_inverse_composable_with_neither_side_is_reported(self):
        G = full_relation(range(3))
        tables = label_tables(G)
        tables["inverse_map"][(0, 1)] = (2, 2)
        bad = build_groupoid(G.elements, G.units, **tables)
        expected = [("r(g^{-1}) = s(g), s(g^{-1}) = r(g)", "element (0, 1)")]
        for report in (verify_groupoid_axioms(bad), brute_groupoid_axioms(bad)):
            assert [(v.invariant, v.subject) for v in report.violations] == expected

    def test_order_is_element_then_table_order(self):
        G = full_relation(range(2))
        tables = label_tables(G)
        comp = tables["composition"]
        del comp[((0, 1), (1, 0))]
        comp[((0, 1), (0, 1))] = (0, 0)
        comp[((1, 0), (1, 0))] = (1, 1)
        bad = build_groupoid(G.elements, G.units, **tables)
        pairs = [v for v in verify_groupoid_axioms(bad).violations if v.subject.startswith("pair")]
        assert [str(v) for v in pairs] == [
            "composition only on s(g)=r(h): pair ((0, 1), (0, 1))",
            "composition only on s(g)=r(h): pair ((1, 0), (1, 0))",
            "composition total on composable pairs: pair ((0, 1), (1, 0))",
        ]

    @pytest.mark.parametrize("size", range(1, 7))
    def test_factories_on_positions_match_the_label_build(self, size):
        # each factory fills its lists straight from positions: its label
        # tables are the ones its definition writes, the table in row order,
        # and encoding them gives the same record, row key order included
        pts = range(size)
        fibers = {u: size - u for u in pts}
        bundle = [(u, t) for u, k in sorted(fibers.items(), key=repr) for t in range(k)]
        cases = [
            (
                full_relation(pts),
                [(a, b) for a in pts for b in pts],
                {(a, b): (a, a) for a in pts for b in pts},
                {(a, b): (b, b) for a in pts for b in pts},
                {((a, b), (b, c)): (a, c) for a in pts for b in pts for c in pts},
                {(a, b): (b, a) for a in pts for b in pts},
            ),
            (
                cyclic_group_groupoid(size),
                list(pts),
                {a: 0 for a in pts},
                {a: 0 for a in pts},
                {(a, b): (a + b) % size for a in pts for b in pts},
                {a: -a % size for a in pts},
            ),
            (
                group_bundle(fibers),
                bundle,
                {(u, t): (u, 0) for u, t in bundle},
                {(u, t): (u, 0) for u, t in bundle},
                {
                    ((u, a), (u, b)): (u, (a + b) % fibers[u])
                    for u, a in bundle
                    for b in range(fibers[u])
                },
                {(u, t): (u, -t % fibers[u]) for u, t in bundle},
            ),
        ]
        for G, elements, rng, src, comp, inv in cases:
            assert G.elements == tuple(elements) and not G.strays
            tables = label_tables(G)
            assert tables == {
                "range_map": rng,
                "source_map": src,
                "composition": comp,
                "inverse_map": inv,
            }
            assert list(tables["composition"]) == list(comp)
            again = build_groupoid(G.elements, G.units, **tables)
            assert again == G
            assert [list(row.items()) for row in again.rows] == [
                list(row.items()) for row in G.rows
            ]
            assert verify_groupoid_axioms(G).passed

    def test_factories_refuse_what_the_label_build_refuses(self):
        with pytest.raises(StructuralError, match="duplicate elements"):
            full_relation([0, 1, 0])
        with pytest.raises(StructuralError, match="units not contained in elements"):
            group_bundle({"u": 2, "w": 0})

    def test_keys_moved_across_a_row_boundary_are_found(self):
        # the last key of row i moved to the front of row i + 1: the rows'
        # keys, concatenated, still run as the partner buckets do, and only
        # the per-row lengths tell the table from a whole one
        rng = rng_for(411)
        traps = 0
        for G in _factory_groupoids(twisted=4):
            n = len(G.elements)
            movable = [
                i
                for i in range(n - 1)
                if G.rows[i] and G.source_of[i] != G.source_of[i + 1]
            ]
            for i in rng.sample(movable, min(3, len(movable))):
                bad = _moved_across(G, i)
                partners = [
                    [h for h in range(n) if bad.range_of[h] == s] for s in bad.source_of
                ]
                assert list(chain.from_iterable(bad.rows)) == list(chain.from_iterable(partners))
                assert list(map(len, bad.rows)) != list(map(len, partners))
                expected = [(v.invariant, v.subject) for v in brute_groupoid_axioms(bad).violations]
                found = [(v.invariant, v.subject) for v in verify_groupoid_axioms(bad).violations]
                assert found == expected
                assert expected[:2] == [
                    (
                        "composition only on s(g)=r(h)",
                        f"pair {(G.elements[i + 1], G.elements[list(G.rows[i])[-1]])!r}",
                    ),
                    (
                        "composition total on composable pairs",
                        f"pair {(G.elements[i], G.elements[list(G.rows[i])[-1]])!r}",
                    ),
                ]
                traps += 1
        assert traps >= 20

    def test_a_product_or_an_inverse_outside_is_named(self):
        # each passes every whole-table decision but one, whose walk names it
        G = full_relation(range(3))
        tables = label_tables(G)
        stray_product = build_groupoid(
            G.elements,
            G.units,
            **{**tables, "composition": {**tables["composition"], ((0, 1), (1, 2)): "ghost"}},
        )
        stray_inverse = build_groupoid(
            G.elements,
            G.units,
            **{**tables, "inverse_map": {**tables["inverse_map"], (2, 0): "ghost"}},
        )
        product_lines = [str(v) for v in verify_groupoid_axioms(stray_product).violations]
        assert product_lines[:3] == [
            "composition closed: pair ((0, 1), (1, 2))",
            "associativity: triple ((0, 0), (0, 1), (1, 2))",
            "associativity: triple ((0, 1), (1, 0), (0, 2))",
        ]
        assert [str(v) for v in verify_groupoid_axioms(stray_inverse).violations] == [
            "inverse closed: element (2, 0)"
        ]
        for bad in (stray_product, stray_inverse):
            assert [str(v) for v in verify_groupoid_axioms(bad).violations] == [
                str(v) for v in brute_groupoid_axioms(bad).violations
            ]

    def test_disjoint_union_matches_the_label_build(self):
        # both sides tagged and their tables joined, malformed sides included
        rng = rng_for(410)
        sides = [full_relation(range(2)), cyclic_group_groupoid(3)]
        sides += [bad for G in sides for _, bad in _corruptions(G, rng)]
        for G1, G2 in zip(sides, sides[::-1]):
            t1, t2 = label_tables(G1), label_tables(G2)
            tagged = {
                key: {
                    **{(0, g): (0, x) for g, x in t1[key].items()},
                    **{(1, g): (1, x) for g, x in t2[key].items()},
                }
                for key in ("range_map", "source_map", "inverse_map")
            }
            tagged["composition"] = {
                ((t, g), (t, h)): (t, k)
                for t, table in enumerate((t1["composition"], t2["composition"]))
                for (g, h), k in table.items()
            }
            union = disjoint_union(G1, G2)
            assert label_tables(union) == tagged
            expected = build_groupoid(union.elements, union.units, **tagged)
            assert _violations(verify_groupoid_axioms(union)) == _violations(
                verify_groupoid_axioms(expected)
            )

    def test_index_is_built_on_first_query(self):
        G = full_relation(range(3))
        assert "_index" not in vars(G)
        G.elements_with_source((0, 0))
        assert "_index" in vars(G)

    def test_bucket_queries_match_linear_scans(self):
        rng = rng_for(407)
        for G in _factory_groupoids(twisted=4):
            corrupted = dict(_corruptions(G, rng))
            for H in (G, corrupted["range outside"], corrupted["source outside"]):
                for u in H.units:
                    assert orbit(H, u) == frozenset(
                        H.r(g) for g in H.elements if H.s(g) == u
                    )
                    assert isotropy_group(H, u) == frozenset(
                        g for g in H.elements if H.r(g) == u and H.s(g) == u
                    )
                ids = set(H.elements) | {"nowhere", "elsewhere"}
                for x in ids:
                    assert H.elements_with_source(x) == tuple(
                        g for g in H.elements if H.s(g) == x
                    )
                assert is_principal(H) == all(
                    {g for g in H.elements if H.r(g) == u and H.s(g) == u} == {u}
                    for u in H.units
                )


def _refuse_walk(G):
    raise AssertionError(f"the naming walk ran on a groupoid of {len(G)} elements")


# The corruption corpus of ``test_corruption_corpus_matches_oracle``, each
# case as [name, [str(violation), ...]] in the order the checker lists them,
# dumped with ``json.dumps``: 130 cases and 1,960 violations, as the row-wise
# walk listed them before the decision and the naming walk were split.
CORPUS_VIOLATIONS_SHA256 = "76899ab2ac9ebabe1fce08a5bbb2a3a4b62a0dbd7d8d93b9e8e30f0dead49f80"


class TestAxiomDecision:
    """The whole-table decision passes valid tables without the naming walk,
    and refuses every corrupted one, whose violations keep their order."""

    def test_valid_groupoids_skip_the_naming_walk(self, monkeypatch):
        # a dump lists its products in name order, and build_groupoid puts
        # each row back in code order, which the decision reads
        factories = _factory_groupoids(twisted=12)
        valid = [*factories, *(groupoid_from_json(G.to_json()) for G in factories)]
        valid.append(groupoid_from_json(full_relation(range(12)).to_json()))
        items = bench_inputs().twisted_instances(0)
        valid += [twisted_product(*item).finite_form for item in items]
        monkeypatch.setattr(groupoid_core, "_axiom_violations", _refuse_walk)
        for G in valid:
            assert verify_groupoid_axioms(G).passed
        assert len(valid) == 2 * 20 + 1 + 100

    def test_corruption_corpus_is_refused_and_named_in_order(self):
        rng = rng_for(406)
        named = []
        for G in _factory_groupoids(twisted=4):
            for name, bad in _corruptions(G, rng):
                assert not groupoid_core._satisfies_axioms(bad), name
                named.append([name, [str(v) for v in verify_groupoid_axioms(bad).violations]])
        assert (len(named), sum(len(lines) for _, lines in named)) == (130, 1960)
        digest = hashlib.sha256(json.dumps(named).encode()).hexdigest()
        assert digest == CORPUS_VIOLATIONS_SHA256


class TestIsotropyOrbits:
    def test_relation_isotropy_trivial(self):
        G = full_relation("abc")
        for u in G.units:
            assert isotropy_group(G, u) == {u}
        assert is_principal(G)

    def test_bundle_fiber(self):
        G = group_bundle({"u": 2})
        u = next(iter(G.units))
        assert len(isotropy_group(G, u)) == 2
        assert not is_principal(G)

    def test_non_unit_rejected(self):
        G = full_relation(range(2))
        with pytest.raises(ValueError):
            isotropy_group(G, (0, 1))
        with pytest.raises(ValueError):
            orbit(G, (0, 1))

    def test_orbits_partition_units(self):
        G = disjoint_union(full_relation(range(2)), full_relation(range(3)))
        parts = orbits(G)
        assert len(parts) == 2
        union = set()
        for p in parts:
            assert union.isdisjoint(p)
            union |= p
        assert union == set(G.units)

    def test_orbit_of_component(self):
        G = disjoint_union(full_relation(range(2)), full_relation(range(3)))
        u = (0, (0, 0))
        assert orbit(G, u) == {(0, (0, 0)), (0, (1, 1))}
        assert not is_minimal(G)
        assert is_minimal(full_relation(range(4)))


class TestStabilization:
    def test_cardinality(self):
        G = cyclic_group_groupoid(3)
        K = product_with_full_relation(G, 2)
        assert len(K) == len(G) * (2 * 2 + 1) ** 2

    def test_axioms_pass(self):
        K = product_with_full_relation(full_relation(range(2)), 1)
        assert verify_groupoid_axioms(K).passed

    def test_principal_preserved(self):
        K = product_with_full_relation(full_relation(range(2)), 1)
        assert is_principal(K)
        K2 = product_with_full_relation(cyclic_group_groupoid(2), 1)
        assert not is_principal(K2)

    def test_full_relation_orbit_is_everything(self):
        K = product_with_full_relation(full_relation(range(2)), 1)
        u = next(iter(K.units))
        assert orbit(K, u) == K.units


class TestCocyclesAutomorphisms:
    def test_weight_cocycle_validates(self):
        G = full_relation(range(3))
        c = weight_cocycle(G, {(i, i): i for i in range(3)})
        assert c.validate().passed
        assert c((2, 0)) == 2

    def test_cocycle_additivity_violation_detected(self):
        G = full_relation(range(2))
        c = Cocycle(G, {g: (1 if g == (0, 1) else 0) for g in G.elements})
        assert not c.validate().passed

    def test_cocycle_vanishes_on_isotropy(self):
        # finite subgroups of the integers are trivial
        for seed in range(5):
            H, c = seeded_twisted_instances(1, seed)[0][:2]
            assert c.validate().passed
            assert c.isotropy_value_range() == {0}

    def test_relation_automorphism_validates(self):
        G = full_relation(range(3))
        a = relation_automorphism(G, {0: 1, 1: 2, 2: 0})
        assert a.validate().passed
        assert a.order() == 3
        assert a.power(-1)((0, 1)) == (2, 0)

    def test_multiplier_automorphism(self):
        G = cyclic_group_groupoid(5)
        a = cyclic_multiplier_automorphism(G, 2)
        assert a.validate().passed
        assert a(1) == 2 and a(3) == 1

    def test_multiplier_automorphism_needs_elements_zero_to_n(self):
        # each multiplier is invertible modulo |G|
        for G, a in ((full_relation(range(2)), 3), (group_bundle({0: 3}), 2)):
            with pytest.raises(ValueError, match=r"needs G's elements to be 0\.\.n-1"):
                cyclic_multiplier_automorphism(G, a)

    def test_non_equivariant_map_fails_validation(self):
        G = full_relation(range(2))
        mapping = {g: g for g in G.elements}
        mapping[(0, 1)], mapping[(1, 0)] = (1, 0), (0, 1)
        bad = GroupoidAutomorphism(G, mapping)
        assert not bad.validate().passed

    def test_cocycle_nonzero_on_a_unit_names_the_unit(self):
        G = full_relation(range(2))
        c = Cocycle(G, {g: (1 if g == (0, 0) else 0) for g in G.elements})
        on_units = [v for v in c.validate().violations if v.invariant == "c vanishes on units"]
        assert on_units == [Violation("c vanishes on units", "unit (0, 0)")]

    def test_unit_violations_come_in_element_order(self):
        # string labels: the units frozenset iterates in an order that
        # follows PYTHONHASHSEED, the reports do not
        G = full_relation("abc")
        units = [("a", "a"), ("b", "b"), ("c", "c")]
        c = Cocycle(G, {g: int(g in G.units) for g in G.elements})
        on_units = [v.subject for v in c.validate().violations if v.invariant == "c vanishes on units"]
        assert on_units == [f"unit {u!r}" for u in units]
        # each unit swapped with the arrow after it in its row
        mapping = {g: g for g in G.elements}
        for a, b in (("a", "b"), ("b", "c"), ("c", "a")):
            mapping[(a, a)], mapping[(a, b)] = (a, b), (a, a)
        moved = GroupoidAutomorphism(G, mapping).validate().violations
        assert [v.subject for v in moved if v.invariant == "units preserved"] == [
            f"unit {u!r}" for u in units
        ]

    def test_unit_moved_off_the_units_fails_units_and_inverses(self):
        # swapping the unit (0, 0) with the arrow (0, 1) keeps a bijection
        G = full_relation(range(2))
        mapping = {g: g for g in G.elements}
        mapping[(0, 0)], mapping[(0, 1)] = (0, 1), (0, 0)
        violations = GroupoidAutomorphism(G, mapping).validate().violations
        found = {
            name: [v.subject for v in violations if v.invariant == name]
            for name in ("units preserved", "inverse equivariance")
        }
        assert found == {
            "units preserved": ["unit (0, 0)"],
            "inverse equivariance": ["element (0, 0)", "element (0, 1)", "element (1, 0)"],
        }

    def test_identity(self):
        G = cyclic_group_groupoid(3)
        a = identity_automorphism(G)
        assert a.validate().passed and a.order() == 1


def _seeded_permutation(rng, n):
    points = list(range(n))
    rng.shuffle(points)
    return dict(zip(range(n), points))


def _compose_k_times(mapping, k):
    """Brute-force k-th power: apply the map (or its inverse for k < 0) |k| times."""
    step = mapping if k >= 0 else {v: key for key, v in mapping.items()}
    out = {x: x for x in mapping}
    for _ in range(abs(k)):
        out = {x: step[y] for x, y in out.items()}
    return out


class TestCycles:
    def test_cycles_against_orbit_walk(self):
        rng = rng_for(404)
        for n in range(0, 12):
            perm = _seeded_permutation(rng, n)
            found = cycles(perm)
            assert sorted(x for c in found for x in c) == list(range(n))
            for c in found:
                assert all(perm[c[i]] == c[(i + 1) % len(c)] for i in range(len(c)))
                assert len(c) == brute_orbit_length(perm.__getitem__, c[0])

    def test_power_matches_k_fold_composition(self):
        rng = rng_for(405)
        for _ in range(20):
            m = rng.randint(1, 5)
            G = full_relation(range(m))
            a = relation_automorphism(G, _seeded_permutation(rng, m))
            for k in range(-7, 8):
                power = a.power(k)
                assert list(power.mapping) == list(G.elements)
                assert power.mapping == _compose_k_times(a.mapping, k)
                assert a.power(k + a.order()) is power
            assert a.order() == math.lcm(
                *(brute_orbit_length(a, g) for g in G.elements)
            )

    def test_power_matches_the_rotated_cycle_positions(self):
        # the seed-0 automorphisms of the finite_twist benchmark, key order included
        for _, _, _, alpha in bench_inputs().twisted_instances(0):
            assert alpha.order() == math.lcm(*map(len, cycles(alpha.mapping)))
            for k in range(alpha.order() + 1):
                expected = rotated_power_mapping(alpha, k)
                assert list(alpha.power(k).mapping.items()) == list(expected.items())

    def test_one_cycle_walk_per_automorphism(self, monkeypatch):
        walks = []

        def counted(mapping):
            walks.append(mapping)
            return cycles(mapping)

        monkeypatch.setattr(groupoid_core, "cycles", counted)
        G = full_relation(range(4))
        a = relation_automorphism(G, {0: 1, 1: 0, 2: 3, 3: 2})
        assert [a.order(), a.power(1).mapping, a.power(-1).mapping] == [2, a.mapping, a.mapping]
        assert walks == [a.mapping]
