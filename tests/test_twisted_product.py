"""Twisted products, freeness/contraction certificates, minimality and the
finite principality oracle."""

import dataclasses
import json
from functools import cache

import pytest

from families import (
    rng_for,
    seeded_compatible_data,
    seeded_contracting_witnesses,
    seeded_twisted_instances,
)
from helpers import (
    bench_inputs,
    cartesian_product,
    dict_twisted_product,
    label_tables,
    mutant,
    per_level_minimality_verdict,
)
from groupoid_forge.certificates import (
    af_lc_witness,
    check_path_lc,
    check_wfc,
    minimality_verdict,
)
from groupoid_forge.graph_groupoid import (
    InfiniteBouquet,
    basic_proper_subset,
    basic_subset,
    unit_bisection,
)
from groupoid_forge.graph_model import constant_diagram
from groupoid_forge.groupoid_core import (
    Cocycle,
    GroupoidAutomorphism,
    build_groupoid,
    cyclic_group_groupoid,
    cyclic_multiplier_automorphism,
    disjoint_union,
    full_relation,
    group_bundle,
    identity_automorphism,
    is_principal,
    isotropy_group,
    relation_automorphism,
    verify_groupoid_axioms,
    weight_cocycle,
    zero_cocycle,
)
from groupoid_forge.pipeline import plan_af_realization
from groupoid_forge.rank2_diagrams import (
    Rank2Data,
    blue_skeleton,
    canonical_rank2,
    compute_orders,
    telescope_rank2,
)
from groupoid_forge.twisted_product import (
    bouquet_twisted_product,
    check_lc,
    contracting_bisection_witness,
    principality_criterion,
    reverify_contracting_witness,
    twisted_product,
)
from groupoid_forge.validation import StructuralError

BQ = InfiniteBouquet()


def three_point_relation_with_cocycle():
    H = full_relation(range(3))
    return H, weight_cocycle(H, {(i, i): i for i in range(3)})


class TestConstruction:
    def test_zero_cocycle_gives_direct_product(self):
        H = full_relation(range(2))
        G = cyclic_group_groupoid(3)
        alpha = cyclic_multiplier_automorphism(G, 2)
        tw = twisted_product(H, zero_cocycle(H), G, alpha)
        assert tw.finite_form == cartesian_product(H, G)

    def test_identity_automorphism_gives_direct_product(self):
        H, c = three_point_relation_with_cocycle()
        G = cyclic_group_groupoid(3)
        tw = twisted_product(H, c, G, identity_automorphism(G))
        assert tw.finite_form == cartesian_product(H, G)

    def test_seeded_instance_passes_axioms(self):
        H, c = three_point_relation_with_cocycle()
        G = cyclic_group_groupoid(3)
        alpha = cyclic_multiplier_automorphism(G, 2)
        tw = twisted_product(H, c, G, alpha)
        assert verify_groupoid_axioms(tw.finite_form).passed

    def test_structure_maps_formulas(self):
        H, c = three_point_relation_with_cocycle()
        G = cyclic_group_groupoid(3)
        alpha = cyclic_multiplier_automorphism(G, 2)
        tw = twisted_product(H, c, G, alpha)
        F = tw.finite_form
        for (h, g) in F.elements:
            assert F.r((h, g)) == (H.r(h), G.r(g))
            assert F.s((h, g)) == (H.s(h), alpha.power(c(h))(G.s(g)))
            assert F.inv((h, g)) == (H.inv(h), alpha.power(c(h))(G.inv(g)))
        for ((x, y), z) in label_tables(F)["composition"].items():
            assert F.s(z) == F.s(y) and F.r(z) == F.r(x)

    def test_invalid_cocycle_rejected(self):
        H = full_relation(range(2))
        bad = Cocycle(H, {g: (1 if g == (0, 1) else 0) for g in H.elements})
        G = cyclic_group_groupoid(2)
        with pytest.raises(ValueError):
            twisted_product(H, bad, G, identity_automorphism(G))

    def test_invalid_automorphism_rejected(self):
        # moves the unit (0, 0) onto the arrow (0, 1)
        G = full_relation(range(2))
        mapping = {g: g for g in G.elements}
        mapping[(0, 0)], mapping[(0, 1)] = (0, 1), (0, 0)
        bad = GroupoidAutomorphism(G, mapping)
        H = full_relation(range(2))
        with pytest.raises(ValueError, match="(?s)invalid automorphism:.*units preserved: unit"):
            twisted_product(H, zero_cocycle(H), G, bad)
        with pytest.raises(ValueError, match="(?s)invalid automorphism:.*units preserved: unit"):
            bouquet_twisted_product(G, bad)

    def test_maps_on_a_reordered_groupoid_are_refused(self):
        # a cocycle or automorphism is read on its own groupoid's positions,
        # so one built on the same elements in another order is refused
        G = full_relation(range(2))
        flipped = build_groupoid(G.elements[::-1], G.units, **label_tables(G))
        c, alpha = weight_cocycle(flipped, {(0, 0): 0, (1, 1): 1}), identity_automorphism(flipped)
        refusal = "does not live on the elements of its groupoid"
        with pytest.raises(ValueError, match=f"the cocycle {refusal}"):
            twisted_product(G, c, G, identity_automorphism(G))
        with pytest.raises(ValueError, match=f"the automorphism {refusal}"):
            twisted_product(G, zero_cocycle(G), G, alpha)
        with pytest.raises(ValueError, match=f"the automorphism {refusal}"):
            bouquet_twisted_product(G, alpha)
        assert verify_groupoid_axioms(twisted_product(flipped, c, flipped, alpha).finite_form).passed

    def test_nontrivial_isotropy_from_bundle_component(self):
        # mixed H: a 2-torsion fiber plus a relation carrying the cocycle
        H = disjoint_union(group_bundle({0: 2}), full_relation(range(2)))
        c = weight_cocycle(H, {u: (1 if u[0] == 1 and u[1] == (1, 1) else 0) for u in H.units})
        assert c.value_range() != {0}
        G = full_relation(range(2))
        tw = twisted_product(H, c, G, identity_automorphism(G))
        bundle_unit = ((0, (0, 0)), (0, 0))
        iso = isotropy_group(tw.finite_form, bundle_unit)
        assert len(iso) == 2


def _oracle_instances():
    """(H, c, G, alpha) over full relations, disjoint unions, group bundles and
    cyclic groups: every H with a zero and a weight cocycle, every G with each
    kind of automorphism (point permutation, multiplier, identity, swap)."""
    hs = [
        full_relation(range(3)),
        disjoint_union(full_relation(range(2)), group_bundle({0: 2})),
        group_bundle({"u": 2, "w": 3}),
        cyclic_group_groupoid(4),
    ]
    relation = full_relation(range(3))
    cyclic = cyclic_group_groupoid(5)
    two = disjoint_union(full_relation(range(2)), full_relation(range(2)))
    bundle = group_bundle({0: 2, 1: 2})
    gs = [
        (relation, relation_automorphism(relation, {0: 1, 1: 2, 2: 0})),
        (cyclic, cyclic_multiplier_automorphism(cyclic, 2)),
        (bundle, identity_automorphism(bundle)),
        (two, GroupoidAutomorphism(two, {(t, g): (1 - t, g) for t, g in two.elements})),
    ]
    for H in hs:
        weights = {u: 2 * i - 3 for i, u in enumerate(sorted(H.units, key=repr))}
        for c in (zero_cocycle(H), weight_cocycle(H, weights)):
            for G, alpha in gs:
                yield H, c, G, alpha


def _with_rows(F, edit):
    """F with its composition rows copied and changed by ``edit``."""
    rows = [dict(row) for row in F.rows]
    edit(rows)
    return dataclasses.replace(F, rows=rows)


def _row_edits(F, rng):
    """Seeded defects written straight into the integer rows: two products
    of a row swapped, a product dropped, a product on a pair that is not
    composable, a wrong product."""
    n = len(F.elements)
    i = rng.choice([i for i, row in enumerate(F.rows) if len(row) > 1])
    j1, j2 = rng.sample(sorted(F.rows[i]), 2)
    loose = [j for j in range(n) if j not in F.rows[i]]

    def swap(rows):
        rows[i][j1], rows[i][j2] = rows[i][j2], rows[i][j1]

    def drop(rows):
        del rows[i][j1]

    def add_loose(rows):
        if loose:
            rows[i][rng.choice(loose)] = rng.randrange(n)

    def wrong(rows):
        rows[i][j2] = rng.randrange(n)

    return [_with_rows(F, edit) for edit in (swap, drop, add_loose, wrong)]


def _report(G):
    return [(v.invariant, v.subject) for v in verify_groupoid_axioms(G).violations]


class TestBornIndexedProduct:
    """The twisted product built on positions against the tuple-keyed dict
    build, encoded by ``build_groupoid``."""

    def test_matches_dict_build(self):
        for H, c, G, alpha in _oracle_instances():
            F = twisted_product(H, c, G, alpha).finite_form
            D = dict_twisted_product(H, c, G, alpha)
            # the same record: elements, units, codes and rows, no strays
            assert F == D and F.strays == ()
            assert json.dumps(F.to_json()) == json.dumps(D.to_json())
            assert F._index == D._index

    def test_rows_and_maps_match_dict_build_in_order(self):
        # each row's columns in increasing position, as the encoded dict
        # build has them: the order in which Cocycle.validate,
        # GroupoidAutomorphism.validate and the axiom check report pairs
        items = bench_inputs().twisted_instances(0)
        assert len(items) == 100
        for H, c, G, alpha in [*_oracle_instances(), *items]:
            F = twisted_product(H, c, G, alpha).finite_form
            D = dict_twisted_product(H, c, G, alpha)
            assert [list(row.items()) for row in F.rows] == [list(row.items()) for row in D.rows]
            assert all(list(row) == sorted(row) for row in F.rows)
            for name in ("range_of", "source_of", "inverse_of"):
                assert getattr(F, name) == getattr(D, name)
            tables, oracle = label_tables(F), label_tables(D)
            for name in ("range_map", "source_map", "inverse_map", "composition"):
                assert list(tables[name].items()) == list(oracle[name].items())

    @pytest.mark.parametrize("factor", ["H", "G"])
    @pytest.mark.parametrize(
        "defect", ["range", "inverse", "product-outside", "product-missing", "factor-outside"]
    )
    def test_a_factor_leaving_its_elements_is_refused(self, factor, defect):
        X = full_relation(range(2))
        tables = label_tables(X)
        if defect == "range":
            tables["range_map"][(0, 1)] = (5, 5)
        elif defect == "inverse":
            tables["inverse_map"][(0, 1)] = (5, 5)
        elif defect == "product-outside":
            tables["composition"][(0, 0), (0, 1)] = (5, 5)
        elif defect == "factor-outside":
            tables["composition"][(5, 5), (0, 1)] = (0, 1)
        else:
            del tables["composition"][(0, 0), (0, 1)]
        bad = build_groupoid(X.elements, X.units, **tables)
        H, G = (bad, X) if factor == "H" else (X, bad)
        named = "((0, 0), (0, 1))" if defect == "product-missing" else "(5, 5)"
        refusal = f"^factor {factor} has no element or product"
        with pytest.raises(StructuralError, match=refusal) as info:
            twisted_product(H, zero_cocycle(H), G, identity_automorphism(G))
        assert str(info.value).endswith(named)

    def test_one_power_per_distinct_exponent(self, monkeypatch):
        # alpha^k for the source and inverse maps, alpha^-k for the G-part
        # table: one lookup each per distinct cocycle exponent k
        calls = []
        power = GroupoidAutomorphism.power

        def counted(self, k):
            calls.append(k)
            return power(self, k)

        monkeypatch.setattr(GroupoidAutomorphism, "power", counted)
        H = full_relation(range(4))
        c = weight_cocycle(H, {(i, i): i % 2 for i in range(4)})
        G = full_relation(range(3))
        alpha = relation_automorphism(G, {0: 1, 1: 2, 2: 0})
        F = twisted_product(H, c, G, alpha).finite_form
        exponents = {c(h) for h in H.elements}
        assert exponents == {-1, 0, 1}
        assert sorted(calls) == sorted([*exponents, *(-k for k in exponents)])
        monkeypatch.undo()
        D = dict_twisted_product(H, c, G, alpha)
        assert json.dumps(F.to_json()) == json.dumps(D.to_json())

    def test_label_accessors_read_like_the_dict_table(self):
        for H, c, G, alpha in _oracle_instances():
            F = twisted_product(H, c, G, alpha).finite_form
            oracle = label_tables(dict_twisted_product(H, c, G, alpha))
            table = oracle["composition"]
            for x in F.elements:
                assert (F.r(x), F.s(x), F.inv(x)) == tuple(
                    oracle[name][x] for name in ("range_map", "source_map", "inverse_map")
                )
                assert F.elements_with_source(x) == tuple(
                    y for y in F.elements if oracle["source_map"][y] == x
                )
                for y in F.elements:
                    assert F.composable(x, y) == ((x, y) in table)
                    if (x, y) in table:
                        assert F.mul(x, y) == table[x, y]
                    else:
                        with pytest.raises(KeyError):
                            F.mul(x, y)
            g = F.elements[0]
            for bad in (("ghost", g), (g, "ghost")):
                with pytest.raises(KeyError):
                    F.mul(*bad)

    def test_axiom_report_matches_dict_copy(self):
        rng = rng_for(408)
        for H, c, G, alpha in _oracle_instances():
            F = twisted_product(H, c, G, alpha).finite_form
            for X in [F, *_row_edits(F, rng)]:
                copy = build_groupoid(X.elements, X.units, **label_tables(X))
                assert _report(X) == _report(copy)
            assert _report(F) == []


class TestWfc:
    def test_telescoped_diagram_certificate(self):
        report = plan_af_realization(constant_diagram(2), depth=10, lbound=8)
        assert report.telescoping["subsequence"] == [0, 1, 2, 4, 6, 9, 12, 15, 18, 22, 26]
        cert = report.wfc
        assert cert.status == "certificate"
        witness = cert.details["witness_level_per_shift"]
        table = cert.details["min_cycle_length_per_level"]
        for l_str, level in witness.items():
            assert table[str(level)] > int(l_str)

    def test_certificate_at_depth_one_past_shift_bound(self):
        # L = 20 with one extra level: every shift finds a witness level
        cert = plan_af_realization(constant_diagram(2), lbound=20).wfc
        assert cert.status == "certificate" and cert.depth == 21
        assert set(cert.details["witness_level_per_shift"]) == {
            str(l) for l in range(1, 21)
        }

    def test_rank2_certificate(self):
        const = Rank2Data(A=(((2,),),), B=(((2,),),), T=((1,), (1,)), repeat_from=0)
        tele = telescope_rank2(const, 7)
        diagram = canonical_rank2(tele.telescoped, 7)
        cert = check_wfc(compute_orders(diagram), shift_bound=50)
        assert cert.status == "certificate"
        for n, row in cert.details["inequality"].items():
            assert row["holds"] and row["min_order"] > row["n_times_m_n"]


class TestLc:
    def test_identity_gives_one(self):
        G = full_relation(range(3))
        w = check_lc(G, identity_automorphism(G), [frozenset(G.units)])
        assert w.entries[0].l == 1

    def test_edge_orbit_three(self):
        # three parallel edges: the vertex's cylinder is fixed, each edge's
        # closes after 3 steps
        w = af_lc_witness(1, lambda n: ((3,),), 2)
        assert w.to_json()["entries"] == [
            {"element": "(0, 0)", "l": 1},
            {"element": "(0, 0, 0, 0)", "l": 3},
        ]

    def test_finite_subset_orbit(self):
        G = full_relation(range(3))
        alpha = relation_automorphism(G, {0: 1, 1: 2, 2: 0})
        V = frozenset({(0, 0)})
        w = check_lc(G, alpha, [V])
        assert w.entries[0].l == 3
        back = alpha.power(-3)
        assert frozenset(back(u) for u in V) <= V

    def test_rank2_blue_edge_order_gcd(self):
        # level-2 blue edges of the extended three-level example have order
        # 12 and m_2 = 12, so the least l with F^{l m_2} fixing them is
        # o/gcd(m_2, o) = 1
        data = Rank2Data(
            A=(((3,),), ((4,),), ((2,),)),
            B=(((1,),), ((2,),), ((2,),)),
            T=((1,), (3,), (6,), (6,)),
        )
        diagram = canonical_rank2(data, 4)
        from groupoid_forge.rank2_diagrams import Rank2Path, rank2_automorphism

        orders = rank2_automorphism(diagram)
        label = next(diagram.blue_labels_at(2))
        o = orders.edge_order(label)
        m2 = orders.m[2]
        assert (o, m2) == (12, 12)
        import math

        expected = o // math.gcd(m2, o)
        w = check_path_lc(orders, [Rank2Path((label,), 0)])
        assert w.entries[0].l == expected == 1


class TestLcClosedForm:
    """The LC entries are read off the cycle lengths: ``af_lc_witness`` off
    the class sizes, ``check_path_lc`` off the rank-2 orders.  Neither walks
    an edge or needs a step cap."""

    def test_cylinder_orbit_length(self, monkeypatch):
        from groupoid_forge.graph_model import Edge, EdgeCycleAutomorphism

        def refuse(*args):
            raise AssertionError("the LC witness built or walked an edge")

        monkeypatch.setattr(EdgeCycleAutomorphism, "edge_image", refuse)
        monkeypatch.setattr(Edge, "__new__", refuse)
        # a class of 3 edges then a class of 2: a path through both closes
        # after their lcm 6
        w = af_lc_witness(1, lambda n: (((3,),), ((2,),))[n], 5)
        assert [e.l for e in w.entries] == [1, 3, 3, 3, 6]

    def test_rank2_orbit_length(self):
        from groupoid_forge.rank2_diagrams import Rank2Path, canonical_rank2, rank2_automorphism

        const = Rank2Data(A=(((2,),),), B=(((2,),),), T=((1,), (1,)), repeat_from=0)
        diagram = canonical_rank2(telescope_rank2(const, 5).telescoped, 5)
        orders = rank2_automorphism(diagram)
        # a level-2 edge of order 8 under F^{-m_2}, m_2 = 2, closes after 4 steps
        path = Rank2Path(((2, 0, 0, 0),), 0)
        assert check_path_lc(orders, [path]).entries[0].l == 4


class TestContractingWitness:
    def _trivial_model(self):
        G = full_relation([0])
        return bouquet_twisted_product(G, identity_automorphism(G))

    def test_trivial_g_special_case(self):
        # window Z(lam): the witness pair is (lam.lam, lam) when l = 1
        model = self._trivial_model()
        lam = BQ.path([4])
        w = contracting_bisection_witness(model, unit_bisection(lam), frozenset(model.g.units), l=1)
        assert w.bisection.range_word == BQ.path([4, 4])
        assert w.bisection.source_word == lam
        assert basic_proper_subset(w.r_set[0], w.s_set[0])

    def test_whole_space_window_extends_by_edge_one(self):
        model = self._trivial_model()
        w = contracting_bisection_witness(
            model, unit_bisection(BQ.unit()), frozenset(model.g.units), l=1
        )
        assert w.lam == BQ.path([1])
        assert w.bisection.range_word == BQ.path([1, 1])

    def test_nontrivial_g_window(self):
        G = full_relation(range(3))
        alpha = relation_automorphism(G, {0: 1, 1: 2, 2: 0})
        model = bouquet_twisted_product(G, alpha)
        V = frozenset(G.units)
        w = contracting_bisection_witness(model, unit_bisection(BQ.path([1])), V, l=1)
        assert w.s_set[1] == V
        assert reverify_contracting_witness(model, w)

    def test_missing_witness_rejected_with_instruction(self):
        model = self._trivial_model()
        with pytest.raises(ValueError, match="check_lc"):
            contracting_bisection_witness(
                model, unit_bisection(BQ.path([1])), frozenset(model.g.units), l=None
            )

    def test_fifty_seeded_instances(self):
        for model, w in seeded_contracting_witnesses(50, 20250809, 7, 3, 2):
            assert reverify_contracting_witness(model, w)
            assert basic_subset(w.s_set[0], w.window_h)

    def test_non_unit_g_window_rejected(self):
        G = full_relation(range(2))
        model = bouquet_twisted_product(G, identity_automorphism(G))
        window_g = frozenset(G.units | {(0, 1)})
        with pytest.raises(ValueError, match="G-window"):
            contracting_bisection_witness(model, unit_bisection(BQ.path([1])), window_g, l=1)

    @staticmethod
    def _tampers(model, w):
        """One-field rewrites of a witness, each a false claim about B."""
        r0, r1 = w.r_set
        s0, s1 = w.s_set
        U = w.bisection
        unit = min(r1)
        non_units = frozenset(model.g.elements) - model.g.units
        first = w.lam.edges[0]
        shrunk = unit_bisection(r0.range_word.concat(BQ.path([0])))
        off = unit_bisection(BQ.path([first.label + 1]))
        out = {
            "r_set[0] = s(B)": w._replace(r_set=(s0, r1)),
            "r_set[0] shrunk": w._replace(r_set=(shrunk, r1)),
            "r_set[1] less a unit": w._replace(r_set=(r0, r1 - {unit})),
            "s_set[0] = r(B)": w._replace(s_set=(r0, s1)),
            "s_set[0] = whole space": w._replace(s_set=(unit_bisection(BQ.unit()), s1)),
            "s_set[0] off the word": w._replace(s_set=(off, s1)),
            "s_set[1] less a unit": w._replace(s_set=(s0, s1 - {min(s1)})),
            "bisection inverted": w._replace(bisection=U.inverse()),
            "bisection = r(B)": w._replace(bisection=U.range_set()),
            "bisection = s(B)": w._replace(bisection=U.source_set()),
            "g_part less a unit": w._replace(g_part=w.g_part - {unit}),
            "window_h = r(B)": w._replace(window_h=r0),
            "window_h misses lam": w._replace(window_h=unit_bisection(BQ.unit(), {first})),
        }
        if non_units:
            out["r_set[1] plus a non-unit"] = w._replace(r_set=(r0, r1 | non_units))
            out["s_set[1] plus a non-unit"] = w._replace(s_set=(s0, s1 | non_units))
            out["g_part plus a non-unit"] = w._replace(g_part=w.g_part | non_units)
        return out

    def test_tampered_witnesses_rejected(self):
        # the witnesses of the seeded loops here and in test_acceptance
        witnesses = seeded_contracting_witnesses(50, 20250809, 7, 3, 2)
        witnesses += seeded_contracting_witnesses(50, 424242, 9, 4, 3)
        for model, w in witnesses:
            assert reverify_contracting_witness(model, w)
            for name, tampered in self._tampers(model, w).items():
                assert tampered != w, name
                assert not reverify_contracting_witness(model, tampered), name


class TestMinimality:
    def test_bratteli_cofinal_yes(self):
        assert minimality_verdict(constant_diagram(2), 4).is_yes

    def test_bratteli_disconnected_unknown(self):
        from groupoid_forge.graph_model import BratteliDiagram
        from groupoid_forge.matrices import as_matrix

        d = BratteliDiagram(
            (2, 2),
            (as_matrix([[1, 0], [0, 1]]),),
        )
        assert minimality_verdict(d, 1).value == "unknown"

    def test_finite_backend_rejected(self):
        with pytest.raises(TypeError, match="unsupported backend FiniteGroupoid"):
            minimality_verdict(full_relation(range(3)), 3)

    def test_running_product_matches_per_level_chains(self):
        seen = set()
        for skeleton, top in minimality_grid():
            verdict = minimality_verdict(skeleton, top)
            assert verdict == per_level_minimality_verdict(skeleton, top), top
            if verdict.is_yes:
                seen.add("yes")
            elif verdict.justification.startswith(f"level {top - 1} "):
                seen.add("top")
            else:
                seen.add("below")
        assert seen == {"yes", "top", "below"}


@cache
def minimality_grid() -> list:
    """(blue skeleton, depth) for every telescope of the rank-2 ladders of
    seeds 0-4 and of the seeded compatible data that completes, at every
    depth below its levels_out."""
    ladder = bench_inputs().rank2_ladder
    cases = [(rung["data"], rung["depth"]) for seed in range(5) for rung in ladder(seed)]
    cases += [
        (seeded_compatible_data(seed, repeat, orientation), depth)
        for seed in range(20)
        for repeat in (False, True)
        for orientation in (1, -1)
        for depth in (1, 2, 3, 4)
    ]
    grid = []
    for data, depth in cases:
        levels_out = depth + 2
        tele = telescope_rank2(data, levels_out)
        if tele.complete:
            skeleton = blue_skeleton(canonical_rank2(tele.telescoped, levels_out))
            grid.extend((skeleton, top) for top in range(levels_out))
    return grid


def minimality_disagreements(verdict) -> int:
    """The number of grid cases at which ``verdict`` differs from the
    per-level oracle."""
    return sum(
        verdict(skeleton, top) != per_level_minimality_verdict(skeleton, top)
        for skeleton, top in minimality_grid()
    )


MINIMALITY_MUTANTS = {
    "one positive row suffices": ("not all(map(all, counts))", "not any(map(all, counts))"),
    "the sweep stops above level 0": ("range(depth - 1, -1, -1)", "range(depth - 1, 0, -1)"),
}


class TestMinimalityMutants:
    """A mutation gate for the cofinality sweep: each fixed mutant of
    ``certificates.minimality_verdict`` disagrees with the per-level oracle
    on the grid of ``TestMinimality.test_running_product_matches_per_level_chains``."""

    def test_the_unmutated_source_passes(self):
        verdict = mutant(minimality_verdict, "not all(", "not all(")
        assert verdict is not minimality_verdict
        assert minimality_disagreements(verdict) == 0

    @pytest.mark.parametrize("name", sorted(MINIMALITY_MUTANTS))
    def test_each_mutant_is_killed(self, name):
        assert minimality_disagreements(mutant(minimality_verdict, *MINIMALITY_MUTANTS[name]))


class TestPrincipalityOracle:
    def test_iff_on_seeded_family(self):
        for (H, c, G, alpha) in seeded_twisted_instances(40, seed=11):
            tw = twisted_product(H, c, G, alpha)
            scanned = is_principal(tw.finite_form)
            predicted, details = principality_criterion(H, c, G, alpha)
            assert scanned == predicted, details
            # on a finite H the cocycle cannot twist isotropy
            assert details["isotropy_cocycle_values"] == []

    def test_criterion_components(self):
        H = full_relation(range(2))
        c = zero_cocycle(H)
        G = cyclic_group_groupoid(2)
        ok, details = principality_criterion(H, c, G, identity_automorphism(G))
        assert not ok and details["g_principal"] is False
        Hb = group_bundle({0: 2})
        ok2, details2 = principality_criterion(
            Hb, zero_cocycle(Hb), full_relation(range(2)),
            identity_automorphism(full_relation(range(2))),
        )
        assert not ok2 and details2["zero_fiber_isotropy_trivial"] is False

    def test_collision_clause_names_the_first_collision(self):
        # a finite H carries no cocycle value on isotropy, so a stand-in
        # supplies the values 1 and 2: swapping two orbits first collides at 2
        class IsotropyValues:
            def __call__(self, g):
                return 0

            def isotropy_value_range(self):
                return {0, 1, 2}

        H = full_relation(range(1))
        G = disjoint_union(full_relation(range(2)), full_relation(range(2)))
        swap = GroupoidAutomorphism(G, {(t, g): (1 - t, g) for (t, g) in G.elements})
        ok, details = principality_criterion(H, IsotropyValues(), G, swap)
        assert not ok and details["isotropy_cocycle_values"] == [1, 2]
        assert details["collision"] == [repr(min(G.units, key=repr)), 2]
