"""The cached hashes and degrees of the bisection calculus, and the one-pass
equality of symbolic convolution elements, against their definitions."""

import hashlib
import itertools

import pytest

from groupoid_forge.convolution_algebra import SymbolicConvElement, convolve, involution
from groupoid_forge.gaussian import gauss
from groupoid_forge.graph_groupoid import BasicBisection, InfiniteBouquet, difference_basic
from groupoid_forge.graph_model import Edge, PathWord, path_from_edges, vertex_path
from groupoid_forge.groupoid_core import full_relation, relation_automorphism
from groupoid_forge.twisted_product import bouquet_twisted_product

from families import rng_for
from helpers import symbolic_difference

BQ = InfiniteBouquet()


def shift_model(m: int):
    G = full_relation(range(m))
    return bouquet_twisted_product(
        G, relation_automorphism(G, {p: (p + 1) % m for p in range(m)})
    )


def random_word(rng):
    return BQ.path([rng.randint(0, 2) for _ in range(rng.randint(0, 2))])


def random_element(rng, model, pieces: int):
    coeffs = {}
    while len(coeffs) < pieces:
        b = BasicBisection(random_word(rng), random_word(rng))
        coeffs[(b, rng.choice(model.g.elements))] = gauss(
            rng.randint(-2, 2) or 1, rng.randint(-1, 1)
        )
    return SymbolicConvElement(model, coeffs)


class TestWordIdentity:
    def words(self):
        loops = [Edge(i, "v", "v") for i in range(2)]
        across = Edge("a", "v", "w")
        out = [vertex_path("v"), vertex_path("w"), PathWord((), "w")]
        for n in range(3):
            out.extend(path_from_edges(es) for es in itertools.product(loops, repeat=n) if es)
        out.append(path_from_edges((across,)))
        out.append(PathWord((loops[0], across), anchor="v"))
        out.append(PathWord((loops[0], across), anchor="w"))
        return out

    def test_nonempty_words_drop_their_anchor(self):
        e = Edge(0, "v", "v")
        assert PathWord((e,), anchor="v").anchor is None
        assert PathWord((e,), anchor="v") == path_from_edges((e,))
        assert vertex_path("v") != vertex_path("w")

    def test_eq_and_hash_follow_the_fields(self):
        words = self.words()
        for p, q in itertools.product(words, repeat=2):
            fields_equal = (p.edges, p.anchor) == (q.edges, q.anchor)
            assert (p == q) == fields_equal
            if fields_equal:
                assert hash(p) == hash(q)
        for p in words:
            assert hash(p) == hash((p.edges, p.anchor)) == hash(p)
            assert len(p) == len(p.edges)

    def test_bisection_eq_hash_and_degree_follow_the_fields(self):
        words = [w for w in self.words() if w.source_vertex == "v"]
        e0, e1 = Edge(0, "v", "v"), Edge(1, "v", "v")
        bisections = [
            BasicBisection(r, s, frozenset(f))
            for r in words
            for s in words
            for f in ((), (e0,), (e0, e1))
        ]
        for b in bisections:
            assert b.degree == len(b.range_word.edges) - len(b.source_word.edges)
            assert hash(b) == hash((b.range_word, b.source_word, b.excluded))
        for a, b in itertools.product(bisections[::3], bisections):
            fields_equal = (a.range_word, a.source_word, a.excluded) == (
                b.range_word,
                b.source_word,
                b.excluded,
            )
            assert (a == b) == fields_equal
            if fields_equal:
                assert hash(a) == hash(b)


def refine(x: SymbolicConvElement, rng) -> SymbolicConvElement:
    """The same function with one piece cut into a cylinder and its rest."""
    (b, g), c = rng.choice(sorted(x.coeffs.items(), key=repr))
    e = next(BQ.edge(i) for i in range(4) if BQ.edge(i) not in b.excluded)
    tail = path_from_edges((e,))
    cylinder = BasicBisection(b.range_word.concat(tail), b.source_word.concat(tail))
    out = {k: v for k, v in x.coeffs.items() if k != (b, g)}
    out.update({(piece, g): c for piece in difference_basic(b, cylinder)})
    out[(cylinder, g)] = c
    return SymbolicConvElement(x.model, out)


def perturb(x: SymbolicConvElement, rng) -> SymbolicConvElement:
    key = rng.choice(sorted(x.coeffs, key=repr))
    out = dict(x.coeffs)
    out[key] = out[key] + gauss(0, 1)
    return SymbolicConvElement(x.model, out)


class TestSymbolicEquality:
    @pytest.mark.parametrize("m", [2, 3])
    def test_eq_agrees_with_sub_is_zero(self, m):
        model = shift_model(m)
        rng = rng_for(50 + m)
        verdicts = {True: 0, False: 0}
        for _ in range(25):
            x = random_element(rng, model, 6)
            y = convolve(x, random_element(rng, model, 3))
            shuffled = list(y.coeffs.items())
            rng.shuffle(shuffled)
            pairs = [
                (y, SymbolicConvElement(model, dict(shuffled))),
                (y, refine(y, rng)),
                (y, perturb(y, rng)),
                (x, y),
            ]
            for a, b in pairs:
                want = symbolic_difference(a, b).is_zero()
                assert (a == b) == (b == a) == want
                verdicts[want] += 1
        assert verdicts[True] >= 50 and verdicts[False] >= 50

    def test_other_models_and_types_are_unequal(self):
        x = random_element(rng_for(7), shift_model(2), 3)
        y = SymbolicConvElement(shift_model(2), x.coeffs)
        assert x != y and x != 0


# sha256 of the describe() text of seeded products, recorded before the
# integer-triple scalars and the cached word hashes
PRODUCTS_SHA256 = "4e546e108e1f552c1b6ce393c60f0d6cce756f1d15fbcd2276cce6a43b424166"


def seeded_products_text() -> str:
    lines = []
    for m in (2, 3):
        model = shift_model(m)
        rng = rng_for(90 + m)
        for _ in range(6):
            x = random_element(rng, model, 5)
            y = random_element(rng, model, 4)
            xy = convolve(x, y)
            lines.append(xy.describe())
            lines.append(involution(xy).describe())
            lines.append(convolve(involution(y), x).describe())
    return "\n".join(lines)


def test_products_describe_pinned():
    text = seeded_products_text()
    assert hashlib.sha256(text.encode()).hexdigest() == PRODUCTS_SHA256
