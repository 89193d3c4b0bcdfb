"""Exact convolution *-algebras over groupoid backends.

Finitely supported functions with Gaussian-rational coefficients, over
either a finite groupoid (support: elements) or the twisted product of the
bouquet groupoid with a finite G (support: pairs of a basic bisection and a
G-element).  Convolution on the symbolic backend routes through the
bisection product with coefficient bookkeeping; nothing is ever
approximated.

A symbolic element keeps each G-element's pieces in the normal form of
``canonical_pieces``, read off the function's values at finite germs.  So
equal functions have equal coefficient maps, keyed in one order: G-elements
by position, then pieces by their words.
"""

from __future__ import annotations

from dataclasses import dataclass
from os.path import commonprefix
from typing import Iterable, Mapping

from .gaussian import ONE, ZERO, GaussianRational
from .graph_groupoid import (
    BOUQUET_VERTEX,
    BasicBisection,
    InfiniteBouquet,
    bisection_product,
    render_bisection,
)
from .graph_model import PathWord, vertex_path
from .groupoid_core import FiniteGroupoid, GroupoidAutomorphism
from .matrices import mat_mul, transpose
from .twisted_product import BouquetTwistedProduct
from .validation import StructuralError


class InternalConsistencyError(RuntimeError):
    """Raised when algebra output escapes a range it provably cannot leave."""


Coeff = GaussianRational


# ---------------------------------------------------------------------------
# Finite backend
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FiniteConvElement:
    groupoid: FiniteGroupoid
    coeffs: Mapping[object, Coeff]

    def __post_init__(self):
        coeffs = {g: GaussianRational.of(c) for g, c in self.coeffs.items()}
        object.__setattr__(self, "coeffs", {g: c for g, c in coeffs.items() if c})
        _check_support(self.groupoid, self.coeffs)

    def __call__(self, g) -> Coeff:
        return self.coeffs.get(g, ZERO)

    def __eq__(self, other) -> bool:
        if not isinstance(other, FiniteConvElement):
            return NotImplemented
        return self.groupoid is other.groupoid and dict(self.coeffs) == dict(other.coeffs)


def _check_support(G: FiniteGroupoid, support: Iterable) -> None:
    """Refuse any id that is not an element of G (stray ids: codes >= |G|)."""
    code, n = G._code, len(G)
    for g in support:
        if code.get(g, n) >= n:
            raise StructuralError(f"support element {g!r} outside the groupoid")


def delta(G: FiniteGroupoid, g, c=1) -> FiniteConvElement:
    return FiniteConvElement(G, {g: c})


def unit_indicator(G: FiniteGroupoid) -> FiniteConvElement:
    return FiniteConvElement(G, {u: ONE for u in G.units})


def compose_with_automorphism_inverse(
    f: FiniteConvElement, alpha: GroupoidAutomorphism, power: int = 1
) -> FiniteConvElement:
    """The function g -> f(alpha^{-power}(g))."""
    fwd = alpha.power(power)
    return FiniteConvElement(f.groupoid, {fwd(g): c for g, c in f.coeffs.items()})


def _same_backend(x, y) -> None:
    if type(x) is not type(y):
        raise TypeError("mixed convolution backends")
    if isinstance(x, FiniteConvElement) and x.groupoid is not y.groupoid:
        raise TypeError("elements live over different groupoids")
    if isinstance(x, SymbolicConvElement) and x.model is not y.model:
        raise TypeError("elements live over different twisted products")


# ---------------------------------------------------------------------------
# Symbolic backend (bouquet twisted with a finite G)
# ---------------------------------------------------------------------------


def canonical_pieces(
    pieces: Iterable[tuple[BasicBisection, Coeff]]
) -> dict[BasicBisection, Coeff]:
    """The normal form of a coefficiented family of bisections: the one
    disjoint family that the function it sums to determines.

    Each piece Z((a, b) \\ F) contains the finite germ (a, b), so a
    function is fixed by its values at finite germs.  These form a forest
    under (xe, ye) -> (x, y), rooted where the two words end in different
    edges; below a root (a0, b0), the germ (a0.t, b0.t) is read by its tail
    t.  The value jumps only at a piece's germ, by its coefficient c, and at
    each excluded child (ae, be), by -c.  The jumps and the germs between
    two of them are kept; each kept germ n of nonzero value is the piece
    Z(n \\ E(n)), E(n) the edges to n's kept children, so a tree with one
    piece holds just that piece.  Pieces come out ordered by their words,
    and a piece that comes out unchanged is the input's own object.
    Trees are keyed by edges, so a tree whose top words are empty must sit
    at the bouquet vertex: empty words at two vertices would share its key.
    """
    trees: dict[tuple, list] = {}
    for b, c in pieces:
        r, s = b.range_word.edges, b.source_word.edges
        i, j = len(r), len(s)
        while i and j and r[i - 1] == s[j - 1]:  # (a, b) lies below a root: strip the common tail
            i -= 1
            j -= 1
        if not (i or j) and b.range_word.range_vertex != BOUQUET_VERTEX:
            raise StructuralError(f"{render_bisection(b)} does not start at the bouquet vertex")
        trees.setdefault((r[:i], s[:j]), []).append((r, s, b, GaussianRational.of(c)))
    out = []  # (words, piece, value): the words are distinct, so they sort the list
    for (r0, s0), family in trees.items():
        if len(family) == 1:
            r, s, b, c = family[0]
            if c:
                out.append(((r, s), b, c))
            continue
        jumps, given = {}, {}
        for r, _, b, c in family:
            t = r[len(r0):]
            given[t] = b
            jumps[t] = jumps[t] + c if t in jumps else c
            for e in b.excluded:
                u = t + (e,)
                jumps[u] = jumps[u] - c if u in jumps else -c
        tails = [t for t, c in jumps.items() if c]
        d = len(commonprefix(tails))  # the depth of the highest kept node
        value, cut = {}, {}
        for t in sorted({t[:i] for t in tails for i in range(d, len(t) + 1)}, key=len):
            c = jumps.get(t, ZERO)
            if len(t) > d:
                c = c + value[t[:-1]]
                cut.setdefault(t[:-1], set()).add(t[-1])
            value[t] = c
        for t, c in value.items():
            if c:
                excluded = frozenset(cut.get(t, ()))
                b = given.get(t)
                if b is None:
                    b = BasicBisection(PathWord(r0 + t), PathWord(s0 + t), excluded)
                elif b.excluded != excluded:
                    b = BasicBisection(b.range_word, b.source_word, excluded)
                out.append(((r0 + t, s0 + t), b, c))
    out.sort()
    return {b: c for _, b, c in out}


@dataclass(frozen=True)
class SymbolicConvElement:
    """Finitely supported function on the bouquet twisted product, stored as
    coefficients on (bisection, G-element) pairs: each G-element's pieces in
    normal form, the G-elements in position order."""

    model: BouquetTwistedProduct
    coeffs: Mapping[tuple[BasicBisection, object], Coeff]

    def __post_init__(self):
        by_g: dict[object, list[tuple[BasicBisection, Coeff]]] = {}
        for (b, g), c in self.coeffs.items():
            by_g.setdefault(g, []).append((b, c))
        G = self.model.g
        _check_support(G, by_g)
        flat = {}
        for g in sorted(by_g, key=G._code.__getitem__):
            for b, c in canonical_pieces(by_g[g]).items():
                flat[(b, g)] = c
        object.__setattr__(self, "coeffs", flat)

    def is_zero(self) -> bool:
        return not self.coeffs

    def __eq__(self, other) -> bool:
        """Equal as functions: a function has one normal form, so this is
        equality of the coefficient maps."""
        if not isinstance(other, SymbolicConvElement):
            return NotImplemented
        return self.model is other.model and self.coeffs == other.coeffs

    def describe(self) -> str:
        if self.is_zero():
            return "0"
        parts = []
        for (b, g), c in sorted(
            self.coeffs.items(), key=lambda kv: (repr(kv[0][1]), render_bisection(kv[0][0]))
        ):
            parts.append(f"({c})*1[{render_bisection(b)} x {g!r}]")
        return " + ".join(parts)


# ---------------------------------------------------------------------------
# The operations
# ---------------------------------------------------------------------------


def convolve(x, y):
    """Exact convolution (xi * eta)(g) = sum over hk = g of xi(h) eta(k).

    On the symbolic backend a pair of pieces (b1, g1), (b2, g2) has a
    product only when alpha^{deg b1}(s(g1)) = r(g2), so each piece of x
    walks only the pieces of y with that range: the products made are those
    of the full double loop."""
    _same_backend(x, y)
    if isinstance(x, FiniteConvElement):
        G = x.groupoid
        out: dict[object, Coeff] = {}
        for g, cg in x.coeffs.items():
            for h, ch in y.coeffs.items():
                if G.composable(g, h):
                    k = G.mul(g, h)
                    out[k] = out.get(k, ZERO) + cg * ch
        return FiniteConvElement(G, out)
    model = x.model
    G, power = model.g, model.alpha.power
    at, ids = G._code, G._ids
    by_range: dict[int, list[tuple[BasicBisection, object, Coeff]]] = {}
    for (b2, g2), c2 in y.coeffs.items():
        by_range.setdefault(G.range_of[at[g2]], []).append((b2, g2, c2))
    pieces: dict[tuple[BasicBisection, object], Coeff] = {}
    for (b1, g1), c1 in x.coeffs.items():
        i = at[g1]
        partners = by_range.get(at[power(b1.degree).mapping[ids[G.source_of[i]]]])
        if partners is None:
            continue
        back, row = power(-b1.degree).mapping, G.rows[i]
        for b2, g2, c2 in partners:
            piece = bisection_product(b1, b2)
            if piece is not None:
                key = (piece, ids[row[at[back[g2]]]])
                c, earlier = c1 * c2, pieces.get(key)
                pieces[key] = c if earlier is None else earlier + c
    return SymbolicConvElement(model, pieces)


def involution(x):
    """xi*(g) = conj(xi(g^{-1})); bisections invert by swapping their words."""
    if isinstance(x, FiniteConvElement):
        G = x.groupoid
        return FiniteConvElement(
            G, {G.inv(g): c.conjugate() for g, c in x.coeffs.items()}
        )
    model = x.model
    power = model.alpha.power
    at, ids, inv = model.g._code, model.g._ids, model.g.inverse_of
    # (b, g) -> (b^{-1}, alpha^{deg b}(g^{-1})) is one-to-one, so no key repeats
    return SymbolicConvElement(
        model,
        {
            (b.inverse(), power(b.degree).mapping[ids[inv[at[g]]]]): c.conjugate()
            for (b, g), c in x.coeffs.items()
        },
    )


# Z(v, v) for the bouquet vertex v: the whole unit space, where the embedded
# G-algebra lives.
FULL_UNIT_BISECTION = BasicBisection(vertex_path(BOUQUET_VERTEX), vertex_path(BOUQUET_VERTEX))


def iota_embed(f: FiniteConvElement, model: BouquetTwistedProduct) -> SymbolicConvElement:
    """1_{unit space} x f: the embedding of the G-algebra."""
    if f.groupoid is not model.g:
        raise TypeError("f must live over the model's G backend")
    return SymbolicConvElement(
        model, {(FULL_UNIT_BISECTION, g): c for g, c in f.coeffs.items()}
    )


def iota_inverse(x: SymbolicConvElement) -> FiniteConvElement:
    """Invert the embedding; support escaping its image is a bug signal.

    The embedding of f is, in normal form, Z(v) under each G-element of f's
    support: x is in the image exactly when every key is FULL_UNIT_BISECTION."""
    for b, _ in x.coeffs:
        if b != FULL_UNIT_BISECTION:
            raise InternalConsistencyError(
                f"support escapes the embedded copy of the G-algebra: {render_bisection(b)}"
            )
    return FiniteConvElement(x.model.g, {g: c for (_, g), c in x.coeffs.items()})


def generator_times(model: BouquetTwistedProduct, i: int, f: FiniteConvElement) -> SymbolicConvElement:
    """x_i x f where x_i is the indicator of Z(e_i, v)."""
    if f.groupoid is not model.g:
        raise TypeError("f must live over the model's G backend")
    b = BasicBisection(InfiniteBouquet().path([i]), vertex_path(BOUQUET_VERTEX))
    return SymbolicConvElement(model, {(b, g): c for g, c in f.coeffs.items()})


def right_action(x: SymbolicConvElement, fprime: FiniteConvElement) -> SymbolicConvElement:
    """x . f' = x * iota(f')."""
    return convolve(x, iota_embed(fprime, x.model))


def left_action(fprime: FiniteConvElement, x: SymbolicConvElement) -> SymbolicConvElement:
    """f' . x = iota(f') * x."""
    return convolve(iota_embed(fprime, x.model), x)


def module_inner_product(x: SymbolicConvElement, y: SymbolicConvElement) -> FiniteConvElement:
    """<x, y> = iota^{-1}(x* * y); orthogonal across distinct generators."""
    _same_backend(x, y)
    return iota_inverse(convolve(involution(x), y))


# ---------------------------------------------------------------------------
# Regular representation (finite backend only)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RegRepMatrix:
    basis: tuple
    entries: tuple[tuple[Coeff, ...], ...]

    def matmul(self, other: "RegRepMatrix") -> "RegRepMatrix":
        if self.basis != other.basis:
            raise ValueError("matrices over different bases")
        return RegRepMatrix(self.basis, mat_mul(self.entries, other.entries))

    def dagger(self) -> "RegRepMatrix":
        return RegRepMatrix(
            self.basis, tuple(tuple(x.conjugate() for x in row) for row in transpose(self.entries))
        )


def regular_representation(G: FiniteGroupoid, u, xi: FiniteConvElement) -> RegRepMatrix:
    """The matrix of left convolution on the source fiber at ``u``."""
    if not isinstance(xi, FiniteConvElement):
        raise TypeError("the regular representation needs the finite backend")
    if xi.groupoid is not G:
        raise TypeError("element lives over a different groupoid")
    if u not in G.units:
        raise ValueError(f"{u!r} is not a unit")
    basis = G.elements_with_source(u)
    code = G._code
    index = {code[g]: k for k, g in enumerate(basis)}  # position -> basis index
    terms = [(G.rows[code[h]], c) for h, c in xi.coeffs.items()]
    rows = [[ZERO] * len(basis) for _ in basis]
    for j, g in enumerate(index):
        for row, c in terms:
            hg = row.get(g)
            if hg is not None:
                rows[index[hg]][j] += c
    return RegRepMatrix(basis, tuple(tuple(r) for r in rows))


# ---------------------------------------------------------------------------
# The closed-form identities of the module structure
# ---------------------------------------------------------------------------


def comp_identity_sides(model, i, j, f, fprime):
    """(x_i x f)* * (x_j x f') against delta_ij iota((f o a^{-1})* * (f' o a^{-1}))."""
    lhs = convolve(involution(generator_times(model, i, f)), generator_times(model, j, fprime))
    fa = compose_with_automorphism_inverse(f, model.alpha, 1)
    fpa = compose_with_automorphism_inverse(fprime, model.alpha, 1)
    inner = convolve(involution(fa), fpa)
    if i == j:
        rhs = iota_embed(inner, model)
    else:
        rhs = SymbolicConvElement(model, {})
    return lhs, rhs


def comp2_identity_sides(model, i, f, fprime):
    """iota(f') * (x_i x f) against x_i x (f' * f)."""
    lhs = left_action(fprime, generator_times(model, i, f))
    rhs = generator_times(model, i, convolve(fprime, f))
    return lhs, rhs


def right_action_identity_sides(model, i, f, fprime):
    """(x_i x f) . f' against x_i x (f * (f' o a))."""
    lhs = right_action(generator_times(model, i, f), fprime)
    fpa = compose_with_automorphism_inverse(fprime, model.alpha, -1)
    rhs = generator_times(model, i, convolve(f, fpa))
    return lhs, rhs
