"""Exact convolution *-algebras over groupoid backends.

Finitely supported functions with Gaussian-rational coefficients, over
either a finite groupoid (support: elements) or the twisted product of the
bouquet groupoid with a finite G (support: pairs of a basic bisection and a
G-element).  Nothing is ever approximated.

A symbolic element computes on edge labels: it holds each G-element's
pieces in the normal form of ``canonical_pieces``, read off the function's
values at finite germs, keyed by (G position, range labels, source labels,
excluded labels).  Convolution runs ``label_product``, the rule behind
``bisection_product``, on those labels.  So equal functions have equal
forms, ordered by G position, then by words; the (bisection, G-element)
map ``coeffs`` is built from the form when it is first read.
"""

from __future__ import annotations

from dataclasses import InitVar, dataclass, field
from functools import cached_property
from os.path import commonprefix
from typing import Iterable, Mapping

from .gaussian import ONE, ZERO, GaussianRational
from .graph_groupoid import (
    BOUQUET_VERTEX,
    BasicBisection,
    InfiniteBouquet,
    Labels,
    bouquet_bisection,
    bouquet_labels,
    label_product,
    render_bisection,
)
from .graph_model import vertex_path
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


def canonical_pieces(pieces: Iterable[tuple[Labels, Coeff]]) -> dict[Labels, Coeff]:
    """The normal form of a coefficiented family of bouquet pieces, each
    given by its labels (range word, source word, excluded edges): the one
    disjoint family that the function it sums to determines.

    Each piece Z((a, b) \\ F) contains the finite germ (a, b), so a
    function is fixed by its values at finite germs.  These form a forest
    under (xe, ye) -> (x, y), rooted where the two words end in different
    edges; below a root (a0, b0), the germ (a0.t, b0.t) is read by its tail
    t.  The value jumps only at a piece's germ, by its coefficient c, and at
    each excluded child (ae, be), by -c.  The jumps and the germs between
    two of them are kept; each kept germ n of nonzero value is the piece
    Z(n \\ E(n)), E(n) the edges to n's kept children, so a tree with one
    piece holds just that piece.  Pieces come out ordered by their words.
    """
    trees: dict[tuple, list] = {}
    for piece in pieces:
        (r, s, _), _ = piece
        root = (r, s)
        if r and s and r[-1] == s[-1]:  # (a, b) lies below a root: strip the common tail
            i, j = len(r) - 1, len(s) - 1
            while i and j and r[i - 1] == s[j - 1]:
                i -= 1
                j -= 1
            root = (r[:i], s[:j])
        trees.setdefault(root, []).append(piece)
    out = []  # (labels, value): the words are distinct, so they sort the list
    for (r0, s0), family in trees.items():
        if len(family) == 1:
            if family[0][1]:
                out += family
            continue
        k, jumps = len(r0), {}
        for (r, _, f), c in family:
            t = r[k:]
            jumps[t] = jumps[t] + c if t in jumps else c
            for e in f:
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
                out.append(((r0 + t, s0 + t, frozenset(cut.get(t, ()))), c))
    out.sort()
    return dict(out)


def _normal_form(families: Mapping[int, Iterable[tuple[Labels, Coeff]]]) -> dict:
    """Each G position's nonzero normal form, the positions in order."""
    return {i: form for i in sorted(families) if (form := canonical_pieces(families[i]))}


def _element(model: BouquetTwistedProduct, form: dict) -> "SymbolicConvElement":
    """The element that holds ``form``, which is already a normal form."""
    x = object.__new__(SymbolicConvElement)
    object.__setattr__(x, "model", model)
    object.__setattr__(x, "form", form)
    return x


@dataclass(frozen=True)
class SymbolicConvElement:
    """Finitely supported function on the bouquet twisted product, built
    from coefficients on (bisection, G-element) pairs; ``bouquet_labels``
    reads each word once and refuses words off the bouquet.  ``form`` maps
    G position -> (range, source, excluded labels) -> coefficient: each
    G-element's pieces in normal form by their words, the positions in
    order.  ``coeffs`` is that map on (bisection, G-element) keys, in that
    order, built when it is first read."""

    model: BouquetTwistedProduct
    pieces: InitVar[Mapping[tuple[BasicBisection, object], Coeff]]
    form: dict[int, dict[Labels, Coeff]] = field(init=False, repr=False)

    def __post_init__(self, pieces):
        by_g: dict[object, list[tuple[Labels, Coeff]]] = {}
        for (b, g), c in pieces.items():
            c = c if type(c) is GaussianRational else GaussianRational.of(c)
            by_g.setdefault(g, []).append((bouquet_labels(b), c))
        G = self.model.g
        _check_support(G, by_g)
        object.__setattr__(self, "form", _normal_form({G._code[g]: f for g, f in by_g.items()}))

    @cached_property
    def coeffs(self) -> dict[tuple[BasicBisection, object], Coeff]:
        ids, unit = self.model.g._ids, _FULL_UNIT_LABELS
        return {
            (FULL_UNIT_BISECTION if b == unit else bouquet_bisection(b), ids[i]): c
            for i, family in self.form.items()
            for b, c in family.items()
        }

    def is_zero(self) -> bool:
        return not self.form

    def __eq__(self, other) -> bool:
        """Equal as functions: a function has one normal form, so this is
        equality of the forms."""
        if not isinstance(other, SymbolicConvElement):
            return NotImplemented
        return self.model is other.model and self.form == other.form

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
    of the full double loop, by ``label_product`` on the labels."""
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
    by_range: dict[int, list[tuple[object, Labels, Coeff]]] = {}
    for j, family in y.form.items():
        by_range.setdefault(G.range_of[j], []).extend((ids[j], b, c) for b, c in family.items())
    families: dict[int, dict[Labels, Coeff]] = {}
    for i, family in x.form.items():
        source, row = ids[G.source_of[i]], G.rows[i]
        for b1, c1 in family.items():
            degree = len(b1[0]) - len(b1[1])
            partners = by_range.get(at[power(degree).mapping[source]])
            if partners is None:
                continue
            back = power(-degree).mapping
            for g2, b2, c2 in partners:
                piece = label_product(b1, b2)
                if piece is not None:
                    out = families.setdefault(row[at[back[g2]]], {})
                    c, earlier = c1 * c2, out.get(piece)
                    out[piece] = c if earlier is None else earlier + c
    return _element(model, _normal_form({k: f.items() for k, f in families.items()}))


def involution(x):
    """xi*(g) = conj(xi(g^{-1})); bisections invert by swapping their words.

    Swapping the words of every germ tree of a normal form gives the normal
    form of the result, so its pieces are only re-keyed and sorted."""
    if isinstance(x, FiniteConvElement):
        G = x.groupoid
        return FiniteConvElement(
            G, {G.inv(g): c.conjugate() for g, c in x.coeffs.items()}
        )
    model = x.model
    power = model.alpha.power
    at, ids, inv = model.g._code, model.g._ids, model.g.inverse_of
    # (b, g) -> (b^{-1}, alpha^{deg b}(g^{-1})) is one-to-one, so no key repeats
    swapped: dict[int, list[tuple[Labels, Coeff]]] = {}
    for i, family in x.form.items():
        g_inv = ids[inv[i]]
        for (r, s, f), c in family.items():
            k = at[power(len(r) - len(s)).mapping[g_inv]]
            swapped.setdefault(k, []).append(((s, r, f), c.conjugate()))
    return _element(model, {k: dict(sorted(swapped[k])) for k in sorted(swapped)})


# Z(v, v) for the bouquet vertex v: the whole unit space, where the embedded
# G-algebra lives.
FULL_UNIT_BISECTION = BasicBisection(vertex_path(BOUQUET_VERTEX), vertex_path(BOUQUET_VERTEX))
_FULL_UNIT_LABELS = bouquet_labels(FULL_UNIT_BISECTION)


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
    support: x is in the image exactly when every piece is Z(v)."""
    ids = x.model.g._ids
    out = {}
    for i, family in x.form.items():
        for b, c in family.items():
            if b != _FULL_UNIT_LABELS:
                raise InternalConsistencyError(
                    "support escapes the embedded copy of the G-algebra: "
                    + render_bisection(bouquet_bisection(b))
                )
            out[ids[i]] = c
    return FiniteConvElement(x.model.g, out)


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
