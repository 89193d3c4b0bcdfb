"""Small exact linear algebra over the integers and rationals.

Matrices are immutable tuples of tuples of Python ints (arbitrary precision),
so telescoped products never overflow.  The products and the transpose take
any exact entries that add and multiply with ints, such as the Gaussian
rationals of the regular representation.  ``mat_mul`` is the one matrix
product: it skips the zero entries of its left factor, and each entry of
the result is typed like the dense triple sum.  ``growth_levels`` resumes one
chain walk per stored position of a repetition rule, since levels at one
position see the same matrices from there on, and a larger bound can only
move the first level that meets it later.  Rank computations run over the
rationals with ``fractions.Fraction``; nothing here ever touches a float.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, Iterable, Sequence

from .validation import StructuralError

IntMatrix = tuple[tuple[int, ...], ...]
IntVector = tuple[int, ...]


def as_matrix(rows: Iterable[Sequence[int]]) -> IntMatrix:
    mat = tuple(map(tuple, rows))
    if mat and any(len(row) != len(mat[0]) for row in mat):
        raise ValueError("ragged matrix")
    return mat


def shape(a: IntMatrix) -> tuple[int, int]:
    return (len(a), len(a[0]) if a else 0)


def identity(n: int) -> IntMatrix:
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def mat_mul(a: IntMatrix, b: IntMatrix) -> IntMatrix:
    """The product ``a @ b``, entry (i, j) the sum over k of
    ``a[i][k] * b[k][j]``.  Each row of ``a`` lists its nonzero entries once
    and only those are multiplied, so a sparse left factor costs its nonzeros.
    Every sum starts at the zero of a product of the factors' entries, so
    when each factor's entries share one type, each entry has the value and
    type of the dense triple sum: an all-zero Gaussian entry is a Gaussian
    zero, not the int 0."""
    ra, ca = shape(a)
    rb, cb = shape(b)
    if ca != rb:
        raise ValueError(f"shape mismatch: {shape(a)} @ {shape(b)}")
    cols = list(zip(*b))
    zero = 0 * a[0][0] * cols[0][0] if ra and cols else 0
    out = []
    for row in a:
        nonzero = [(k, x) for k, x in enumerate(row) if x]
        out.append(tuple([sum([x * col[k] for k, x in nonzero], zero) for col in cols]))
    return tuple(out)


def mat_vec(a: IntMatrix, v: IntVector) -> IntVector:
    ra, ca = shape(a)
    if ca != len(v):
        raise ValueError(f"shape mismatch: {shape(a)} @ vector of length {len(v)}")
    return tuple(sum(a[i][k] * v[k] for k in range(ca)) for i in range(ra))


def chain_product(mats: Sequence[IntMatrix]) -> IntMatrix:
    """Product ``mats[-1] @ ... @ mats[0]`` (apply first matrix first)."""
    if not mats:
        raise ValueError("empty chain")
    acc = mats[0]
    for m in mats[1:]:
        acc = mat_mul(m, acc)
    return acc


# The level every growth search stops at; read at each call, so patching it
# moves the search and the AF report's echo together.
LEVEL_CAP = 4096


def capped_level(level: int) -> int:
    """``level``, refused past ``LEVEL_CAP`` before a walk to it is made."""
    if level > LEVEL_CAP:
        raise StructuralError(f"level {level} is past the level cap LEVEL_CAP = {LEVEL_CAP}")
    return level


def growth_levels(
    mats: Sequence[IntMatrix],
    repeat_from: int | None,
    count: int,
    bound: Callable[[int, list[int], list[IntMatrix]], tuple[int, str]],
) -> tuple[list[int], list[IntMatrix], str | None]:
    """Levels 0 = t_0 < ... < t_{count-1} over the matrices ``mats`` and
    their repetition rule (level k's matrix at ``repeat_index(k, ...)``),
    each t_{n+1} the first level m <= LEVEL_CAP whose chain
    ``matrix(m-1) @ ... @ matrix(t_n)`` has every entry above the bound that
    ``bound(n, levels, chains)`` gives with its relation text, such as
    ``"> 5"``.  Returns those levels and chains, and when the search stops
    short why: the level cap, or the data horizon, the first level with no
    matrix.

    One walk (bound, length, chain) per stored position is kept and resumed,
    and it finds what a fresh walk from each t_n finds:

    * levels with one ``repeat_index`` see the same matrices from there on,
      so the chain of length g from level t depends only on
      (``repeat_index(t)``, g);
    * at one position, the first length whose least entry exceeds the bound
      can only move later as the bound grows, so a bound at least the walk's
      last resumes at the walk's length, and a smaller one restarts at 1;
    * the cap is checked before any test: a resumed walk whose start plus
      length passes ``LEVEL_CAP`` is the cap failure;
    * without a repetition rule each level is its own position, so nothing
      resumes.
    """
    walks: dict[int, tuple[int, int, IntMatrix | None]] = {}
    levels: list[int] = [0]
    chains: list[IntMatrix] = []
    for n in range(count - 1):
        start = levels[-1]
        low, relation = bound(n, levels, chains)
        try:
            key = repeat_index(start, len(mats), len(mats), repeat_from)
            last, g, chain = walks.get(key, (low, 0, None))
            if low < last:
                g, chain = 0, None
            while chain is None or start + g > LEVEL_CAP or min_entry(chain) <= low:
                if start + g >= LEVEL_CAP:
                    failure = f"no level within cap {LEVEL_CAP} has entries {relation}"
                    return levels, chains, f"{failure} from level {start}"
                step = mats[repeat_index(start + g, len(mats), len(mats), repeat_from)]
                chain = step if chain is None else mat_mul(step, chain)
                g += 1
        except StructuralError:
            return levels, chains, (
                f"data horizon {len(mats)} reached (no repetition rule) before a "
                f"level with entries {relation} from level {start}"
            )
        walks[key] = (low, g, chain)
        levels.append(start + g)
        chains.append(chain)
    return levels, chains, None


def repeat_index(n: int, stored: int, horizon: int, repeat_from: int | None) -> int:
    """Position of level ``n`` in a per-level sequence with ``stored`` entries.

    Matrix sequences store levels 0..horizon-1, size sequences 0..horizon.
    Past the stored entries the eventually periodic rule repeats the matrices
    from ``repeat_from`` on, with period ``horizon - repeat_from``; the seam
    check (``check_repeat_rule``) makes the sizes repeat along with them.
    """
    if n < 0:
        raise StructuralError(f"negative level {n}")
    if n < stored:
        return n
    if repeat_from is None:
        raise StructuralError(f"level {n} beyond horizon, no repetition rule")
    return repeat_from + (n - repeat_from) % (horizon - repeat_from)


def check_repeat_rule(levels: Sequence, repeat_from: int | None) -> None:
    """Reject a repetition rule that starts outside the stored matrices or
    whose seam joins levels of different shape; ``levels`` holds one entry
    per level 0..horizon."""
    if repeat_from is None:
        return
    if not 0 <= repeat_from < len(levels) - 1:
        raise StructuralError("repeat_from outside stored matrices")
    if levels[-1] != levels[repeat_from]:
        raise StructuralError(
            f"repetition rule needs level {len(levels) - 1} to match level "
            f"{repeat_from} at the seam"
        )


def transpose(a: IntMatrix) -> IntMatrix:
    ra, ca = shape(a)
    return tuple(tuple(a[i][j] for i in range(ra)) for j in range(ca))


def min_entry(a: IntMatrix) -> int:
    return min(x for row in a for x in row)


def is_proper(a: IntMatrix) -> bool:
    """Every row and every column has a nonzero entry."""
    ra, ca = shape(a)
    rows_ok = all(any(a[i][j] for j in range(ca)) for i in range(ra))
    cols_ok = all(any(a[i][j] for i in range(ra)) for j in range(ca))
    return rows_ok and cols_ok


def is_nonnegative(a: IntMatrix) -> bool:
    return all(x >= 0 for row in a for x in row)


def diagonal(entries: Sequence[int]) -> IntMatrix:
    n = len(entries)
    return tuple(tuple(entries[i] if i == j else 0 for j in range(n)) for i in range(n))


def column_rank(a: IntMatrix) -> int:
    """Rank of ``a`` over the rationals (Gaussian elimination with Fractions)."""
    rows = [[Fraction(x) for x in row] for row in a]
    nrows = len(rows)
    ncols = len(rows[0]) if rows else 0
    rank = 0
    pivot_row = 0
    for col in range(ncols):
        pivot = next((r for r in range(pivot_row, nrows) if rows[r][col] != 0), None)
        if pivot is None:
            continue
        rows[pivot_row], rows[pivot] = rows[pivot], rows[pivot_row]
        inv = rows[pivot_row][col]
        rows[pivot_row] = [x / inv for x in rows[pivot_row]]
        for r in range(nrows):
            if r != pivot_row and rows[r][col] != 0:
                factor = rows[r][col]
                rows[r] = [x - factor * y for x, y in zip(rows[r], rows[pivot_row])]
        pivot_row += 1
        rank += 1
    return rank


def is_injective(a: IntMatrix) -> bool:
    """Full column rank, i.e. injective as a map on integer column vectors."""
    return column_rank(a) == shape(a)[1]
