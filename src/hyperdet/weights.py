"""Monomial weights, weight-space bases, and weight-space dimensions.

The weight of a monomial is the vector of consecutive slice-sum differences
of its exponent array, mode by mode.  For shape (a, b, c) it has
(a-1) + (b-1) + (c-1) components; for (2, 2, 3) these are

    (w1, w2, w31, w32)

where w1 is the upper minus the lower horizontal slice sum, w2 the left
minus the right vertical slice sum, w31 the first minus the second frontal
slice sum and w32 the second minus the third.

Fixing a degree n and a weight fixes the entry sum of every slice in every
mode.  The weight space is spanned by the monomials whose exponent arrays
realize those slice sums; `enumerate_basis` lists them in canonical order
and `count_dim` counts them without enumeration, which stays exact and fast
up to degrees where the count reaches hundreds of millions.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .polynomials import Exponents, Shape, check_shape

Weight = tuple[int, ...]


def weight_length(shape: Shape) -> int:
    return sum(d - 1 for d in shape)


def zero_weight(shape: Shape) -> Weight:
    return (0,) * weight_length(shape)


def check_weight(shape: Shape, weight) -> Weight:
    weight = tuple(int(w) for w in weight)
    if len(weight) != weight_length(shape):
        raise ValueError(
            f"weight needs {weight_length(shape)} components for shape {shape}, got {weight}"
        )
    return weight


def _mode_component_slices(shape: Shape) -> list[tuple[int, int]]:
    """(offset, count) of each mode's block inside the weight vector."""
    out, off = [], 0
    for d in shape:
        out.append((off, d - 1))
        off += d - 1
    return out


def weight_of(shape, exps: Exponents) -> Weight:
    """Weight of a monomial: consecutive slice-sum differences per mode."""
    shape = check_shape(shape)
    sums = mode_slice_sums(shape, exps)
    comps: list[int] = []
    for mode_sums in sums:
        comps.extend(mode_sums[t] - mode_sums[t + 1] for t in range(len(mode_sums) - 1))
    return tuple(comps)


def mode_slice_sums(shape: Shape, exps: Exponents) -> tuple[tuple[int, ...], ...]:
    """Entry sums of every slice, grouped by mode."""
    a, b, c = shape
    rows = [0] * a
    cols = [0] * b
    fronts = [0] * c
    pos = 0
    for k in range(c):
        for i in range(a):
            for j in range(b):
                e = exps[pos]
                rows[i] += e
                cols[j] += e
                fronts[k] += e
                pos += 1
    return (tuple(rows), tuple(cols), tuple(fronts))


def slice_sums_for(shape, n: int, weight) -> tuple[tuple[int, ...], ...] | None:
    """Per-mode slice sums forced by (degree, weight), or None if infeasible.

    In each mode the differences between consecutive slice sums are given by
    the weight components and the sums total n, so the sums are determined;
    they must all come out as non-negative integers.
    """
    shape = check_shape(shape)
    weight = check_weight(shape, weight)
    if n < 0:
        raise ValueError("degree must be >= 0")
    out = []
    for (off, cnt), d in zip(_mode_component_slices(shape), shape):
        comps = weight[off : off + cnt]
        # s_t = s_d + sum of comps[t-1:], so n = d*s_d + sum of suffix sums
        suffix = [0] * d
        for t in range(d - 2, -1, -1):
            suffix[t] = suffix[t + 1] + comps[t]
        rem = n - sum(suffix)
        if rem % d != 0:
            return None
        last = rem // d
        sums = tuple(last + q for q in suffix)
        if any(s < 0 for s in sums):
            return None
        out.append(sums)
    return tuple(out)


def feasible_degree(shape, n: int, weight) -> bool:
    """Whether any monomial of this degree has this weight.

    At weight zero this is equivalent to every mode size dividing n (for
    shape (2, 2, 3): n a multiple of 6).
    """
    return slice_sums_for(shape, n, weight) is not None


@dataclass(frozen=True)
class WeightSpaceBasis:
    """Complete, canonically ordered monomial basis of one weight space."""

    shape: Shape
    degree: int
    weight: Weight
    monomials: tuple[Exponents, ...]

    def __len__(self) -> int:
        return len(self.monomials)

    def index_map(self) -> dict[Exponents, int]:
        return {m: i for i, m in enumerate(self.monomials)}


def enumerate_basis(shape, n: int, weight) -> WeightSpaceBasis:
    """List all degree-n monomials of the given weight, in canonical order.

    Backtracks over the flat positions with slice-budget pruning; because
    positions are tried in flat order with the exponent decreasing, the
    output comes out in descending lexicographic order directly.
    """
    shape = check_shape(shape)
    weight = check_weight(shape, weight)
    sums = slice_sums_for(shape, n, weight)
    if sums is None:
        return WeightSpaceBasis(shape, n, weight, ())

    a, b, c = shape
    rows, cols, fronts = (list(s) for s in sums)
    # Budget coordinates per flat position, plus which budgets the position
    # closes (it is the last flat position drawing on that slice).
    coords: list[tuple[int, int, int]] = []
    closes: list[list[tuple[list[int], int]]] = []
    for k in range(c):
        for i in range(a):
            for j in range(b):
                coords.append((i, j, k))
                closing: list[tuple[list[int], int]] = []
                if i == a - 1 and j == b - 1:
                    closing.append((fronts, k))
                if k == c - 1 and j == b - 1:
                    closing.append((rows, i))
                if k == c - 1 and i == a - 1:
                    closing.append((cols, j))
                closes.append(closing)

    n_cells = len(coords)
    exps = [0] * n_cells
    found: list[Exponents] = []

    def extend(pos: int) -> None:
        if pos == n_cells:
            found.append(tuple(exps))
            return
        i, j, k = coords[pos]
        cap = min(rows[i], cols[j], fronts[k])
        closing = closes[pos]
        if closing:
            # must zero out every budget this position closes
            forced = {budget[idx] for budget, idx in closing}
            if len(forced) > 1:
                return
            (value,) = forced
            if value > cap:
                return
            lo = hi = value
        else:
            lo, hi = 0, cap
        for e in range(hi, lo - 1, -1):
            rows[i] -= e
            cols[j] -= e
            fronts[k] -= e
            exps[pos] = e
            extend(pos + 1)
            rows[i] += e
            cols[j] += e
            fronts[k] += e
        exps[pos] = 0

    extend(0)
    return WeightSpaceBasis(shape, n, weight, tuple(found))


def count_dim(shape, n: int, weight) -> int:
    """Dimension of the weight space, computed without enumeration.

    Exact at any size (plain ints); agrees with len(enumerate_basis(...))
    everywhere, which the tests check on small degrees.
    """
    shape = check_shape(shape)
    weight = check_weight(shape, weight)
    return _count_dim_cached(shape, n, weight)


@lru_cache(maxsize=None)
def _count_dim_cached(shape: Shape, n: int, weight: Weight) -> int:
    sums = slice_sums_for(shape, n, weight)
    if sums is None:
        return 0
    rows, cols, fronts = sums
    if shape[0] == 2 and shape[1] == 2:
        return _count_2x2_slices(rows[0], cols[0], fronts)
    return _count_general(rows, cols, fronts)


def _block_count(x: int, y: int, t: int) -> int:
    """2x2 blocks of non-negative ints with total t, first row x, first col y.

    The top-left entry p ranges over max(0, x+y-t) <= p <= min(x, y); each p
    determines the block.
    """
    lo = x + y - t
    if lo < 0:
        lo = 0
    hi = x if x < y else y
    return hi - lo + 1 if hi >= lo else 0


def _count_2x2_slices(r1: int, c1: int, fronts: tuple[int, ...]) -> int:
    """Count 2x2xK exponent arrays with the given slice sums.

    Convolves over frontal slices.  State after each slice is the amount
    (alpha, beta) already drawn from the first-row and first-column budgets;
    each frontal slice with total f contributes _block_count(x, y, f) ways
    of drawing (x, y) more.  Runs in O(n^4) for K = 3.
    """
    # dist[alpha][beta] = number of ways so far; dense lists of plain ints
    dist = [[0] * (c1 + 1) for _ in range(r1 + 1)]
    dist[0][0] = 1
    placed = 0
    total = sum(fronts)
    for idx, f in enumerate(fronts):
        remaining = total - placed - f
        new = [[0] * (c1 + 1) for _ in range(r1 + 1)]
        for alpha in range(min(placed, r1) + 1):
            row = dist[alpha]
            a_hi = min(f, r1 - alpha)
            for beta in range(min(placed, c1) + 1):
                ways = row[beta]
                if not ways:
                    continue
                b_hi = min(f, c1 - beta)
                # keep enough headroom that later slices can still fill up
                a_lo = max(0, r1 - alpha - remaining)
                b_lo = max(0, c1 - beta - remaining)
                for x in range(a_lo, a_hi + 1):
                    na = new[alpha + x]
                    for y in range(b_lo, b_hi + 1):
                        cnt = _block_count(x, y, f)
                        if cnt:
                            na[beta + y] += ways * cnt
        dist = new
        placed += f
    return dist[r1][c1]


def _bounded_compositions(total: int, bounds: tuple[int, ...]):
    """All tuples v with sum(v) == total and 0 <= v[i] <= bounds[i]."""
    if not bounds:
        if total == 0:
            yield ()
        return
    head = bounds[0]
    rest = bounds[1:]
    rest_cap = sum(rest)
    lo = max(0, total - rest_cap)
    hi = min(head, total)
    for v in range(lo, hi + 1):
        for tail in _bounded_compositions(total - v, rest):
            yield (v,) + tail


@lru_cache(maxsize=None)
def _table_count(row_sums: tuple[int, ...], col_sums: tuple[int, ...]) -> int:
    """Number of non-negative integer matrices with the given margins."""
    if sum(row_sums) != sum(col_sums):
        return 0
    if len(row_sums) == 1:
        return 1
    total = 0
    for first in _bounded_compositions(row_sums[0], col_sums):
        rest = tuple(c - f for c, f in zip(col_sums, first))
        total += _table_count(row_sums[1:], rest)
    return total


def _count_general(rows, cols, fronts) -> int:
    """Margin-constrained count for shapes whose first two modes are not 2x2.

    Same slice-by-slice convolution, but the state keeps the full vectors of
    remaining row and column budgets.  Only used off the 2x2xK fast path.
    """
    states: dict[tuple[tuple[int, ...], tuple[int, ...]], int] = {
        (tuple(rows), tuple(cols)): 1
    }
    for f in fronts:
        new: dict[tuple[tuple[int, ...], tuple[int, ...]], int] = {}
        for (rrem, crem), ways in states.items():
            for rho in _bounded_compositions(f, rrem):
                for gamma in _bounded_compositions(f, crem):
                    blocks = _table_count(rho, gamma)
                    if not blocks:
                        continue
                    key = (
                        tuple(r - x for r, x in zip(rrem, rho)),
                        tuple(c - y for c, y in zip(crem, gamma)),
                    )
                    new[key] = new.get(key, 0) + ways * blocks
        states = new
    zero_r = (0,) * len(rows)
    zero_c = (0,) * len(cols)
    return states.get((zero_r, zero_c), 0)
