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
and `count_dim` counts them without enumeration.  The count depends only on
the slice sums, whatever the order of the modes.  2x2xK with K >= 2, in
any mode order, takes a slice DP that stays exact and fast up to degrees
where the count reaches hundreds of millions; every other shape takes one
recursion over the slices of the last mode, each slice counted the same
way one mode down.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import product
from operator import itemgetter

from .polynomials import Exponents, Shape, cell_count, check_int, check_shape, fibers

Weight = tuple[int, ...]


def weight_length(shape: Shape) -> int:
    return sum(d - 1 for d in shape)


def zero_weight(shape: Shape) -> Weight:
    return (0,) * weight_length(shape)


def check_weight(shape: Shape, weight) -> Weight:
    weight = tuple(check_int(w) for w in weight)
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
    return tuple(
        tuple(sum(exps[pos] for pos in sl) for sl in zip(*fibers(shape, mode)))
        for mode in range(1, len(shape) + 1)
    )


def slice_sums_for(shape, n: int, weight) -> tuple[tuple[int, ...], ...] | None:
    """Per-mode slice sums forced by (degree, weight), or None if infeasible.

    In each mode the differences between consecutive slice sums are given by
    the weight components and the sums total n, so the sums are determined;
    they must all come out as non-negative integers.
    """
    shape = check_shape(shape)
    weight = check_weight(shape, weight)
    n = check_int(n)
    if n < 0:
        raise ValueError(f"degree must be >= 0, got {n}")
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


@dataclass(frozen=True)
class WeightSpaceBasis:
    """Complete, canonically ordered monomial basis of one weight space."""

    shape: Shape
    degree: int
    weight: Weight
    monomials: tuple[Exponents, ...]

    def __len__(self) -> int:
        return len(self.monomials)


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

    # One flat budget per slice, mode by mode.  Each flat position draws on
    # one slot per mode and closes the slots it is the last position of.
    budget = [s for mode_sums in sums for s in mode_sums]
    n_cells = cell_count(shape)
    slots: list[list[int]] = [[] for _ in range(n_cells)]
    closes: list[list[int]] = [[] for _ in range(n_cells)]
    every_slice = (sl for mode in range(1, len(shape) + 1) for sl in zip(*fibers(shape, mode)))
    for slot, sl in enumerate(every_slice):
        for pos in sl:
            slots[pos].append(slot)
        closes[max(sl)].append(slot)
    draws = [itemgetter(*s) for s in slots]  # one slot per mode, so each returns a tuple
    get = budget.__getitem__
    exps = [0] * n_cells
    found: list[Exponents] = []

    def extend(pos: int) -> None:
        if pos == n_cells:
            found.append(tuple(exps))
            return
        cap = min(draws[pos](budget))
        closing = closes[pos]
        if closing and max(map(get, closing)) != cap:
            return  # every budget this position closes must reach zero here
        lo = cap if closing else 0
        # exponents cap down to lo, one unit back to each slot per step
        s = slots[pos]
        for x in s:
            budget[x] -= cap
        e = cap
        while True:
            exps[pos] = e
            extend(pos + 1)
            if e == lo:
                break
            e -= 1
            for x in s:
                budget[x] += 1
        for x in s:
            budget[x] += lo

    extend(0)
    return WeightSpaceBasis(shape, n, weight, tuple(found))


def count_dim(shape, n: int, weight) -> int:
    """Dimension of the weight space, computed without enumeration.

    Exact at any size (plain ints); agrees with len(enumerate_basis(...))
    everywhere, which the tests check on every small shape.  The count
    depends only on the slice sums, and not on the order of the modes, so
    the modes are put in order of size before the cached lookup; 2x2xK and
    its permutations then take the slice DP.
    """
    sums = slice_sums_for(shape, n, weight)  # validates all three arguments
    if sums is None:
        return 0
    return _count_dim_cached(tuple(sorted(sums, key=len)))


@lru_cache(maxsize=4096)
def _count_dim_cached(margins: tuple[tuple[int, ...], ...]) -> int:
    # the slice DP counts three modes; more modes take the recursion
    if len(margins) == 3 and len(margins[0]) == len(margins[1]) == 2:
        return _count_2x2_slices(margins[0][0], margins[1][0], margins[2])
    return _margin_count(margins)


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

    r1 is the first row sum, c1 the first column sum and `fronts` the
    frontal slice sums.  Convolves over frontal slices.  State after each
    slice is the amount (alpha, beta) already drawn from the first-row and
    first-column budgets; each frontal slice with total f contributes
    _block_count(x, y, f) ways of drawing (x, y) more.  Runs in O(n^4) for
    K = 3, far faster than `_margin_count` on these shapes.
    """
    # dist[alpha][beta] = number of ways so far; dense lists of plain ints
    dist = [[0] * (c1 + 1) for _ in range(r1 + 1)]
    dist[0][0] = 1
    placed = 0
    total = sum(fronts)
    for f in fronts:
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


def _margin_count(margins: tuple[tuple[int, ...], ...]) -> int:
    """Number of non-negative integer arrays with the given slice sums.

    `margins` holds one tuple of slice sums per mode, all with the same
    total.  The first slice of the last mode is an array with one mode
    fewer; each choice of its slice sums, bounded by what is left in every
    mode, contributes that slice's count, one level down, times the count
    of the rest.  The memo lives for one call.
    """

    @lru_cache(maxsize=None)
    def count(margins):
        *lower, last = margins
        if not lower:
            return 1
        if len(last) == 1:
            return count(tuple(lower))
        total = 0
        for first in product(*(_bounded_compositions(last[0], m) for m in lower)):
            rest = tuple(tuple(s - x for s, x in zip(m, v)) for m, v in zip(lower, first))
            total += count(first) * count(rest + (last[1:],))
        return total

    return count(margins)
