"""The benchmark's workloads: inputs drawn from the seed, timed operations
and the oracle that checks each operation's output.

A job is built and run inside one fresh interpreter per pass (see
`child.py`), so every pass starts with cold caches, as a user's process
does.  Building a job imports `hyperdet`; the operations call its public
functions through their module attributes, which is where the traced run
puts its wrappers.  Oracles run after the last timed operation, with
tracing paused, so they neither count towards an operation's time nor warm
a cache for a later operation.
"""

from __future__ import annotations

import io
import json
import sys
from fractions import Fraction
from functools import partial
from random import Random

import oracles
from spans import Tracer, clock

# derive: (shape, degree) cases.  2x2x3/12 is left out: the dense kernel
# does not finish on its 4772x1323 matrix.
CASES = (
    ((2, 2, 3), 6),
    ((2, 2, 2), 4),
    ((2, 2, 2), 8),
    ((2, 2, 2), 12),
    ((2, 2, 4), 4),
    ((2, 3, 3), 6),
)


def case_name(shape, degree: int) -> str:
    return "x".join(map(str, shape)) + f"-{degree}"


CASE_NAMES = tuple(case_name(s, n) for s, n in CASES)

# Counts every derive pass must reproduce exactly: matrix size, nonzeros,
# rank, nullity, terms of each kernel polynomial and the largest kernel
# coefficient's bit length.
PINS = {
    "2x2x3-6": dict(rows=246, cols=80, nnz=680, rank=79, nullity=1, terms=[66], max_bits=2),
    "2x2x2-4": dict(rows=24, cols=12, nnz=60, rank=11, nullity=1, terms=[12], max_bits=3),
    "2x2x2-8": dict(rows=144, cols=57, nnz=420, rank=56, nullity=1, terms=[57], max_bits=6),
    "2x2x2-12": dict(rows=480, cols=176, nnz=1512, rank=175, nullity=1, terms=[176], max_bits=9),
    "2x2x4-4": dict(rows=108, cols=36, nnz=252, rank=35, nullity=1, terms=[24], max_bits=1),
    "2x3x3-6": dict(rows=1041, cols=288, nnz=2904, rank=288, nullity=0, terms=[], max_bits=0),
}

# The ten checks of the verification battery, in battery order.
VERIFY_CHECKS = (
    "basis-monomials",
    "codomain-dimensions",
    "matrix-kernel",
    "coefficient-table",
    "annihilation",
    "orbit-decomposition",
    "invariance",
    "cayley",
    "dims-table",
    "dims-conjecture",
)

# count: degrees of the seeded 2x2x3 stream (one balanced and one skewed
# query at each) and the general-path (shape, degree) queries.
STREAM_DEGREES = (150, 132, 114, 96, 78, 60)
GENERAL_QUERIES = (((2, 3, 3), 18), ((2, 3, 3), 16), ((3, 3, 3), 12), ((3, 3, 3), 10))
TABLE_WEIGHTS = ((1, (0, 0, 0, 0)), (2, (2, 0, 0, 0)), (3, (0, 0, 2, -1)))

# evaluate: operations of each kind in one pass.  The heavier invariance
# calls keep a run near 5000 ops, in the middle of the band where op_tail_ms
# is the p99, so a change in machine speed does not move it to another
# percentile.
EVALUATE_MIX = {"D-int": 60, "D-frac": 60, "cayley": 60, "invariance": 30}
INVARIANCE_TRIALS = 4

INVARIANT_ARGS = ("invariant", "--shape", "2x2x3", "--degree", "6")


def battery_plan(seed: int) -> list[tuple[str, list[str]]]:
    """The two CLI commands of a battery round, in seed order."""
    rng = Random(f"battery:{seed}")
    plan = [
        ("verify-paper", ["verify-paper", "--seed", str(rng.randrange(1, 2**31))]),
        ("invariant", list(INVARIANT_ARGS)),
    ]
    rng.shuffle(plan)
    return plan


def max_bits(kernel) -> int:
    """Bit length of the largest kernel coefficient (0 for an empty kernel)."""
    return max((abs(x).bit_length() for v in kernel.basis for x in v), default=0)


def run_ops(ops, tracer: Tracer, traced: bool):
    """Run (span name, kind, thunk) operations in a closed loop.

    Returns one [kind, seconds] record per operation, the outputs, and the
    job's wall time from the first start to the last end.
    """
    records, outputs = [], []
    tracer.active = traced
    first = clock()
    for idx, (span_name, kind, thunk) in enumerate(ops):
        tracer.op = idx
        t0 = clock()
        with tracer.span(span_name):
            out = thunk()
        records.append([kind, clock() - t0])
        outputs.append(out)
    job_s = clock() - first
    tracer.active = False
    return records, outputs, job_s


# ---------------------------------------------------------------------------
# derive
# ---------------------------------------------------------------------------

class Derive:
    """Derive one invariant per case, the path `hyperdet invariant` takes."""

    def __init__(self, seed: int, tracer: Tracer):
        from hyperdet import operators, polynomials, reference, verify

        self.operators, self.polynomials = operators, polynomials
        self.reference, self.verify = reference, verify
        self.tracer = tracer
        self.cases = list(CASES)
        Random(f"derive:{seed}").shuffle(self.cases)
        self.ops = [
            ("op.derive", case_name(shape, n), partial(self._derive, shape, n))
            for shape, n in self.cases
        ]

    def _derive(self, shape, n):
        matrix = self.operators.assemble_matrix(shape, n)
        kernel = self.operators.exact_kernel(matrix)
        monos = matrix.domain.monomials
        with self.tracer.span("polynomials.IntPolynomial"):
            polys = [
                self.polynomials.IntPolynomial(
                    shape, [(m, c) for m, c in zip(monos, vec) if c]
                )
                for vec in kernel.basis
            ]
        out = b"".join(self.polynomials.to_json_bytes(p) for p in polys)
        return matrix, kernel, polys, out

    def check(self, outputs) -> list[str | None]:
        return [
            self._check_case(case_name(shape, n), *out)
            for (shape, n), out in zip(self.cases, outputs)
        ]

    def _check_case(self, case, matrix, kernel, polys, out) -> str | None:
        dump = json.loads(self.operators.matrix_to_json_bytes(matrix))
        entries = dump["entries"]
        seen = dict(
            rows=dump["rows"],
            cols=dump["cols"],
            nnz=len(entries),
            rank=kernel.rank,
            nullity=kernel.nullity,
            terms=[len(p) for p in polys],
            max_bits=max_bits(kernel),
        )
        if seen != PINS[case]:
            return f"{case}: counts {seen} differ from the pinned {PINS[case]}"
        if (matrix.nrows, matrix.ncols) != (seen["rows"], seen["cols"]):
            return f"{case}: matrix size disagrees with its sparse dump"
        if len(kernel.basis) != kernel.nullity or kernel.rank + kernel.nullity != seen["cols"]:
            return f"{case}: rank {kernel.rank} + nullity {kernel.nullity} != {seen['cols']} columns"
        for vec in kernel.basis:
            if not any(vec) or not oracles.annihilates(entries, vec):
                return f"{case}: a kernel vector is not annihilated by the matrix over Z"
        if case == "2x2x3-6" and out != self.reference.hyperdet_file_bytes():
            return f"{case}: invariant bytes differ from the golden JSON fixture"
        if case == "2x2x2-4":
            monos, basis = self.verify.oracle_invariants((2, 2, 2), 4)
            if tuple(monos) != matrix.domain.monomials or list(kernel.basis) != list(basis):
                return f"{case}: kernel differs from the brute-force oracle"
            cayley = self.polynomials.IntPolynomial((2, 2, 2), oracles.cayley_exponent_terms())
            if polys[0] != cayley:
                return f"{case}: invariant differs from Cayley's formula"
        return None


# ---------------------------------------------------------------------------
# count
# ---------------------------------------------------------------------------

def _even_parts(rng: Random, n: int, d: int, moves: int) -> tuple[int, ...]:
    """n split into d near-equal parts, then `moves` random unit transfers."""
    parts = [n // d + (1 if t < n % d else 0) for t in range(d)]
    for _ in range(moves):
        src, dst = rng.sample(range(d), 2)
        if parts[src]:
            parts[src] -= 1
            parts[dst] += 1
    return tuple(parts)


def _draw_query(rng: Random, shape, n: int, skewed: bool, asked: set):
    """A (key, mirror key) pair, both new to `asked`, which records them.

    Balanced queries keep every mode's slice sums near n / size, which is
    the expensive case for the counting DP; skewed ones put at most n/30 of
    the degree into the first row or first column.
    """
    while True:
        sums = [_even_parts(rng, n, d, 3) for d in shape]
        if skewed:
            mode = rng.randrange(2)
            first = rng.randint(0, n // 30)
            sums[mode] = (first, n - first)
        sums = tuple(sums)
        key = (shape, n, oracles.weight_from_sums(sums))
        if key in asked:
            continue
        for mirrored in oracles.mirrors(sums):
            mirror = (shape, n, oracles.weight_from_sums(mirrored))
            if mirror not in asked:
                asked.update((key, mirror))
                return key, mirror


class Count:
    """count_dim queries: the 51 table entries plus a seeded stream."""

    def __init__(self, seed: int, tracer: Tracer):
        from hyperdet import reference, weights

        self.weights = weights
        rng = Random(f"count:{seed}")
        asked: set = set()
        # (key, expected value or None, mirror key or None)
        self.queries = []
        for row in reference.DIM_TABLE:
            for col, weight in TABLE_WEIGHTS:
                key = ((2, 2, 3), row[0], weight)
                asked.add(key)
                self.queries.append((key, row[col], None))
        for n in STREAM_DEGREES:
            for skewed in (False, True):
                key, mirror = _draw_query(rng, (2, 2, 3), n, skewed, asked)
                self.queries.append((key, None, mirror))
        for shape, n in GENERAL_QUERIES:
            key, mirror = _draw_query(rng, shape, n, False, asked)
            self.queries.append((key, None, mirror))
        rng.shuffle(self.queries)
        self.ops = [("op.count", "count", partial(self._count, key)) for key, _, _ in self.queries]

    def _count(self, key):
        return self.weights.count_dim(*key)

    def check(self, outputs) -> list[str | None]:
        problems = []
        for (key, expected, mirror), got in zip(self.queries, outputs):
            want = expected if mirror is None else self.weights.count_dim(*mirror)
            problems.append(None if got == want else f"count_dim{key} = {got}, oracle says {want}")
        return problems


# ---------------------------------------------------------------------------
# evaluate
# ---------------------------------------------------------------------------

class Evaluate:
    """evaluate calls on seeded arrays, plus invariance_check trials."""

    def __init__(self, seed: int, tracer: Tracer):
        from hyperdet import arrays, polynomials, reference

        self.arrays = arrays
        rng = Random(f"evaluate:{seed}")
        d = polynomials.from_json_bytes(reference.hyperdet_file_bytes())
        cayley = polynomials.IntPolynomial((2, 2, 2), oracles.cayley_exponent_terms())
        self.inputs = []  # (kind, polynomial, raw entries or trial seed)
        for kind, count in EVALUATE_MIX.items():
            for _ in range(count):
                if kind == "D-int":
                    self.inputs.append((kind, d, [Fraction(rng.randint(-5, 5)) for _ in range(12)]))
                elif kind == "D-frac":
                    self.inputs.append((kind, d, _fraction_entries(rng)))
                elif kind == "cayley":
                    self.inputs.append((kind, cayley, [Fraction(rng.randint(-5, 5)) for _ in range(8)]))
                else:
                    self.inputs.append((kind, d, rng.randrange(2**31)))
        rng.shuffle(self.inputs)
        self.ops = [self._op(*item) for item in self.inputs]

    def _op(self, kind, poly, data):
        if kind == "invariance":
            return ("op.invariance", kind, partial(self._invariance, poly, data))
        arr = self.arrays.HyperArray(poly.shape, tuple(data))
        return ("op." + kind, kind, partial(self._evaluate, poly, arr))

    # Module attributes are looked up at call time, where tracing wraps them.
    def _evaluate(self, poly, arr):
        return self.arrays.evaluate(poly, arr)

    def _invariance(self, poly, trial_seed):
        return self.arrays.invariance_check(poly, INVARIANCE_TRIALS, trial_seed)

    def check(self, outputs) -> list[str | None]:
        problems = []
        for (kind, _poly, data), got in zip(self.inputs, outputs):
            if kind == "invariance":
                ok = (
                    len(got.trials) == INVARIANCE_TRIALS
                    and got.passes == INVARIANCE_TRIALS
                    and all(t.original == t.transformed for t in got.trials)
                )
                problems.append(None if ok else f"invariance trials failed at seed {data}")
                continue
            want = oracles.cayley_2x2x2(data) if kind == "cayley" else oracles.hyperdet_2x2x3(data)
            problems.append(None if got == want else f"{kind}: evaluate gave {got}, oracle {want}")
        return problems


def _fraction_entries(rng: Random) -> list[Fraction]:
    """Twelve p/q entries, p in [-5, 5], q in [2, 7], at least one not an integer."""
    while True:
        entries = [Fraction(rng.randint(-5, 5), rng.randint(2, 7)) for _ in range(12)]
        if any(e.denominator != 1 for e in entries):
            return entries


# ---------------------------------------------------------------------------
# battery (traced in-process twin of one CLI command)
# ---------------------------------------------------------------------------

class BatteryCommand:
    """One battery command run in-process, so the traced run sees its layers.

    `verify-paper` runs `run_checks(only=<name>)` for each check in battery
    order; `invariant` runs the CLI entry point with stdout captured.
    """

    def __init__(self, seed: int, tracer: Tracer, command: str):
        t0 = clock()
        import hyperdet.cli

        self.import_s = clock() - t0
        from hyperdet import reference, verify

        self.cli, self.verify = hyperdet.cli, verify
        self.fixture = reference.hyperdet_file_bytes()
        self.command = command
        argv = dict(battery_plan(seed))[command]
        if command == "verify-paper":
            vseed = int(argv[argv.index("--seed") + 1])
            self.ops = [
                ("verify." + name, "verify", partial(verify.run_checks, only=name, seed=vseed))
                for name in verify.check_names()
            ]
        else:
            self.ops = [("cli.invariant", "invariant", partial(self._main, argv))]

    def _main(self, argv):
        buf = io.BytesIO()
        capture = io.TextIOWrapper(buf, encoding="ascii")
        saved, sys.stdout = sys.stdout, capture
        try:
            code = self.cli.main(argv)
        finally:
            sys.stdout = saved
            capture.flush()
            capture.detach()  # keeps buf open
        return code, buf.getvalue()

    def check(self, outputs) -> list[str | None]:
        if self.command == "invariant":
            code, out = outputs[0]
            ok = code == 0 and out == self.fixture
            return [None if ok else f"invariant exited {code} or its stdout differs from the fixture"]
        problems = []
        for (span_name, _, _), results in zip(self.ops, outputs):
            name = span_name[len("verify."):]
            mine = [r for r in results if r.name == name]
            ok = len(mine) == 1 and mine[0].ok
            problems.append(None if ok else f"check {name} did not pass: {mine}")
        return problems


# ---------------------------------------------------------------------------
# tracing
# ---------------------------------------------------------------------------

def install_tracing(tracer: Tracer) -> None:
    """Wrap each layer's public functions as the calling modules see them."""
    import hyperdet.cli  # noqa: F401  (loads every module that calls a layer)
    from hyperdet import arrays, operators, polynomials, weights

    def count_name(args, kwargs):
        shape = tuple(args[0] if args else kwargs["shape"])
        return "weights.count_dim." + ("2x2" if shape[:2] == (2, 2) else "general")

    def evaluate_name(args, kwargs):
        poly, arr = args
        if poly.shape == (2, 2, 2):
            return "arrays.evaluate.cayley"
        integral = all(x.denominator == 1 for x in arr.flat)
        return "arrays.evaluate." + ("D-int" if integral else "D-frac")

    def matrix_meta(args, matrix):
        nnz = len(json.loads(operators.matrix_to_json_bytes(matrix))["entries"])
        return {
            "case": case_name(matrix.shape, matrix.degree),
            "nnz": nnz,
            "cells": matrix.nrows * matrix.ncols,
        }

    def kernel_meta(args, kernel):
        matrix = args[0]
        return {
            "case": case_name(matrix.shape, matrix.degree),
            "rank": kernel.rank,
            "nullity": kernel.nullity,
            "bits": max_bits(kernel),
        }

    tracer.wrap(weights.enumerate_basis, "weights.enumerate_basis",
                lambda args, basis: {"monomials": len(basis)})
    tracer.wrap(weights.count_dim, count_name, lambda args, value: {"bits": value.bit_length()})
    tracer.wrap(operators.assemble_matrix, "operators.assemble_matrix", matrix_meta)
    tracer.wrap(operators.exact_kernel, "operators.exact_kernel", kernel_meta)
    tracer.wrap(polynomials.to_json_bytes, "polynomials.to_json_bytes")
    # The class itself stays in place elsewhere: its methods test isinstance.
    tracer.wrap(polynomials.IntPolynomial, "polynomials.IntPolynomial", modules={"hyperdet.cli"})
    tracer.wrap(arrays.evaluate, evaluate_name)
    tracer.wrap(arrays.mode_transform, "arrays.mode_transform")
    tracer.wrap(arrays.random_unimodular, "arrays.random_unimodular")
    tracer.wrap(arrays.invariance_check, "arrays.invariance_check",
                lambda args, report: {"trials": len(report.trials), "passes": report.passes})


JOBS = {"derive": Derive, "count": Count, "evaluate": Evaluate}
