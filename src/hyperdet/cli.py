"""Command-line front end.

Six subcommands: invariant, dims, orbit, eval, transform, verify-paper.
Machine output goes to standard output (or --out files); diagnostics go to
standard error.  Identical invocations produce byte-identical output.

Exit codes: 0 success, 1 verification failure, 2 empty result, 3 shape
mismatch, 4 parse error (bad flags, malformed values, unreadable files).
"""

from __future__ import annotations

import argparse
import sys

from .arrays import (
    ModeMatrix,
    ShapeMismatchError,
    array_from_json_bytes,
    array_to_json_bytes,
    evaluate,
    mode_matrix_from_json_bytes,
    mode_transform,
)
from .dimensions import verify_table
from .operators import assemble_matrix, exact_kernel, kernel_polynomials
from .orbits import signed_orbit
from .polynomials import (
    IntPolynomial,
    check_shape,
    exps_from_digits,
    from_json_bytes,
    letters_for,
    parse_int,
    to_json_bytes,
    to_letter_text,
)
from .verify import run_checks
from .weights import check_weight, count_dim, zero_weight


def _flag(what: str, parse):
    """An argparse type that parses flag text and names the text in a usage error."""

    def convert(text: str):
        try:
            return parse(text)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(f"bad {what} {text!r}: {exc}") from exc

    return convert


def _shape(text: str) -> tuple[int, int, int]:
    """AxBxC, e.g. 2x2x3."""
    return check_shape(parse_int(p) for p in text.lower().split("x"))


def _weight(text: str) -> tuple[int, ...]:
    """Comma-separated components; their number is checked against the shape."""
    return tuple(parse_int(p) for p in text.split(","))


def _degrees(text: str) -> range:
    """N, or START:END:STEP with START >= 0 and STEP > 0; lazy, so any END is cheap."""
    parts = [parse_int(p) for p in text.split(":")]
    if len(parts) == 1:
        return range(parts[0], parts[0] + 1)
    if len(parts) != 3:
        raise ValueError("expected START:END:STEP")
    start, end, step = parts
    if step <= 0 or start < 0:
        raise ValueError("need START >= 0 and STEP > 0")
    return range(start, end + 1, step)


def _read_file(path: str) -> bytes:
    try:
        with open(path, "rb") as fh:
            return fh.read()
    except OSError as exc:
        raise ValueError(f"cannot read {path}: {exc}") from exc


def _emit(data: bytes, out_path: str | None) -> None:
    if out_path:
        try:
            with open(out_path, "wb") as fh:
                fh.write(data)
        except OSError as exc:
            raise ValueError(f"cannot write {out_path}: {exc}") from exc
    else:
        sys.stdout.buffer.write(data)
        sys.stdout.buffer.flush()


def _render_polys(polys: list[IntPolynomial], fmt: str) -> bytes:
    if fmt == "json":
        return b"".join(to_json_bytes(p) for p in polys)
    return "\n".join(to_letter_text(p) for p in polys).encode("ascii")


def run_invariant(shape, degree: int, out_path: str | None, fmt: str) -> int:
    if fmt == "text":
        letters_for(shape)  # refuse a shape letter text cannot name before any work
    matrix = assemble_matrix(shape, degree)
    if matrix.ncols == 0:
        print(
            f"no weight-zero monomials of degree {degree} for shape "
            f"{'x'.join(map(str, shape))}",
            file=sys.stderr,
        )
        return 2
    kernel = exact_kernel(matrix)
    if kernel.nullity == 0:
        print(f"no invariant of degree {degree} (kernel is trivial)", file=sys.stderr)
        return 2
    polys = kernel_polynomials(matrix, kernel)
    _emit(_render_polys(polys, fmt), out_path)
    print(
        f"kernel dimension {kernel.nullity}; "
        f"{', '.join(str(len(p)) + ' terms' for p in polys)}",
        file=sys.stderr,
    )
    return 0


def run_dims(shape, weight, degrees: range | None, verify_conjecture: bool) -> int:
    if verify_conjecture:
        # the report covers the paper's fixed table, so these would be ignored
        for flag, value in (("--weight", weight), ("--degrees", degrees)):
            if value is not None:
                raise ValueError(f"{flag} cannot be combined with --verify-conjecture")
        report = verify_table(shape)
        _emit(report.to_json_bytes(), None)
        return 0 if report.ok else 1
    weight = check_weight(shape, zero_weight(shape) if weight is None else weight)
    if degrees is None:
        degrees = _degrees("0:96:6")
    if not degrees:
        print("empty degree range", file=sys.stderr)
        return 2
    for n in degrees:
        _emit(f"{n}\t{count_dim(shape, n, weight)}\n".encode("ascii"), None)
    return 0


def run_orbit(seed: str, fmt: str, out_path: str | None = None) -> int:
    poly = signed_orbit(exps_from_digits(seed))
    if poly.is_zero:
        print("signed orbit cancels to zero", file=sys.stderr)
        return 2
    _emit(_render_polys([poly], fmt), out_path)
    return 0


def run_eval(poly_path: str, array_path: str) -> int:
    poly = from_json_bytes(_read_file(poly_path))
    arr = array_from_json_bytes(_read_file(array_path))
    value = evaluate(poly, arr)
    _emit(f"{value}\n".encode("ascii"), None)
    return 0


def run_transform(array_path: str, mode: int, matrix_path: str) -> int:
    arr = array_from_json_bytes(_read_file(array_path))
    matrix = mode_matrix_from_json_bytes(_read_file(matrix_path))
    moved = mode_transform(arr, ModeMatrix(mode, matrix))
    _emit(array_to_json_bytes(moved), None)
    return 0


def run_verify_paper(only: str | None = None, seed: int = 1729) -> int:
    results = run_checks(only=only, seed=seed)
    if not results:
        print(f"no checks match {only!r}", file=sys.stderr)
        return 2
    lines = []
    for res in results:
        status = "PASS" if res.ok else "FAIL"
        lines.append(f"{status} {res.name}: {res.detail}\n")
    _emit("".join(lines).encode("ascii"), None)
    passed = sum(1 for r in results if r.ok)
    print(f"{passed}/{len(results)} checks passed", file=sys.stderr)
    return 0 if passed == len(results) else 1


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hyperdet",
        description="Exact invariants of small 3-way arrays.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("invariant", help="derive the invariant of a shape and degree")
    p.add_argument("--shape", required=True, type=_flag("shape", _shape))
    p.add_argument("--degree", required=True, type=_flag("degree", parse_int))
    p.add_argument("--out")
    p.add_argument("--format", choices=("json", "text"), default="json")

    p = sub.add_parser("dims", help="weight-space dimensions")
    p.add_argument("--shape", required=True, type=_flag("shape", _shape))
    p.add_argument("--weight", type=_flag("weight", _weight))
    p.add_argument("--degrees", type=_flag("degree range", _degrees))
    p.add_argument("--verify-conjecture", action="store_true")

    p = sub.add_parser("orbit", help="signed orbit of a monomial")
    p.add_argument("--seed", required=True)
    p.add_argument("--format", choices=("json", "text"), default="json")
    p.add_argument("--out")

    p = sub.add_parser("eval", help="evaluate a polynomial on an array")
    p.add_argument("--poly", required=True)
    p.add_argument("--array", required=True)

    p = sub.add_parser("transform", help="apply a mode matrix to an array")
    p.add_argument("--array", required=True)
    p.add_argument("--mode", required=True, type=_flag("mode", parse_int))
    p.add_argument("--matrix", required=True)

    p = sub.add_parser("verify-paper", help="run the verification battery")
    p.add_argument("--only")
    p.add_argument("--seed", type=_flag("seed", parse_int), default=1729)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
        return 0 if code == 0 else 4

    try:
        if args.command == "invariant":
            return run_invariant(args.shape, args.degree, args.out, args.format)
        if args.command == "dims":
            return run_dims(args.shape, args.weight, args.degrees, args.verify_conjecture)
        if args.command == "orbit":
            return run_orbit(args.seed, args.format, args.out)
        if args.command == "eval":
            return run_eval(args.poly, args.array)
        if args.command == "transform":
            return run_transform(args.array, args.mode, args.matrix)
        if args.command == "verify-paper":
            return run_verify_paper(args.only, args.seed)
        raise ValueError(f"unknown command {args.command!r}")
    except ShapeMismatchError as exc:
        print(str(exc), file=sys.stderr)
        return 3
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
