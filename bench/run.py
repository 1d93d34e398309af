"""Benchmark for hyperdet: one workload, one seed, one run.

    python3 bench/run.py --workload derive --seed 1 --seconds 20 --trace 0

Run it from the root of a checkout; the package is imported from `src`.
It runs the workload's job in a closed loop with one caller for --seconds
seconds, checks every operation's output against an oracle that shares no
code with the pipeline, and prints as its last stdout line one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones (END_TO_END below);
with --trace 1 they are the per-layer ones (layer_metrics), from traced
passes alternated with untraced ones, plus the tracing overhead.  The line
before it is a JSON report with the machine, the workload's rationale, the
tail percentile used and the failure ratio.

Each pass of derive, count and evaluate runs in a fresh interpreter
(child.py), so no pass times a warm cache that a user's fresh process would
not have.  A battery pass is one round of `hyperdet` CLI processes.  Only
one child process runs at a time.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import selectors
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import jobs  # noqa: E402
from spans import summarize  # noqa: E402

WORKLOADS = {
    "derive": "operators.exact_kernel does ~97% of the work and count_dim none; "
              "nullity-1 cases back-substitute and the 2x3x3/6 nullity-0 case does not",
    "count": "the counting DP dominates and no matrix is built; table, balanced, skewed "
             "and general-path queries differ in how much work they share",
    "evaluate": "the arrays layer dominates; integer vs rational entries and D vs a "
                "polynomial that is not D show whether a fast path for one costs the others",
    "battery": "the commands users run, each a cold process; the only workload that "
               "drives cli, verify, orbits and dimensions",
}
EXCLUDED = ("2x2x3/12 is excluded until its kernel finishes: the dense kernel was "
            "killed after more than 9 min")

END_TO_END = (
    ("wall_s", "s"),
    ("ops_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("op_tail_ms", "ms"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
)
TAIL_LADDER = (99.99, 99.9, 99.0, 90.0, 50.0)
SETUP_PROBES = 11
RUN_BUDGET_S = 170.0
CLI_MAIN = "import sys; from hyperdet.cli import main; sys.exit(main())"


def layer_metrics() -> list[tuple[str, str]]:
    """Every per-layer metric name with its unit, in report order."""
    out = [
        ("weights.enumerate_basis.calls", "count"),
        ("weights.enumerate_basis.s", "s"),
        ("weights.enumerate_basis.monomials", "count"),
    ]
    for path in ("2x2", "general"):
        out += [(f"weights.count_dim.{path}.calls", "count"), (f"weights.count_dim.{path}.s", "s")]
    out += [
        ("weights.count_dim.max_bits", "bits"),
        ("operators.assemble_matrix.calls", "count"),
        ("operators.assemble_matrix.s", "s"),
        ("operators.assemble_matrix.nnz", "count"),
        ("operators.assemble_matrix.fill", "ratio"),
        ("operators.exact_kernel.calls", "count"),
        ("operators.exact_kernel.s", "s"),
        ("operators.exact_kernel.max_bits", "bits"),
    ]
    for case in jobs.CASE_NAMES:
        out += [
            (f"operators.exact_kernel.{case}.s", "s"),
            (f"operators.exact_kernel.{case}.nnz", "count"),
            (f"operators.exact_kernel.{case}.rank", "count"),
            (f"operators.exact_kernel.{case}.nullity", "count"),
        ]
    out += [("polynomials.IntPolynomial.s", "s"), ("polynomials.to_json_bytes.s", "s")]
    for kind in ("D-int", "D-frac", "cayley"):
        out += [(f"arrays.evaluate.{kind}.calls", "count"), (f"arrays.evaluate.{kind}.s", "s")]
    out += [
        ("arrays.mode_transform.calls", "count"),
        ("arrays.mode_transform.s", "s"),
        ("arrays.random_unimodular.s", "s"),
        ("arrays.invariance_check.calls", "count"),
        ("arrays.invariance_check.s", "s"),
        ("arrays.invariance_check.trials", "count"),
        ("arrays.invariance_check.passes", "count"),
    ]
    out += [(f"verify.{check}.s", "s") for check in jobs.VERIFY_CHECKS]
    out.append(("cli.import_s", "s"))
    for command in ("verify-paper", "invariant"):
        out += [(f"cli.{command}.process_s", "s"), (f"cli.{command}.stdout_bytes", "bytes")]
    out.append(("trace.overhead_pct", "%"))
    return out


def layer_values(spans) -> dict[str, float]:
    """One traced pass's per-layer values (zero for layers it did not call).

    `.s` is self time: a span's duration minus its children's.  A verify
    check's `.s` is its whole duration, since it is the operation itself.
    """
    by_name, by_case = summarize(spans)

    def get(name, key):
        return by_name.get(name, {}).get(key, 0)

    v = {
        "weights.enumerate_basis.calls": get("weights.enumerate_basis", "calls"),
        "weights.enumerate_basis.s": get("weights.enumerate_basis", "self_s"),
        "weights.enumerate_basis.monomials": get("weights.enumerate_basis", "monomials"),
    }
    for path in ("2x2", "general"):
        v[f"weights.count_dim.{path}.calls"] = get(f"weights.count_dim.{path}", "calls")
        v[f"weights.count_dim.{path}.s"] = get(f"weights.count_dim.{path}", "self_s")
    v["weights.count_dim.max_bits"] = max(
        get("weights.count_dim.2x2", "bits"), get("weights.count_dim.general", "bits")
    )
    asm, ker = "operators.assemble_matrix", "operators.exact_kernel"
    cells = get(asm, "cells")
    v.update({
        f"{asm}.calls": get(asm, "calls"),
        f"{asm}.s": get(asm, "self_s"),
        f"{asm}.nnz": get(asm, "nnz"),
        f"{asm}.fill": get(asm, "nnz") / cells if cells else 0.0,
        f"{ker}.calls": get(ker, "calls"),
        f"{ker}.s": get(ker, "self_s"),
        f"{ker}.max_bits": get(ker, "bits"),
    })
    for case in jobs.CASE_NAMES:
        kc = by_case.get(f"{ker}.{case}", {})
        v[f"{ker}.{case}.s"] = kc.get("self_s", 0.0)
        v[f"{ker}.{case}.nnz"] = by_case.get(f"{asm}.{case}", {}).get("nnz", 0)
        v[f"{ker}.{case}.rank"] = kc.get("rank", 0)
        v[f"{ker}.{case}.nullity"] = kc.get("nullity", 0)
    v["polynomials.IntPolynomial.s"] = get("polynomials.IntPolynomial", "self_s")
    v["polynomials.to_json_bytes.s"] = get("polynomials.to_json_bytes", "self_s")
    for kind in ("D-int", "D-frac", "cayley"):
        v[f"arrays.evaluate.{kind}.calls"] = get(f"arrays.evaluate.{kind}", "calls")
        v[f"arrays.evaluate.{kind}.s"] = get(f"arrays.evaluate.{kind}", "self_s")
    inv = "arrays.invariance_check"
    v.update({
        "arrays.mode_transform.calls": get("arrays.mode_transform", "calls"),
        "arrays.mode_transform.s": get("arrays.mode_transform", "self_s"),
        "arrays.random_unimodular.s": get("arrays.random_unimodular", "self_s"),
        f"{inv}.calls": get(inv, "calls"),
        f"{inv}.s": get(inv, "self_s"),
        f"{inv}.trials": get(inv, "trials"),
        f"{inv}.passes": get(inv, "passes"),
    })
    for check in jobs.VERIFY_CHECKS:
        v[f"verify.{check}.s"] = get(f"verify.{check}", "total_s")
    return v


# ---------------------------------------------------------------------------
# child processes
# ---------------------------------------------------------------------------

@dataclass
class Proc:
    code: int
    out: bytes
    err: bytes
    t0: float  # time.monotonic() at spawn: CLOCK_MONOTONIC, shared by all processes
    wall: float
    rss_kb: int


def run_process(argv, timeout: float) -> Proc:
    """Run one child to completion; return its output, wall time and peak RSS.

    Both pipes are drained as data arrives; the child is killed once
    `timeout` seconds have passed.  Its resource usage comes from wait4.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    t0 = time.monotonic()
    killed = False
    proc = subprocess.Popen(
        argv, cwd=ROOT, env=env,
        stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    out, err = bytearray(), bytearray()
    bufs = {proc.stdout.fileno(): out, proc.stderr.fileno(): err}
    with selectors.DefaultSelector() as sel:
        for pipe in (proc.stdout, proc.stderr):
            sel.register(pipe, selectors.EVENT_READ)
        while sel.get_map():
            left = t0 + timeout - time.monotonic()
            if left <= 0 and not killed:
                proc.kill()
                killed = True
            for key, _ in sel.select(max(left, 1.0)):
                data = os.read(key.fd, 1 << 16)
                if data:
                    bufs[key.fd].extend(data)
                else:
                    sel.unregister(key.fileobj)
                    key.fileobj.close()
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.monotonic() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Proc(proc.returncode, bytes(out), bytes(err), t0, wall, usage.ru_maxrss)


def child_pass(workload: str, seed: int, traced: bool, timeout: float, command=None) -> dict:
    """One pass in a fresh child.py interpreter."""
    argv = [sys.executable, str(BENCH / "child.py"), "--workload", workload, "--seed", str(seed)]
    if command:
        argv += ["--command", command]
    if traced:
        argv.append("--trace")
    p = run_process(argv, timeout)
    try:
        doc = json.loads(p.out.decode().splitlines()[-1]) if p.code == 0 else None
    except (UnicodeDecodeError, IndexError, json.JSONDecodeError):
        doc = None
    if doc is None:
        msg = f"child {workload} {command or ''} exited {p.code}: {p.err.decode(errors='replace')[-800:]}"
        return {"traced": traced, "attempted": 1, "failed": 1, "failures": [msg], "wall": p.wall}
    return {
        "traced": traced,
        "ops": doc["ops"],
        "job_s": doc["job_s"],
        "rss_kb": p.rss_kb,
        "attempted": len(doc["ops"]),
        "failed": len(doc["failures"]),
        "failures": [msg for _, msg in doc["failures"]],
        "spans": doc["spans"],
        "import_s": doc["import_s"],
        "wall": p.wall,
    }


def setup_probe(workload: str, seed: int, timeout: float) -> float:
    """Seconds from spawning a fresh interpreter to its first timed operation."""
    argv = [sys.executable, str(BENCH / "child.py"), "--workload", workload,
            "--seed", str(seed), "--setup-only"]
    if workload == "battery":
        argv += ["--command", jobs.battery_plan(seed)[0][0]]
    p = run_process(argv, timeout)
    if p.code != 0:
        raise RuntimeError(f"setup probe exited {p.code}: {p.err.decode(errors='replace')[-800:]}")
    return json.loads(p.out)["ready"] - p.t0


def check_cli(command: str, p: Proc, fixture: bytes) -> str | None:
    """Oracle for one CLI process: exit 0, ten passing checks, fixture bytes."""
    if p.code != 0:
        return f"{command} exited {p.code}"
    if command == "invariant":
        return None if p.out == fixture else "invariant stdout differs from the fixture bytes"
    lines = p.out.decode("ascii", errors="replace").splitlines()
    passed = {ln[len("PASS "):].split(":", 1)[0] for ln in lines if ln.startswith("PASS ")}
    if len(passed) != len(lines) or not set(jobs.VERIFY_CHECKS) <= passed:
        return f"verify-paper printed {lines}"
    return None


def battery_pass(seed: int, traced: bool, timeout: float, fixture: bytes) -> dict:
    """One round of CLI processes; traced rounds add in-process traced twins."""
    ops, rss, failures, cli = [], [], [], {}
    deadline = time.monotonic() + timeout
    for command, args in jobs.battery_plan(seed):
        p = run_process([sys.executable, "-c", CLI_MAIN, *args], deadline - time.monotonic())
        ops.append([command, p.wall])
        rss.append(p.rss_kb)
        cli[command] = {"process_s": p.wall, "stdout_bytes": len(p.out)}
        problem = check_cli(command, p, fixture)
        if problem:
            failures.append(problem)
    result = {
        "traced": traced,
        "ops": ops,
        "job_s": sum(s for _, s in ops),
        "rss_kb": max(rss),
        "attempted": len(ops),
        "failed": len(failures),
        "failures": failures,
        "cli": cli,
    }
    if traced:
        spans, imports, wall = [], [], 0.0
        for command, _ in jobs.battery_plan(seed):
            twin = child_pass("battery", seed, True, deadline - time.monotonic(), command)
            result["attempted"] += twin["attempted"]
            result["failed"] += twin["failed"]
            result["failures"] += twin["failures"]
            wall += twin["wall"]
            if "spans" in twin:
                off = len(spans)
                spans += [[n, s, e, par + off if par >= 0 else -1, op, m]
                          for n, s, e, par, op, m in twin["spans"]]
                imports.append(twin["import_s"])
        result.update(spans=spans, import_s=statistics.median(imports) if imports else 0.0,
                      traced_s=wall)
    return result


# ---------------------------------------------------------------------------
# statistics and report
# ---------------------------------------------------------------------------

def tail_percentile(n: int) -> float:
    """Highest ladder percentile with at least ten samples beyond it (else 50)."""
    for pct in TAIL_LADDER:
        if n - _rank(pct, n) >= 10:
            return pct
    return 50.0


def _rank(pct: float, n: int) -> int:
    """Nearest-rank position (1-based) of a percentile, in exact arithmetic."""
    hundredths = round(pct * 100)
    return max(1, -(-hundredths * n // 10000))


def end_to_end(passes, setups) -> dict[str, float]:
    lat = sorted(s for p in passes for _, s in p["ops"])
    pct = tail_percentile(len(lat))
    return {
        "wall_s": statistics.median(p["job_s"] for p in passes),
        "ops_per_s": statistics.median(len(p["ops"]) / p["job_s"] for p in passes),
        "op_p50_ms": lat[_rank(50.0, len(lat)) - 1] * 1000,
        "op_tail_ms": lat[_rank(pct, len(lat)) - 1] * 1000,
        "peak_rss_mb": statistics.median(p["rss_kb"] for p in passes) / 1024,
        "setup_s": statistics.median(setups),
    }


def per_layer(workload: str, passes) -> dict[str, float]:
    traced = [p for p in passes if p["traced"]]
    rows = [layer_values(p["spans"]) for p in traced]
    values = {name: 0.0 for name, _ in layer_metrics()}
    values.update({name: statistics.median(r[name] for r in rows) for name in rows[0]})
    if workload == "battery":
        for command in ("verify-paper", "invariant"):
            for key in ("process_s", "stdout_bytes"):
                values[f"cli.{command}.{key}"] = statistics.median(p["cli"][command][key] for p in passes)
        values["cli.import_s"] = statistics.median(p["import_s"] for p in traced)
        plain = statistics.median(p["job_s"] for p in traced)
        with_trace = statistics.median(p["traced_s"] for p in traced)
    else:
        plain = statistics.median(p["job_s"] for p in passes if not p["traced"])
        with_trace = statistics.median(p["job_s"] for p in traced)
    values["trace.overhead_pct"] = 100.0 * (with_trace / plain - 1.0)
    return {name: values[name] for name, _ in layer_metrics()}


def machine() -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": len(os.sched_getaffinity(0)), "cpu": cpu, "python": platform.python_version()}


def write_spans(workload: str, seed: int, passes) -> Path:
    """Write the traced passes' spans, one JSON line per pass."""
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    path = out_dir / f"{workload}-{seed}.spans.jsonl"
    with open(path, "w", encoding="utf-8") as fh:
        for idx, p in enumerate(passes):
            if p.get("traced") and "spans" in p:
                fh.write(json.dumps({"pass": idx, "spans": p["spans"]}) + "\n")
    return path


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="hyperdet benchmark: one workload, one run.")
    parser.add_argument("--workload", required=True, choices=tuple(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (ROOT / "src" / "hyperdet" / "__init__.py").is_file():
        print(f"run.py: no hyperdet sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    budget_end = time.monotonic() + RUN_BUDGET_S
    fixture = b""
    if args.workload == "battery":
        sys.path.insert(0, str(ROOT / "src"))
        from hyperdet import reference

        fixture = reference.hyperdet_file_bytes()

    # setup_s is an end-to-end metric, so only the untraced run probes it.
    # The first probe also compiles the bytecode a returning user already has.
    setups = [] if args.trace else [
        setup_probe(args.workload, args.seed, budget_end - time.monotonic())
        for _ in range(SETUP_PROBES + 1)
    ][1:]

    passes: list[dict] = []
    stop = time.monotonic() + args.seconds
    while True:
        started = time.monotonic()
        traced = bool(args.trace) and len(passes) % 2 == 1
        if args.workload == "battery":
            passes.append(battery_pass(args.seed, traced, budget_end - started, fixture))
        else:
            passes.append(child_pass(args.workload, args.seed, traced, budget_end - started))
        now = time.monotonic()
        if now >= stop and (not args.trace or len(passes) >= 2):
            break
        if now + (now - started) > budget_end:
            break

    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    good = [p for p in passes if "ops" in p]
    untraced = [p for p in good if not p["traced"]]
    if not untraced or (args.trace and not any(p["traced"] and "spans" in p for p in good)):
        for p in passes:
            for msg in p["failures"]:
                print(msg, file=sys.stderr)
        print("run.py: no pass completed", file=sys.stderr)
        return 1

    samples = sum(len(p["ops"]) for p in untraced)
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "why": WORKLOADS[args.workload],
        "excluded": EXCLUDED,
        "machine": machine(),
        "passes": len(passes),
        "fail_ratio": failed / attempted,
        "op_tail": {"percentile": tail_percentile(samples), "samples": samples},
        "failures": [msg for p in passes for msg in p["failures"]][:5],
    }
    if args.trace:
        metrics = per_layer(args.workload, good)
        units = dict(layer_metrics())
        report["spans_file"] = str(write_spans(args.workload, args.seed, passes).relative_to(ROOT))
    else:
        metrics = end_to_end(untraced, setups)
        units = dict(END_TO_END)
    print(json.dumps(report))
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
