"""Self-test of the benchmark itself.

    python3 bench/selftest.py

Runs one short pass of every workload, untraced and traced, and checks
that:

* BENCHMARK.json lists exactly the metrics and units run.py defines;
* every metric is printed with its unit, and no other;
* every operation passed its oracle (fail_ratio 0, `correct` true);
* the traced derive run reproduces the pinned rank, nullity and nonzeros,
  and the traced runs report the call counts their jobs imply;
* in a directory holding only BENCHMARK.json and bench/, run.py exits
  non-zero without printing a result.

Takes about two minutes.  Exits non-zero on the first failed check.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import jobs  # noqa: E402
import run  # noqa: E402


def require(cond: bool, msg: str) -> None:
    if not cond:
        raise SystemExit(f"selftest: {msg}")


def bench_run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "1",
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )


def check_manifest(doc) -> None:
    e2e = {m["name"]: m["unit"] for m in doc["end_to_end"]}
    layers = {m["name"]: m["unit"] for m in doc["per_layer"]}
    require(e2e == dict(run.END_TO_END), "BENCHMARK.json end_to_end differs from run.END_TO_END")
    require(layers == dict(run.layer_metrics()), "BENCHMARK.json per_layer differs from run.layer_metrics()")
    names = [w["name"] for w in doc["workloads"]]
    require(names == list(run.WORKLOADS), f"workloads {names} differ from run.WORKLOADS")


def check_run(workload: str, trace: int, expected: dict) -> dict:
    proc = bench_run(ROOT, workload, trace)
    require(proc.returncode == 0, f"{workload} trace {trace} exited {proc.returncode}: {proc.stderr[-800:]}")
    lines = proc.stdout.splitlines()
    report, result = json.loads(lines[-2]), json.loads(lines[-1])
    require(set(result) == {"correct", "attempted", "failed", "metrics"}, f"result keys {sorted(result)}")
    require(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
            f"{workload} trace {trace}: {result['failed']} of {result['attempted']} ops failed: {report['failures']}")
    require(report["fail_ratio"] == 0, f"{workload}: fail_ratio {report['fail_ratio']}")
    require(set(report["machine"]) == {"nproc", "cpu", "python"}, "machine record incomplete")
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    require(got == expected, f"{workload} trace {trace}: metrics/units {got} != {expected}")
    for name, m in result["metrics"].items():
        require(isinstance(m["value"], (int, float)), f"{name} value {m['value']!r}")
    print(f"ok  {workload:9s} trace {trace}  {result['attempted']} ops checked")
    return {name: m["value"] for name, m in result["metrics"].items()}


def check_layers(workload: str, v: dict) -> None:
    if workload == "derive":
        for case, pin in jobs.PINS.items():
            base = f"operators.exact_kernel.{case}"
            seen = (v[f"{base}.rank"], v[f"{base}.nullity"], v[f"{base}.nnz"])
            require(seen == (pin["rank"], pin["nullity"], pin["nnz"]),
                    f"{case}: rank/nullity/nnz {seen} differ from the pins")
        require(v["operators.exact_kernel.calls"] == len(jobs.CASES), "one kernel call per case")
        require(v["weights.count_dim.2x2.calls"] == 0, "derive calls count_dim")
    elif workload == "count":
        calls = v["weights.count_dim.2x2.calls"] + v["weights.count_dim.general.calls"]
        expected = 51 + 2 * len(jobs.STREAM_DEGREES) + len(jobs.GENERAL_QUERIES)
        require(calls == expected, f"count_dim calls {calls} != {expected}")
        require(v["operators.exact_kernel.calls"] == 0, "count builds a kernel")
    elif workload == "evaluate":
        mix = jobs.EVALUATE_MIX
        trials = mix["invariance"] * jobs.INVARIANCE_TRIALS
        require(v["arrays.evaluate.D-int.calls"] == mix["D-int"] + 2 * trials, "D-int calls")
        require(v["arrays.evaluate.D-frac.calls"] == mix["D-frac"], "D-frac calls")
        require(v["arrays.evaluate.cayley.calls"] == mix["cayley"], "cayley calls")
        require(v["arrays.invariance_check.passes"] == trials, "invariance passes")
    else:
        for check in jobs.VERIFY_CHECKS:
            require(v[f"verify.{check}.s"] > 0, f"verify.{check}.s not measured")
        require(v["cli.invariant.stdout_bytes"] > 0, "invariant printed nothing")


def check_bare_directory(doc) -> None:
    """Without the sources the benchmark must fail and print no result."""
    bare = ROOT / ".bench_out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        bare.mkdir(parents=True)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in doc["paths"]:
            shutil.copytree(ROOT / path, bare / path, ignore=shutil.ignore_patterns("__pycache__"))
        proc = bench_run(bare, "derive", 0)
        require(proc.returncode != 0, "run.py succeeded without the sources")
        require('"correct"' not in proc.stdout, "run.py printed a result without the sources")
        print("ok  bare directory: exit", proc.returncode)
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main() -> int:
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    check_manifest(doc)
    e2e = dict(run.END_TO_END)
    layers = dict(run.layer_metrics())
    for workload in run.WORKLOADS:
        check_run(workload, 0, e2e)
        check_layers(workload, check_run(workload, 1, layers))
    check_bare_directory(doc)
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
