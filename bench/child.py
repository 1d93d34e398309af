"""One benchmark pass in a fresh interpreter.

    python3 bench/child.py --workload derive --seed 7 [--trace] [--setup-only]
    python3 bench/child.py --workload battery --command invariant --seed 7 --trace

`run.py` starts this once per pass, with `src` on PYTHONPATH, and reads one
JSON object from its stdout:

    ready     time.monotonic() (CLOCK_MONOTONIC, one clock for every process)
              when the inputs are built, just before the first timed
              operation; the parent subtracts its spawn time
    job_s     wall seconds from the first operation's start to the last's end
    ops       [kind, seconds] per operation, in run order
    failures  [index, message] per operation its oracle rejected
    spans     the traced pass's spans (see spans.py); empty when untraced
    import_s  battery only: seconds to import hyperdet.cli

With --setup-only it builds the inputs, prints {"ready": ...} and exits.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

import jobs
from spans import Tracer


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*jobs.JOBS, "battery"])
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--command", choices=("verify-paper", "invariant"))
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    if (args.workload == "battery") != (args.command is not None):
        parser.error("--command is required with --workload battery, and only there")

    tracer = Tracer()
    if args.workload == "battery":
        job = jobs.BatteryCommand(args.seed, tracer, args.command)
    else:
        job = jobs.JOBS[args.workload](args.seed, tracer)
    ready = time.monotonic()
    if args.setup_only:
        print(json.dumps({"ready": ready}))
        return 0

    if args.trace:
        jobs.install_tracing(tracer)
    records, outputs, job_s = jobs.run_ops(job.ops, tracer, args.trace)
    failures = [[i, msg] for i, msg in enumerate(job.check(outputs)) if msg]
    doc = {
        "ready": ready,
        "job_s": job_s,
        "ops": records,
        "failures": failures,
        "spans": tracer.spans,
        "import_s": getattr(job, "import_s", None),
    }
    sys.stdout.write(json.dumps(doc) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
