"""One workload in a process of its own: set up, run rounds, write a report.

`run.py` starts this script once per set-up sample and once to measure, so
that `setup_s` and `peak_rss_mb` belong to the workload alone:

    python3 bench/worker.py --workload train --seed 0 --seconds 24 --trace 0 \
        --spawned-at <time.monotonic() of the parent> --workdir DIR --report FILE

`--setup-only` stops after set-up, leaving the workload's generated inputs
in `--workdir`.  The report holds each round's time in the commands, split
by command.  With `--trace 1` each untraced round is followed by a traced
one; each traced round's spans are written to `--spans` (one file per round)
and summarised per layer, with the command times of the untraced round
before it as `cli.<command>.wall_s`.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"


def _import_segrl():
    sys.path.insert(0, str(SRC))
    import segrl
    where = Path(segrl.__file__).resolve().parent
    if where != (SRC / "segrl").resolve():
        raise SystemExit(f"segrl was imported from {where}, not from {SRC}")


def _measure(workload, seconds: float, trace: bool, spans: str | None) -> dict:
    """Rounds until the next one would end past `seconds`, at least one.

    With `trace` the rounds come in pairs, untraced then traced; the
    tracing overhead of a traced round is its time in the commands minus
    that of the untraced round before it.
    """
    from tracer import Tracer
    from workloads import Ops

    ops = Ops()
    layers, overhead, rounds = [], [], []

    def one_round(tracer=None) -> dict:
        before = ops.busy
        ops.by_command = {}
        if tracer is None:
            workload.round(ops)
        else:
            tracer.install()
            try:
                workload.round(ops)
            finally:
                tracer.uninstall()
        rounds.append({"traced": tracer is not None, "busy_s": ops.busy - before,
                       "commands": ops.by_command})
        return rounds[-1]

    deadline = perf_counter() + seconds
    while True:
        start = perf_counter()
        untraced = one_round()
        if trace:
            tracer = Tracer()
            traced = one_round(tracer)["busy_s"]
            overhead.append(traced - untraced["busy_s"])
            summary = tracer.summary()
            for command, took in untraced["commands"].items():
                summary.setdefault(f"cli.{command}", {})["wall_s"] = took
            layers.append({"layers": summary, "busy_s": traced})
            if spans:
                tracer.save(f"{spans}-round{len(layers)}.npz")
        took = perf_counter() - start
        if perf_counter() + took > deadline:
            break
    report = {"attempted": ops.attempted, "failed": ops.failed,
              "failures": ops.failures, "problems": ops.problems, "rounds": rounds}
    if trace:
        report.update(layers=layers, overhead=overhead)
    return report


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=0.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--spawned-at", type=float, default=time.monotonic(),
                   help="time.monotonic() when the parent started this process")
    p.add_argument("--workdir", required=True)
    p.add_argument("--report", help="report file (default: standard output)")
    p.add_argument("--spans")
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args(argv)

    _import_segrl()
    import numpy as np
    from workloads import WORKLOADS

    workdir = Path(args.workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    workload = WORKLOADS[args.workload](args.seed, workdir)
    workload.setup()
    report = {"setup_s": time.monotonic() - args.spawned_at,
              "numpy": np.__version__}
    if not args.setup_only:
        report.update(_measure(workload, args.seconds, bool(args.trace), args.spans))
    report["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if args.report:
        Path(args.report).write_text(json.dumps(report))
    else:
        print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
