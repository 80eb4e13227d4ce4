"""segrl benchmark: run one workload (or all four) and print its metrics.

    python3 bench/run.py --workload train --seed 0 --seconds 24 --trace 0

Each workload runs in fresh processes with one-thread BLAS/OpenMP pools:
`SETUP_SAMPLES - 1` processes that only set up, then one that sets up and
measures rounds of commands for `--seconds`.  With `--trace 0` the last line
of standard output is the end-to-end result; with `--trace 1` it is the
per-layer result of the traced rounds.  Every workload prints every metric
of its kind; a layer the workload does not reach reads 0.  `--workload all`
and `--repeat K` run every workload K times with seeds seed..seed+K-1,
alternating workloads.  Every run is also recorded in a result file (see `--result`),
which `compare.py` reads.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("train", "train-wide", "verify", "ingest")
SETUP_SAMPLES = 5
RUN_LIMIT_S = 170.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
# Per-layer metrics name the layer where it is called; the span name is the
# module that defines the function.
SPAN_ALIASES = {"gradcheck.params_from_vector": "policy.params_from_vector"}


class BenchError(RuntimeError):
    pass


def load_spec() -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {"end_to_end": {m["name"]: m for m in spec["end_to_end"]},
            "per_layer": {m["name"]: m for m in spec["per_layer"]}}


def _spawn(workload: str, seed: int, seconds: float, trace: int, workdir: Path,
           deadline: float, setup_only: bool, spans: Path | None = None) -> dict:
    report = workdir / "report.json"
    env = dict(os.environ, **{var: "1" for var in THREAD_VARS})
    cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
           "--workdir", str(workdir), "--report", str(report)]
    if setup_only:
        cmd.append("--setup-only")
    if spans is not None:
        cmd += ["--spans", str(spans)]
    cmd += ["--spawned-at", repr(time.monotonic())]
    try:
        proc = subprocess.run(cmd, env=env, stdout=sys.stderr, cwd=ROOT,
                              timeout=max(deadline - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload}: worker did not finish in time") from None
    if proc.returncode != 0 or not report.is_file():
        raise BenchError(f"{workload}: worker exited with code {proc.returncode}")
    return json.loads(report.read_text())


def run_workload(workload: str, seed: int, seconds: float, trace: int,
                 spec: dict) -> dict:
    """One run: set-up samples, the measured process, and its metrics."""
    deadline = time.monotonic() + RUN_LIMIT_S
    base = BENCH / ".work" / f"{workload}-{seed}-{os.getpid()}"
    spans = None
    if trace:
        spans = BENCH / "results" / f"spans-{workload}-seed{seed}"
        spans.parent.mkdir(parents=True, exist_ok=True)
    try:
        setups = [_spawn(workload, seed, seconds, 0, base / f"setup{i}", deadline,
                         setup_only=True)["setup_s"]
                  for i in range(SETUP_SAMPLES - 1)]
        rep = _spawn(workload, seed, seconds, trace, base / "measure", deadline,
                     setup_only=False, spans=spans)
    finally:
        shutil.rmtree(base, ignore_errors=True)
    setups.append(rep["setup_s"])
    run = {"workload": workload, "seed": seed, "numpy": rep["numpy"],
           "correct": not rep["problems"], "attempted": rep["attempted"],
           "failed": rep["failed"], "failures": rep["failures"],
           "problems": rep["problems"], "rounds": rep["rounds"]}
    if trace:
        run["metrics"], run["busiest_unnamed_s"] = _layer_metrics(rep, spec)
        run["spans"] = f"{spans}-round*.npz"
    else:
        run["setups"] = setups
        run["metrics"] = {
            "setup_s": statistics.median(setups),
            "peak_rss_mb": rep["peak_rss_mb"],
            "round_s": statistics.median(r["busy_s"] for r in rep["rounds"])}
    return run


def _layer_metrics(rep: dict, spec: dict) -> tuple[dict, dict]:
    """Median over traced rounds of each named per-layer metric, 0 where the
    workload does not reach the layer, plus the tracing overhead and the
    time no named layer covers.  Also returns the self time of the busiest
    unnamed layers."""
    rounds = rep["layers"]
    out = {}
    for name in spec["per_layer"]:
        label, kind = name.rsplit(".", 1)
        label = SPAN_ALIASES.get(label, label)
        out[name] = statistics.median(r["layers"].get(label, {}).get(kind, 0)
                                      for r in rounds)
    named = {SPAN_ALIASES.get(n.rsplit(".", 1)[0], n.rsplit(".", 1)[0])
             for n in spec["per_layer"] if n.endswith(".self_s")}
    out["tracing.overhead_s"] = statistics.median(rep["overhead"])
    out["tracing.uncovered_s"] = statistics.median(
        r["busy_s"] - sum(v["self_s"] for label, v in r["layers"].items()
                          if label in named)
        for r in rounds)
    last = rounds[-1]["layers"]
    unnamed = sorted((v["self_s"], label) for label, v in last.items()
                     if label not in named and "self_s" in v)[::-1][:10]
    return out, {label: t for t, label in unnamed}


def summarize(values: list[float]) -> dict:
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


def result_file(runs: list[dict], args, spec: dict) -> dict:
    units = {m: d["unit"] for m, d in {**spec["end_to_end"], **spec["per_layer"]}.items()}
    workloads = {}
    for run in runs:
        workloads.setdefault(run["workload"], {"runs": []})["runs"].append(run)
    for entry in workloads.values():
        names = sorted({m for run in entry["runs"] for m in run["metrics"]})
        entry["summary"] = {
            m: dict(summarize([r["metrics"][m] for r in entry["runs"] if m in r["metrics"]]),
                    unit=units[m])
            for m in names}
    return {"machine": {"nproc": os.cpu_count(), "python": platform.python_version(),
                        "numpy": runs[0]["numpy"], "platform": platform.platform()},
            "seconds": args.seconds, "trace": args.trace, "workloads": workloads}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=24.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--repeat", type=int, default=1,
                   help="runs per workload, with consecutive seeds")
    p.add_argument("--result", help="result file (default: bench/results/...)")
    args = p.parse_args(argv)
    if args.seed < 0 or args.repeat < 1:
        p.error("--seed must be >= 0 and --repeat >= 1")
    if not (ROOT / "src" / "segrl" / "cli.py").is_file():
        print(f"error: no segrl sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = load_spec()
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    runs = []
    try:
        for k in range(args.repeat):
            for name in names:
                run = run_workload(name, args.seed + k, args.seconds, args.trace, spec)
                runs.append(run)
                for text, count in {**run["failures"], **run["problems"]}.items():
                    print(f"{name} seed {run['seed']}: {text} (x{count})", file=sys.stderr)
                metrics = {m: {"value": v, "unit": spec["end_to_end" if not args.trace
                                                        else "per_layer"][m]["unit"]}
                           for m, v in run["metrics"].items()}
                print(json.dumps({"correct": run["correct"], "attempted": run["attempted"],
                                  "failed": run["failed"], "metrics": metrics}), flush=True)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    default = f"{args.workload}-seed{args.seed}-x{args.repeat}-trace{args.trace}.json"
    path = Path(args.result) if args.result else BENCH / "results" / default
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(result_file(runs, args, spec), indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
