"""Compare two benchmark result files, workload by workload.

    python3 bench/compare.py BASE.json NEW.json

Runs are paired by position (run k of BASE with run k of NEW), so record
both files with the same `--seed`, `--repeat` and `--seconds`, alternating
which side runs first.  For each end-to-end metric, with medians and
quartiles taken over runs and `bound` from BENCHMARK.json:

* regressed   NEW's median is worse than BASE's by more than `bound`;
* improved    NEW wins at least 9 in 10 pairs (ties count for neither) and
              the medians differ by more than BASE's interquartile range;
* unresolved  BASE's own spread exceeds `bound` and not every NEW run beats
              every BASE run;
* unchanged   otherwise.

Per-layer metrics (from `--trace 1` files) have no bound and are listed with
their relative change only.  The exit code is 1 when any metric regressed or
any run failed a correctness check.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

from run import summarize

ROOT = Path(__file__).resolve().parent.parent
MIN_PAIRS_FOR_GAIN = 10


def verdict(base: list[float], new: list[float], better: str, bound: float) -> tuple[str, float]:
    """The comparison rule above; also returns the relative change of the
    median, signed so that positive is better."""
    sign = 1.0 if better == "higher" else -1.0
    stats = summarize(base)
    b_q1, b_med, b_q3 = stats["q1"], stats["median"], stats["q3"]
    n_med = statistics.median(new)
    change = sign * (n_med - b_med) / abs(b_med)
    pairs = list(zip(base, new))
    wins = sum(1 for b, n in pairs if sign * (n - b) > 0)
    all_better = min(sign * n for n in new) > max(sign * b for b in base)
    spread = (b_q3 - b_q1) / abs(b_med)
    if change < -bound:
        return ("unresolved" if spread > bound and not all_better else "regressed"), change
    if (len(pairs) >= MIN_PAIRS_FOR_GAIN and wins >= 0.9 * len(pairs)
            and abs(n_med - b_med) > b_q3 - b_q1):
        return "improved", change
    if spread > bound and not all_better:
        return "unresolved", change
    return "unchanged", change


def compare(base: dict, new: dict, spec: dict) -> tuple[list[str], bool]:
    e2e = {m["name"]: m for m in spec["end_to_end"]}
    lines, regressed = [], False
    for workload in sorted(set(base["workloads"]) & set(new["workloads"])):
        b_runs = base["workloads"][workload]["runs"]
        n_runs = new["workloads"][workload]["runs"]
        names = sorted(set(b_runs[0]["metrics"]) & set(n_runs[0]["metrics"]))
        rows, verdicts = [], []
        for name in names:
            b = [r["metrics"][name] for r in b_runs if name in r["metrics"]]
            n = [r["metrics"][name] for r in n_runs if name in r["metrics"]]
            if name in e2e:
                v, change = verdict(b, n, e2e[name]["better"], e2e[name]["bound"])
                verdicts.append(v)
                rows.append(f"    {name:<44} {statistics.median(b):>14.6g} -> "
                            f"{statistics.median(n):<14.6g} {change:+7.1%}  {v}")
            else:
                change = (statistics.median(n) - statistics.median(b)) / abs(statistics.median(b) or 1.0)
                rows.append(f"    {name:<44} {statistics.median(b):>14.6g} -> "
                            f"{statistics.median(n):<14.6g} {change:+7.1%}")
        failed = [r["failed"] / r["attempted"] for r in b_runs], \
                 [r["failed"] / r["attempted"] for r in n_runs]
        summary = ", ".join(f"{verdicts.count(v)} {v}" for v in
                            ("regressed", "improved", "unresolved", "unchanged")
                            if v in verdicts) or "per-layer only"
        correct = all(r["correct"] for r in b_runs + n_runs)
        lines.append(f"{workload:<11} pairs {min(len(b_runs), len(n_runs)):>2}  "
                     f"failed share {statistics.median(failed[0]):.4f} -> "
                     f"{statistics.median(failed[1]):.4f}  correct {correct}  {summary}")
        lines.extend(rows)
        regressed = regressed or "regressed" in verdicts or not correct
    return lines, regressed


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("base")
    p.add_argument("new")
    args = p.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    base = json.loads(Path(args.base).read_text())
    new = json.loads(Path(args.new).read_text())
    for label, res in (("base", base), ("new", new)):
        m = res["machine"]
        print(f"{label}: nproc {m['nproc']}, Python {m['python']}, numpy {m['numpy']}, "
              f"{res['seconds']} s runs, trace {res['trace']}")
    lines, regressed = compare(base, new, spec)
    print("\n".join(lines))
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
