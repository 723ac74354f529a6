"""Run the benchmark several times per workload and report each metric's
median and run-to-run spread (quartile distance over median).

    python3 perfbench/spread.py --workloads lattice,cylinder --seeds 1-10 \\
        --seconds 20 [--trace 0] [--trajectory FILE --label NAME]

Runs are sequential, one process at a time, each with its own seed.  With
--trajectory FILE --label NAME, the summary and every run's metrics are
appended to the JSON list in FILE as one entry, together with the
provenance of the last run.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"
OUT = RUN.parent.parent / ".perfbench_out"


def parse_seeds(text):
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(t) for t in text.split(",")]


def spread(values):
    """Median, quartiles and (q3 - q1) / median; no spread from one run or a
    zero median."""
    med = statistics.median(values)
    if len(values) < 2:
        return {"median": med, "q1": med, "q3": med, "spread": None}
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else None}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workloads", default="lattice,cylinder,identities")
    p.add_argument("--seeds", default="1-10")
    p.add_argument("--seconds", type=int, default=20)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--trajectory", default=None)
    p.add_argument("--label", default=None)
    args = p.parse_args(argv)
    if args.trajectory and not args.label:
        p.error("--trajectory needs --label")

    report = {}
    for workload in args.workloads.split(","):
        runs = []
        for seed in parse_seeds(args.seeds):
            t0 = time.perf_counter()
            proc = subprocess.run(
                [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
                 "--seconds", str(args.seconds), "--trace", str(args.trace)],
                capture_output=True, text=True, timeout=600)
            if proc.returncode != 0:
                print(proc.stderr, file=sys.stderr)
                return 1
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            result["seed"] = seed
            result["elapsed_s"] = time.perf_counter() - t0
            runs.append(result)
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{k} {v['value']:.6g}" for k, v in result["metrics"].items())
                + f", failed {result['failed']}/{result['attempted']}"
                + f", {result['elapsed_s']:.1f} s", flush=True)
        summary = {name: spread([r["metrics"][name]["value"] for r in runs])
                   for name in runs[0]["metrics"]}
        for name, s in summary.items():
            shown = "n/a" if s["spread"] is None else f"{s['spread']:.4f}"
            print(f"{workload} {name}: median {s['median']:.6g} "
                  f"quartiles {s['q1']:.6g}..{s['q3']:.6g} spread {shown}")
        report[workload] = {"runs": runs, "summary": summary}
    if args.trajectory:
        append_trajectory(Path(args.trajectory), args, report)
    return 0


def append_trajectory(path, args, report):
    last = json.loads((OUT / f"{args.workloads.split(',')[-1]}-seed"
                       f"{parse_seeds(args.seeds)[-1]}-trace{args.trace}.json").read_text())
    prov = {k: v for k, v in last["provenance"].items() if k not in ("workload", "seed")}
    entry = {"label": args.label, "provenance": prov, "seeds": args.seeds,
             "workloads": {w: {"metrics": rep["summary"],
                               "runs": [{"seed": r["seed"], "correct": r["correct"],
                                         "attempted": r["attempted"], "failed": r["failed"],
                                         "metrics": {k: v["value"]
                                                     for k, v in r["metrics"].items()}}
                                        for r in rep["runs"]]}
                           for w, rep in report.items()}}
    entries = json.loads(path.read_text()) if path.exists() else []
    path.write_text(json.dumps(entries + [entry], indent=1) + "\n")


if __name__ == "__main__":
    sys.exit(main())
