"""Run every workload over seeds 1-10 and summarise the spread.

    python3 perfbench/sweep.py --out perfbench/baseline/NAME.json

Each run is ``perfbench/run.py`` in its own process, one at a time, with
``run_seconds`` from ``BENCHMARK.json``, on every workload that file
declares. For every workload and end-to-end metric the sweep prints the
median, the quartiles (``statistics.quantiles``, n=4) and the spread — the
interquartile range as a share of the median — next to the metric's bound,
flagging a spread of a third of the bound or more. One traced run per
workload, on seed 1, adds the per-layer metrics (runner self time, tracing
overhead...) to the output file.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

SEEDS = range(1, 11)
TRACE_SEED = 1


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [
        sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
    ]
    t0 = time.perf_counter()
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    wall_s = time.perf_counter() - t0
    if out.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {out.returncode}:\n{out.stderr[-4000:]}")
    res = json.loads(out.stdout.strip().splitlines()[-1])
    return {
        "seed": seed,
        "correct": res["correct"],
        "attempted": res["attempted"],
        "failed": res["failed"],
        "wall_s": wall_s,
        "metrics": {n: m["value"] for n, m in res["metrics"].items()},
    }


def summarise(runs: list[dict], end_to_end: list[dict]) -> dict:
    out = {}
    for m in end_to_end:
        values = [r["metrics"][m["name"]] for r in runs]
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4)
        out[m["name"]] = {
            "median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med, "bound": m["bound"],
        }
    return out


def main(argv: list[str] | None = None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", default=None, help="write all runs and the summary as JSON")
    args = ap.parse_args(argv)

    report: dict = {"run_seconds": spec["run_seconds"], "workloads": {}}
    all_correct = True
    for w in (w["name"] for w in spec["workloads"]):
        runs = []
        for seed in SEEDS:
            r = run_once(w, seed, spec["run_seconds"], 0)
            all_correct &= r["correct"]
            runs.append(r)
            print(f"{w} seed={seed} correct={r['correct']} failed={r['failed']}/{r['attempted']} "
                  f"wall_s={r['wall_s']:.1f} "
                  + " ".join(f"{n}={v:.6g}" for n, v in r["metrics"].items()), flush=True)
        entry = {"runs": runs, "summary": summarise(runs, spec["end_to_end"])}
        for m in spec["end_to_end"]:
            s = entry["summary"][m["name"]]
            flag = "" if s["spread"] < s["bound"] / 3 else "  <-- spread >= bound/3"
            print(f"  {w} {m['name']} [{m['unit']}]: median={s['median']:.6g} "
                  f"q1={s['q1']:.6g} q3={s['q3']:.6g} spread={s['spread']:.4f} "
                  f"bound={s['bound']}{flag}", flush=True)
        t = run_once(w, TRACE_SEED, spec["run_seconds"], 1)
        all_correct &= t["correct"]
        entry["trace"] = t
        m = t["metrics"]
        print(f"  {w} traced seed={t['seed']}: runner self_share="
              f"{m['experiments.runner.self_share']:.3f} overhead_frac="
              f"{m['trace.overhead_frac']:.3f}", flush=True)
        report["workloads"][w] = entry
    if args.out:
        os.makedirs(os.path.dirname(os.path.abspath(args.out)), exist_ok=True)
        with open(args.out, "w") as f:
            json.dump(report, f, indent=1)
            f.write("\n")
    return 0 if all_correct else 1


if __name__ == "__main__":
    sys.exit(main())
