"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload ha-longlife --seed 1 --seconds 10 --trace 0

Run from the repository root. With ``--trace 0`` the run measures the
end-to-end metrics with tracing off; with ``--trace 1`` it makes one
untraced and one traced pass and reports the per-layer metrics, the
aggregated span table and the tracing overhead. Every metric is printed
by name with its unit (units come from ``BENCHMARK.json``); the last line
of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        sys.exit(f"no program to benchmark: {os.path.join(ROOT, 'src', 'repro')} is missing")
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    declared = spec["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}

    # Everything the run writes (chunks, Spark scratch, temp files) stays
    # in one directory of the checkout, removed at the end.
    work_root = os.path.join(HERE, ".work")
    os.makedirs(work_root, exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=work_root)
    os.environ["TMPDIR"] = tempfile.tempdir = work
    sys.path.insert(0, os.path.join(ROOT, "src"))
    try:
        import workloads  # imports the program

        if args.workload not in workloads.WORKLOADS:
            sys.exit(f"unknown workload {args.workload!r}; pick from {sorted(workloads.WORKLOADS)}")
        w = workloads.WORKLOADS[args.workload]
        res = workloads.run(w, args.seed, args.seconds, bool(args.trace), work)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    if set(res.metrics) != set(units):
        sys.exit(
            "metrics do not match BENCHMARK.json: "
            f"missing {sorted(set(units) - set(res.metrics))}, "
            f"undeclared {sorted(set(res.metrics) - set(units))}"
        )
    for row in res.spans:
        print(
            f"span {row['parent'] or '-'} > {row['name']}: calls={row['calls']} "
            f"total_s={row['total_s']:.6f} self_s={row['self_s']:.6f}"
        )
    for name in units:
        print(f"{name} = {res.metrics[name]} {units[name]}")
    for name, value in res.notes.items():
        print(f"note {name} = {value}")
    print(f"failed_frac = {res.failed / res.attempted} ({res.failed}/{res.attempted})")
    print(json.dumps({
        "correct": res.failed == 0,
        "attempted": res.attempted,
        "failed": res.failed,
        "metrics": {n: {"value": res.metrics[n], "unit": units[n]} for n in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
