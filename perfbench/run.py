"""Benchmark driver for turancert.

Run from the root of a checkout:

    python3 perfbench/run.py --workload corpus --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all          # all three, one process

One run sets up the workload 3 to 15 times, untraced (median reported as
setup_s), then runs whole passes of its ops: the fewest that last --seconds
at the workload's nominal pass time, at least one (harness.pass_count).
With --trace 1, as many traced passes alternate with the untraced ones:
end-to-end numbers come from the untraced passes only, per-layer numbers
from the traced ones.  End-to-end times are scaled to the reference host
by calibrations made around every timed region (harness.calibrate).

Every metric is printed with its unit, median, quartiles and pass count.
For a single workload the last line of standard output is one JSON object
with `correct`, `attempted`, `failed` and `metrics`: the end-to-end
metrics of BENCHMARK.json with --trace 0, its per-layer metrics with
--trace 1.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")


def load_golden() -> dict:
    with open(os.path.join(HERE, "golden.json"), encoding="utf-8") as fh:
        return json.load(fh)["digests"]


def _fmt(v: float) -> str:
    return f"{v:.6g}"


def print_table(title: str, metrics: dict, units: dict) -> None:
    print(f"== {title}")
    print(f"  {'metric':32} {'unit':6} {'median':>12} {'q1':>12} {'q3':>12} {'n':>3}")
    for name, unit in units.items():
        s = metrics.get(name)
        if s is None:
            print(f"  {name:32} {unit:6} {'-':>12}")
            continue
        print(f"  {name:32} {unit:6} {_fmt(s['median']):>12} {_fmt(s['q1']):>12}"
              f" {_fmt(s['q3']):>12} {s['n']:>3}")


def report(res, trace: bool) -> None:
    import harness

    print(f"== workload {res.workload}: {res.attempted} ops attempted,"
          f" {res.failed} failed, correct={res.correct}")
    for r in res.samples:
        if not r.ok:
            tag = "known failure" if r.known else "FAILED"
            print(f"  {tag}: {r.id}: {r.detail[:300]}")
    raw = res.end_to_end(scale=False)
    calib = statistics.median(r.calib for r in res.samples)
    print(f"  calibration median {calib * 1e3:.2f} ms, reference"
          f" {harness.CALIBRATION_REF_S * 1e3:.2f} ms; as measured, unscaled:"
          f" setup_s {raw['setup_s']['median']:.6g} s, wall_s {raw['wall_s']['median']:.6g} s")
    print_table(f"{res.workload}: end to end", res.end_to_end(), harness.END_TO_END_UNITS)
    if trace:
        print_table(f"{res.workload}: per layer (traced passes)", res.per_layer(),
                    harness.LAYER_UNITS)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=["corpus", "deep", "long-range", "all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=None,
                    help="measuring time per workload (default: run_seconds)")
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "turancert", "__init__.py")):
        print(f"error: no turancert sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import harness
    import workloads

    spec = harness.load_spec()
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds
    golden = load_golden()
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    results = []
    for name in names:
        res = harness.run_workload(
            name, args.seed, seconds, bool(args.trace), workloads.FULL, golden, WORK, SRC,
            log=lambda msg: print(msg, file=sys.stderr, flush=True),
        )
        report(res, bool(args.trace))
        results.append(res)
    if args.workload == "all":
        return 0 if all(r.correct for r in results) else 1

    res = results[0]
    if args.trace:
        have, wanted = res.per_layer(), spec["per_layer"]
    else:
        have, wanted = res.end_to_end(), spec["end_to_end"]
    metrics = {m["name"]: {"value": have[m["name"]]["median"], "unit": m["unit"]}
               for m in wanted}
    print(json.dumps({"correct": res.correct, "attempted": res.attempted,
                      "failed": res.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
