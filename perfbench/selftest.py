"""Self-tests of the benchmark itself (not of turancert).

    python3 perfbench/selftest.py

* every workload runs end to end at smoke size, untraced and traced, with
  every op passing its output gate;
* a deliberately corrupted golden digest is counted as a failed op and
  makes the run incorrect, so the gate bites;
* a documented seed failure is told apart from any other failure;
* in a directory holding only BENCHMARK.json and perfbench/, the driver
  exits non-zero without printing a result.

Exits 0 when every check passes.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys

from run import HERE, ROOT, SRC, WORK, load_golden

sys.path.insert(0, SRC)

import harness  # noqa: E402
import workloads  # noqa: E402

FAILURES: list = []


def expect(cond: bool, what: str) -> None:
    print(f"{'ok  ' if cond else 'FAIL'} {what}", flush=True)
    if not cond:
        FAILURES.append(what)


def smoke(workload: str, trace: bool, golden: dict):
    return harness.run_workload(workload, 1, 0, trace, workloads.SMOKE, golden,
                                os.path.join(WORK, "selftest"), SRC)


def check_smoke_runs(golden: dict) -> None:
    for name in workloads.WORKLOADS:
        res = smoke(name, False, golden)
        bad = [f"{r.id}: {r.detail}" for r in res.samples if not r.ok]
        expect(res.correct and res.failed == 0 and res.attempted > 0,
               f"{name}: smoke run passes every op ({res.attempted} ops) {bad}")
        e2e = res.end_to_end()
        expect(all(e2e[k]["median"] > 0 for k in ("setup_s", "wall_s", "peak_rss_mb")),
               f"{name}: setup_s, wall_s and peak_rss_mb are measured")
        traced = smoke(name, True, golden)
        layers = traced.per_layer()
        expect(list(layers) == list(harness.LAYER_UNITS) and traced.correct,
               f"{name}: traced smoke run reports every per-layer metric")
        expect(traced.attempted == 2 * res.attempted,
               f"{name}: a traced run makes as many traced as untraced passes")
        expect(layers["sequences.ensure.calls"]["median"] > 0,
               f"{name}: the tracer sees TermTable.ensure")


def check_gate_bites(golden: dict) -> None:
    victim = "corpus/certify/motzkin"
    corrupted = dict(golden)
    corrupted[victim] = "0" * len(golden[victim])
    res = smoke("corpus", False, corrupted)
    failed = [r for r in res.samples if not r.ok]
    expect([r.id for r in failed] == [victim] and not failed[0].known,
           "a corrupted golden digest fails exactly that op")
    expect(not res.correct, "a run with a gate failure is not correct")


def check_known_failure_matching() -> None:
    op = workloads.Op("long-range/terms-3000/apery", "terms", None, None)
    res = {"elapsed": 1.0, "calib": 0.1, "rss_mb": 1.0, "digest": None, "layers": None,
           "problems": [f"exit 1, no JSON output: error: {workloads.DIGIT_LIMIT} for"
                        " integer string conversion"]}
    expect(harness.judge(op, res, {}).known, "the documented digit-limit failure is known")
    res["problems"] = ["nonzero recurrence residual at n = [7]"]
    expect(not harness.judge(op, res, {}).known, "another failure of that op is not")


def check_bare_directory() -> None:
    bare = os.path.join(WORK, "bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "corpus", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=180,
    )
    shutil.rmtree(bare, ignore_errors=True)
    expect(proc.returncode != 0 and "correct" not in proc.stdout,
           "without the sources the driver exits non-zero and prints no result")


def main() -> int:
    golden = load_golden()
    check_known_failure_matching()
    check_bare_directory()
    check_gate_bites(golden)
    check_smoke_runs(golden)
    shutil.rmtree(os.path.join(WORK, "selftest"), ignore_errors=True)
    print(f"{len(FAILURES)} self-test failures")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
