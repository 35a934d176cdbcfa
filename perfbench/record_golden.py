"""Record the output digests the benchmark gate compares against.

    python3 perfbench/record_golden.py

Runs every op of every workload once, at full and smoke sizes, and writes
perfbench/golden.json.  The digests are the output contract (certificates,
u-series, verdict rules, scan index lists, cache-load values); re-record
only in a change that alters that contract on purpose, and say so.
"""

from __future__ import annotations

import json
import os
import shutil
import sys

from run import HERE, SRC, WORK

sys.path.insert(0, SRC)

import harness  # noqa: E402
import workloads  # noqa: E402


def main() -> int:
    digests = {}
    for sizes in (workloads.FULL, workloads.SMOKE):
        for name in workloads.WORKLOADS:
            ctx = workloads.Context(os.path.join(WORK, "record", name), 0)
            os.makedirs(os.path.dirname(ctx.cert_path("x")), exist_ok=True)
            harness.setup_once(ctx, name, sizes, SRC)
            for op in workloads.BUILDERS[name](ctx, sizes):
                res = harness.in_child(harness.op_child, op, ctx, None)
                if res.get("skipped"):
                    continue
                print(f"{op.id}: {res['elapsed']:.3f} s {res['digest']} {res['problems']}",
                      flush=True)
                if res["digest"] is not None:
                    digests[op.id] = res["digest"]
    shutil.rmtree(os.path.join(WORK, "record"), ignore_errors=True)
    path = os.path.join(HERE, "golden.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"digests": dict(sorted(digests.items()))}, fh, indent=1)
        fh.write("\n")
    print(f"wrote {len(digests)} digests to {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
