"""Run a workload: set-up, passes of forked ops, output gate, metrics.

Each op runs in a child forked from the driver right after `turancert` is
imported, so no in-memory memo survives from one op to the next, as for a
CLI user.  Children run one at a time and the driver waits for each.
"""

from __future__ import annotations

import gc
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from dataclasses import dataclass, field
from fractions import Fraction
from time import perf_counter

import workloads
from tracing import Tracer

# A run sets up at least SETUP_MIN times, and more while its set-ups have
# taken less than SETUP_SECONDS in all, up to SETUP_MAX.  Short set-ups
# thus get more repeats, which steadies their median.
SETUP_MIN, SETUP_MAX, SETUP_SECONDS = 3, 15, 5.0

# Category of an op -> its end-to-end metric (seconds per pass).
CATEGORY_METRICS = {
    "verdict": "verdict_s",
    "certify": "certify_s",
    "verify": "verify_s",
    "corpus_run": "corpus_run_s",
    "expand": "expand_s",
    "llc_forms": "llc_forms_s",
    "cache_load": "cache_load_s",
    "scan": "scan_s",
}

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "verdict_s": "s",
    "certify_s": "s",
    "verify_s": "s",
    "corpus_run_s": "s",
    "expand_s": "s",
    "llc_forms_s": "s",
    "terms_per_s": "1/s",
    "cache_load_s": "s",
    "scan_s": "s",
    "fail_rate": "ratio",
    "peak_rss_mb": "MB",
}

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


LAYER_UNITS = {m["name"]: m["unit"] for m in load_spec()["per_layer"]}


# -- host speed ------------------------------------------------------------------

# Median seconds of `calibrate()` on the reference host, a 2-vCPU 2.0 GHz VM
# running Python 3.11.7.  Fixed, so that a scaled time means the same on
# every commit.
CALIBRATION_REF_S = 0.068


def calibrate() -> float:
    """Seconds of a fixed pure-Python computation that uses no turancert
    code: exact `Fraction` stepping with growing big ints, then a small-int
    interpreter loop, the two kinds of work the ops do.  The cyclic GC is
    off meanwhile, so the heap the calling process holds does not count.

    A shared host's speed drifts by 10-40% over minutes, and a calibration
    made in another process tracks that poorly.  So every timed region (an
    op's `act`, a set-up) runs in a child between two calibrations made in
    that same child, and
    its end-to-end time is scaled to the reference host by their mean (see
    `scaled`).  The drift largely cancels, while a slower turancert still
    shows, because the calibration runs none of its code.
    """
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = perf_counter()
        a, b = Fraction(1), Fraction(1, 2)
        for n in range(1, 800):
            a, b = b, (a * n + b * (2 * n + 1)) / (n + 2)
        acc = 0
        for i in range(280_000):
            acc = (acc * 31 + i) & 0xFFFFFFFF
        return perf_counter() - t0
    finally:
        if was_enabled:
            gc.enable()


def scaled(elapsed: float, calib: float) -> float:
    """`elapsed` seconds measured next to a calibration of `calib` seconds,
    as seconds on the reference host."""
    return elapsed * CALIBRATION_REF_S / calib


# -- children ----------------------------------------------------------------------


class ChildError(RuntimeError):
    pass


def in_child(fn, *args):
    """Run fn(*args) in a forked child and return its JSON-able result."""
    sys.stdout.flush()
    sys.stderr.flush()
    r, w = os.pipe()
    pid = os.fork()
    if pid == 0:
        os.close(r)
        try:
            reply = {"ok": fn(*args)}
        except BaseException:  # the driver reports it; the child must not survive
            reply = {"error": traceback.format_exc()}
        try:
            with os.fdopen(w, "w", encoding="utf-8") as fh:
                json.dump(reply, fh)
        finally:
            os._exit(0)
    os.close(w)
    with os.fdopen(r, "r", encoding="utf-8") as fh:
        blob = fh.read()
    _, status = os.waitpid(pid, 0)
    if not blob:
        raise ChildError(f"child exited with status {status} and no reply")
    reply = json.loads(blob)
    if "error" in reply:
        raise ChildError(reply["error"])
    return reply["ok"]


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def op_child(op: workloads.Op, ctx: workloads.Context, spans_path) -> dict:
    state = op.prepare(ctx)
    if state is workloads.SKIP:
        return {"skipped": True}
    calib = calibrate()
    tracer = Tracer() if spans_path else None
    if tracer:
        tracer.install()
    crash = None
    t0 = perf_counter()
    try:
        outcome = op.act(state)
    except Exception:  # a crash of the program is a failed op
        crash = traceback.format_exc(limit=3)
    elapsed = perf_counter() - t0
    calib = (calib + calibrate()) / 2
    layers = None
    if tracer:
        layers = tracer.finish()
        tracer.write_spans(spans_path)
    if crash is not None:
        problems, dig = [f"crashed: {crash}"], None
    else:
        problems, dig = op.check(ctx, outcome)
    return {
        "elapsed": elapsed,
        "calib": calib,
        "rss_mb": _peak_rss_mb(),
        "problems": problems,
        "digest": dig,
        "layers": layers,
    }


IMPORT_CHECK = "import sys; sys.path.insert(0, sys.argv[1]); import turancert.cli"


def _setup_child(ctx: workloads.Context, workload: str, sizes, src: str) -> list:
    calib = calibrate()
    t0 = perf_counter()
    subprocess.run([sys.executable, "-c", IMPORT_CHECK, src], check=True)
    workloads.parse_sources()
    if workload == "long-range":
        shutil.rmtree(ctx.cache_dir, ignore_errors=True)
        workloads.fill_term_cache(ctx.cache_dir, sizes.terms_to)
    elapsed = perf_counter() - t0
    return [elapsed, (calib + calibrate()) / 2]


def _traced_parse_child() -> float:
    tracer = Tracer()
    tracer.install()
    workloads.parse_sources()
    return tracer.finish().get("parser.self_s", 0.0)


def setup_once(ctx, workload: str, sizes, src: str) -> tuple:
    """One untraced set-up: a fresh interpreter importing turancert, the
    corpus sources parsed, and (long-range) the term cache written.
    Returns its seconds and the calibration made around it."""
    return tuple(in_child(_setup_child, ctx, workload, sizes, src))


# -- ops and passes ----------------------------------------------------------------


@dataclass
class OpRecord:
    id: str
    kind: str
    traced: bool
    elapsed: float
    calib: float  # mean calibration around the timed region
    rss_mb: float
    ok: bool
    known: bool  # a documented seed failure
    detail: str
    delivered: int
    layers: dict = field(default_factory=dict)

    @property
    def scaled(self) -> float:
        return scaled(self.elapsed, self.calib)


def judge(op: workloads.Op, res: dict, golden: dict, traced: bool = False) -> OpRecord:
    problems = list(res["problems"])
    if res["digest"] is not None:
        want = golden.get(op.id)
        if want is None:
            problems.append("no golden digest recorded for this op")
        elif want != res["digest"]:
            problems.append(f"output digest {res['digest']} != golden {want}")
    ok = not problems
    sig = workloads.KNOWN_FAILURES.get(op.id)
    known = not ok and sig is not None and all(sig in p for p in problems)
    return OpRecord(
        op.id, op.kind, traced, res["elapsed"], res["calib"], res["rss_mb"], ok, known,
        "; ".join(problems), op.delivered if ok else 0, res["layers"] or {},
    )


def run_op(op, index, ctx, golden, spans_dir):
    """Run one op in a child; None when the op has nothing to do."""
    spans_path = os.path.join(spans_dir, f"{index:03d}.jsonl.gz") if spans_dir else None
    try:
        res = in_child(op_child, op, ctx, spans_path)
    except ChildError as exc:
        res = {"elapsed": 0.0, "calib": CALIBRATION_REF_S, "rss_mb": 0.0,
               "problems": [f"child failed: {exc}"],
               "digest": None, "layers": None}
    if res.get("skipped"):
        return None
    return judge(op, res, golden, spans_dir is not None)


# -- metrics -----------------------------------------------------------------------


def _stats(vals: list) -> tuple:
    vals = sorted(vals)
    med = statistics.median(vals)
    if len(vals) < 2:
        return med, med, med
    q1, _, q3 = statistics.quantiles(vals, n=4, method="inclusive")
    return q1, med, q3


def summarize(samples: list) -> dict:
    """Median, quartiles and count of a list of samples."""
    q1, med, q3 = _stats(samples)
    return {"median": med, "q1": q1, "q3": q3, "n": len(samples)}


def per_op_total(groups: list, value, combine=sum) -> dict:
    """A per-pass value: each op's median, summed over ops (or combined
    with `max`).  q1 and q3 combine the per-op quartiles the same way, and
    n is the fewest samples any op has.
    """
    stats = [_stats([value(r) for r in g]) for g in groups]
    return {"median": combine(s[1] for s in stats), "q1": combine(s[0] for s in stats),
            "q3": combine(s[2] for s in stats), "n": min(len(g) for g in groups)}


def _by_op(records: list) -> dict:
    groups: dict = {}
    for r in records:
        groups.setdefault(r.id, []).append(r)
    return groups


@dataclass
class WorkloadResult:
    workload: str
    setups: list  # (seconds, calibration) of each set-up
    parser_self: list
    samples: list  # OpRecords of every op run, in run order

    @property
    def attempted(self) -> int:
        return len(self.samples)

    @property
    def failed(self) -> int:
        return sum(not r.ok for r in self.samples)

    @property
    def correct(self) -> bool:
        return all(r.ok or r.known for r in self.samples)

    def end_to_end(self, scale: bool = True) -> dict:
        """End-to-end metrics of the untraced passes.  Times are in seconds
        on the reference host (see `calibrate`); as measured with `scale`
        false."""
        elapsed = (lambda r: r.scaled) if scale else (lambda r: r.elapsed)
        untraced = [r for r in self.samples if not r.traced]
        groups = _by_op(untraced)
        out = {"setup_s": summarize([scaled(e, c) if scale else e for e, c in self.setups])}
        out["wall_s"] = per_op_total(list(groups.values()), elapsed)
        for kind, name in CATEGORY_METRICS.items():
            mine = [g for g in groups.values() if g[0].kind == kind]
            if mine:
                out[name] = per_op_total(mine, elapsed)
        terms = [g for g in groups.values() if g[0].kind == "terms"]
        if terms:
            t = per_op_total(terms, elapsed)
            delivered = sum(g[0].delivered for g in terms)
            out["terms_per_s"] = {"median": delivered / t["median"], "q1": delivered / t["q3"],
                                  "q3": delivered / t["q1"], "n": t["n"]}
        failing = per_op_total(list(groups.values()), lambda r: 0.0 if r.ok else 1.0)
        out["fail_rate"] = {k: v / len(groups) if k != "n" else v for k, v in failing.items()}
        out["peak_rss_mb"] = per_op_total(list(groups.values()), lambda r: r.rss_mb, max)
        return out

    def per_layer(self) -> dict:
        groups = list(_by_op([r for r in self.samples if r.traced]).values())
        if not groups:
            return {}
        out = {"trace.wall_s": per_op_total(groups, lambda r: r.scaled),
               "parser.self_s": summarize(self.parser_self)}
        for name, unit in LAYER_UNITS.items():
            if name not in out:
                key = "checks.run_all.sum_s" if name == "checks.run_all.wall_s" else name
                zero = 0.0 if unit == "s" else 0
                combine = max if name == "sequences.max_term_bits" else sum
                out[name] = per_op_total(groups, lambda r: r.layers.get(key, zero), combine)
        keys = per_op_total(groups, lambda r: r.layers.get("ratio.expansion.keys", 0))["median"]
        calls = out["ratio.expansion.calls"]["median"]
        out["ratio.expansion.reuse_ratio"] = summarize([keys / calls if calls else 0.0])
        # Paired per op: traced median minus untraced median, over the ops
        # that ran both ways, scaled like wall_s.
        untraced = _by_op([r for r in self.samples if not r.traced])
        overhead = sum(statistics.median(r.scaled for r in g)
                       - statistics.median(r.scaled for r in untraced[g[0].id])
                       for g in groups if g[0].id in untraced)
        out["trace.overhead_s"] = summarize([overhead])
        return {name: out[name] for name in LAYER_UNITS}


def pass_count(workload: str, seconds: float) -> int:
    """Passes per run (per kind, with tracing): the fewest whole passes
    that last `seconds` at the workload's nominal pass time, at least 1.
    The count depends on nothing measured, so every run of a workload
    attempts the same ops and `attempted` and `failed` repeat exactly."""
    return max(1, math.ceil(seconds / workloads.NOMINAL_PASS_S[workload]))


def run_workload(workload, seed, seconds, trace, sizes, golden, work, src,
                 log=lambda msg: None) -> WorkloadResult:
    """Set up (see SETUP_MIN), then run `pass_count` whole passes over the
    workload's ops; with `trace`, as many traced passes again, alternating
    with the untraced ones."""
    ctx = workloads.Context(os.path.join(work, workload), seed)
    shutil.rmtree(ctx.work, ignore_errors=True)
    os.makedirs(os.path.dirname(ctx.cert_path("x")), exist_ok=True)
    setups: list = []
    while len(setups) < SETUP_MIN or (sum(e for e, _ in setups) < SETUP_SECONDS
                                      and len(setups) < SETUP_MAX):
        setups.append(setup_once(ctx, workload, sizes, src))
    # parser.self_s comes from separate traced parses, so setup_s stays untraced.
    parser_self = [in_child(_traced_parse_child) for _ in range(SETUP_MIN)] if trace else []
    log(f"{workload}: set-up {statistics.median(e for e, _ in setups):.3f} s"
        f" ({len(setups)} repeats)")
    ops = workloads.BUILDERS[workload](ctx, sizes)
    samples: list = []
    start = perf_counter()
    npasses = pass_count(workload, seconds) * (2 if trace else 1)
    for npass in range(npasses):
        traced = trace and npass % 2 == 1
        spans_dir = os.path.join(work, "spans", workload) if traced else None
        if spans_dir:
            shutil.rmtree(spans_dir, ignore_errors=True)
            os.makedirs(spans_dir)
        for i, op in enumerate(ops):
            rec = run_op(op, i, ctx, golden, spans_dir)
            if rec is not None:
                samples.append(rec)
        log(f"{workload}: pass {npass + 1}/{npasses} done at {perf_counter() - start:.1f} s")
    shutil.rmtree(ctx.work, ignore_errors=True)
    return WorkloadResult(workload, setups, parser_self, samples)
