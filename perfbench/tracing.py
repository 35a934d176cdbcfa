"""Per-layer tracing of turancert, installed from outside the package.

`Tracer.install()` replaces each traced public function in every
`turancert` module namespace that binds it (and each traced method on its
class) with a wrapper.  Layer functions get a span (name, start, end,
parent, thread); hot kernels get a call count only.  Spans stay in memory
until `finish()`, which restores the originals and folds the spans into
per-layer totals:

* `<layer>.self_s`: span time minus the part covered by child spans;
* `<layer>.calls`: number of spans or counted calls;
* `<layer>.sum_s`: total span duration (used for `checks.entry`).

A span opened by a worker thread with no open span of its own (the
`checks.run_all` pool) takes the innermost open span of the main thread
as its parent, so its time stays attributable to the op that started it.
"""

from __future__ import annotations

import gzip
import itertools
import json
import sys
import threading
from collections import Counter, defaultdict
from time import perf_counter

# (layer, module, attribute): a span around every call.
SPANS = [
    ("ratio.expansion", "turancert.asymptotics.ratio", "ratio_expansion"),
    ("ratio.u_expansion", "turancert.asymptotics.ratio", "u_expansion"),
    ("series", "turancert.asymptotics.series", "series_inv"),
    ("series", "turancert.asymptotics.series", "series_mul"),
    ("series", "turancert.asymptotics.series", "shift_series"),
    ("series", "turancert.asymptotics.series", "binomial_power"),
    ("series", "turancert.asymptotics.series", "series_pow_binomial"),
    ("criteria.llc", "turancert.criteria", "llogconcave_asymptotic"),
    ("criteria.turan3", "turancert.criteria", "turan3_asymptotic"),
    ("forms.u_power_log", "turancert.asymptotics.forms", "u_power_log"),
    ("sequences.ensure", "turancert.sequences", "TermTable.ensure"),
    # TermTable(rec, cache_dir) reads its cache file in _load.
    ("sequences.cache_load", "turancert.sequences", "TermTable._load"),
    ("sequences.scan", "turancert.sequences", "check_inequality_range"),
    ("sequences.scan", "turancert.sequences", "phi_values"),
    ("algebra.threshold", "turancert.algebra.roots", "eventual_positivity_threshold"),
    ("algebra.isolate_roots", "turancert.algebra.roots", "isolate_real_roots"),
    ("certify.ratio_bounds", "turancert.certify", "certify_ratio_bounds"),
    ("certify.u_bounds", "turancert.certify", "certify_u_bounds"),
    ("certify.corners", "turancert.certify", "corner_suite"),
    ("certify.turan3", "turancert.certify", "certify_turan3"),
    ("certify.verify", "turancert.certify", "verify_certificate"),
    ("checks.entry", "turancert.checks", "check_entry"),
    ("checks.run_all", "turancert.checks", "run_all"),
    ("render", "turancert.render", "frac_str"),
    ("render", "turancert.render", "series_to_json"),
    ("parser", "turancert.parser", "parse_recurrence"),
    ("parser", "turancert.parser", "parse_operator"),
]

# (counter, module, attribute): a call count only, for hot kernels.
COUNTS = [
    ("algebra.poly_gcd.calls", "turancert.algebra.poly", "poly_gcd"),
    ("algebra.ratfunc_new.calls", "turancert.algebra.ratfunc", "RatFunc.__init__"),
    ("algebra.sturm_chain.calls", "turancert.algebra.roots", "sturm_chain"),
    ("sequences.sign_evals", "turancert.sequences", "turan3_sign"),
    ("sequences.sign_evals", "turancert.sequences", "logconcave_sign"),
    ("sequences.sign_evals", "turancert.sequences", "u_value"),
]


def _resolve(module: str, attr: str):
    owner = sys.modules[module]
    if "." in attr:
        cls_name, attr = attr.split(".")
        owner = getattr(owner, cls_name)
    return owner, attr, getattr(owner, attr)


def _rebind(original, wrapper, restore: list) -> None:
    """Point every turancert module global (and dict value) at `wrapper`."""
    for name, mod in list(sys.modules.items()):
        if not name.startswith("turancert") or mod is None:
            continue
        for key, value in list(vars(mod).items()):
            if value is original:
                restore.append((mod, key, original))
                setattr(mod, key, wrapper)
            elif isinstance(value, dict) and not key.startswith("__"):
                for dkey, dval in value.items():
                    if dval is original:
                        restore.append((value, dkey, original))
                        value[dkey] = wrapper


class Tracer:
    def __init__(self):
        self.spans: list = []  # [id, layer, parent id, thread, start, end]
        self.counts: Counter = Counter()
        self.expansion_keys: set = set()
        self.segment_n = 0
        self.grown: dict = {}  # id(table) -> [table, first new index, end]
        self._ids = itertools.count()
        self._lock = threading.Lock()
        self._stacks: dict = {}
        self._main = threading.get_ident()
        self._restore: list = []

    # -- wrappers ---------------------------------------------------------

    def _span_wrapper(self, layer: str, fn):
        spans, stacks, ids, main = self.spans, self._stacks, self._ids, self._main

        def traced(*args, **kwargs):
            tid = threading.get_ident()
            stack = stacks.setdefault(tid, [])
            if stack:
                parent = stack[-1]
            elif tid != main and stacks.get(main):
                parent = stacks[main][-1]
            else:
                parent = None
            rec = [next(ids), layer, parent, tid, 0.0, 0.0]
            stack.append(rec[0])
            rec[4] = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                rec[5] = perf_counter()
                stack.pop()
                spans.append(rec)

        return traced

    def _count_wrapper(self, counter: str, fn):
        counts, lock = self.counts, self._lock

        def counted(*args, **kwargs):
            with lock:
                counts[counter] += 1
            return fn(*args, **kwargs)

        return counted

    def _expansion_wrapper(self, fn):
        def expansion(rec, K, rho=None, table=None):
            rx = fn(rec, K, rho, table)
            with self._lock:
                self.expansion_keys.add((rec, rx.rho))
            return rx

        return expansion

    def _certify_wrapper(self, fn):
        def certify(*args, **kwargs):
            cert = fn(*args, **kwargs)
            with self._lock:
                self.segment_n += cert.N
            return cert

        return certify

    def _ensure_wrapper(self, fn):
        grown, lock = self.grown, self._lock

        def ensure(table, n):
            before = len(table)
            fn(table, n)
            after = len(table)
            if after > before:
                with lock:
                    slot = grown.setdefault(id(table), [table, before, after])
                    slot[1] = min(slot[1], before)
                    slot[2] = max(slot[2], after)

        return ensure

    # -- install / finish ---------------------------------------------------

    def install(self) -> None:
        import turancert.cli  # noqa: F401  (load every module that binds a target)
        import turancert.checks  # noqa: F401

        inner = {
            "ratio_expansion": self._expansion_wrapper,
            "certify_turan3": self._certify_wrapper,
            "TermTable.ensure": self._ensure_wrapper,
        }
        for layer, module, attr in SPANS:
            owner, name, original = _resolve(module, attr)
            fn = inner[attr](original) if attr in inner else original
            self._install_one(owner, name, original, self._span_wrapper(layer, fn))
        for counter, module, attr in COUNTS:
            owner, name, original = _resolve(module, attr)
            self._install_one(owner, name, original, self._count_wrapper(counter, original))

    def _install_one(self, owner, name, original, wrapper) -> None:
        if isinstance(owner, type):
            self._restore.append((owner, name, original))
            setattr(owner, name, wrapper)
        else:
            _rebind(original, wrapper, self._restore)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._restore):
            if isinstance(owner, dict):
                owner[key] = original
            else:
                setattr(owner, key, original)
        self._restore.clear()

    def finish(self) -> dict:
        """Restore the originals and return this op's per-layer totals."""
        self.uninstall()
        out: dict = Counter(self.counts)
        for layer, self_s, dur in _self_times(self.spans):
            out[f"{layer}.self_s"] += self_s
            out[f"{layer}.sum_s"] += dur
            out[f"{layer}.calls"] += 1
        out["ratio.expansion.keys"] = len(self.expansion_keys)
        out["certify.segment_n"] = self.segment_n
        computed, bits = 0, 0
        for table, lo, hi in self.grown.values():
            computed += hi - lo
            for v in table.values(lo, hi - 1):
                bits = max(bits, v.numerator.bit_length(), v.denominator.bit_length())
        out["sequences.terms_computed"] = computed
        out["sequences.max_term_bits"] = bits
        return dict(out)

    def write_spans(self, path: str) -> None:
        with gzip.open(path, "wt", compresslevel=1) as fh:
            for rec in sorted(self.spans):
                fh.write(json.dumps(rec) + "\n")


def _self_times(spans: list):
    """Yield (layer, self time, duration) per span.

    Self time is the span's duration minus the union of its children's
    intervals (clipped to the span), so overlapping children from pool
    threads are not subtracted twice.
    """
    children = defaultdict(list)
    for rec in spans:
        if rec[2] is not None:
            children[rec[2]].append((rec[4], rec[5]))
    for rec in spans:
        start, end = rec[4], rec[5]
        covered, reach = 0.0, start
        for c0, c1 in sorted(children.get(rec[0], ())):
            c0, c1 = max(c0, reach), min(c1, end)
            if c1 > c0:
                covered += c1 - c0
                reach = c1
        yield rec[1], end - start - covered, end - start
