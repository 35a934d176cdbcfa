"""The three benchmark workloads: their ops, set-up and output checks.

An op has three steps, all run in a child forked from the driver:
`prepare` (untimed, untraced), `act` (the timed region, traced in a traced
pass) and `check` (untimed, untraced), which turns the outcome into a list
of problems and a digest of the contract-relevant output.  The driver
compares that digest with `golden.json`, recorded at the seed commit.

Why each workload exists, and which layer metric should move on it, is in
README.md next to this file.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional

# Library calls go through the module attribute, so that the traced run's
# wrappers see them too.
from turancert import asymptotics, cli, criteria, parser, sequences
from turancert.corpus import ENTRIES
from turancert.render import frac_str
from turancert.sequences import TermTable

WORKLOADS = ("corpus", "deep", "long-range")

# Ops that fail at the seed commit, with the text their error must contain.
# `frac_str` hits CPython's 4300-digit int->str limit: involutions from
# n ~ 1597 (denominators), apery from n ~ 2813.
DIGIT_LIMIT = "Exceeds the limit (4300 digits)"
KNOWN_FAILURES = {
    "long-range/terms-3000/apery": DIGIT_LIMIT,
    "long-range/terms-3000/involutions": DIGIT_LIMIT,
}

VERDICT_EXIT = {"holds": 0, "inconclusive": 2, "fails": 3}


@dataclass
class Context:
    """Per-run state shared by the ops: a scratch directory and the seed."""

    work: str
    seed: int

    @property
    def cache_dir(self) -> str:
        return os.path.join(self.work, "terms")

    def cert_path(self, name: str) -> str:
        return os.path.join(self.work, "certs", f"{name}.json")


@dataclass
class Op:
    id: str
    kind: str  # the end-to-end metric its time counts towards
    act: Callable  # act(state) -> outcome; the timed region
    check: Callable  # check(ctx, outcome) -> (problems, digest)
    prepare: Callable = lambda ctx: None  # -> state, or SKIP
    delivered: int = 0  # terms a passing op delivers (terms ops only)


SKIP = object()


# -- digests -------------------------------------------------------------------


def digest(obj) -> str:
    blob = json.dumps(obj, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()[:20]


def values_digest(vals) -> str:
    """Digest of exact rationals, without going through decimal strings."""
    h = hashlib.sha256()
    for v in vals:
        for part in (v.numerator, v.denominator):
            h.update(part.to_bytes((part.bit_length() + 8) // 8, "big", signed=True))
            h.update(b"|")
    return h.hexdigest()[:20]


# -- CLI ops ---------------------------------------------------------------------


@dataclass
class CliOutcome:
    rc: int
    out: str
    err: str


def _run_cli(argv: list) -> CliOutcome:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    return CliOutcome(rc, out.getvalue(), err.getvalue())


def _payload(o: CliOutcome, problems: list) -> Optional[dict]:
    try:
        return json.loads(o.out)
    except json.JSONDecodeError:
        problems.append(f"exit {o.rc}, no JSON output: {o.err.strip()[:200]}")
        return None


def cli_op(op_id: str, kind: str, argv: list, check, prepare=None, delivered=0) -> Op:
    def act(state):
        return _run_cli(state if state is not None else argv)

    return Op(op_id, kind, act, check, prepare or (lambda ctx: None), delivered)


def _check_verdict(name: str, ell: Optional[int]):
    entry = ENTRIES[name]

    def check(ctx, o: CliOutcome):
        problems: list = []
        p = _payload(o, problems)
        if p is None:
            return problems, None
        result = p.get("result")
        if VERDICT_EXIT.get(result) != o.rc:
            problems.append(f"exit {o.rc} does not match verdict {result!r}")
        if ell is None and "turan3" in entry.expected:
            if result != entry.expected["turan3"]:
                problems.append(f"turan3 {result} != golden {entry.expected['turan3']}")
        if ell is not None and ell <= entry.expected.get("llc_level", 0):
            if result != "holds":
                problems.append(f"llc-{ell} {result} != golden holds")
        return problems, digest([o.rc, result, p.get("rule")])

    return check


def _check_certify(name: str):
    def check(ctx, o: CliOutcome):
        if o.rc == 1:  # refusal: the error line is the contract
            return [], digest([o.rc, o.err.strip()])
        if o.rc not in (0, 2):
            return [f"exit {o.rc}: {o.err.strip()[:200]}"], None
        try:
            with open(ctx.cert_path(name), encoding="utf-8") as fh:
                cert = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            return [f"certificate not readable: {exc}"], None
        want_kind = "turan3" if o.rc == 0 else "u-window"
        problems = [] if cert.get("kind") == want_kind else [
            f"exit {o.rc} wrote a {cert.get('kind')!r} certificate"]
        return problems, digest([o.rc, cert])

    return check


def _check_verify(ctx, o: CliOutcome):
    problems: list = []
    p = _payload(o, problems)
    if p is None:
        return problems, None
    if o.rc != 0 or p.get("ok") is not True:
        problems.append(f"certificate rejected: {p.get('diagnosis')}")
    return problems, digest([o.rc, p.get("ok"), p.get("diagnosis")])


def _check_corpus_run(ctx, o: CliOutcome):
    problems: list = []
    p = _payload(o, problems)
    if p is None:
        return problems, None
    if o.rc != 0 or p.get("failures") != 0:
        bad = [r for r in p.get("results", []) if not r.get("ok")]
        problems.append(f"corpus run reports {p.get('failures')} failures: {bad[:3]}")
    rows = [[r["entry"], r["check"], r["ok"]] for r in p.get("results", [])]
    return problems, digest([o.rc, p.get("checks"), rows])


def _check_u_asymp(ctx, o: CliOutcome):
    problems: list = []
    p = _payload(o, problems)
    if p is None:
        return problems, None
    if o.rc != 0:
        problems.append(f"exit {o.rc}")
    return problems, digest([o.rc, p.get("scaling"), p.get("series")])


def _check_terms(name: str, to: int):
    entry = ENTRIES[name]

    def check(ctx, o: CliOutcome):
        problems: list = []
        p = _payload(o, problems)
        if p is None:
            return problems, None
        terms = p.get("terms", [])
        if o.rc != 0 or len(terms) != to + 1:
            problems.append(f"exit {o.rc}, {len(terms)} terms for --to {to}")
            return problems, None
        want = [frac_str(v) for v in entry.expected["terms"]["values"]]
        if terms[: len(want)] != want:
            problems.append("terms differ from the golden prefix")
        vals = [Fraction(t) for t in terms]
        rec = entry.recurrence
        d = rec.order
        bad = [n for n in range(len(vals) - d) if rec.residual(vals[n : n + d + 1], n) != 0]
        if bad:
            problems.append(f"nonzero recurrence residual at n = {bad[:3]}")
        return problems, None

    return check


# -- library ops -----------------------------------------------------------------


def _check_llc(ctx, outcome):
    result, rule = outcome
    problems = [] if result == "holds" else [f"verdict {result} ({rule}) != holds"]
    return problems, digest([result, rule])


def llc_op(op_id: str, make_form: Callable, ell: int) -> Op:
    def act(state):
        v = criteria.llogconcave_asymptotic(make_form(), ell)
        return v.result, v.rule

    return Op(op_id, "llc_forms", act, _check_llc)


def cache_load_op(op_id: str, name: str, to: int) -> Op:
    rec = ENTRIES[name].recurrence

    def act(ctx):
        return TermTable(rec, cache_dir=ctx.cache_dir)

    def check(ctx, table):
        problems = [] if len(table) == to + 1 else [f"loaded {len(table)} terms, want {to + 1}"]
        return problems, values_digest(table.values(0, len(table) - 1))

    return Op(op_id, "cache_load", act, check, prepare=lambda ctx: ctx)


def _loaded_table(name: str):
    def prepare(ctx):
        return TermTable(ENTRIES[name].recurrence, cache_dir=ctx.cache_dir)

    return prepare


def _check_index_list(ctx, indices):
    return [], digest(indices)


def turan3_scan_op(op_id: str, name: str, lo: int, hi: int) -> Op:
    scaling = ENTRIES[name].scaling

    def act(table):
        return sequences.check_inequality_range(table, "turan3", lo, hi, scaling)

    return Op(op_id, "scan", act, _check_index_list, prepare=_loaded_table(name))


def phi_scan_op(op_id: str, name: str, lo: int, hi: int) -> Op:
    scaling = ENTRIES[name].scaling

    def act(table):
        vals = sequences.phi_values(table, 2, lo, hi, scaling)
        return [lo + i for i, v in enumerate(vals) if v <= 0]

    return Op(op_id, "scan", act, _check_index_list, prepare=_loaded_table(name))


# -- workloads -------------------------------------------------------------------


@dataclass(frozen=True)
class Sizes:
    corpus_entries: tuple
    corpus_run: bool
    expand_K: int
    log_form_order: int
    levels: tuple  # (max level for n^3, max level for n^2 log n)
    terms_to: int
    scan_hi: int
    phi_hi: int


FULL = Sizes(tuple(sorted(ENTRIES)), True, 12, 14, (6, 5), 3000, 2998, 1000)
SMOKE = Sizes(("apery", "inverse-catalan", "motzkin"), False, 4, 6, (2, 2), 200, 150, 100)

EXPAND_NAMES = ("bn", "apery", "involutions")
TERMS_NAMES = ("motzkin", "domb", "apery", "involutions")
TURAN3_SCAN_NAMES = ("motzkin", "domb", "apery")
PHI_SCAN_NAMES = ("motzkin", "involutions")


CORPUS_RUN_REPEATS = 3


def corpus_ops(ctx: Context, sz: Sizes) -> list:
    rng = random.Random(ctx.seed)
    names = list(sz.corpus_entries)
    rng.shuffle(names)
    groups = []
    for name in names:
        cert = ctx.cert_path(name)

        def prepare_certify(ctx, cert=cert):
            with contextlib.suppress(FileNotFoundError):
                os.remove(cert)

        def prepare_verify(ctx, cert=cert, name=name):
            if not os.path.exists(cert):  # certify refused: nothing to verify
                return SKIP
            return ["verify", cert, name, "--json"]

        groups.append([
            cli_op(f"corpus/check-turan3/{name}", "verdict",
                   ["check-turan3", name, "--json"], _check_verdict(name, None)),
            cli_op(f"corpus/check-llc-2/{name}", "verdict",
                   ["check-llc", name, "--ell", "2", "--json"], _check_verdict(name, 2)),
            cli_op(f"corpus/certify/{name}", "certify",
                   ["certify", name, "--json", "-o", cert], _check_certify(name),
                   prepare=prepare_certify),
            cli_op(f"corpus/verify/{name}", "verify", [], _check_verify,
                   prepare=prepare_verify),
        ])
    # `corpus run` (a 4-thread pool) swings by up to 50% from one call to
    # the next, far more than any other op.  So a pass runs it
    # CORPUS_RUN_REPEATS times, spread over the pass, and its per-pass time
    # is the median of those, as for any op with several samples.
    for _ in range(CORPUS_RUN_REPEATS if sz.corpus_run else 0):
        groups.insert(rng.randrange(len(groups) + 1), [
            cli_op("corpus/corpus-run", "corpus_run",
                   ["corpus", "run", "--seed", str(ctx.seed), "--json"], _check_corpus_run),
        ])
    return [op for group in groups for op in group]


def deep_ops(ctx: Context, sz: Sizes) -> list:
    K = sz.expand_K
    ops = [
        cli_op(f"deep/u-asymp-K{K}/{name}", "expand",
               ["u-asymp", name, "-K", str(K), "--json"], _check_u_asymp)
        for name in EXPAND_NAMES
    ]
    order = sz.log_form_order
    forms = [
        ("n3", lambda: asymptotics.u_power(3, None), sz.levels[0]),
        (f"n2logn-{order}", lambda: asymptotics.u_power_log(2, 1, order), sz.levels[1]),
    ]
    for form, make, top in forms:
        ops += [llc_op(f"deep/llc-{ell}/{form}", make, ell) for ell in range(1, top + 1)]
    random.Random(ctx.seed).shuffle(ops)
    return ops


def long_range_ops(ctx: Context, sz: Sizes) -> list:
    to = sz.terms_to
    ops = [
        cli_op(f"long-range/terms-{to}/{name}", "terms",
               ["terms", name, "--to", str(to), "--json"], _check_terms(name, to),
               delivered=to + 1)
        for name in TERMS_NAMES
    ]
    ops += [cache_load_op(f"long-range/cache-load-{to}/{n}", n, to) for n in TERMS_NAMES]
    ops += [
        turan3_scan_op(f"long-range/turan3-scan-1-{sz.scan_hi}/{n}", n, 1, sz.scan_hi)
        for n in TURAN3_SCAN_NAMES
    ]
    ops += [
        phi_scan_op(f"long-range/phi2-scan-0-{sz.phi_hi}/{n}", n, 0, sz.phi_hi)
        for n in PHI_SCAN_NAMES
    ]
    random.Random(ctx.seed).shuffle(ops)
    return ops


BUILDERS = {"corpus": corpus_ops, "deep": deep_ops, "long-range": long_range_ops}

# Seconds of one untraced FULL pass on a 2-vCPU 2.0 GHz VM at the seed
# commit.  A run makes the fewest passes that last --seconds at these
# times (harness.pass_count).
# Fixed numbers, not measured ones, so the ops a run attempts never depend
# on the speed of the host.
NOMINAL_PASS_S = {"corpus": 36.0, "deep": 27.0, "long-range": 12.5}


# -- set-up ----------------------------------------------------------------------


class SetupError(RuntimeError):
    pass


def parse_sources() -> None:
    """Parse every corpus entry from its source text, as a user's input is."""
    for name, entry in ENTRIES.items():
        if parser.parse_recurrence(entry.source, name=name) != entry.recurrence:
            raise SetupError(f"corpus source of {name} does not parse to its recurrence")


def fill_term_cache(cache_dir: str, to: int) -> None:
    """Write exact terms a(0..to) of the long-range sequences to `cache_dir`."""
    for name in TERMS_NAMES:
        table = TermTable(ENTRIES[name].recurrence, cache_dir=cache_dir)
        table.ensure(to)
        table.flush()
