"""Random recurrences through the command line: no traceback, no runaway.

Each input is a random recurrence of order 1 to 3 whose leading
coefficient vanishes at no n >= 0.  It runs in-process through `cli.main`
as `check-turan3 --json`, `check-llc --ell 1 --json`, `certify -o F` and
`certify --scale n! -o F`, and every certificate written then runs
through `verify`.  Each call has
a time bound.  Every exit code must be one the command line documents,
exit 1 must come with an `error:` line, `--json` output must parse, and
every certificate written must verify.

`python tests/test_random_inputs.py COUNT [FIRST_SEED]` runs the same
checks on COUNT inputs from FIRST_SEED (default 0) and prints a summary,
with the number of branches that `ratio_expansion` accepts at K = 4 and
that the expansion oracle (`oracles.expansion_agrees`) contradicts.  It
asserts nothing about those branches.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import signal
import sys
import tempfile
import time
from collections import Counter
from pathlib import Path

import pytest

from turancert import cli
from turancert.asymptotics import ExpansionError, ratio_expansion
from turancert.parser import ParseError, parse_recurrence

from oracles import expansion_agrees

SECONDS_PER_CALL = 8
EXIT_CODES = {0, 1, 2, 3}  # holds/success, error, inconclusive, fails

FIXED = {
    # alpha_1 = 2 with an irrational limit of r_1, (2 - sqrt 6)/2
    "irrational-critical-limit":
        "(n^2+3*n+2)*a(n+2) - (6*n+10)*a(n+1) - (6*n^2+6*n+1)*a(n) = 0 ; a(0)=5, a(1)=5",
    # an induction threshold of 45495, past the base scan's budget
    "induction-past-the-budget":
        "(4*n+16)*a(n+2) - (2*n+9)*a(n+1) - 11*a(n) = 0 ; a(0)=6, a(1)=2",
}


def _poly_text(cs: list) -> str:
    """A polynomial in n with integer coefficients cs, lowest degree first."""
    terms = [f"{c:+d}" + ("" if e == 0 else "*n" if e == 1 else f"*n^{e}")
             for e, c in enumerate(cs) if c]
    return f"({''.join(reversed(terms))})"


def random_input(seed: int) -> str:
    """Relation text: order d in {1, 2, 2, 3}; p0 = c (n + j_1) ... (n + j_r)
    with c in 1..4, r in 0..3 and each j_i in 1..4, so p0 vanishes at no
    n >= 0; every other p_k has integer coefficients in [-12, 12] and degree
    at most r; the initial values are integers in 1..9."""
    rng = random.Random(seed)
    d = rng.choice((1, 2, 2, 3))
    r = rng.randint(0, 3)
    p0 = "*".join([str(rng.randint(1, 4))] + [f"(n+{rng.randint(1, 4)})" for _ in range(r)])
    parts = [f"{p0}*a(n+{d})"]
    for k in range(1, d + 1):
        cs = [rng.randint(-12, 12) for _ in range(r + 1)]
        if any(cs):
            shift = d - k
            parts.append(f"{_poly_text(cs)}*a(n{f'+{shift}' if shift else ''})")
    initials = ", ".join(f"a({i})={rng.randint(1, 9)}" for i in range(d))
    return f"{' + '.join(parts)} = 0 ; {initials}"


class _Runaway(BaseException):
    """Raised by the alarm; a BaseException, so that no handler in the
    package can take it for an error of the input."""


def _on_alarm(signum, frame):
    raise _Runaway(f"a call ran past {SECONDS_PER_CALL} s")


def _run(argv: list) -> tuple:
    """(exit code, stdout, stderr) of `cli.main(argv)`, bounded in time."""
    out, err = io.StringIO(), io.StringIO()
    old = signal.signal(signal.SIGALRM, _on_alarm)
    signal.alarm(SECONDS_PER_CALL)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, old)
    return code, out.getvalue(), err.getvalue()


def check_input(src: str, workdir: Path) -> dict:
    """Run `src` through every command; return the exit code of each, by
    name ("verify n!" for the certificate of "certify n!", if one was
    written), and raise AssertionError on the first broken rule."""
    codes = {}
    cert = workdir / "cert.json"
    for name, argv in (
        ("turan3", ["check-turan3", src, "--json"]),
        ("llc", ["check-llc", src, "--ell", "1", "--json"]),
        ("certify", ["certify", src, "-o", str(cert)]),
        ("certify n!", ["certify", src, "--scale", "n!", "-o", str(cert)]),
    ):
        cert.unlink(missing_ok=True)
        code, out, err = _run(argv)
        context = f"{name} on {src!r}: exit {code}, stderr {err!r}"
        assert code in EXIT_CODES, context
        if code == 1:
            assert any(line.startswith("error: ") for line in err.splitlines()), context
        if "--json" in argv and out:
            json.loads(out)
        codes[name] = code
        if cert.exists():
            code, out, err = _run(["verify", str(cert), src])
            assert code == 0, f"verify of {name} on {src!r}: exit {code}, {out!r}, {err!r}"
            codes[name.replace("certify", "verify")] = code
    return codes


GATE_SEEDS = range(60)


def _shape(src: str) -> tuple:
    """(order, number of linear factors of p0) of a `random_input`."""
    p0, _, rest = src.partition("*a(n+")
    return int(rest[0]), p0.count("(n+")


def test_generator_covers_every_order_and_factor_count():
    srcs = [random_input(seed) for seed in GATE_SEEDS]
    assert len(set(srcs)) == len(srcs)
    shapes = {_shape(src) for src in srcs}
    assert {d for d, _ in shapes} == {1, 2, 3} and {r for _, r in shapes} == {0, 1, 2, 3}


@pytest.mark.parametrize("seed", GATE_SEEDS)
def test_random_input_runs_every_command_cleanly(seed, tmp_path):
    check_input(random_input(seed), tmp_path)


@pytest.mark.parametrize("name", sorted(FIXED))
def test_fixed_input_runs_every_command_cleanly(name, tmp_path):
    check_input(FIXED[name], tmp_path)


def branch_contradicted(src: str) -> bool | None:
    """None when `ratio_expansion` accepts no branch of `src` at K = 4, else
    whether the expansion oracle contradicts the branch it accepts."""
    try:
        rec = parse_recurrence(src)
        rx = ratio_expansion(rec, 4)
    except (ParseError, ExpansionError, ValueError, ZeroDivisionError):
        return None
    return not expansion_agrees(rec, rx)


def main(argv: list) -> int:
    count = int(argv[0])
    first = int(argv[1]) if len(argv) > 1 else 0
    tally: Counter = Counter()
    accepted, contradicted = 0, []
    start = time.perf_counter()
    with tempfile.TemporaryDirectory() as tmp:
        for seed in range(first, first + count):
            src = random_input(seed)
            codes = check_input(src, Path(tmp))
            tally.update(f"{cmd}={code}" for cmd, code in codes.items())
            wrong = branch_contradicted(src)
            accepted += wrong is not None
            if wrong:
                contradicted.append(seed)
    verified = tally["verify=0"] + tally["verify n!=0"]
    print(f"{count} inputs from seed {first} in {time.perf_counter() - start:.1f} s: "
          f"{verified} certificates verified; exit codes {dict(sorted(tally.items()))}")
    print(f"{accepted} accepted branches, {len(contradicted)} contradicted by the expansion oracle"
          f" (seeds {contradicted})")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
