"""Command line driver.

Sources are corpus names, files (relation text or a JSON recurrence
document), or inline relation text.  Exit codes are scriptable: 0 when a
checked property holds (or the command simply succeeded), 2 when a verdict
is inconclusive, 3 when a property fails or a certificate does not verify,
and 1 for usage and pipeline errors (a bad command line, bad input, refused
certification, I/O).
"""

from __future__ import annotations

import json
import os
import sys
from fractions import Fraction
from types import SimpleNamespace
from typing import NamedTuple, NoReturn, Optional

from . import __version__
from .algebra import Poly
from .asymptotics import ExpansionError, ratio_expansion, u_expansion
from .certify import (
    CertifyError,
    CornerError,
    certify_turan3,
    certify_u_window,
    verify_certificate,
)
from .checks import run_all
from .corpus import ENTRIES
from .criteria import llogconcave_verdict, turan3_verdict
from .parser import ParseError, parse_operator, parse_recurrence
from .render import (
    frac_str,
    growth_record,
    poly_text,
    ratfunc_text,
    series_to_json,
    series_to_text,
)
from .sequences import CacheError, Recurrence, SingularRecurrenceError, TermTable

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_INCONCLUSIVE = 2
EXIT_FAILS = 3

_VERDICT_EXIT = {
    "holds": EXIT_OK,
    "inconclusive": EXIT_INCONCLUSIVE,
    "fails": EXIT_FAILS,
}

_SCALE_NAMES = {"none": "none", "n!": "factorial", "factorial": "factorial"}


# -- sources ------------------------------------------------------------------


def _malformed(msg: str) -> ParseError:
    return ParseError(f"malformed recurrence document: {msg}")


def _rationals(value, where: str) -> list:
    """The Fractions of a document's JSON list of integers and rational strings."""
    if type(value) is not list:
        raise _malformed(f"{where} is not a list")
    out = []
    for i, v in enumerate(value):
        try:
            if type(v) not in (int, str):
                raise ValueError
            out.append(Fraction(v))
        except (ValueError, ZeroDivisionError):
            raise _malformed(f"{where}[{i}] = {json.dumps(v)} is not an integer or a rational string") from None
    return out


def recurrence_from_json(doc) -> tuple[Recurrence, str]:
    """A recurrence document: relation text under "text", shift-operator text
    under "operator", or "coeffs" (p0..pd, each a list of rationals, lowest
    degree first) and "initials"; "name" and "scaling" are optional."""
    if not isinstance(doc, dict):
        raise _malformed("expected a JSON object")
    scaling = doc.get("scaling", "none")
    if not isinstance(scaling, str) or scaling not in _SCALE_NAMES:
        raise _malformed(f"unknown scaling {scaling!r}")
    name = doc.get("name", "")
    if not isinstance(name, str):
        raise _malformed("'name' is not a string")
    for key, parse in (("text", parse_recurrence), ("operator", parse_operator)):
        if key in doc:
            if not isinstance(doc[key], str):
                raise _malformed(f"{key!r} is not a string")
            return parse(doc[key], name=name), _SCALE_NAMES[scaling]
    for key in ("coeffs", "initials"):
        if key not in doc:
            raise _malformed(f"missing {key!r}")
    if type(doc["coeffs"]) is not list:
        raise _malformed("coeffs is not a list")
    coeffs = [Poly(_rationals(p, f"coeffs[{i}]")) for i, p in enumerate(doc["coeffs"])]
    return Recurrence(coeffs, _rationals(doc["initials"], "initials"), name=name), _SCALE_NAMES[scaling]


def load_source(src: str, operator: bool = False) -> tuple[Recurrence, str]:
    """Resolve a corpus name, file path, or inline relation text."""
    if src in ENTRIES:
        e = ENTRIES[src]
        return e.recurrence, e.scaling
    if os.path.exists(src):
        with open(src, "r", encoding="utf-8") as fh:
            text = fh.read()
        if src.endswith(".json") or text.lstrip().startswith("{"):
            return recurrence_from_json(json.loads(text))
    else:
        text = src
    rec = parse_operator(text) if operator else parse_recurrence(text)
    return rec, "none"


def _open(args) -> tuple[TermTable, str]:
    """A term table on --cache-dir of the source's recurrence, and its scaling
    (--scale, where the command has it, over the source's default)."""
    rec, scaling = load_source(args.src, args.operator)
    choice = getattr(args, "scale", None)
    if choice is not None:
        scaling = _SCALE_NAMES[choice]
    return TermTable(rec, cache_dir=args.cache_dir), scaling


def _display_name(rec: Recurrence) -> str:
    return rec.name or "sequence"


def _emit(args, lines: list, payload: dict) -> None:
    if args.json:
        print(json.dumps(payload, indent=2))
    else:
        print("\n".join(lines))


def _scaling_note(scaling: str) -> str:
    return "a(n)/n!" if scaling == "factorial" else "a(n)"


# -- commands -----------------------------------------------------------------


def cmd_terms(args) -> int:
    rec, _ = load_source(args.src, args.operator)
    if args.to < 0:
        raise ValueError("--to must be nonnegative")
    table = TermTable(rec, cache_dir=args.cache_dir)
    if args.cache_dir:
        table.ensure(args.to)
        table.flush()
    # a term over the int-to-str digit limit raises str's ValueError
    terms = table.decimal_strings(args.to)
    if args.json:
        print(json.dumps({"name": _display_name(rec), "to": args.to, "terms": terms}, indent=2))
    else:
        print(", ".join(terms))
    return EXIT_OK


def cmd_ratio_asymp(args) -> int:
    table, _ = _open(args)
    name = _display_name(table.rec)
    rx = ratio_expansion(table.rec, args.K, table=table)
    table.flush()
    growth = growth_record(rx)
    lines = [f"a(n+1)/a(n) = lambda * n^mu * v(n)   [{name}]"]
    if "lambda" in growth:
        lines.append(f"lambda = {growth['lambda']}")
    else:
        lo, hi = growth["lambdaInterval"]
        lines.append(f"lambda in [{lo}, {hi}] (root of {poly_text(rx.lam_poly, 'x')}),"
                     f" lambda ~ {growth['lambdaApprox']:.6g}")
    lines.append(f"mu = {growth['mu']}")
    if rx.rho != 1:
        lines.append(f"exponent grid: multiples of 1/{rx.rho}")
    v = rx.v
    lines.append(f"v(n) = {series_to_text(v)}")
    _emit(args, lines, {"name": name, "growth": growth, "series": series_to_json(v)})
    return EXIT_OK


def cmd_u_asymp(args) -> int:
    table, scaling = _open(args)
    name = _display_name(table.rec)
    rx = ratio_expansion(table.rec, args.K, table=table)
    table.flush()
    u = u_expansion(rx, scaling=scaling)
    lines = [
        f"u(n) = b(n+1)*b(n-1)/b(n)^2 with b(n) = {_scaling_note(scaling)}   [{name}]",
        f"u(n) = {series_to_text(u)}",
    ]
    _emit(args, lines, {"name": name, "scaling": scaling, "series": series_to_json(u)})
    return EXIT_OK


def _verdict_command(args, check) -> int:
    table, scaling = _open(args)
    name = _display_name(table.rec)
    v = check(table, scaling)
    table.flush()
    lines = [
        f"sequence: {name} (checking {_scaling_note(scaling)})",
        f"verdict: {v.result}",
        f"rule: {v.rule}",
        f"reason: {v.reason}",
    ]
    for note in v.trace:
        lines.append(f"  {note}")
    payload = v.to_dict()
    payload["name"] = name
    payload["scaling"] = scaling
    _emit(args, lines, payload)
    return _VERDICT_EXIT[v.result]


def cmd_check_turan3(args) -> int:
    return _verdict_command(args, lambda table, scaling: turan3_verdict(table, scaling, args.max_K))


def cmd_check_llc(args) -> int:
    return _verdict_command(args, lambda table, scaling: llogconcave_verdict(table, args.ell, scaling, args.max_K))


def cmd_certify(args) -> int:
    table, scaling = _open(args)
    name = _display_name(table.rec)
    lines = [f"sequence: {name} (checking {_scaling_note(scaling)})"]
    try:
        cert = certify_turan3(table, args.K, scaling)
    except CornerError as exc:
        cert = certify_u_window(table, args.K, scaling)
        lines.append(f"the window does not settle the cubic Turan inequality: {exc}")
    else:
        lines.append(
            f"ratio window valid for n > {cert.ratio.valid_from}"
            f" (lambda = {frac_str(cert.ratio.lam)}, mu = {cert.ratio.mu})"
        )
    table.flush()
    out_path = args.output or f"{name}.{cert.kind.replace('-', '')}.json"
    blob = cert.dumps()
    with open(out_path, "w", encoding="utf-8") as fh:
        fh.write(blob + "\n")
    lines += [
        f"u window valid for n > {cert.bounds.valid_from}:",
        f"  g(n) = {ratfunc_text(cert.bounds.lower)}",
        f"  f(n) = {ratfunc_text(cert.bounds.upper)}",
    ]
    if cert.kind == "turan3":
        viol = ", ".join(str(n) for n in cert.violations) or "none"
        lines += [
            "corner positivity thresholds: "
            + ", ".join(str(c["threshold"]) for c in cert.corners),
            f"window argument applies for n > {cert.N}; exact check on [1, {cert.N}]"
            f" (violations: {viol})",
            f"the cubic Turan inequality holds for all n >= {cert.holds_from}",
            f"certificate written to {out_path}",
        ]
        code = EXIT_OK
    else:
        lines += [
            f"exact recheck clean on [{cert.checked_from}, {cert.checked_to}]",
            f"window-only certificate written to {out_path}",
        ]
        code = EXIT_INCONCLUSIVE
    _emit(args, lines, json.loads(blob))
    return code


def cmd_verify(args) -> int:
    with open(args.cert, "r", encoding="utf-8") as fh:
        cert = json.load(fh)
    table, _ = _open(args)
    ok, diagnosis = verify_certificate(cert, table)
    table.flush()
    name = _display_name(table.rec)  # the sequence checked, not the certificate's label
    if ok:
        lines = [f"certificate for {name}: verified"]
        if cert.get("kind", "turan3") == "turan3":
            lines.append(
                f"the cubic Turan inequality holds for all n >= {cert['holdsFrom']}"
            )
        else:
            lines.append("window-only certificate; no sign conclusion")
    else:
        lines = [f"certificate for {name}: REJECTED"]
        lines += [f"  {d}" for d in diagnosis]
    _emit(args, lines, {"name": name, "ok": ok, "diagnosis": diagnosis})
    return EXIT_OK if ok else EXIT_FAILS


def cmd_corpus(args) -> int:
    results = run_all(cache_dir=args.cache_dir)
    failures = [r for r in results if not r.ok]
    lines = []
    for r in results:
        mark = "ok  " if r.ok else "FAIL"
        suffix = f": {r.detail}" if (r.detail and not r.ok) else ""
        lines.append(f"{mark} {r.entry}/{r.check}{suffix}")
    lines.append(f"{len(results)} checks, {len(failures)} failures")
    _emit(
        args,
        lines,
        {
            "results": [
                {"entry": r.entry, "check": r.check, "ok": r.ok, "detail": r.detail}
                for r in results
            ],
            "checks": len(results),
            "failures": len(failures),
        },
    )
    return EXIT_OK if not failures else EXIT_FAILS


# -- command lines ----------------------------------------------------------------


class Arg(NamedTuple):
    """A positional (no flags) or an option of kind flag, int, str, choice, or help or version."""

    flags: tuple
    dest: str
    kind: str = "str"
    default: object = None
    required: bool = False
    metavar: Optional[str] = None
    help: str = ""
    choices: tuple = ()


_ACTIONS = ("flag", "help", "version")  # the kinds that take no value
_HELP = Arg(("-h", "--help"), "help", "help", help="show this help message and exit")
COMMON = (  # accepted before the command and anywhere after it
    Arg(("--json",), "json", "flag", False, help="emit a JSON object instead of text"),
    Arg(("--cache-dir",), "cache_dir", metavar="DIR", help="directory for the exact-term disk cache"),
)
_ROOT = (_HELP, Arg(("--version",), "version", "version", help="print the version and exit"), *COMMON)
_SRC = (Arg((), "src", help="corpus name, file, or relation text"),)
_OPERATOR = Arg(("--operator",), "operator", "flag", False,
                help="read the source as a shift-operator polynomial in n and N")
_SCALE = Arg(("--scale",), "scale", "choice", choices=tuple(sorted(_SCALE_NAMES)),
             help="work with a(n)/n! instead of a(n) (corpus default applies otherwise)")
_K = Arg(("-K",), "K", "int", 4, metavar="K", help="expansion order (default 4)")
_MAX_K = Arg(("--max-K",), "max_K", "int", 8, metavar="K",
             help="highest expansion order the verdict retries at (default 8)")

# name -> (function, help, positionals, options), in the order --help lists them
COMMANDS = {
    "terms": (cmd_terms, "print exact terms a(0)..a(N)", _SRC,
              (_OPERATOR, Arg(("--to",), "to", "int", required=True, metavar="N", help="the last index"))),
    "ratio-asymp": (cmd_ratio_asymp, "asymptotic expansion of a(n+1)/a(n)", _SRC, (_OPERATOR, _K)),
    "u-asymp": (cmd_u_asymp, "asymptotic expansion of a(n+1)a(n-1)/a(n)^2", _SRC, (_OPERATOR, _SCALE, _K)),
    "check-turan3": (cmd_check_turan3, "asymptotic verdict for the cubic Turan inequality", _SRC,
                     (_OPERATOR, _SCALE, _MAX_K)),
    "check-llc": (cmd_check_llc, "asymptotic verdict for l-fold log-concavity", _SRC, (
        _OPERATOR, _SCALE, _MAX_K, Arg(("--ell",), "ell", "int", required=True, metavar="L", help="the fold count l"))),
    "certify": (cmd_certify, "produce a finite certificate for the cubic Turan inequality", _SRC, (
        _OPERATOR, _SCALE, _K._replace(help="window order (default 4)"),
        Arg(("-o", "--output"), "output", metavar="FILE", help="certificate path (default"
            " <name>.turan3.json, or <name>.uwindow.json for a window-only fallback)"))),
    "verify": (cmd_verify, "re-check a certificate against a recurrence",
               (Arg((), "cert", help="certificate JSON file"), *_SRC), (_OPERATOR,)),
    "corpus": (cmd_corpus, "operations on the built-in corpus", (Arg(
        (), "corpus_cmd", "choice", choices=("run",), help="run: recompute and compare every stored artifact"),),
        (Arg(("--seed",), "seed", "int", metavar="N", help="accepted and ignored: no check samples any more"),)),
}
_COMMAND = Arg((), "cmd", "choice", metavar="command", choices=tuple(COMMANDS))


def _spec(name: Optional[str]) -> tuple:
    """(prog, positionals, options) of command `name`, or of the root for None."""
    if name is None:
        return "turancert", (_COMMAND,), _ROOT
    return f"turancert {name}", COMMANDS[name][2], (_HELP, *COMMON, *COMMANDS[name][3])


def _fail(name: Optional[str], msg: str) -> NoReturn:
    """Exit 1 on a usage error of command `name` (None for the root), as argparse does."""
    print(f"{_usage(name)}\n{_spec(name)[0]}: error: {msg}", file=sys.stderr)
    raise SystemExit(EXIT_ERROR)


def _label(a: Arg) -> str:  # how an error names the argument
    return "/".join(a.flags) or a.metavar or a.dest


def _shown(a: Arg, flag: str = "") -> str:  # `flag` and the metavar
    meta = a.metavar or ("{%s}" % ",".join(a.choices) if a.choices else a.dest)
    return flag if a.kind in _ACTIONS else f"{flag} {meta}".strip()


def _usage(name: Optional[str]) -> str:
    prog, positionals, options = _spec(name)
    words = [_shown(a, a.flags[0]) if a.required else f"[{_shown(a, a.flags[0])}]" for a in options]
    return " ".join(["usage:", prog, *words, *map(_shown, positionals)] + ["..."] * (name is None))


def _help(name: Optional[str]) -> str:
    _, positionals, options = _spec(name)
    rows = [(c, spec[1]) for c, spec in COMMANDS.items()] if name is None else [
        (_shown(a), a.help) for a in positionals]
    rows += [(", ".join(_shown(a, f) for f in a.flags), a.help) for a in options]
    width = max(len(r) for r, _ in rows) + 2
    about = COMMANDS[name][1] if name else "Exact asymptotics and Turan-type certificates for P-recursive sequences."
    return "\n".join([_usage(name), "", about, "", *(f"  {r:<{width}}{h}" for r, h in rows)]
                     + ["", "exit codes: 0 holds/success, 1 error, 2 inconclusive, 3 fails"] * (name is None))


def _lookup(tok: str, flags: dict, name: Optional[str]):
    """(arg, flag, attached value) for an option, (None, tok, None) for an
    unknown one, None for a positional."""
    if tok in flags:
        return flags[tok], tok, None
    if len(tok) < 2 or tok[0] != "-":
        return None
    flag, eq, value = tok.partition("=")
    if eq and flag in flags:
        return flags[flag], flag, value
    if tok[1] == "-":  # a unique prefix of a long option
        hits, value = [f for f in flags if f.startswith(flag)], value if eq else None
    else:  # a short option with its value attached
        hits, value = [f for f in flags if f == tok[:2]], tok[2:]
    if len(hits) > 1:
        _fail(name, f"ambiguous option: {tok} could match {', '.join(hits)}")
    if hits:
        return flags[hits[0]], hits[0], value
    whole, dot, frac = tok[1:].removesuffix("\n").partition(".")  # ^-\d+$|^-\d*\.\d+$
    number = (frac if dot else whole).isdecimal() and (not whole or whole.isdecimal())
    return None if number or " " in tok else (None, tok, None)  # a negative number is a value


def _value(a: Arg, text: str, name: Optional[str]):
    if a.kind == "int":
        try:
            return int(text)
        except ValueError:
            _fail(name, f"argument {_label(a)}: invalid int value: {text!r}")
    if a.choices and text not in a.choices:
        choices = ", ".join(map(repr, a.choices))
        _fail(name, f"argument {_label(a)}: invalid choice: {text!r} (choose from {choices})")
    return text


def _read(name: Optional[str], tokens: list, ns) -> None:
    """Set on ns the defaults and what `tokens` give command `name`, or the root for None,
    which reads the words after the command word as that command.  Errors come in argparse's
    order: an ambiguous prefix, then from left to right, a missing argument, unrecognized ones."""
    _, positionals, options = _spec(name)
    for a in (*COMMON, _COMMAND) if name is None else positionals + COMMANDS[name][3]:
        setattr(ns, a.dest, a.default)
    flags = {f: a for a in options for f in a.flags}
    end = tokens.index("--") if "--" in tokens else len(tokens)  # the rest are positionals
    kinds = [_lookup(t, flags, name) for t in tokens[:end]] + [None] * (len(tokens) - end)
    free, extras, i, last_free = list(positionals), [], 0, False
    while i < len(tokens):
        tok, kind, i = tokens[i], kinds[i], i + 1
        if i - 1 == end and (name or i == len(tokens)):  # an adjacent positional takes "--"
            if not (last_free or free and i < len(tokens)):
                extras.append(tok)
            continue
        last_free = kind is None and bool(free)
        a, _, value = kind or (free.pop(0) if free else None, None, tok)
        if a is None:
            extras.append(tok)
        elif a.kind in _ACTIONS:
            if value is not None:
                _fail(name, f"argument {_label(a)}: ignored explicit argument {value!r}")
            if a.kind != "flag":
                print(_help(name) if a.kind == "help" else f"turancert {__version__}")
                raise SystemExit(EXIT_OK)
            setattr(ns, a.dest, True)
        else:
            if value is None:
                if i >= end or kinds[i] is not None:
                    _fail(name, f"argument {_label(a)}: expected one argument")
                value, i = tokens[i], i + 1
            setattr(ns, a.dest, _value(a, value, name))
            if a is _COMMAND:
                ns.fn = COMMANDS[value][0]
                _read(value, tokens[i:], ns)
                break
    missing = [_label(a) for a in (*free, *options)
               if not a.flags or a.required and getattr(ns, a.dest) is None]
    if missing:
        _fail(name, f"the following arguments are required: {', '.join(missing)}")
    if extras:
        _fail(name, f"unrecognized arguments: {' '.join(extras)}")


def parse_args(argv, namespace=None):
    """The namespace of a command line, or SystemExit: 0 after --help or --version, 1 after
    a usage error, with the usage line and "PROG: error: MSG" (argparse's message) on stderr."""
    ns = SimpleNamespace() if namespace is None else namespace
    _read(None, list(argv), ns)
    return ns


def main(argv=None) -> int:
    try:
        args = parse_args(sys.argv[1:] if argv is None else argv)
    except SystemExit as exc:
        return exc.code
    try:
        return args.fn(args)
    except (
        ParseError,
        CertifyError,
        ExpansionError,
        CacheError,
        SingularRecurrenceError,
        ValueError,
        OSError,
        json.JSONDecodeError,
    ) as exc:
        if args.json and isinstance(exc, ExpansionError):
            print(json.dumps({"error": str(exc), "details": exc.details}, indent=2))
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
