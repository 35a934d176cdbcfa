"""Command line driver.

Sources are corpus names, files (relation text or a JSON recurrence
document), or inline relation text.  Exit codes are scriptable: 0 when a
checked property holds (or the command simply succeeded), 2 when a verdict
is inconclusive, 3 when a property fails or a certificate does not verify,
and 1 for usage and pipeline errors (a bad command line, bad input, refused
certification, I/O).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction
from typing import Optional

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


def recurrence_from_json(doc) -> tuple[Recurrence, str]:
    if not isinstance(doc, dict):
        raise ParseError("malformed recurrence document: expected a JSON object")
    scaling = doc.get("scaling", "none")
    if not isinstance(scaling, str) or scaling not in _SCALE_NAMES:
        raise ParseError(f"malformed recurrence document: unknown scaling {scaling!r}")
    for key, parse in (("text", parse_recurrence), ("operator", parse_operator)):
        if key in doc:
            if not isinstance(doc[key], str):
                raise ParseError(f"malformed recurrence document: {key!r} is not a string")
            return parse(doc[key], name=doc.get("name", "")), _SCALE_NAMES[scaling]
    try:
        coeffs = [Poly([Fraction(c) for c in p]) for p in doc["coeffs"]]
        initials = [Fraction(v) for v in doc["initials"]]
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"malformed recurrence document: {exc}") from exc
    rec = Recurrence(coeffs, initials, name=doc.get("name", ""))
    return rec, _SCALE_NAMES[scaling]


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


def _open(args) -> tuple[Recurrence, str, TermTable]:
    """The source's recurrence, its scaling (--scale, where the command has
    it, over the source's default) and a term table on --cache-dir."""
    rec, scaling = load_source(args.src, args.operator)
    choice = getattr(args, "scale", None)
    if choice is not None:
        scaling = _SCALE_NAMES[choice]
    return rec, scaling, TermTable(rec, cache_dir=args.cache_dir)


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
    rec, _, table = _open(args)
    rx = ratio_expansion(rec, args.K, table=table)
    table.flush()
    growth = growth_record(rx)
    lines = [f"a(n+1)/a(n) = lambda * n^mu * v(n)   [{_display_name(rec)}]"]
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
    _emit(args, lines, {"name": _display_name(rec), "growth": growth,
                        "series": series_to_json(v)})
    return EXIT_OK


def cmd_u_asymp(args) -> int:
    rec, scaling, table = _open(args)
    rx = ratio_expansion(rec, args.K, table=table)
    table.flush()
    u = u_expansion(rx, scaling=scaling)
    lines = [
        f"u(n) = b(n+1)*b(n-1)/b(n)^2 with b(n) = {_scaling_note(scaling)}"
        f"   [{_display_name(rec)}]",
        f"u(n) = {series_to_text(u)}",
    ]
    _emit(args, lines, {"name": _display_name(rec), "scaling": scaling,
                        "series": series_to_json(u)})
    return EXIT_OK


def _verdict_command(args, check) -> int:
    rec, scaling, table = _open(args)
    v = check(rec, scaling, table)
    table.flush()
    lines = [
        f"sequence: {_display_name(rec)} (checking {_scaling_note(scaling)})",
        f"verdict: {v.result}",
        f"rule: {v.rule}",
        f"reason: {v.reason}",
    ]
    for note in v.trace:
        lines.append(f"  {note}")
    payload = v.to_dict()
    payload["name"] = _display_name(rec)
    payload["scaling"] = scaling
    _emit(args, lines, payload)
    return _VERDICT_EXIT[v.result]


def cmd_check_turan3(args) -> int:
    return _verdict_command(
        args,
        lambda rec, scaling, table: turan3_verdict(
            rec, scaling=scaling, max_order=args.max_K, table=table
        ),
    )


def cmd_check_llc(args) -> int:
    return _verdict_command(
        args,
        lambda rec, scaling, table: llogconcave_verdict(
            rec, args.ell, scaling=scaling, max_order=args.max_K, table=table
        ),
    )


def cmd_certify(args) -> int:
    rec, scaling, table = _open(args)
    lines = [f"sequence: {_display_name(rec)} (checking {_scaling_note(scaling)})"]
    try:
        cert = certify_turan3(rec, args.K, scaling=scaling, table=table)
    except CornerError as exc:
        cert = certify_u_window(rec, args.K, scaling=scaling, table=table)
        lines.append(f"the window does not settle the cubic Turan inequality: {exc}")
    else:
        lines.append(
            f"ratio window valid for n > {cert.ratio.valid_from}"
            f" (lambda = {frac_str(cert.ratio.lam)}, mu = {cert.ratio.mu})"
        )
    table.flush()
    out_path = args.output or f"{_display_name(rec)}.{cert.kind.replace('-', '')}.json"
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
    rec, _, table = _open(args)
    ok, diagnosis = verify_certificate(cert, rec, table)
    table.flush()
    name = _display_name(rec)  # the sequence checked, not the certificate's label
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
    if args.corpus_cmd != "run":  # pragma: no cover - argparse enforces this
        raise ValueError("unknown corpus subcommand")
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


# -- argument plumbing ----------------------------------------------------------


def _add_common(p: argparse.ArgumentParser, suppress: bool) -> None:
    d = argparse.SUPPRESS if suppress else None
    p.add_argument(
        "--json", action="store_true",
        default=d if suppress else False,
        help="emit a JSON object instead of text",
    )
    p.add_argument(
        "--cache-dir", metavar="DIR", default=d,
        help="directory for the exact-term disk cache",
    )


def _add_source(p: argparse.ArgumentParser) -> None:
    p.add_argument("src", help="corpus name, file, or relation text")
    p.add_argument(
        "--operator", action="store_true",
        help="read the source as a shift-operator polynomial in n and N",
    )


def _add_scale(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--scale", choices=sorted(_SCALE_NAMES),
        help="work with a(n)/n! instead of a(n) (corpus default applies otherwise)",
    )


def _terms_args(p: argparse.ArgumentParser) -> None:
    _add_source(p)
    p.add_argument("--to", type=int, required=True, metavar="N")


def _ratio_asymp_args(p: argparse.ArgumentParser) -> None:
    _add_source(p)
    p.add_argument("-K", type=int, default=4, help="expansion order (default 4)")


def _u_asymp_args(p: argparse.ArgumentParser) -> None:
    _add_source(p)
    _add_scale(p)
    p.add_argument("-K", type=int, default=4, help="expansion order (default 4)")


def _verdict_args(p: argparse.ArgumentParser) -> None:
    _add_source(p)
    _add_scale(p)
    p.add_argument(
        "--max-K", type=int, dest="max_K", metavar="K", default=8,
        help="highest expansion order the verdict retries at (default 8)",
    )


def _check_llc_args(p: argparse.ArgumentParser) -> None:
    _verdict_args(p)
    p.add_argument("--ell", type=int, required=True, metavar="L")


def _certify_args(p: argparse.ArgumentParser) -> None:
    _add_source(p)
    _add_scale(p)
    p.add_argument("-K", type=int, default=4, help="window order (default 4)")
    p.add_argument("-o", "--output", metavar="FILE",
                   help="certificate path (default <name>.turan3.json, or"
                        " <name>.uwindow.json for a window-only fallback)")


def _verify_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("cert", help="certificate JSON file")
    _add_source(p)


def _corpus_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("corpus_cmd", choices=["run"],
                   help="run: recompute and compare every stored artifact")
    p.add_argument("--seed", type=int, metavar="N",
                   help="accepted and ignored: no check samples any more")


# name -> (function, help text, argument adder), in the order --help lists them
COMMANDS = {
    "terms": (cmd_terms, "print exact terms a(0)..a(N)", _terms_args),
    "ratio-asymp": (cmd_ratio_asymp, "asymptotic expansion of a(n+1)/a(n)", _ratio_asymp_args),
    "u-asymp": (cmd_u_asymp, "asymptotic expansion of a(n+1)a(n-1)/a(n)^2", _u_asymp_args),
    "check-turan3": (cmd_check_turan3, "asymptotic verdict for the cubic Turan inequality",
                     _verdict_args),
    "check-llc": (cmd_check_llc, "asymptotic verdict for l-fold log-concavity", _check_llc_args),
    "certify": (cmd_certify, "produce a finite certificate for the cubic Turan inequality",
                _certify_args),
    "verify": (cmd_verify, "re-check a certificate against a recurrence", _verify_args),
    "corpus": (cmd_corpus, "operations on the built-in corpus", _corpus_args),
}


class _CommandParser(argparse.ArgumentParser):
    """A command's parser: it reports arguments it does not know under its own usage."""

    def parse_known_args(self, args=None, namespace=None):
        args, extra = super().parse_known_args(args, namespace)
        if extra:
            self.error(f"unrecognized arguments: {' '.join(extra)}")
        return args, extra


def build_parser(command: Optional[str] = None) -> argparse.ArgumentParser:
    """The root parser with every command, or with `command`'s alone.

    A command line whose first word names a command parses and fails the
    same way under either tree, so `main` builds only that command's."""
    root = argparse.ArgumentParser(
        prog="turancert",
        description="Exact asymptotics and Turan-type certificates "
        "for P-recursive sequences.",
        epilog="exit codes: 0 holds/success, 1 error, 2 inconclusive, 3 fails",
    )
    root.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    _add_common(root, suppress=False)
    sub = root.add_subparsers(dest="cmd", required=True, metavar="command",
                              parser_class=_CommandParser)
    for name, (fn, help_text, add_arguments) in COMMANDS.items():
        if command in (None, name):
            p = sub.add_parser(name, help=help_text)
            _add_common(p, suppress=True)
            add_arguments(p)
            p.set_defaults(fn=fn)
    return root


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    command = argv[0] if argv and argv[0] in COMMANDS else None
    try:
        args = build_parser(command).parse_args(argv)
    except SystemExit as exc:  # argparse exits 0 after --help or --version, 2 on misuse
        return EXIT_OK if exc.code == 0 else EXIT_ERROR
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
