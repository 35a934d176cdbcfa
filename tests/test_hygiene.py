"""Source hygiene: no module of the package imports a name it never uses,
no function of the package goes uncalled without a recorded reason,
importing the command line loads no module that no command needs at
start-up, every function the benchmark's tracer names still exists, and
every committed benchmark record holds the fields its readers use."""

from __future__ import annotations

import ast
import importlib
import json
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "turancert"

# A package __init__ imports names to re-export them.
MODULES = sorted(p for p in PACKAGE.rglob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list:
    """Names bound by an import statement and never read in the module."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_detector_sees_unused_and_used_names():
    src = "import os\nimport json as j\nfrom typing import Optional, Sequence\nx: Optional[int] = j.loads('1')\n"
    assert unused_imports(src) == [(1, "os"), (3, "Sequence")]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(PACKAGE)))
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


# Standard modules that every command would pay for at start-up and none
# needs there: dataclasses and what it imports, hashlib, which only a term
# cache reads or writes, and argparse with the gettext and locale it loads,
# since the command line is read from `cli.COMMANDS` by the module itself.
STARTUP_FREE = ("dataclasses", "inspect", "ast", "dis", "tokenize", "copy", "hashlib",
                "argparse", "gettext", "locale")

STARTUP_PROBE = """
import io, json, sys
sys.path.insert(0, sys.argv[1])
free = json.loads(sys.argv[3])
loaded = lambda: sorted(m for m in free if m in sys.modules)
from turancert import cli
seen = {"import": loaded()}
out, sys.stdout = sys.stdout, io.StringIO()
codes = [cli.main(["check-turan3", "motzkin"])]
seen["check-turan3"] = loaded()
codes.append(cli.main(["terms", "motzkin", "--to", "5", "--cache-dir", sys.argv[2]]))
seen["terms --cache-dir"] = loaded()
sys.stdout = out
print(json.dumps({"codes": codes, "seen": seen}))
"""


def test_cli_import_loads_nothing_start_up_does_not_need(tmp_path):
    # -S: no site module, so only the package's own imports load anything
    run = subprocess.run(
        [sys.executable, "-S", "-c", STARTUP_PROBE, str(ROOT / "src"), str(tmp_path),
         json.dumps(STARTUP_FREE)],
        capture_output=True, text=True, check=True,
    )
    got = json.loads(run.stdout)
    assert got["codes"] == [0, 0]
    assert got["seen"] == {"import": [], "check-turan3": [], "terms --cache-dir": ["hashlib"]}


# Functions no module of the package calls, kept for a reason outside it.
# Everything else that nothing in src/turancert names is dead code.
UNCALLED_BUT_KEPT = {
    "phi_values": "benchmark workload: exact iterated-phi terms on long ranges",
    "logconcave_sign": "benchmark tracing counts it; tests use it as the single-index log-concavity sign",
    "u_power_log": "benchmark workload: the n^2 log n model form of the level chain",
    "series_mul": "benchmark tracing: the series-layer product it times",
    "series_inv": "benchmark tracing times it by name; the tests' u-series oracle inverts with it",
    "residual": "benchmark workload: the Fraction residual that checks long term runs",
    "shift_series": "benchmark tracing times it by name; the tests' oracles shift with it",
}


def _names(node: ast.AST, classes=frozenset()) -> Counter:
    """How often each identifier is read: a bare read of x counts toward
    "x", an attribute read y.x toward ".x", and a read of C.x, C one of
    `classes`, toward "C.x" only."""
    out = Counter()
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            out[n.id] += 1
        elif isinstance(n, ast.Attribute):
            through_class = isinstance(n.value, ast.Name) and n.value.id in classes
            out[f"{n.value.id}.{n.attr}" if through_class else f".{n.attr}"] += 1
    return out


def _definitions(tree: ast.Module):
    """Module-level functions and the non-dunder methods of module-level classes."""
    funcs = (ast.FunctionDef, ast.AsyncFunctionDef)
    for node in tree.body:
        if isinstance(node, funcs):
            yield node.name, node
        elif isinstance(node, ast.ClassDef):
            for sub in node.body:
                if isinstance(sub, funcs) and not sub.name.startswith("__"):
                    yield f"{node.name}.{sub.name}", sub


def uncalled(sources: dict) -> list:
    """(module, qualified name) of each definition that no code outside its
    own body names.  Import lists and __all__ strings are not references.
    A module-level function f is named only by a bare read of f: the
    package imports every function it calls by name, so a read of x.f is
    some other f.  A method C.m is named by a bare read of m, by an
    attribute read x.m or by a read of C.m; a read of D.m through another
    class D of the package does not name it."""
    trees = {module: ast.parse(src) for module, src in sources.items()}
    classes = {
        node.name
        for tree in trees.values()
        for node in tree.body
        if isinstance(node, ast.ClassDef)
    }
    used = sum((_names(tree, classes) for tree in trees.values()), Counter())

    def reads(counts, qual, name):
        if qual == name:
            return counts[name]
        return counts[name] + counts[f".{name}"] + counts[qual]

    return sorted(
        (module, qual)
        for module, tree in trees.items()
        for qual, node in _definitions(tree)
        if reads(used, qual, node.name) == reads(_names(node, classes), qual, node.name)
    )


def test_dead_code_detector():
    sources = {
        "a": "__all__ = ['dead']\ndef dead():\n    return dead()\ndef live():\n    return 1\n"
        "class K:\n    def __init__(self):\n        pass\n    def m(self):\n        pass\n",
        "b": "from a import dead, live\nx = live() + K().n\n",
        # P.var is read only as a name of R, so it is dead; R().w() names w
        "c": "class P:\n    def var(self):\n        pass\n"
        "class R:\n    def var(self):\n        pass\n    def w(self):\n        pass\n"
        "y = R.var() + R().w()\n",
        # get is read only as an attribute of a dict, so it is dead
        "d": "def get(name):\n    return name\nz = {}.get(1)\n",
    }
    assert uncalled(sources) == [("a", "K.m"), ("a", "dead"), ("c", "P.var"), ("d", "get")]


def test_every_function_is_called_or_kept():
    sources = {
        str(p.relative_to(PACKAGE)): p.read_text(encoding="utf-8")
        for p in sorted(PACKAGE.rglob("*.py"))
    }
    found = uncalled(sources)
    assert sorted(qual.split(".")[-1] for _, qual in found) == sorted(UNCALLED_BUT_KEPT), found


# Clearing rational coefficients to integers is decided in one module: no
# other module of the package takes an lcm of denominators.  Likewise the
# factorial scaling of term windows is decided in one module.
LCM_OWNER = "algebra/poly.py"
FACTORIAL_OWNER = "sequences.py"


def math_calls(source: str, func: str) -> list:
    """Lines that call math.<func>, through the module (or an alias) or
    through a name imported from it."""
    tree = ast.parse(source)
    modules, names = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules |= {a.asname or a.name for a in node.names if a.name == "math"}
        elif isinstance(node, ast.ImportFrom) and node.module == "math":
            names |= {a.asname or a.name for a in node.names if a.name == func}
    return sorted(
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and (
            isinstance(node.func, ast.Attribute)
            and node.func.attr == func
            and isinstance(node.func.value, ast.Name)
            and node.func.value.id in modules
            or isinstance(node.func, ast.Name)
            and node.func.id in names
        )
    )


def test_lcm_detector():
    src = (
        "import math\nimport math as m\nfrom math import lcm as L, gcd\n"
        "a = math.lcm(2, 3)\nb = m.lcm(4)\nc = L(5, 6)\nd = gcd(1, 2) + math.gcd(3)\n"
    )
    assert math_calls(src, "lcm") == [4, 5, 6]
    assert math_calls("def lcm(a, b):\n    return a\nx = lcm(1, 2)\n", "lcm") == []
    assert math_calls("from math import factorial as f\nx = f(3)\n", "factorial") == [2]


def _callers(func: str) -> set:
    return {
        str(p.relative_to(PACKAGE))
        for p in PACKAGE.rglob("*.py")
        if math_calls(p.read_text(encoding="utf-8"), func)
    }


def test_only_poly_clears_denominators():
    assert _callers("lcm") == {LCM_OWNER}


def test_only_sequences_scales_by_factorials():
    assert _callers("factorial") == {FACTORIAL_OWNER}


# Term windows are decided in one module: no other module reads the
# truncation width PREC or calls `windows`.
WINDOW_OWNER = "sequences.py"


def window_uses(source: str) -> list:
    """Lines that import PREC or windows, read PREC or call windows, by a
    bare name or as an attribute."""

    def name(node):
        return node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)

    lines = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and {"PREC", "windows"} & {a.name for a in node.names}:
            lines.add(node.lineno)
        elif name(node) == "PREC" or isinstance(node, ast.Call) and name(node.func) == "windows":
            lines.add(node.lineno)
    return sorted(lines)


def test_window_use_detector():
    src = (
        "from .sequences import PREC as P, Recurrence\nfrom . import sequences\n"
        "x = sequences.PREC + P\nfor w in sequences.windows(t, 1, 2, 3):\n    pass\n"
        "y = windows, 'PREC'\nz = w(t)\n"
    )
    assert window_uses(src) == [1, 3, 4]


def test_only_sequences_decides_term_windows():
    users = {
        str(p.relative_to(PACKAGE))
        for p in PACKAGE.rglob("*.py")
        if window_uses(p.read_text(encoding="utf-8"))
    }
    assert users == {WINDOW_OWNER}


# The functions that take a `scaling` parameter.  The n! scaling changes
# the Turan, log-concave and phi forms and the u-series, so it reaches
# their scans, verdicts and certificates.  Containment of u_n in a window
# is scale-free (`sequences.first_escape`), so no containment scan and no
# `u_value` takes one.
SCALING_PARAMETER = {
    "asymptotics/ratio.py": {"u_grid", "u_expansion"},
    "certify.py": {
        "scaled_bounds", "Certificate.__init__", "TuranCertificate.__init__", "certify_turan3",
        "UWindowCertificate.__init__", "certify_u_window", "_replay_turan3",
    },
    "checks.py": {"window_functions"},
    "cli.py": {"_scaling_note"},
    "corpus.py": {"CorpusEntry.__init__"},
    "criteria.py": {"_drive", "turan3_verdict", "llogconcave_verdict"},
    "sequences.py": {
        "check_scaling", "scale_window", "windows", "check_inequality_range", "_sign_at",
        "turan3_sign", "logconcave_sign", "phi_values",
    },
}


def scaling_functions(source: str) -> set:
    """Qualified names of the functions, methods and nested functions of
    `source` with a parameter named `scaling`."""
    out = set()

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                a = child.args
                if "scaling" in {x.arg for x in a.posonlyargs + a.args + a.kwonlyargs}:
                    out.add(prefix + child.name)
                visit(child, f"{prefix}{child.name}.")
            elif isinstance(child, ast.ClassDef):
                visit(child, f"{prefix}{child.name}.")

    visit(ast.parse(source), "")
    return out


def test_scaling_detector():
    src = (
        "def a(t, scaling='none'):\n    def inner(*, scaling):\n        pass\n"
        "class K:\n    def m(self, scaling):\n        pass\n    def n(self, scale):\n        pass\n"
        "def b(t, g, f):\n    scaling = 1\n"
    )
    assert scaling_functions(src) == {"a", "a.inner", "K.m"}


def test_only_scale_dependent_functions_take_a_scaling():
    found = {
        str(p.relative_to(PACKAGE)): names
        for p in sorted(PACKAGE.rglob("*.py"))
        if (names := scaling_functions(p.read_text(encoding="utf-8")))
    }
    assert found == SCALING_PARAMETER


# The term table is the one handle on a sequence: a function that needs
# the recurrence of a table reads `table.rec`.  So no function takes both a
# recurrence and a table, which could name two different sequences, and no
# function makes a fresh table when its table parameter is left None.
# `ratio_expansion` keeps (rec, K, rho, table) with a table that defaults to
# None: the benchmark's tracer calls it positionally with that signature.
# It refuses a table whose recurrence is not `rec`.
TABLE_PARAMETER_EXEMPT = {("asymptotics/ratio.py", "ratio_expansion")}


def _annotated(arg: ast.arg, name: str) -> bool:
    """Whether the annotation of `arg` names `name`, as in X, Optional[X] or "X"."""
    if arg.annotation is None:
        return False
    words = {getattr(n, "id", None) or getattr(n, "attr", None) or getattr(n, "value", None)
             for n in ast.walk(arg.annotation)}
    return name in words


def table_parameter_problems(source: str) -> list:
    """(qualified name, problem) for each function, method or nested function
    of `source` that takes both a recurrence and a term table, or defaults a
    term table to None.  A parameter is a recurrence when it is annotated
    `Recurrence` or named `rec`, and a term table when it is annotated
    `TermTable` or named `table`."""
    out = []

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                a, qual = child.args, prefix + child.name
                positional = a.posonlyargs + a.args
                defaults = [None] * (len(positional) - len(a.defaults)) + a.defaults
                params = list(zip(positional, defaults)) + list(zip(a.kwonlyargs, a.kw_defaults))
                recs = [x for x, _ in params if x.arg == "rec" or _annotated(x, "Recurrence")]
                tables = [(x, d) for x, d in params if x.arg == "table" or _annotated(x, "TermTable")]
                if recs and tables:
                    out.append((qual, "takes a recurrence and a table"))
                if any(isinstance(d, ast.Constant) and d.value is None for _, d in tables):
                    out.append((qual, "defaults a table to None"))
                visit(child, f"{qual}.")
            elif isinstance(child, ast.ClassDef):
                visit(child, f"{prefix}{child.name}.")

    visit(ast.parse(source), "")
    return sorted(out)


def test_table_parameter_detector():
    src = (
        "def a(rec, n, table=None):\n    def inner(r: 'Recurrence', *, t: TermTable):\n        pass\n"
        "class K:\n    def m(self, x: Optional[TermTable] = None):\n        pass\n"
        "    def n(self, table: TermTable, rec_count=None):\n        pass\n"
        "def b(table, order=4, rx=None):\n    rec = table.rec\n"
        "def c(rec: Recurrence, s_l, s_u):\n    pass\n"
    )
    assert table_parameter_problems(src) == [
        ("K.m", "defaults a table to None"),
        ("a", "defaults a table to None"),
        ("a", "takes a recurrence and a table"),
        ("a.inner", "takes a recurrence and a table"),
    ]


def test_the_table_is_the_one_handle_on_a_sequence():
    found = {
        (str(p.relative_to(PACKAGE)), qual)
        for p in sorted(PACKAGE.rglob("*.py"))
        for qual, _ in table_parameter_problems(p.read_text(encoding="utf-8"))
    }
    assert found == TABLE_PARAMETER_EXEMPT


# Terms are stepped in one place: `_steps` is created only by
# `TermTable.ensure`, which keeps it suspended in place of any snapshot of
# its state, and by `TermTable.decimal_strings`, which drives it on decimals
# of its own and reads no binary term; `windows` reads terms only through
# `value` and `values`; and a vanishing p0 is raised only by the stepper
# and by the kernel rebuild of a loaded table.
TERM_READS = {"value", "values", "ensure"}


def self_attributes(func: ast.AST, name: str = "self", ctx: type = ast.Load) -> set:
    """Attributes read (or, with ctx=ast.Store, set) through `name` in `func`."""
    return {
        n.attr
        for n in ast.walk(func)
        if isinstance(n, ast.Attribute) and isinstance(n.value, ast.Name)
        and n.value.id == name and isinstance(n.ctx, ctx)
    }


def callers(source: str, func: str) -> list:
    """Qualified names of the definitions of `source` that call `func` by name."""
    return sorted(
        qual
        for qual, node in _definitions(ast.parse(source))
        if any(
            isinstance(n, ast.Call) and isinstance(n.func, ast.Name) and n.func.id == func
            for n in ast.walk(node)
        )
    )


def raisers(source: str, func: str) -> list:
    """Qualified names of the definitions of `source` that raise a call of `func`."""
    return sorted(
        qual
        for qual, node in _definitions(ast.parse(source))
        if any(
            isinstance(n, ast.Raise) and isinstance(n.exc, ast.Call)
            and isinstance(n.exc.func, ast.Name) and n.exc.func.id == func
            for n in ast.walk(node)
        )
    )


def test_stepping_detectors():
    src = (
        "def f(m):\n    raise g(m)\ndef h():\n    x = g(1)\n    raise x\n"
        "class T:\n    def a(self):\n        return self.value(1) + self.n\n"
        "    def b(self):\n        if 1:\n            raise g(2)\n"
        "    def c(self, t):\n        self.s = t.values(g)\n        self.n += t.k\n"
    )
    tree = ast.parse(src)
    methods = dict(_definitions(tree))
    assert self_attributes(methods["T.a"]) == {"value", "n"}
    assert self_attributes(methods["T.c"], "t") == {"values", "k"}
    assert self_attributes(methods["T.c"], ctx=ast.Store) == {"s", "n"}
    assert raisers(src, "g") == ["T.b", "f"]
    assert callers(src, "g") == ["T.b", "f", "h"]


def test_one_stepper_for_the_term_table():
    source = (PACKAGE / "sequences.py").read_text(encoding="utf-8")
    methods = dict(_definitions(ast.parse(source)))
    assert not self_attributes(methods["TermTable.decimal_strings"]) & TERM_READS
    assert raisers(source, "_singular") == ["TermTable._window_state", "_steps"]
    assert callers(source, "_steps") == ["TermTable.decimal_strings", "TermTable.ensure"]
    assert self_attributes(methods["windows"], "table") <= {"value", "values"}
    assigned = set()
    for qual, node in methods.items():
        if qual.startswith("TermTable."):
            assigned |= self_attributes(node, ctx=ast.Store)
    assert "_stepper" in assigned and "_state" not in assigned


# Text and JSON forms are written in one module: no other module defines a
# function or a method named *_text, *_str or *_record.
TEXT_OWNER = "render.py"
TEXT_SUFFIXES = ("_text", "_str", "_record")


def text_forms(source: str) -> list:
    """Qualified names of the module-level functions and class methods of
    `source` whose names end in one of TEXT_SUFFIXES."""
    return sorted(
        qual for qual, node in _definitions(ast.parse(source)) if node.name.endswith(TEXT_SUFFIXES)
    )


def test_text_form_detector():
    src = (
        "def poly_text(p):\n    def inner_str(x):\n        pass\n"
        "def _scalar_str(x):\n    pass\nasync def growth_record(r):\n    pass\n"
        "class R:\n    def growth_record(self):\n        pass\n    def __str__(self):\n        pass\n"
        "def text(p):\n    pass\ndef str_of(p):\n    pass\npoly_str = str\n"
    )
    assert text_forms(src) == ["R.growth_record", "_scalar_str", "growth_record", "poly_text"]


def test_only_render_writes_text_forms():
    writers = {str(p.relative_to(PACKAGE)): text_forms(p.read_text(encoding="utf-8")) for p in PACKAGE.rglob("*.py")}
    assert {module for module, names in writers.items() if names} == {TEXT_OWNER}, {
        module: names for module, names in writers.items() if names and module != TEXT_OWNER
    }


# Grid arrays are integer numerators over one denominator, a form that one
# module knows: no other module of the package imports one of its private
# functions (the grid helpers) or the module itself.
GRID_OWNER = "asymptotics/ratio.py"


def grid_helpers() -> set:
    """The private module-level functions of GRID_OWNER."""
    tree = ast.parse((PACKAGE / GRID_OWNER).read_text(encoding="utf-8"))
    return {node.name for node in tree.body if isinstance(node, ast.FunctionDef) and node.name.startswith("_")}


def grid_helper_imports(source: str, helpers: set) -> list:
    """Lines that import one of `helpers` from a module named ratio, or
    import a module named ratio."""
    lines = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            names = {a.name for a in node.names}
            if (node.module or "").split(".")[-1] == "ratio" and names & helpers or "ratio" in names:
                lines.add(node.lineno)
        elif isinstance(node, ast.Import) and any(a.name.split(".")[-1] == "ratio" for a in node.names):
            lines.add(node.lineno)
    return sorted(lines)


def test_grid_helper_detector():
    src = (
        "from .asymptotics.ratio import u_grid, ratio_window_grid\n"
        "from .asymptotics.ratio import _mul as m, u_grid\nfrom ..ratio import _inv\n"
        "from .asymptotics import ratio\nimport turancert.asymptotics.ratio as r\n"
        "from .poly import _mul\nfrom .asymptotics import series\n"
    )
    assert grid_helper_imports(src, {"_mul", "_inv"}) == [2, 3, 4, 5]


def test_only_ratio_knows_the_grid_form():
    helpers = grid_helpers()
    assert {"_binomial_row", "_shifted", "_mul", "_inv", "_to_grid", "_values", "_entry", "_put"} <= helpers
    users = {
        str(p.relative_to(PACKAGE)): grid_helper_imports(p.read_text(encoding="utf-8"), helpers)
        for p in PACKAGE.rglob("*.py")
    }
    assert {module for module, lines in users.items() if lines} == set(), users


# The benchmark's tracer patches functions it names by module and attribute;
# a renamed or deleted target would make every traced run fail.
TRACING = PACKAGE.parent.parent / "perfbench" / "tracing.py"


def tracing_targets() -> list:
    """(module, attribute) of each SPANS and COUNTS entry, read from the tracer's source."""
    tree = ast.parse(TRACING.read_text(encoding="utf-8"))
    out = []
    for node in tree.body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets if isinstance(t, ast.Name)] in (["SPANS"], ["COUNTS"]):
            out += [(module, attr) for _, module, attr in ast.literal_eval(node.value)]
    return out


def test_tracing_lists_are_read():
    modules = {module for module, _ in tracing_targets()}
    assert "turancert.asymptotics.series" in modules and "turancert.algebra.ratfunc" in modules


@pytest.mark.parametrize("module,attr", tracing_targets(), ids=lambda x: x)
def test_tracing_target_resolves(module, attr):
    owner = importlib.import_module(module)
    for part in attr.split("."):
        owner = getattr(owner, part)
    assert callable(owner)


# Field arithmetic on reduced elements acts on the coefficient tuples: a Poly
# built there means a division by the modulus came back into + - * or bool.
def test_reduced_field_arithmetic_builds_no_poly(monkeypatch):
    from fractions import Fraction

    from turancert.algebra import AlgebraicReal, NumberField, Poly

    K = NumberField(AlgebraicReal(Poly([-2, 0, 1]), 1, 2))
    x, y = K.element([1, 2]), K.element([Fraction(-3, 4), 5])
    assert K.known_irreducible
    built = []
    init = Poly.__init__

    def counted(self, coeffs=()):
        built.append(coeffs)
        init(self, coeffs)

    monkeypatch.setattr(Poly, "__init__", counted)
    values = [x + y, x - y, x * y, x * x, 3 - x, x + Fraction(1, 2), x * 7]
    truths = [bool(x), bool(x - x), bool(x * y - y * x)]
    monkeypatch.undo()
    assert built == []
    assert [v.coeffs for v in values[:3]] == [(Fraction(1, 4), 7), (Fraction(7, 4), -3), (Fraction(77, 4), Fraction(7, 2))]
    assert truths == [True, False, False]


# The root layer clears a threshold's input once and then runs on integer
# lists: a Poly built there (by Poly() or poly._over) is a conversion back.
def test_threshold_path_builds_no_poly(monkeypatch):
    import sys

    from turancert.algebra import poly, roots
    from turancert.certify import CertifyError, certify_turan3
    from turancert.sequences import TermTable
    from turancert.corpus import ENTRIES

    corners = []
    for e in ENTRIES.values():
        try:
            cert = certify_turan3(TermTable(e.recurrence), 4, scaling=e.scaling)
        except CertifyError:  # a window-only certificate, or none
            continue
        corners += cert.corners
    assert len(corners) == 16  # motzkin, franel3, fine and domb
    built = []
    init, over = poly.Poly.__init__, poly._over

    def counted_init(self, coeffs=()):
        built.append(self)
        init(self, coeffs)

    def counted_over(cs, scale):
        built.append(over(cs, scale))
        return built[-1]

    monkeypatch.setattr(poly.Poly, "__init__", counted_init)
    for name, module in list(sys.modules.items()):
        if name.startswith("turancert") and getattr(module, "_over", None) is over:
            monkeypatch.setattr(module, "_over", counted_over)
    thresholds = [roots.eventual_positivity_threshold(c["value"]) for c in corners]
    tops = [roots.no_roots_above(c["value"].num) for c in corners]
    assert built == []
    isolated = [roots.isolate_real_roots(c["value"].num) for c in corners]
    monkeypatch.undo()
    assert thresholds == [c["threshold"] for c in corners]
    assert all(t >= n for t, n in zip(tops, thresholds))
    # isolation builds the defining polynomial of its roots and nothing else
    held = {id(r.poly) for found in isolated for r in found}
    assert built and {id(p) for p in built} <= held


# -- benchmark records -----------------------------------------------------------

BENCH_RECORDS = sorted(ROOT.glob("BENCH_*.json"))
BENCH_WORKLOADS = ("corpus", "deep", "long-range")
BENCH_METRICS = ("setup_s", "wall_s", "peak_rss_mb")


def bench_record_problems(doc: dict) -> list:
    """What a paired-run record lacks: its description fields, and for each
    workload a parent and a change figure of every end-to-end metric, each
    a number or a dict with a numeric median."""

    def numeric(v) -> bool:
        v = v.get("median") if isinstance(v, dict) else v
        return isinstance(v, (int, float)) and not isinstance(v, bool)

    problems = [key for key in ("what", "parent", "command", "design") if key not in doc]
    for w in BENCH_WORKLOADS:
        summary = doc.get("workloads", {}).get(w, {}).get("summary", {})
        for m in BENCH_METRICS:
            for side in ("parent", "change"):
                if not numeric(summary.get(m, {}).get(side)):
                    problems.append(f"{w}.{m}.{side}")
    return problems


def test_bench_record_detector():
    side = {"parent": {"median": 1.0, "q1": 0.9}, "change": 0.5}
    summary = {m: dict(side) for m in BENCH_METRICS}
    doc = {"what": "", "parent": "", "command": "", "design": "",
           "workloads": {w: {"summary": summary} for w in BENCH_WORKLOADS}}
    assert bench_record_problems(doc) == []
    del doc["design"]
    doc["workloads"]["deep"] = {"summary": {**summary, "wall_s": {"parent": {"q1": 1}, "change": True}}}
    assert bench_record_problems(doc) == ["design", "deep.wall_s.parent", "deep.wall_s.change"]


def test_bench_records_exist():
    assert len(BENCH_RECORDS) >= 15


@pytest.mark.parametrize("path", BENCH_RECORDS, ids=lambda p: p.name)
def test_bench_record_is_complete(path):
    assert bench_record_problems(json.loads(path.read_text(encoding="utf-8"))) == []
