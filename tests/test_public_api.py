"""The package's public surface: what ``lqmatern`` exports, and what the demos reach."""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import lqmatern
import lqmatern.cli_io  # a REMOVED path names it; the package does not import it
from code_lines import SRC, code_lines, count

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))

PUBLIC = [
    "Bounds", "CholFactor", "ContaminationSpec", "FitChain", "FitResult",
    "LocationSet", "MaternParams", "NotSPDError", "QGridSpec",
    "ReplicateSet", "SandwichParts", "SelectionResult", "SimConfig",
    "SingularJError", "StdErrs", "VariogramCurve", "build_cov",
    "center_replicates", "chol_factor", "default_bounds",
    "default_kappa_spec", "fit", "kappa", "matern_cov", "sandwich",
    "select_q_kappa", "select_q_sqv", "simulate_dataset", "sqv",
    "standardized", "std_errs", "variogram_by_replicate",
]

# Public names removed because no caller needed them, as dotted paths from
# ``lqmatern`` (CHANGES.md says what replaced each): ``FitChain.profile``
# returns the fits that ``QProfile`` wrapped and ``fit_profile`` built, the
# tests score a point through ``oracles.profile_lq``,
# ``MaternParams(*a)`` reads an array, the CLI's ``fit`` writes the
# se.txt that ``cmd_se`` made from a fit record, ``sandwich(...).U`` holds
# the weighted gradients that ``ustar_all`` scaled by e^s, and a caller
# passes ``lambda th, q: std_errs(sandwich(reps, locs, th, q))`` where
# ``make_se_fn`` built it, and a sweep row holds the chain's own
# ``FitResult``, of which ``SweepRow`` kept a copy.
REMOVED = ["QProfile", "fit_profile", "estimate.QProfile", "estimate.fit_profile",
           "gauss_lik.profile_lq", "MaternParams.from_array", "cli_io.cmd_se",
           "ustar_all", "make_se_fn", "asymptotics.ustar_all", "qselect.make_se_fn",
           "cli_io.SweepRow"]


def test_all_is_the_public_list():
    assert len(set(PUBLIC)) == 32
    assert sorted(lqmatern.__all__) == sorted(PUBLIC)


@pytest.mark.parametrize("path", REMOVED)
def test_removed_name_is_gone(path):
    *owner, name = path.split(".")
    obj = lqmatern
    for part in owner:
        obj = getattr(obj, part)
    assert not hasattr(obj, name)


def removed_mentions(text):
    """The paths of REMOVED that ``text`` names: a dotted path as written, a bare name as a word."""
    return [path for path in REMOVED
            if re.search(re.escape(path) if "." in path else r"\b%s\b" % re.escape(path), text)]


def test_removed_mentions_matches_paths_and_words():
    assert removed_mentions("call `ustar_all(reps)` or estimate.QProfile") == [
        "QProfile", "estimate.QProfile", "ustar_all"]
    assert removed_mentions("my_ustar_all and QProfiles and estimate.fit") == []


@pytest.mark.parametrize("doc", [ROOT / "README.md"] + DEMOS,
                         ids=["README"] + [d.stem for d in DEMOS])
def test_no_removed_name_in_readme_or_demos(doc):
    # a user reads the README and the demos, and a name they show that the
    # package no longer has fails at the first call
    assert removed_mentions(doc.read_text()) == []


def test_every_public_name_resolves():
    for name in lqmatern.__all__:
        assert getattr(lqmatern, name) is not None, name


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_imports_no_private_name(demo):
    # demos show the package as a user reaches it
    private = []
    for node in ast.walk(ast.parse(demo.read_text())):
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("lqmatern"):
            if any(part.startswith("_") for part in node.module.split(".")):
                private.append(node.module)
            private += [a.name for a in node.names if a.name.startswith("_")]
    assert not private, private


MODULES = (sorted(p for p in (ROOT / "src" / "lqmatern").glob("*.py") if p.stem != "__init__")
           + sorted((ROOT / "tests").glob("*.py")) + DEMOS)


@pytest.mark.parametrize("module", MODULES, ids=[p.stem for p in MODULES])
def test_module_uses_every_name_it_imports(module):
    # no linter runs in tier-1; an import left behind by a refactor fails here
    tree = ast.parse(module.read_text())
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported[(alias.asname or alias.name).split(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = sorted((line, name) for name, line in imported.items() if name not in used)
    assert not unused, unused


def used_names(paths):
    """Every name a module's code reads, as a bare name or an attribute, over ``paths``."""
    used = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    return used


def definitions(tree):
    """(name, owner) of each module-level function and class, and of each method of a public class.

    ``owner`` is None at module level, else the class's name.
    """
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, None
        if isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
            yield from ((sub.name, node.name) for sub in node.body
                        if isinstance(sub, ast.FunctionDef))


def test_every_public_definition_has_a_user():
    # a public function or class that is not exported, that no src code
    # calls and that no demo shows is surface nobody uses, and so is a
    # public method of a public class whose name no src code or demo reads;
    # a private one that no src code reads is test-only code, which lives in
    # tests/.  Dunder methods are Python's to call
    src = sorted((ROOT / "src" / "lqmatern").glob("*.py"))
    in_src = used_names(src)
    users = set(lqmatern.__all__) | in_src | used_names(DEMOS)
    unused = [(path.stem, owner, name) for path in src
              for name, owner in definitions(ast.parse(path.read_text()))
              if not (name.startswith("__") and name.endswith("__"))
              and name not in (in_src if name.startswith("_") else users)]
    assert not unused, unused


def test_definitions_finds_public_methods_only_on_public_classes():
    source = ("def f():\n    pass\nclass A:\n    def m(self):\n        pass\n"
              "    def _p(self):\n        pass\nclass _B:\n    def m2(self):\n        pass\n")
    assert set(definitions(ast.parse(source))) == {
        ("f", None), ("A", None), ("m", "A"), ("_p", "A"), ("_B", None)}


def package_imports(tree):
    """The package modules a module imports, by their names within the package.

    ``from .m import x`` and ``from lqmatern.m import x`` give m, and so do
    ``from . import m``, ``from lqmatern import m`` and ``import
    lqmatern.m``.
    """
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.level or (node.module or "")
                                                 .startswith("lqmatern")):
            module = (node.module or "").removeprefix("lqmatern").lstrip(".")
            yield from ([module] if module else [a.name for a in node.names])
        elif isinstance(node, ast.Import):
            yield from (a.name.removeprefix("lqmatern.") for a in node.names
                        if a.name.startswith("lqmatern."))


@pytest.mark.parametrize("source", [
    "from .qselect import kappa\n",
    "def f():\n    from lqmatern.qselect import kappa\n",
    "from . import qselect\n",
    "from lqmatern import qselect as s\n",
    "import lqmatern.qselect\n",
])
def test_package_imports_finds_each_kind(source):
    assert set(package_imports(ast.parse(source))) == {"qselect"}


def test_estimate_imports_nothing_from_qselect():
    # the layering is qselect -> estimate only: the selectors take a
    # FitChain as their fit_fn, and a fit knows no selector
    tree = ast.parse((ROOT / "src" / "lqmatern" / "estimate.py").read_text())
    assert "qselect" not in set(package_imports(tree))


def test_qselect_imports_nothing_from_asymptotics():
    # the selectors take their standard errors as se_fn, so the caller that
    # holds the data builds them, and a selector knows no sandwich
    tree = ast.parse((ROOT / "src" / "lqmatern" / "qselect.py").read_text())
    assert "asymptotics" not in set(package_imports(tree))


# The private names one src module imports from another, each reviewed, as
# (importer, module, name).
REVIEWED_PRIVATE_IMPORTS = {
    ("asymptotics", "gauss_lik", "_Workspace"),
    ("estimate", "gauss_lik", "_Workspace"),
    ("estimate", "gauss_lik", "_checked_q"),
    ("estimate", "gauss_lik", "_checked_rows"),
    ("gauss_lik", "matern", "_cov_into"),
    ("qselect", "estimate", "_checked_q_grid"),
}


def private_imports(tree, stem):
    """(stem, module, name) of each private name ``stem`` imports from another package module.

    A name imported from a module (``from .m import _x``, relative or by the
    package's name), and an attribute read on a module imported whole
    (``from . import m`` then ``m._x``).
    """
    whole = {}
    for node in ast.walk(tree):
        if not isinstance(node, ast.ImportFrom):
            continue
        module = (node.module or "").removeprefix("lqmatern").lstrip(".")
        if node.level == 0 and not (node.module or "").startswith("lqmatern"):
            continue
        for a in node.names:
            if not module:
                whole[a.asname or a.name] = a.name
            elif a.name.startswith("_"):
                yield stem, module, a.name
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in whole and node.attr.startswith("_")):
            yield stem, whole[node.value.id], node.attr


def test_private_imports_are_reviewed():
    # a private name is its module's own business: one taken by another
    # module couples the two, so a new crossing fails here until it is
    # reviewed and listed, and a crossing removed leaves the list
    found = set()
    for path in sorted((ROOT / "src" / "lqmatern").glob("*.py")):
        found |= set(private_imports(ast.parse(path.read_text()), path.stem))
    assert found == REVIEWED_PRIVATE_IMPORTS, (sorted(found - REVIEWED_PRIVATE_IMPORTS),
                                               sorted(REVIEWED_PRIVATE_IMPORTS - found))


# What a score hands to the pass after it (``_Workspace.held``) and the
# memo of the last pass (``ReplicateSet._last_pass``) are gauss_lik's own:
# the other modules score and take passes through a workspace's methods.
PASS_PROTOCOL = {"_last_pass", "held"}


def protocol_reads(tree):
    """The names of PASS_PROTOCOL a module reads or writes, as an attribute or as a string."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr in PASS_PROTOCOL:
            yield node.attr
        elif isinstance(node, ast.Constant) and node.value in PASS_PROTOCOL:
            yield node.value


def test_only_gauss_lik_reads_the_pass_protocol():
    found = {path.stem: sorted(set(protocol_reads(ast.parse(path.read_text()))))
             for path in sorted(SRC.glob("*.py")) if path.stem != "gauss_lik"}
    assert not {stem: names for stem, names in found.items() if names}


@pytest.mark.parametrize("source", [
    "reps._last_pass\n",
    "self.ws.held = None\n",
    "getattr(reps, '_last_pass')\n",
    "object.__setattr__(ws, 'held', 1)\n",
])
def test_protocol_reads_finds_each_kind(source):
    assert set(protocol_reads(ast.parse(source)))


def test_protocol_reads_passes_other_names():
    assert not set(protocol_reads(ast.parse("ws.passes\nheld = 1\nws.held_out\n'_last'\n")))


@pytest.mark.parametrize("source", [
    "from .g import _x\n",
    "from lqmatern.g import _x as y\n",
    "def f():\n    from .g import _x\n",
    "from . import g\ng._x(1)\n",
    "from lqmatern import g as h\nh._x\n",
])
def test_private_imports_finds_each_kind(source):
    assert set(private_imports(ast.parse(source), "m")) == {("m", "g", "_x")}


def test_private_imports_passes_public_and_foreign_names():
    source = ("from .g import x\nfrom numpy import _core\nimport lqmatern\n"
              "from . import g\ng.x\nlqmatern._y\n")
    assert not set(private_imports(ast.parse(source), "m"))


# The third-party modules src imports, each reviewed: every lqmatern process
# loads them, and a module like scipy.optimize costs about 11 MB of resident
# memory and 0.1-0.2 s of start-up for one routine.  scipy.linalg.blas
# costs nothing more: importing scipy.linalg.lapack loads it (measured: no
# module added, 0 kB of resident memory, 6 us for the import statement).
REVIEWED_EXTERNAL_IMPORTS = {"numpy", "numpy.random", "scipy.linalg.blas", "scipy.linalg.lapack",
                             "scipy.special", "scipy.spatial.distance"}


def external_imports(tree):
    """The modules a module imports from outside the package and the standard library."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            continue
        yield from (name for name in names if name.split(".")[0] not in
                    sys.stdlib_module_names | {"lqmatern"})


def test_external_imports_are_reviewed():
    found = set()
    for path in sorted((ROOT / "src" / "lqmatern").glob("*.py")):
        found |= set(external_imports(ast.parse(path.read_text())))
    assert found == REVIEWED_EXTERNAL_IMPORTS, (sorted(found - REVIEWED_EXTERNAL_IMPORTS),
                                                sorted(REVIEWED_EXTERNAL_IMPORTS - found))


def test_external_imports_finds_each_kind():
    source = ("import os\nimport numpy as np\nfrom scipy.optimize import minimize\n"
              "from .g import x\nfrom lqmatern import y\nfrom . import z\n"
              "def f():\n    import scipy.stats, json\n")
    assert set(external_imports(ast.parse(source))) == {"numpy", "scipy.optimize", "scipy.stats"}


def test_no_process_loads_scipy_optimize(tmp_path):
    # a process that imports the package, fits and runs a CLI sweep loads
    # no module of scipy.optimize: the fit's Nelder-Mead is the package's own
    script = (
        "import sys\n"
        "from lqmatern import MaternParams, SimConfig, fit, simulate_dataset\n"
        "from lqmatern.cli_io import main\n"
        "locs, reps, _ = simulate_dataset(SimConfig(MaternParams(1.0, 0.2, 0.5), n=16, m=20,\n"
        "                                           layout='grid', seed=1))\n"
        "assert fit(reps, locs, 0.9).converged\n"
        "assert main(['sweep', '--n', '16', '--m', '20', '--repetitions', '1',\n"
        "             '--q-grid', '1,0.95,0.9', '--out', sys.argv[1]]) == 0\n"
        "print(sorted(m for m in sys.modules if m.startswith('scipy.optimize')))\n")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p])
    proc = subprocess.run([sys.executable, "-c", script, str(tmp_path / "out")], cwd=tmp_path,
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert (tmp_path / "out" / "sweep.csv").exists()
    assert proc.stdout.splitlines()[-1] == "[]"


# The module-level state src may keep, each reviewed: none (the last
# derivative pass is kept on its ReplicateSet).
REVIEWED_STATE = set()

CACHES = ("functools.lru_cache", "functools.cache")
MUTATORS = {"append", "extend", "insert", "update", "setdefault", "pop", "popitem",
            "clear", "add", "discard", "remove", "appendleft", "__setitem__"}


def module_state(tree, stem):
    """The module-level state one module keeps, as (kind, module, name) triples.

    Kinds: a ``global`` statement; a module-level ``threading.local()``; a
    ``functools`` cache decorator; a module-level name that a function
    changes in place (item, attribute or mutating method), unless the
    function binds that name itself.  Import aliases are resolved.
    """
    alias = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            alias.update({a.asname or a.name: a.name for a in node.names})
        elif isinstance(node, ast.ImportFrom) and node.module:
            alias.update({a.asname or a.name: node.module + "." + a.name for a in node.names})

    def dotted(expr):
        head, _, rest = ast.unparse(expr).partition(".")
        return alias.get(head, head) + ("." + rest if rest else "")

    names = set()
    for node in tree.body:
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names |= {t.id for t in targets if isinstance(t, ast.Name)}
            if isinstance(node.value, ast.Call) and dotted(node.value.func) == "threading.local":
                yield from (("threading.local", stem, t.id) for t in targets
                            if isinstance(t, ast.Name))
        elif isinstance(node, ast.ClassDef):
            names.add(node.name)
    for node in ast.walk(tree):
        if isinstance(node, ast.Global):
            yield from (("global", stem, name) for name in node.names)
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for deco in node.decorator_list:
            if dotted(deco.func if isinstance(deco, ast.Call) else deco) in CACHES:
                yield "cache", stem, node.name
        own = {a.arg for a in ast.walk(node.args) if isinstance(a, ast.arg)}
        own |= {n.id for n in ast.walk(node) if isinstance(n, ast.Name)
                and isinstance(n.ctx, ast.Store)}
        for sub in ast.walk(node):
            base = None
            if isinstance(sub, (ast.Subscript, ast.Attribute)) and isinstance(
                    sub.ctx, (ast.Store, ast.Del)):
                base = sub.value
            elif (isinstance(sub, ast.Call) and isinstance(sub.func, ast.Attribute)
                  and sub.func.attr in MUTATORS):
                base = sub.func.value
            if isinstance(base, ast.Name) and base.id in names - own:
                yield "mutated", stem, base.id


def test_module_level_state_is_reviewed():
    # state at module level is shared by every caller in the process (or
    # the thread), so one call can change what the next one computes; a
    # new cache of the kinds module_state finds fails here until it is
    # reviewed and listed
    found = set()
    for path in sorted((ROOT / "src" / "lqmatern").glob("*.py")):
        found |= set(module_state(ast.parse(path.read_text()), path.stem))
    assert found <= REVIEWED_STATE, sorted(found - REVIEWED_STATE)


@pytest.mark.parametrize("source, kind", [
    ("from threading import local as L\n_memo = L()\n", "threading.local"),
    ("import functools\n@functools.lru_cache(maxsize=None)\ndef _memo(x):\n    return x\n",
     "cache"),
    ("from functools import cache\n@cache\ndef _memo(x):\n    return x\n", "cache"),
    ("_memo = {}\ndef f(k, v):\n    _memo[k] = v\n", "mutated"),
    ("_memo = set()\ndef f(k):\n    _memo.add(k)\n", "mutated"),
    ("_memo = None\ndef f():\n    global _memo\n    _memo = 1\n", "global"),
])
def test_module_state_finds_each_kind(source, kind):
    assert (kind, "m", "_memo") in set(module_state(ast.parse(source), "m"))


def test_module_state_passes_locals_and_constants():
    source = ("TABLE = {1: 2}\n_memo = []\ndef f(_memo):\n    _memo.append(TABLE[1])\n"
              "def g():\n    out = []\n    out.append(TABLE.get(1))\n    return out\n")
    assert not set(module_state(ast.parse(source), "m"))


# The package's code lines by ``tests/code_lines.py``, as a ceiling: a change
# that raises it says why in CHANGES.md, and a change that lowers the count
# lowers the ceiling to it.
CODE_LINES = 1585


def test_src_code_lines_stay_under_the_ceiling():
    total = sum(count(sorted(SRC.glob("*.py"))).values())
    assert total <= CODE_LINES, total


def test_code_lines_counts_code_only():
    # docstrings and comments are left out; a call over three lines counts
    # three, and a string over two that is not a docstring counts two
    source = ('"""Module docstring,\n\nover three lines."""\n'
              "# a comment\n"
              "import os  # a trailing comment\n"
              "\n"
              "def f(a, b):\n"
              '    """Function docstring."""\n'
              "    return os.path.join(\n"
              "        a,\n"
              "        b)\n"
              'TEXT = """not a\ndocstring"""\n')
    assert code_lines(source) == 7
