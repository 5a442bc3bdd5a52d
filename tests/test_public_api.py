"""The package's public surface: what ``lqmatern`` exports, and what the demos reach."""

import ast
from pathlib import Path

import pytest

import lqmatern

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))

PUBLIC = [
    "Bounds", "CholFactor", "ContaminationSpec", "FitChain", "FitResult",
    "LocationSet", "MaternParams", "NotSPDError", "QGridSpec", "QProfile",
    "ReplicateSet", "SandwichParts", "SelectionResult", "SimConfig",
    "SingularJError", "StdErrs", "VariogramCurve", "build_cov",
    "center_replicates", "chol_factor", "default_bounds",
    "default_kappa_spec", "fit", "fit_profile", "kappa", "make_se_fn",
    "matern_cov", "sandwich", "select_q_kappa", "select_q_sqv",
    "simulate_dataset", "sqv", "standardized", "std_errs", "ustar_all",
    "variogram_by_replicate",
]


def test_all_is_the_public_list():
    assert len(set(PUBLIC)) == 36
    assert sorted(lqmatern.__all__) == sorted(PUBLIC)


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


ROOT = Path(__file__).resolve().parents[1]
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
