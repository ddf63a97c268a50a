"""The package's public names and module boundaries: changing one must be deliberate."""

import ast
import importlib
import pathlib

import sl_extremal

PUBLIC = [
    "StepPotential",
    "DeltaComponent",
    "Potential",
    "pnorm",
    "normalize_gamma",
    "NonPositiveExponentOnVanishingFunction",
    "ZeroPotential",
    "RobinBC",
    "EigenResult",
    "theta_end",
    "lambda1",
    "lambda1_fd",
    "lambda1_zero",
    "rayleigh",
    "BracketNotFound",
    "ZeroFunction",
    "wminus1_norm",
    "wminus1_dist",
    "SpikeTrainSpec",
    "ExtremumSearchSpec",
    "TableRow",
    "ConvergenceTable",
    "SearchResult",
    "statement1_family",
    "statement2_family",
    "statement3_family",
    "verify_thm1",
    "verify_thm2",
    "search_extremum",
    "NormBudgetExceeded",
    "VerificationError",
    "__version__",
]


def test_package_exports_exactly_the_public_names():
    assert sl_extremal.__all__ == PUBLIC


def test_every_submodule_name_is_reexported_as_the_same_object():
    # the cli and jsonio modules are reached by import path, not re-exported
    names = {"__version__"}
    for name in ("potentials", "eigensolver", "sobolev", "families"):
        module = importlib.import_module(f"sl_extremal.{name}")
        for attr in module.__all__:
            assert getattr(sl_extremal, attr) is getattr(module, attr), (name, attr)
        names.update(module.__all__)
    assert names == set(sl_extremal.__all__)


def test_only_the_shot_leaves_the_eigensolver():
    # one shooting problem: every theta-walk outside eigensolver goes through _Shot
    package = pathlib.Path(sl_extremal.__file__).parent
    for path in package.glob("*.py"):
        tree = ast.parse(path.read_text())
        if path.stem != "eigensolver":
            names = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
            names |= {n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute)}
            names |= {a.name for n in ast.walk(tree) if isinstance(n, ast.ImportFrom)
                      for a in n.names}
            assert "_walk" not in names, path.name
        private = {a.name for n in ast.walk(tree)
                   if isinstance(n, ast.ImportFrom) and n.module == "eigensolver"
                   for a in n.names if a.name.startswith("_")}
        assert private <= ({"_Shot"} if path.stem == "families" else set()), path.name
