"""The package's public names: adding or removing one must be deliberate."""

import importlib

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
