"""Command-line interface: every computation as a subcommand with CSV/JSON output.

Exit codes: 0 on success, 2 on argument/validation errors (an input too large
to allocate included), 3 on computational failures (bracket expansion
exhausted, spike-train norm budget exceeded, or a verification assertion
violated).  Errors are reported as a one-line JSON object on stderr.  All
floating-point output carries 17 significant digits, so identical
invocations are byte-identical and every value round-trips.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from .eigensolver import BracketNotFound, RobinBC, lambda1, lambda1_zero
from .families import (
    ExtremumSearchSpec,
    NormBudgetExceeded,
    SpikeTrainSpec,
    VerificationError,
    search_extremum,
    statement1_family,
    statement2_budget,
    statement2_family,
    statement3_family,
    verify_thm1,
    verify_thm2,
)
from .jsonio import dumps, to_csv
from .potentials import StepPotential, pnorm
from .sobolev import wminus1_dist

__all__ = ["main", "entrypoint"]


class CLIError(Exception):
    """Invalid arguments or inputs; maps to exit code 2."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # keep argparse from calling sys.exit(2) itself
        raise CLIError(message)


def _parse_potential(args, prefix: str = "q", *, signed: bool = False,
                     default: StepPotential | None = None) -> StepPotential:
    """The potential given by --<prefix>-json or --<prefix>-file, or
    ``default`` when neither is given; unless ``signed``, heights and weights
    must be nonnegative."""
    inline = getattr(args, f"{prefix}_json", None)
    path = getattr(args, f"{prefix}_file", None)
    if inline is None and path is None:
        if default is None:
            raise CLIError(f"one of --{prefix}-json or --{prefix}-file is required")
        return default
    if inline is not None and path is not None:
        raise CLIError(f"--{prefix}-json and --{prefix}-file are mutually exclusive")
    text = inline if inline is not None else open(path, "r", encoding="utf-8").read()
    try:
        q = StepPotential.from_dict(json.loads(text))
    except (KeyError, TypeError, ValueError, RecursionError) as exc:
        raise CLIError(f"invalid potential ({prefix}): {exc}") from exc
    if not signed and (q.heights.min() < 0.0 or any(w < 0.0 for _, w in q.deltas)):
        raise CLIError(f"invalid potential ({prefix}): negative height or weight")
    return q


def _bc(args) -> RobinBC:
    try:
        return RobinBC(args.k0sq, args.k1sq)
    except ValueError as exc:
        raise CLIError(str(exc)) from exc


def _float_list(text: str, name: str) -> list[float]:
    try:
        values = [float(tok) for tok in text.split(",") if tok.strip() != ""]
    except ValueError as exc:
        raise CLIError(f"invalid {name} list: {text!r}") from exc
    if not values:
        raise CLIError(f"{name} list is empty")
    return values


def _int_list(text: str, name: str) -> list[int]:
    values = _float_list(text, name)
    out = [int(v) for v in values]
    if any(float(i) != v for i, v in zip(out, values)):
        raise CLIError(f"{name} list must contain integers")
    return out


def _add_io_options(p, default_format: str):
    p.add_argument("--format", choices=("json", "csv"), default=default_format)
    p.add_argument("--output", default=None, help="write to this path instead of stdout")


def _add_bc_options(p):
    p.add_argument("--k0sq", type=float, required=True)
    p.add_argument("--k1sq", type=float, required=True)


# --- handlers ----------------------------------------------------------------

def _cmd_eig(args) -> str:
    q = _parse_potential(args)
    result = lambda1(q, _bc(args), eigenfunction_samples=args.eigenfunction)
    if args.format == "json":
        return dumps(result.to_dict()) + "\n"
    row = [
        result.lambda1,
        result.residual,
        result.bracket[0],
        result.bracket[1],
        result.iterations,
    ]
    return to_csv(["lambda1", "residual", "bracket_lo", "bracket_hi", "iterations"], [row])


def _cmd_eig_zero(args) -> str:
    value = lambda1_zero(_bc(args))
    if args.format == "json":
        return dumps({"lambda1": value}) + "\n"
    return to_csv(["lambda1"], [[value]])


def _cmd_norms(args) -> str:
    q = _parse_potential(args)
    exponents = _float_list(args.p, "p")
    rows = [(p, pnorm(q, p)) for p in exponents]
    if args.format == "json":
        return dumps({"rows": [{"p": p, "value": v} for p, v in rows]}) + "\n"
    return to_csv(["p", "value"], rows)


def _cmd_wdist(args) -> str:
    f = _parse_potential(args, "f", signed=True)
    g = _parse_potential(args, "g", signed=True, default=StepPotential.constant(0.0))
    if args.grid_n < 64:
        raise CLIError("--grid-n must be >= 64")
    value = wminus1_dist(f, g, args.grid_n)
    if args.format == "json":
        return dumps({"wminus1_dist": value, "grid_n": args.grid_n}) + "\n"
    return to_csv(["wminus1_dist", "grid_n"], [[value, args.grid_n]])


def _cmd_family(args) -> str:
    if args.format == "csv":
        raise CLIError("family output is JSON only")
    if args.statement == 1:
        if args.zeta is None or args.n is None:
            raise CLIError("statement 1 needs --zeta and --n")
        q, gamma_norm = statement1_family(args.zeta, args.n, args.gamma)
        payload = {"statement": 1, "gamma": args.gamma, "gamma_norm": gamma_norm,
                   "q": q.to_dict()}
    elif args.statement == 3:
        if args.n is None:
            raise CLIError("statement 3 needs --n")
        q = statement3_family(args.gamma, args.n)
        payload = {"statement": 3, "gamma": args.gamma,
                   "gamma_norm": pnorm(q, args.gamma), "mass": pnorm(q, 1.0),
                   "q": q.to_dict()}
    else:
        needed = (args.rho_star, args.height)
        if any(v is None for v in needed):
            raise CLIError("statement 2 needs --rho-star and --height")
        spec = SpikeTrainSpec(args.rho_star, args.floor, args.spikes, args.height, args.nu)
        q, kappa = statement2_family(spec, args.gamma)
        payload = {"statement": 2, "gamma": args.gamma, "kappa": kappa,
                   "nu_norm": statement2_budget(spec), "q": q.to_dict()}
    return dumps(payload) + "\n"


def _cmd_verify_thm1(args) -> str:
    table = verify_thm1(
        args.gamma,
        _bc(args),
        _float_list(args.rho, "rho"),
        spikes=args.spikes,
        floor=args.floor,
        nu=args.nu,
        slack_fraction=args.slack_fraction,
    )
    if args.format == "json":
        return dumps({"rows": table.to_dicts(), "details": list(table.details)}) + "\n"
    return table.to_csv()


def _cmd_verify_thm2(args) -> str:
    table = verify_thm2(args.gamma, _bc(args), _int_list(args.n, "n"))
    if args.format == "json":
        return dumps({"rows": table.to_dicts()}) + "\n"
    return table.to_csv()


def _cmd_search(args) -> str:
    spec = ExtremumSearchSpec(
        gamma=args.gamma,
        mode=args.mode,
        cells=args.cells,
        max_iters=args.max_iters,
        step_init=args.step_init,
        step_shrink=args.step_shrink,
        step_min=args.step_min,
        height_cap=args.height_cap,
    )
    result = search_extremum(spec, _bc(args))
    if args.format == "json":
        payload = result.to_dict()
        payload["seed"] = args.seed
        return dumps(payload) + "\n"
    return to_csv(["iteration", "best_lambda"], [[i, v] for i, v in result.trace])


# one parser serves every main call in a process: each add_argument asks the
# terminal for its size, so a build costs as much as a small command
@functools.cache
def build_parser() -> _Parser:
    parser = _Parser(prog="sl-extremal", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("eig", help="first eigenvalue of a step+delta potential")
    p.add_argument("--q-json")
    p.add_argument("--q-file")
    _add_bc_options(p)
    p.add_argument("--eigenfunction", type=int, default=None, metavar="N",
                   help="include eigenfunction samples on the grid j/N")
    _add_io_options(p, "json")
    p.set_defaults(handler=_cmd_eig)

    p = sub.add_parser("eig-zero", help="zero-potential eigenvalue (characteristic equation)")
    _add_bc_options(p)
    _add_io_options(p, "json")
    p.set_defaults(handler=_cmd_eig_zero)

    p = sub.add_parser("norms", help="extended L^p norms of a step potential")
    p.add_argument("--q-json")
    p.add_argument("--q-file")
    p.add_argument("--p", required=True, help="comma-separated exponents (0 = geometric mean)")
    _add_io_options(p, "csv")
    p.set_defaults(handler=_cmd_norms)

    p = sub.add_parser("wdist", help="negative Sobolev distance between signed measures")
    p.add_argument("--f-json")
    p.add_argument("--f-file")
    p.add_argument("--g-json")
    p.add_argument("--g-file")
    p.add_argument("--grid-n", type=int, default=4096)
    _add_io_options(p, "json")
    p.set_defaults(handler=_cmd_wdist)

    p = sub.add_parser("family", help="generate one of the explicit potential families")
    p.add_argument("--statement", type=int, choices=(1, 2, 3), required=True)
    p.add_argument("--gamma", type=float, required=True)
    p.add_argument("--zeta", type=float, default=None)
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--rho-star", type=float, default=None)
    p.add_argument("--floor", type=float, default=0.1)
    p.add_argument("--spikes", type=int, default=100)
    p.add_argument("--height", type=float, default=None)
    p.add_argument("--nu", type=float, default=0.75)
    _add_io_options(p, "json")
    p.set_defaults(handler=_cmd_family)

    p = sub.add_parser("verify-thm1", help="certify unboundedness below (gamma < 1)")
    p.add_argument("--gamma", type=float, required=True)
    _add_bc_options(p)
    p.add_argument("--rho", required=True, help="comma-separated target levels")
    p.add_argument("--spikes", type=int, default=100)
    p.add_argument("--floor", type=float, default=0.1)
    p.add_argument("--nu", type=float, default=None)
    p.add_argument("--slack-fraction", type=float, default=0.5)
    _add_io_options(p, "csv")
    p.set_defaults(handler=_cmd_verify_thm1)

    p = sub.add_parser("verify-thm2", help="track the supremum trend (gamma > 1)")
    p.add_argument("--gamma", type=float, required=True)
    _add_bc_options(p)
    p.add_argument("--n", required=True, help="comma-separated family indices")
    _add_io_options(p, "csv")
    p.set_defaults(handler=_cmd_verify_thm2)

    p = sub.add_parser("search", help="coordinate search for extremal eigenvalues")
    p.add_argument("--mode", choices=("min", "max"), required=True)
    p.add_argument("--gamma", type=float, required=True)
    p.add_argument("--cells", type=int, required=True)
    _add_bc_options(p)
    p.add_argument("--max-iters", type=int, default=200)
    p.add_argument("--step-init", type=float, default=1.0)
    p.add_argument("--step-shrink", type=float, default=0.5)
    p.add_argument("--step-min", type=float, default=1e-3)
    p.add_argument("--height-cap", type=float, default=float("inf"))
    p.add_argument("--seed", type=int, default=0,
                   help="recorded in the output; the search itself is deterministic")
    _add_io_options(p, "json")
    p.set_defaults(handler=_cmd_search)

    return parser


def _emit_error(message: str, code: int) -> None:
    sys.stderr.write(dumps({"error": message, "code": code}) + "\n")


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        text = args.handler(args)
    except CLIError as exc:
        _emit_error(str(exc), 2)
        return 2
    except (BracketNotFound, NormBudgetExceeded, VerificationError) as exc:
        _emit_error(str(exc), 3)
        return 3
    except (ValueError, OSError, MemoryError) as exc:
        _emit_error(str(exc), 2)
        return 2
    if args.output is not None:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)
    return 0


def entrypoint() -> None:
    sys.exit(main())
