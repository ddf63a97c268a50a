"""Command-line interface: every computation as a subcommand with CSV/JSON output.

Exit codes: 0 on success, 2 on argument/validation errors (an input too large
to allocate included), 3 on computational failures (bracket expansion
exhausted, spike-train norm budget exceeded, or a verification assertion
violated).  Errors are reported as a one-line JSON object on stderr.  All
floating-point output carries 17 significant digits, so identical
invocations are byte-identical and every value round-trips.  This module
alone defines the output: its handlers build every JSON payload and CSV row
from the library's result fields (``schemas/cli-output.schema.json``).
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from pathlib import Path

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
    text = inline if inline is not None else Path(path).read_text(encoding="utf-8")
    try:
        data = json.loads(text)
        q = StepPotential(data["breakpoints"], data["heights"],
                          [(d["site"], d["weight"]) for d in data.get("deltas", [])])
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


def _add_command(sub, name: str, handler, help: str, default_format: str = "json",
                 formats=("json", "csv")):
    p = sub.add_parser(name, help=help)
    p.add_argument("--format", choices=formats, default=default_format)
    p.add_argument("--output", default=None, help="write to this path instead of stdout")
    p.set_defaults(handler=handler)
    return p


def _add_potential_options(p, *prefixes: str):
    for prefix in prefixes:
        p.add_argument(f"--{prefix}-json")
        p.add_argument(f"--{prefix}-file")


def _add_bc_options(p):
    p.add_argument("--k0sq", type=float, required=True)
    p.add_argument("--k1sq", type=float, required=True)


# --- handlers ----------------------------------------------------------------
# each returns (JSON payload, CSV header, CSV rows); main formats one of them

def _step_json(q: StepPotential) -> dict:
    """JSON of a potential without point masses: ``family`` and ``search`` print no other."""
    return {"breakpoints": q.breakpoints.tolist(), "heights": q.heights.tolist()}


def _table(table) -> tuple[list[dict], list[str], list[list]]:
    """(JSON rows, CSV header, CSV rows) of a verification table."""
    header = ["n_or_rho", "lambda1", "reference", "gap"]
    rows = [[r.n_or_rho, r.lambda1, r.reference, r.gap] for r in table.rows]
    return [dict(zip(header, row)) for row in rows], header, rows


def _cmd_eig(args):
    if args.eigenfunction is not None and args.format == "csv":
        raise CLIError("--eigenfunction needs --format json: the CSV row has no samples")
    q = _parse_potential(args)
    result = lambda1(q, _bc(args), eigenfunction_samples=args.eigenfunction)
    payload = {"lambda1": result.lambda1, "residual": result.residual,
               "bracket": result.bracket, "iterations": result.iterations}
    if result.eigenfunction_samples is not None:
        payload["eigenfunction_samples"] = result.eigenfunction_samples
    row = [result.lambda1, result.residual, *result.bracket, result.iterations]
    return payload, ["lambda1", "residual", "bracket_lo", "bracket_hi", "iterations"], [row]


def _cmd_eig_zero(args):
    value = lambda1_zero(_bc(args))
    return {"lambda1": value}, ["lambda1"], [[value]]


def _cmd_norms(args):
    q = _parse_potential(args)
    rows = [(p, pnorm(q, p)) for p in _float_list(args.p, "p")]
    return {"rows": [{"p": p, "value": v} for p, v in rows]}, ["p", "value"], rows


def _cmd_wdist(args):
    f = _parse_potential(args, "f", signed=True)
    g = _parse_potential(args, "g", signed=True, default=StepPotential.constant(0.0))
    value = wminus1_dist(f, g)
    return {"wminus1_dist": value}, ["wminus1_dist"], [[value]]


def _cmd_family(args):
    if args.statement == 1:
        if args.zeta is None or args.n is None:
            raise CLIError("statement 1 needs --zeta and --n")
        q, gamma_norm = statement1_family(args.zeta, args.n, args.gamma)
        payload = {"statement": 1, "gamma": args.gamma, "gamma_norm": gamma_norm,
                   "q": _step_json(q)}
    elif args.statement == 3:
        if args.n is None:
            raise CLIError("statement 3 needs --n")
        q = statement3_family(args.gamma, args.n)
        payload = {"statement": 3, "gamma": args.gamma,
                   "gamma_norm": pnorm(q, args.gamma), "mass": pnorm(q, 1.0),
                   "q": _step_json(q)}
    else:
        needed = (args.rho_star, args.height)
        if any(v is None for v in needed):
            raise CLIError("statement 2 needs --rho-star and --height")
        spec = SpikeTrainSpec(args.rho_star, args.floor, args.spikes, args.height, args.nu)
        q, kappa = statement2_family(spec, args.gamma)
        payload = {"statement": 2, "gamma": args.gamma, "kappa": kappa,
                   "nu_norm": statement2_budget(spec), "q": _step_json(q)}
    return payload, None, None


def _cmd_verify_thm1(args):
    table = verify_thm1(args.gamma, _bc(args), _float_list(args.rho, "rho"),
                        spikes=args.spikes)
    rows, *csv = _table(table)
    return {"rows": rows, "details": table.details}, *csv


def _cmd_verify_thm2(args):
    rows, *csv = _table(verify_thm2(args.gamma, _bc(args), _int_list(args.n, "n")))
    return {"rows": rows}, *csv


def _cmd_search(args):
    spec = ExtremumSearchSpec(
        gamma=args.gamma,
        mode=args.mode,
        cells=args.cells,
        max_iters=args.max_iters,
        step_init=args.step_init,
        height_cap=args.height_cap,
    )
    result = search_extremum(spec, _bc(args))
    payload = {"best_lambda": result.best_lambda, "best_q": _step_json(result.best_q),
               "evaluations": result.evaluations, "trace": result.trace, "seed": args.seed}
    return payload, ["iteration", "best_lambda"], result.trace


# one parser serves every main call in a process: each add_argument asks the
# terminal for its size, so a build costs as much as a small command
@functools.cache
def build_parser() -> _Parser:
    parser = _Parser(prog="sl-extremal", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = _add_command(sub, "eig", _cmd_eig, "first eigenvalue of a step+delta potential")
    _add_potential_options(p, "q")
    _add_bc_options(p)
    p.add_argument("--eigenfunction", type=int, default=None, metavar="N",
                   help="include eigenfunction samples on the grid j/N")

    p = _add_command(sub, "eig-zero", _cmd_eig_zero,
                     "zero-potential eigenvalue (characteristic equation)")
    _add_bc_options(p)

    p = _add_command(sub, "norms", _cmd_norms, "extended L^p norms of a step potential", "csv")
    _add_potential_options(p, "q")
    p.add_argument("--p", required=True, help="comma-separated exponents (0 = geometric mean)")

    p = _add_command(sub, "wdist", _cmd_wdist, "negative Sobolev distance between signed measures")
    _add_potential_options(p, "f", "g")

    # family output is JSON only, so argparse rejects --format csv before any
    # family is built
    p = _add_command(sub, "family", _cmd_family, "generate one of the explicit potential families",
                     formats=("json",))
    p.add_argument("--statement", type=int, choices=(1, 2, 3), required=True)
    p.add_argument("--gamma", type=float, required=True)
    p.add_argument("--zeta", type=float, default=None)
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--rho-star", type=float, default=None)
    p.add_argument("--floor", type=float, default=0.1)
    p.add_argument("--spikes", type=int, default=100)
    p.add_argument("--height", type=float, default=None)
    p.add_argument("--nu", type=float, default=0.75)

    p = _add_command(sub, "verify-thm1", _cmd_verify_thm1,
                     "certify unboundedness below (gamma < 1)", "csv")
    p.add_argument("--gamma", type=float, required=True)
    _add_bc_options(p)
    p.add_argument("--rho", required=True, help="comma-separated target levels")
    p.add_argument("--spikes", type=int, default=100)

    p = _add_command(sub, "verify-thm2", _cmd_verify_thm2,
                     "track the supremum trend (gamma > 1)", "csv")
    p.add_argument("--gamma", type=float, required=True)
    _add_bc_options(p)
    p.add_argument("--n", required=True, help="comma-separated family indices")

    p = _add_command(sub, "search", _cmd_search, "coordinate search for extremal eigenvalues")
    p.add_argument("--mode", choices=("min", "max"), required=True)
    p.add_argument("--gamma", type=float, required=True)
    p.add_argument("--cells", type=int, required=True)
    _add_bc_options(p)
    p.add_argument("--max-iters", type=int, default=200)
    p.add_argument("--step-init", type=float, default=1.0)
    p.add_argument("--height-cap", type=float, default=float("inf"))
    p.add_argument("--seed", type=int, default=0,
                   help="recorded in the output; the search itself is deterministic")

    return parser


def _emit_error(message: str, code: int) -> None:
    sys.stderr.write(dumps({"error": message, "code": code}) + "\n")


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        payload, header, rows = args.handler(args)
        text = dumps(payload) + "\n" if args.format == "json" else to_csv(header, rows)
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
