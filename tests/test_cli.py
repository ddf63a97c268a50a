import json
import math
import os
import pathlib
import subprocess
import sys
from types import SimpleNamespace
import warnings

import jsonschema
import numpy as np
import pytest

from sl_extremal import (
    ExtremumSearchSpec,
    RobinBC,
    SpikeTrainSpec,
    StepPotential,
    lambda1_zero,
    search_extremum,
    statement1_family,
    statement2_family,
    statement3_family,
)
from sl_extremal import cli, families
from sl_extremal.cli import main
from sl_extremal.jsonio import dumps, fmt_float, to_csv

SCHEMA_PATH = pathlib.Path(__file__).resolve().parent.parent / "schemas" / "cli-output.schema.json"
SCHEMA = json.loads(SCHEMA_PATH.read_text())
SRC = pathlib.Path(__file__).resolve().parent.parent / "src"

Q_ZERO = '{"breakpoints":[0,1],"heights":[0]}'
Q_STEP = '{"breakpoints":[0,0.5,1],"heights":[2,0.5]}'
DELTA_HALF = '{"breakpoints":[0,1],"heights":[0],"deltas":[{"site":0.5,"weight":1}]}'


def run_cli(capsys, *args):
    code = main(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def check_schema(text: str):
    payload = json.loads(text)
    jsonschema.validate(payload, SCHEMA)
    return payload


def assert_reads_back(q_json: dict, q: StepPotential):
    """The printed q, passed back as --q-json, holds q's arrays bit for bit."""
    args = SimpleNamespace(q_json=json.dumps(q_json), q_file=None)
    back = cli._parse_potential(args)
    assert np.array_equal(back.breakpoints, q.breakpoints)
    assert np.array_equal(back.heights, q.heights) and back.deltas == ()


class TestEig:
    def test_neumann_zero_potential(self, capsys):
        code, out, err = run_cli(
            capsys, "eig", "--q-json", Q_ZERO, "--k0sq", "0", "--k1sq", "0"
        )
        assert code == 0 and err == ""
        payload = check_schema(out)
        assert abs(payload["lambda1"]) <= 1e-10

    def test_csv_format(self, capsys):
        code, out, _ = run_cli(
            capsys, "eig", "--q-json", Q_STEP, "--k0sq", "1", "--k1sq", "1",
            "--format", "csv",
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "lambda1,residual,bracket_lo,bracket_hi,iterations"
        assert len(lines) == 2

    def test_eigenfunction_flag(self, capsys):
        code, out, _ = run_cli(
            capsys, "eig", "--q-json", Q_STEP, "--k0sq", "0", "--k1sq", "0",
            "--eigenfunction", "8",
        )
        assert code == 0
        payload = check_schema(out)
        assert len(payload["eigenfunction_samples"]) == 9

    def test_eigenfunction_csv_rejected_before_the_solve(self, capsys, monkeypatch):
        # the CSV row has no samples, so nothing would print them
        def never(*args, **kwargs):
            raise AssertionError("lambda1 called")

        monkeypatch.setattr(cli, "lambda1", never)
        code, out, err = run_cli(
            capsys, "eig", "--q-json", Q_STEP, "--k0sq", "0", "--k1sq", "0",
            "--eigenfunction", "8", "--format", "csv",
        )
        assert (code, out) == (2, "")
        assert len(err.splitlines()) == 1
        assert check_schema(err)["code"] == 2

    def test_delta_potential_accepted(self, capsys):
        code, out, _ = run_cli(
            capsys, "eig", "--q-json", DELTA_HALF, "--k0sq", "1", "--k1sq", "1"
        )
        assert code == 0
        assert check_schema(out)["lambda1"] < lambda1_zero(RobinBC(1, 1))

    def test_file_input(self, capsys, tmp_path):
        path = tmp_path / "q.json"
        path.write_text(Q_STEP)
        code, out, _ = run_cli(
            capsys, "eig", "--q-file", str(path), "--k0sq", "0", "--k1sq", "0"
        )
        assert code == 0
        check_schema(out)


class TestEigZero:
    def test_value_and_17_digit_format(self, capsys):
        code, out, _ = run_cli(capsys, "eig-zero", "--k0sq", "1", "--k1sq", "1")
        assert code == 0
        payload = check_schema(out)
        expected = lambda1_zero(RobinBC(1, 1))
        assert payload["lambda1"] == expected  # exact round trip
        assert fmt_float(expected) in out


class TestNorms:
    def test_csv_rows(self, capsys):
        code, out, _ = run_cli(
            capsys, "norms", "--q-json", Q_STEP, "--p", "0,1,2"
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "p,value"
        assert len(lines) == 4
        # geometric mean of (2, 1/2) on equal halves is 1
        assert float(lines[1].split(",")[1]) == pytest.approx(1.0, rel=1e-14)

    def test_json_validates(self, capsys):
        code, out, _ = run_cli(
            capsys, "norms", "--q-json", Q_STEP, "--p", "0.5", "--format", "json"
        )
        assert code == 0
        check_schema(out)

    def test_file_input_closes_its_handle(self, tmp_path):
        # a fresh interpreter in development mode, where a file left open
        # raises ResourceWarning, which is printed on stderr
        path = tmp_path / "q.json"
        path.write_text(Q_STEP)
        argv = ["norms", "--q-file", str(path), "--p", "1"]
        proc = subprocess.run(
            [sys.executable, "-X", "dev", "-W", "error::ResourceWarning", "-c",
             "import sys; from sl_extremal.cli import entrypoint; "
             "sys.argv[1:] = " + repr(argv) + "; entrypoint()"],
            env=dict(os.environ, PYTHONPATH=str(SRC)),
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert proc.returncode == 0 and proc.stderr == ""
        assert proc.stdout == "p,value\n1,1.25\n"


class TestWdist:
    def test_norm_of_delta(self, capsys):
        code, out, _ = run_cli(capsys, "wdist", "--f-json", DELTA_HALF)
        assert code == 0
        payload = check_schema(out)
        # ||delta_1/2||^2 = cosh(1/2)^2 / sinh 1 = coth(1/2) / 2
        assert payload["wminus1_dist"] == pytest.approx(math.sqrt(0.5 / math.tanh(0.5)), rel=1e-15)

    def test_distance_between_step_and_itself(self, capsys):
        code, out, _ = run_cli(capsys, "wdist", "--f-json", Q_STEP, "--g-json", Q_STEP)
        assert code == 0
        assert check_schema(out)["wminus1_dist"] == 0.0

    def test_unrepresentable_distance_is_an_error(self, capsys):
        f = ('{"breakpoints":[0,1],"heights":[0],"deltas":'
             '[{"site":0.25,"weight":1e308},{"site":0.75,"weight":1e308}]}')
        code, out, err = run_cli(capsys, "wdist", "--f-json", f)
        assert code == 2 and out == ""
        assert check_schema(err)["code"] == 2
        assert "Traceback" not in err

    @pytest.mark.parametrize("f, g", [
        ('{"breakpoints":[0,1],"heights":[0],"deltas":'
         '[{"site":0.5,"weight":1e308},{"site":0.5,"weight":1e308}]}', None),
        ('{"breakpoints":[0,1],"heights":[0],"deltas":'
         '[{"site":0.5,"weight":1e308},{"site":0.500000001,"weight":1e308}]}', None),
        ('{"breakpoints":[0,1],"heights":[1e308]}', '{"breakpoints":[0,1],"heights":[-1e308]}'),
    ], ids=["merged_weight", "masses_in_one_hat", "heights"])
    def test_overflow_error_is_the_only_stderr_line(self, f, g):
        # run in a fresh interpreter: pytest would capture a numpy warning
        argv = ["wdist", "--f-json", f]
        if g is not None:
            argv += ["--g-json", g]
        proc = subprocess.run(
            [sys.executable, "-c", "import sys; from sl_extremal.cli import entrypoint; "
             "sys.argv[1:] = " + repr(argv) + "; entrypoint()"],
            env=dict(os.environ, PYTHONPATH=str(SRC)),
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert proc.returncode == 2 and proc.stdout == ""
        assert len(proc.stderr.splitlines()) == 1
        assert check_schema(proc.stderr)["code"] == 2


class TestStartup:
    SCRIPT = """
import contextlib, io, sys
from sl_extremal import cli
from sl_extremal.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    codes = [
        main(["eig", "--q-json", {q_step!r}, "--k0sq", "1", "--k1sq", "4"]),
        main(["verify-thm1", "--gamma", "0.5", "--k0sq", "0", "--k1sq", "0", "--rho", "10,100"]),
        main(["search", "--mode", "max", "--gamma", "2", "--cells", "4",
              "--k0sq", "1", "--k1sq", "1", "--max-iters", "25"]),
    ]
main(["wdist", "--f-json", {delta!r}])
print(codes, "scipy" in sys.modules)
from sl_extremal import Potential, RobinBC, StepPotential, lambda1_fd
q = Potential(StepPotential([0.0, 0.2, 0.7, 1.0], [8.0, 1.0, 3.0]), [(0.4, 2.0)])
print(repr(lambda1_fd(q, RobinBC(1.0, 4.0), 512)), "scipy" in sys.modules, "mpmath" in sys.modules,
      "scipy.optimize" in sys.modules)
"""

    def test_scipy_loads_only_for_the_oracle_and_mpmath_never(self):
        # a fresh interpreter, since pytest itself has imported scipy by now
        proc = subprocess.run(
            [sys.executable, "-c", self.SCRIPT.format(q_step=Q_STEP, delta=DELTA_HALF)],
            env=dict(os.environ, PYTHONPATH=str(SRC)),
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        # the unit mass at 1/2 has norm sqrt(coth(1/2) / 2) = 1.0401810933050679...
        assert proc.stdout.splitlines() == [
            '{"wminus1_dist":1.0401810933050679}',
            "[0, 0, 0] False",
            "-3.1486812579155528 True False False",
        ]

    def test_package_import_loads_neither_cli_nor_jsonio(self):
        # the output format lives in the CLI alone
        proc = subprocess.run(
            [sys.executable, "-c", "import sys, sl_extremal; "
             "print(sorted(m for m in sys.modules if m in "
             "('sl_extremal.cli', 'sl_extremal.jsonio')))"],
            env=dict(os.environ, PYTHONPATH=str(SRC)),
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert (proc.returncode, proc.stdout) == (0, "[]\n"), proc.stderr


class TestFamily:
    def test_statement1_example(self, capsys):
        code, out, _ = run_cli(
            capsys, "family", "--statement", "1", "--zeta", "0.5", "--n", "4",
            "--gamma", "0.5",
        )
        assert code == 0
        payload = check_schema(out)
        assert payload["gamma_norm"] == 0.25
        assert payload["q"]["heights"] == [0.0, 4.0, 0.0]

    def test_statement2_requires_height(self, capsys):
        code, _, err = run_cli(
            capsys, "family", "--statement", "2", "--gamma", "0.5", "--rho-star", "10"
        )
        assert code == 2
        check_schema(err)

    def test_statement3(self, capsys):
        code, out, _ = run_cli(
            capsys, "family", "--statement", "3", "--gamma", "2", "--n", "9"
        )
        assert code == 0
        payload = check_schema(out)
        assert payload["mass"] == pytest.approx(1.0 / 3.0, rel=1e-12)

    def test_csv_rejected(self, capsys):
        code, _, err = run_cli(
            capsys, "family", "--statement", "3", "--gamma", "2", "--n", "9",
            "--format", "csv",
        )
        assert code == 2
        check_schema(err)

    @pytest.mark.parametrize("argv, built", [
        (["--statement", "1", "--gamma", "0.5", "--zeta", "0.3", "--n", "7"],
         lambda: statement1_family(0.3, 7, 0.5)[0]),
        (["--statement", "2", "--gamma", "0.5", "--rho-star", "10", "--height", "1e6"],
         lambda: statement2_family(SpikeTrainSpec(10.0, 0.1, 100, 1e6, 0.75), 0.5)[0]),
        (["--statement", "3", "--gamma", "3", "--n", "7"], lambda: statement3_family(3.0, 7)),
    ])
    def test_q_reads_back_through_q_json(self, capsys, argv, built):
        code, out, _ = run_cli(capsys, "family", *argv)
        assert code == 0
        assert_reads_back(json.loads(out)["q"], built())


class TestVerifyCommands:
    def test_thm2_csv_table(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify-thm2", "--gamma", "2", "--k0sq", "1", "--k1sq", "1",
            "--n", "10,100,1000,10000",
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "n_or_rho,lambda1,reference,gap"
        assert len(lines) == 5
        gaps = [float(line.split(",")[3]) for line in lines[1:]]
        assert gaps == sorted(gaps, reverse=True)

    def test_thm2_json_validates(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify-thm2", "--gamma", "2", "--k0sq", "0", "--k1sq", "0",
            "--n", "10,100", "--format", "json",
        )
        assert code == 0
        check_schema(out)

    def test_thm2_with_coefficients_beyond_the_float_range(self, capsys):
        # lambda1_zero read (pi/2)^2 here, below every row: a false ceiling error
        code, out, err = run_cli(capsys, "verify-thm2", "--gamma", "2", "--k0sq", "1e308",
                                 "--k1sq", "1e308", "--n", "10,100")
        assert (code, err) == (0, "")
        assert float(out.splitlines()[1].split(",")[2]) == pytest.approx(math.pi**2, rel=1e-13)

    def test_thm1_csv_and_json(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify-thm1", "--gamma", "0.5", "--k0sq", "0", "--k1sq", "0",
            "--rho", "10",
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "n_or_rho,lambda1,reference,gap"
        assert float(lines[1].split(",")[1]) < -5.0

        code, out, _ = run_cli(
            capsys, "verify-thm1", "--gamma", "0.5", "--k0sq", "0", "--k1sq", "0",
            "--rho", "10", "--format", "json",
        )
        assert code == 0
        check_schema(out)


def _thm1_membership_missed(monkeypatch):
    # only the gamma-norm (p = 0.5) moves; the nu-norm budget (p = 0.75) holds
    pnorm = families.pnorm
    monkeypatch.setattr(families, "pnorm",
                        lambda q, p: pnorm(q, p) + (2e-10 if p == 0.5 else 0.0))
    return "verify-thm1", "misses A_gamma"


def _thm1_bound_missed(monkeypatch):
    monkeypatch.setattr(families, "lambda1", lambda q, bc: SimpleNamespace(lambda1=lambda1_zero(bc)))
    return "verify-thm1", "above the certified bound"


def _thm2_ceiling_exceeded(monkeypatch):
    monkeypatch.setattr(families, "lambda1",
                        lambda q, bc: SimpleNamespace(lambda1=lambda1_zero(bc) + 2e-8))
    return "verify-thm2", "exceeds the ceiling"


def _thm2_gap_grew(monkeypatch):
    # the block on (0, 1/n) has its breakpoint at 1/n, so n = 1/breakpoint
    monkeypatch.setattr(families, "lambda1", lambda q, bc: SimpleNamespace(
        lambda1=lambda1_zero(bc) - 1e-6 / q.breakpoints[1]))
    return "verify-thm2", "gap grew"


class TestCertificateFailures:
    # each check of a certificate, made to fail: the protocol must raise and
    # the CLI must report exit 3 with one JSON error line
    ARGV = {"verify-thm1": ("--gamma", "0.5", "--k0sq", "0", "--k1sq", "0", "--rho", "10"),
            "verify-thm2": ("--gamma", "2", "--k0sq", "1", "--k1sq", "1", "--n", "2,4")}

    @pytest.mark.parametrize("fault", [_thm1_membership_missed, _thm1_bound_missed,
                                       _thm2_ceiling_exceeded, _thm2_gap_grew],
                             ids=["thm1-membership", "thm1-bound", "thm2-ceiling", "thm2-gap"])
    def test_a_failed_check_exits_3(self, capsys, monkeypatch, fault):
        command, message = fault(monkeypatch)
        code, out, err = run_cli(capsys, command, *self.ARGV[command])
        assert code == 3 and out == ""
        assert len(err.splitlines()) == 1
        payload = check_schema(err)
        assert payload["code"] == 3 and message in payload["error"]


class TestSearch:
    ARGS = (
        "search", "--mode", "max", "--gamma", "2", "--cells", "4",
        "--k0sq", "1", "--k1sq", "1", "--max-iters", "25", "--seed", "7",
    )

    def test_json_output(self, capsys):
        code, out, _ = run_cli(capsys, *self.ARGS)
        assert code == 0
        payload = check_schema(out)
        assert payload["seed"] == 7
        assert payload["best_lambda"] <= lambda1_zero(RobinBC(1, 1)) + 1e-6

    def test_csv_trace(self, capsys):
        code, out, _ = run_cli(capsys, *self.ARGS, "--format", "csv")
        assert code == 0
        assert out.splitlines()[0] == "iteration,best_lambda"

    def test_best_q_reads_back_through_q_json(self, capsys):
        code, out, _ = run_cli(capsys, *self.ARGS)
        assert code == 0
        spec = ExtremumSearchSpec(gamma=2.0, mode="max", cells=4, max_iters=25)
        assert_reads_back(json.loads(out)["best_q"],
                          search_extremum(spec, RobinBC(1, 1)).best_q)

    def test_deterministic_bytes(self, capsys):
        _, first, _ = run_cli(capsys, *self.ARGS)
        _, second, _ = run_cli(capsys, *self.ARGS)
        assert first == second

    # exponents and a step at the ends of the float range, where some
    # proposals overflow: each run completes on the trajectory pinned here
    @pytest.mark.parametrize("extra, evaluations, entries, best", [
        (("--gamma", "1e-300"), 51, 3, 0.7128977352550226),
        (("--gamma", "1e300"), 51, 26, 1.4755516677005696),
        (("--gamma", "2", "--step-init", "1e308"), 50, 2, 1.2255179733198782),
    ])
    def test_extreme_exponents_and_steps(self, capsys, extra, evaluations, entries, best):
        code, out, err = run_cli(capsys, "search", "--mode", "max", *extra, "--k0sq", "1",
                                 "--k1sq", "1", "--cells", "4", "--max-iters", "50")
        assert code == 0 and err == ""
        payload = check_schema(out)
        assert payload["evaluations"] == evaluations and len(payload["trace"]) == entries
        assert payload["best_lambda"] == pytest.approx(best, rel=1e-15, abs=0.0)


class TestRepeatedCalls:
    """Every main call in a process parses with the same parser, so no call
    may see the arguments, defaults or failure of an earlier one."""

    def test_default_seed_returns_after_an_explicit_one(self, capsys):
        _, out, _ = run_cli(capsys, *TestSearch.ARGS)
        assert json.loads(out)["seed"] == 7
        assert TestSearch.ARGS[-2:] == ("--seed", "7")
        code, out, _ = run_cli(capsys, *TestSearch.ARGS[:-2])
        assert code == 0 and json.loads(out)["seed"] == 0

    def test_call_after_a_validation_error(self, capsys):
        code, out, err = run_cli(capsys, "search", "--mode", "max", "--gamma", "nan",
                                 "--cells", "4")
        assert code == 2 and out == "" and json.loads(err)["code"] == 2
        code, out, err = run_cli(capsys, *TestSearch.ARGS)
        assert code == 0 and err == "" and json.loads(out)["seed"] == 7

    def test_identical_calls_print_identical_bytes(self, capsys):
        argv = ("verify-thm1", "--gamma", "0.5", "--k0sq", "0", "--k1sq", "0",
                "--rho", "10,100,1000")
        first = run_cli(capsys, *argv)
        assert first[0] == 0 and first[1]
        assert run_cli(capsys, *argv) == first


class TestErrorPaths:
    def test_invalid_json_is_a_validation_error(self, capsys):
        code, out, err = run_cli(
            capsys, "eig", "--q-json", "{bad", "--k0sq", "0", "--k1sq", "0"
        )
        assert code == 2 and out == ""
        payload = check_schema(err)
        assert payload["code"] == 2

    def test_missing_required_flag(self, capsys):
        code, _, err = run_cli(capsys, "eig-zero", "--k0sq", "1")
        assert code == 2
        check_schema(err)

    def test_negative_bc_rejected(self, capsys):
        code, _, err = run_cli(capsys, "eig-zero", "--k0sq", "-1", "--k1sq", "0")
        assert code == 2
        check_schema(err)

    def test_unknown_command(self, capsys):
        code, _, err = run_cli(capsys, "frobnicate")
        assert code == 2
        check_schema(err)

    def test_solver_failure_exit_code(self, capsys):
        # lambda_1 = -max float lies beyond the last finite bracket doubling
        q_json = '{"breakpoints":[0,1],"heights":[1.7976931348623157e308]}'
        code, _, err = run_cli(capsys, "eig", "--q-json", q_json, "--k0sq", "0", "--k1sq", "0")
        assert code == 3
        payload = check_schema(err)
        assert payload == {"error": "no lower bracket endpoint after 1022 expansions", "code": 3}

    @pytest.mark.parametrize("rho, code, message", [
        ("nan", 2, "rho_star must be positive"),
        ("30000", 3, "spike width 2.99999e-17 at rho* = 30000 is below the float spacing"),
    ])
    def test_unbuildable_level_exit_code(self, capsys, rho, code, message):
        got, out, err = run_cli(capsys, "verify-thm1", "--gamma", "0.5", "--k0sq", "0",
                                "--k1sq", "0", "--rho", rho)
        assert (got, out) == (code, "") and len(err.splitlines()) == 1
        payload = check_schema(err)
        assert payload["code"] == code and payload["error"].startswith(message)

    def test_norm_budget_exit_code(self, capsys):
        code, _, err = run_cli(
            capsys, "family", "--statement", "2", "--gamma", "0.5",
            "--rho-star", "10", "--height", "100",
        )
        assert code == 3
        check_schema(err)


def _q(heights="[1]", deltas=None, breakpoints="[0,1]"):
    extra = "" if deltas is None else f',"deltas":{deltas}'
    return f'{{"breakpoints":{breakpoints},"heights":{heights}{extra}}}'


EIG = ("eig", "--k0sq", "1", "--k1sq", "1", "--q-json")
NORMS = ("norms", "--p", "1", "--q-json")
THM1 = ("verify-thm1", "--gamma", "0.5", "--k0sq", "0", "--k1sq", "0", "--rho", "10")
SEARCH = ("search", "--mode", "max", "--gamma", "2", "--k0sq", "1", "--k1sq", "1")
HOSTILE = {
    "spikes-zero": (*THM1, "--spikes", "0"),
    "rho-nan": (*THM1[:-1], "nan"),
    # the tuned spikes are narrower than the float spacing at their sites
    "rho-unbuildable": (*THM1[:-1], "30000"),
    "step-init-inf": (*SEARCH, "--cells", "4", "--step-init", "inf"),
    # numpy refuses these 745 GiB arrays at once, so nothing is allocated
    "cells-huge": (*SEARCH, "--cells", "100000000000"),
    "eigenfunction-huge": (*EIG, _q(), "--eigenfunction", "100000000000"),
    "nan-height": (*EIG, _q("[NaN]")),
    "top-level-list": (*EIG, "[0, 1]"),
    "deeply-nested": (*EIG, "[" * 100000),
    "deltas-not-a-list": (*EIG, _q(deltas="5")),
    "site-not-a-number": (*EIG, _q(deltas='[{"site":"left","weight":1}]')),
    "merged-mass-overflows": (*EIG, _q(deltas='[{"site":0.5,"weight":1e308},'
                                        '{"site":0.5,"weight":1e308}]')),
    "eig-negative-height": (*EIG, _q("[-1]")),
    "eig-negative-weight": (*EIG, _q(deltas='[{"site":0.5,"weight":-1}]')),
    "norms-negative-height": (*NORMS, _q("[-1]")),
    "norms-negative-weight": (*NORMS, _q(deltas='[{"site":0.5,"weight":-1}]')),
}


class TestHostileInputs:
    @pytest.mark.parametrize("argv", HOSTILE.values(), ids=HOSTILE.keys())
    def test_one_json_error_line_and_no_traceback(self, capsys, argv):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a numpy warning would be a second line
            code, out, err = run_cli(capsys, *argv)
        assert code in (2, 3) and out == ""
        assert len(err.splitlines()) == 1 and "Traceback" not in err
        assert check_schema(err)["code"] == code

    def test_wdist_takes_signed_input(self, capsys):
        f = _q("[2,-1]", '[{"site":0.25,"weight":-3}]', "[0,0.5,1]")
        code, out, _ = run_cli(capsys, "wdist", "--f-json", f, "--g-json", f)
        assert code == 0 and check_schema(out)["wminus1_dist"] == 0.0

    def test_thin_tall_block_certifies(self, capsys):
        code, out, err = run_cli(capsys, "verify-thm2", "--gamma", "1.5", "--k0sq", "1",
                                 "--k1sq", "1", "--n", "10,1e30")
        assert code == 0 and err == ""
        assert len(out.splitlines()) == 3


F_SIGNED = '{"breakpoints":[0,0.25,1],"heights":[1,-2],"deltas":[{"site":0.5,"weight":1}]}'
BC = ["--k0sq", "1", "--k1sq", "1"]
SEARCH = ["search", "--mode", "max", "--gamma", "2", "--cells", "3", *BC, "--max-iters", "12"]
THM1 = ["verify-thm1", "--gamma", "0.5", *BC, "--rho", "2,5", "--spikes", "4"]
THM2 = ["verify-thm2", "--gamma", "2", *BC, "--n", "2,4"]

# the exact stdout of every subcommand in every format it accepts: any change
# to a handler's payload, its CSV rows or the one place that formats them
# shows here as a changed byte
GOLDEN = [
    ("eig-json", ["eig", "--q-json", Q_STEP, *BC],
     '{"lambda1":0.41893244053130524,"residual":3.1086244689504383e-15,'
     '"bracket":[0.41893244053128026,0.41893244053130524],"iterations":6}\n'),
    ("eig-csv", ["eig", "--q-json", Q_STEP, *BC, "--format", "csv"],
     'lambda1,residual,bracket_lo,bracket_hi,iterations\n'
     '0.41893244053130524,3.1086244689504383e-15,0.41893244053128026,'
     '0.41893244053130524,6\n'),
    ("eig-eigenfunction", ["eig", "--q-json", Q_STEP, *BC, "--eigenfunction", "4"],
     '{"lambda1":0.41893244053130524,"residual":3.1086244689504383e-15,'
     '"bracket":[0.41893244053128026,0.41893244053130524],"iterations":6,'
     '"eigenfunction_samples":[[0,0.85535584720028701],[0.25,1],[0.5,'
     '0.99535600113425082],[0.75,0.88671588272447399],[1,0.72739204081800946]]}\n'),
    ("eig-zero-json", ["eig-zero", *BC],
     '{"lambda1":1.7070529755509221}\n'),
    ("eig-zero-csv", ["eig-zero", *BC, "--format", "csv"],
     'lambda1\n'
     '1.7070529755509221\n'),
    ("norms-json", ["norms", "--q-json", Q_STEP, "--p=-1,0,2", "--format", "json"],
     '{"rows":[{"p":-1,"value":0.80000000000000004},{"p":0,"value":1},{"p":2,'
     '"value":1.4577379737113252}]}\n'),
    ("norms-csv", ["norms", "--q-json", Q_STEP, "--p=-1,0,2"],
     'p,value\n'
     '-1,0.80000000000000004\n'
     '0,1\n'
     '2,1.4577379737113252\n'),
    ("wdist-json", ["wdist", "--f-json", F_SIGNED, "--g-json", Q_STEP],
     '{"wminus1_dist":1.5194327666365779}\n'),
    ("wdist-csv", ["wdist", "--f-json", F_SIGNED, "--format", "csv"],
     'wminus1_dist\n'
     '0.44211034407292582\n'),
    ("search-json", [*SEARCH, "--seed", "7"],
     '{"best_lambda":1.0609430847017485,"best_q":{"breakpoints":[0,'
     '0.33333333333333331,0.66666666666666663,1],"heights":[1.7253243712550146,'
     '0.10783277320343841,0.10783277320343841]},"evaluations":13,"trace":[[0,'
     '0.70705297555092173],[1,0.77328559531557295],[4,0.84910892356555689],[6,'
     '0.89774763612610353],[7,0.99974269316606512],[10,1.0351503750421238],[12,'
     '1.0609430847017485]],"seed":7}\n'),
    ("search-csv", [*SEARCH, "--format", "csv"],
     'iteration,best_lambda\n'
     '0,0.70705297555092173\n'
     '1,0.77328559531557295\n'
     '4,0.84910892356555689\n'
     '6,0.89774763612610353\n'
     '7,0.99974269316606512\n'
     '10,1.0351503750421238\n'
     '12,1.0609430847017485\n'),
    ("family-1", ["family", "--statement", "1", "--gamma", "0.5", "--zeta", "0.5", "--n", "4"],
     '{"statement":1,"gamma":0.5,"gamma_norm":0.25,"q":{"breakpoints":[0,0.25,0.5,'
     '1],"heights":[0,4,0]}}\n'),
    ("family-2", ["family", "--statement", "2", "--gamma", "0.5", "--rho-star", "10",
                  "--height", "1e6", "--spikes", "2", "--floor", "0.01"],
     '{"statement":2,"gamma":0.5,"kappa":0.012097580351950944,'
     '"nu_norm":0.2443410302986268,"q":{"breakpoints":[0,0.2499975025,'
     '0.25000249749999998,0.74999750249999997,0.75000249749999992,1],'
     '"heights":[0.82661157926405726,82661158.753017306,0.82661157926405726,'
     '82661158.753017306,0.82661157926405726]}}\n'),
    ("family-3", ["family", "--statement", "3", "--gamma", "2", "--n", "4"],
     '{"statement":3,"gamma":2,"gamma_norm":1,"mass":0.5,"q":{"breakpoints":[0,'
     '0.25,1],"heights":[2,0]}}\n'),
    ("verify-thm1-json", [*THM1, "--format", "json"],
     '{"rows":[{"n_or_rho":2,"lambda1":-13.565038693879846,'
     '"reference":-0.29294702444907794,"gap":13.272091669430768},{"n_or_rho":5,'
     '"lambda1":-44.364689937378657,"reference":-3.2929470244490782,'
     '"gap":41.071742912929579}],"details":[{"rho_star":2,'
     '"kappa":0.14116041834259291,"height":1000,"spikes":4,"nu":0.75,'
     '"gamma_norm_error":0,"bound":0.70705297555092206},{"rho_star":5,'
     '"kappa":0.13327833870762418,"height":10000,"spikes":4,"nu":0.75,'
     '"gamma_norm_error":6.6613381477509392e-16,"bound":-0.79294702444907816}]}\n'),
    ("verify-thm1-csv", THM1,
     'n_or_rho,lambda1,reference,gap\n'
     '2,-13.565038693879846,-0.29294702444907794,13.272091669430768\n'
     '5,-44.364689937378657,-3.2929470244490782,41.071742912929579\n'),
    ("verify-thm2-json", [*THM2, "--format", "json"],
     '{"rows":[{"n_or_rho":2,"lambda1":0.96605009858055491,'
     '"reference":1.7070529755509221,"gap":0.74100287697036715},{"n_or_rho":4,'
     '"lambda1":1.2255179733198405,"reference":1.7070529755509221,'
     '"gap":0.48153500223108159}]}\n'),
    ("verify-thm2-csv", THM2,
     'n_or_rho,lambda1,reference,gap\n'
     '2,0.96605009858055491,1.7070529755509221,0.74100287697036715\n'
     '4,1.2255179733198405,1.7070529755509221,0.48153500223108159\n'),
]


class TestGoldenBytes:
    @pytest.mark.parametrize("argv, expected", [c[1:] for c in GOLDEN],
                             ids=[c[0] for c in GOLDEN])
    def test_stdout_is_pinned(self, capsys, argv, expected):
        code, out, err = run_cli(capsys, *argv)
        assert (code, err) == (0, "")
        assert out == expected


class TestOutputHandling:
    def test_output_file(self, capsys, tmp_path):
        target = tmp_path / "result.json"
        code, out, _ = run_cli(
            capsys, "eig-zero", "--k0sq", "1", "--k1sq", "1", "--output", str(target)
        )
        assert code == 0 and out == ""
        check_schema(target.read_text())


class TestJsonIO:
    def test_fmt_float_round_trips(self):
        rng = np.random.default_rng(61)
        for _ in range(200):
            x = float(rng.normal(scale=10.0 ** rng.integers(-8, 9)))
            assert float(fmt_float(x)) == x

    def test_dumps_matches_json_semantics(self):
        obj = {"a": [1, 2.5, "x"], "b": None, "c": True, "d": {"e": -0.125}}
        assert json.loads(dumps(obj)) == obj

    def test_nonfinite_markers(self):
        assert fmt_float(math.inf) == "Infinity"
        assert fmt_float(-math.inf) == "-Infinity"
        assert fmt_float(math.nan) == "NaN"

    def test_csv_layout(self):
        text = to_csv(["a", "b"], [[1, 2.0], [3, 0.5]])
        assert text == "a,b\n1,2\n3,0.5\n"
