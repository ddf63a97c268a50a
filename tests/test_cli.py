import json
import math
import os
import pathlib
import subprocess
import sys
import warnings

import jsonschema
import pytest

from sl_extremal import lambda1_zero, RobinBC
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


class TestWdist:
    def test_norm_of_delta(self, capsys):
        code, out, _ = run_cli(
            capsys, "wdist", "--f-json", DELTA_HALF, "--grid-n", "1024"
        )
        assert code == 0
        payload = check_schema(out)
        assert 1.0 < payload["wminus1_dist"] < 1.1

    def test_distance_between_step_and_itself(self, capsys):
        code, out, _ = run_cli(
            capsys, "wdist", "--f-json", Q_STEP, "--g-json", Q_STEP, "--grid-n", "64"
        )
        assert code == 0
        assert check_schema(out)["wminus1_dist"] == 0.0

    def test_unrepresentable_distance_is_an_error(self, capsys):
        f = ('{"breakpoints":[0,1],"heights":[0],"deltas":'
             '[{"site":0.25,"weight":1e308},{"site":0.75,"weight":1e308}]}')
        code, out, err = run_cli(capsys, "wdist", "--f-json", f, "--grid-n", "1024")
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
        argv = ["wdist", "--f-json", f, "--grid-n", "64"]
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
from sl_extremal.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    codes = [
        main(["eig", "--q-json", {q_step!r}, "--k0sq", "1", "--k1sq", "4"]),
        main(["verify-thm1", "--gamma", "0.5", "--k0sq", "0", "--k1sq", "0", "--rho", "10,100"]),
        main(["search", "--mode", "max", "--gamma", "2", "--cells", "4",
              "--k0sq", "1", "--k1sq", "1", "--max-iters", "25"]),
    ]
print(codes, "scipy" in sys.modules)
from sl_extremal import Potential, RobinBC, StepPotential, lambda1_fd
q = Potential(StepPotential([0.0, 0.2, 0.7, 1.0], [8.0, 1.0, 3.0]), [(0.4, 2.0)])
print(repr(lambda1_fd(q, RobinBC(1.0, 4.0), 512)))
main(["wdist", "--f-json", {delta!r}, "--grid-n", "1024"])
"""

    def test_scipy_loads_only_for_the_oracle_and_negative_norms(self):
        # a fresh interpreter, since pytest itself has imported scipy by now
        proc = subprocess.run(
            [sys.executable, "-c", self.SCRIPT.format(q_step=Q_STEP, delta=DELTA_HALF)],
            env=dict(os.environ, PYTHONPATH=str(SRC)),
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        # the oracle and the distance read as they did with a top-level import
        assert proc.stdout.splitlines() == [
            "[0, 0, 0] False",
            "-3.1486782112175886",
            '{"wminus1_dist":1.0401810551651851,"grid_n":1024}',
        ]


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

    def test_deterministic_bytes(self, capsys):
        _, first, _ = run_cli(capsys, *self.ARGS)
        _, second, _ = run_cli(capsys, *self.ARGS)
        assert first == second


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

    def test_norm_budget_exit_code(self, capsys):
        code, _, err = run_cli(
            capsys, "family", "--statement", "2", "--gamma", "0.5",
            "--rho-star", "10", "--height", "100",
        )
        assert code == 3
        check_schema(err)

    def test_bad_grid_n(self, capsys):
        code, _, err = run_cli(
            capsys, "wdist", "--f-json", Q_STEP, "--grid-n", "8"
        )
        assert code == 2
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
    "slack-nan": (*THM1, "--slack-fraction", "nan"),
    "slack-vacuous": (*THM1, "--slack-fraction", "1"),
    "step-init-inf": (*SEARCH, "--cells", "4", "--step-init", "inf"),
    # numpy refuses these 745 GiB arrays at once, so nothing is allocated
    "grid-n-huge": ("wdist", "--f-json", Q_STEP, "--grid-n", "100000000000"),
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
        code, out, _ = run_cli(capsys, "wdist", "--f-json", f, "--g-json", f, "--grid-n", "64")
        assert code == 0 and check_schema(out)["wminus1_dist"] == 0.0

    def test_thin_tall_block_certifies(self, capsys):
        code, out, err = run_cli(capsys, "verify-thm2", "--gamma", "1.5", "--k0sq", "1",
                                 "--k1sq", "1", "--n", "10,1e30")
        assert code == 0 and err == ""
        assert len(out.splitlines()) == 3


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
        import numpy as np

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
