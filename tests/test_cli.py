"""End-to-end tests for the command-line interface.

Every test drives ``sdemoments.cli.main`` with an argv list and asserts on
the exit code plus the captured stdout/stderr, exactly as a shell user
would see them.  Temporary model files exercise the simulation error
paths without touching the bundled benchmarks.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

import sdemoments.cli as cli
import sdemoments.odesolve as odesolve
from sdemoments.cli import (
    EXIT_BROKEN_PIPE,
    EXIT_CHECK_FAILED,
    EXIT_DIVERGENCE,
    EXIT_MODEL_ERROR,
    EXIT_OK,
    EXIT_USAGE,
    EXIT_VERIFY_MISMATCH,
    main,
)
from sdemoments.closure import MomentSystem, build_closure
from sdemoments.model import load_model_file
from sdemoments.poly import Monomial

BENCHMARKS = Path(__file__).resolve().parents[1] / "benchmarks"

OU_ENV = str(BENCHMARKS / "ou-env.json")
DOUBLE_WELL = str(BENCHMARKS / "double-well.json")
CONSENSUS = str(BENCHMARKS / "consensus.json")
COUPLED3D = str(BENCHMARKS / "coupled3d.json")

GOLDEN_FORM = (
    "1/3 + (-11/8 - 1/4*t)*exp(-2*t) + 2/3*exp(-3*t) "
    "+ (3/8 + t + 3/4*t^2)*exp(-4*t)"
)


def run_cli(capsys, *argv: object) -> tuple[int, str, str]:
    code = main([str(a) for a in argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def write_model(tmp_path):
    """Write a scalar or small model JSON file and return its path."""

    def _write(name, *, variables, drift, diffusion, values):
        doc = {
            "name": name,
            "variables": variables,
            "brownian_dim": len(diffusion[0]),
            "drift": drift,
            "diffusion": diffusion,
            "initial": {"kind": "point", "values": values},
        }
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(doc))
        return str(path)

    return _write


# ---------------------------------------------------------------------------
# check
# ---------------------------------------------------------------------------


class TestCheck:
    def test_solvable_model_exits_zero(self, capsys):
        code, out, _ = run_cli(capsys, "check", OU_ENV)
        assert code == EXIT_OK
        assert "model: ou-env" in out
        assert "prosolvable: yes" in out
        assert "partition: {x1} < {x2}" in out
        assert "block weights: [1, 3]" in out

    def test_unsolvable_model_exits_one(self, capsys):
        code, out, _ = run_cli(capsys, "check", DOUBLE_WELL)
        assert code == EXIT_CHECK_FAILED
        assert "prosolvable: no" in out
        assert "violation: dependency x1 -> x1 (nonlinear)" in out
        assert "inside cycle: {x1}" in out

    def test_coupled3d_is_not_solvable(self, capsys):
        code, out, _ = run_cli(capsys, "check", COUPLED3D)
        assert code == EXIT_CHECK_FAILED
        assert "prosolvable: no" in out

    def test_json_solvable(self, capsys):
        code, out, _ = run_cli(capsys, "check", OU_ENV, "--json")
        assert code == EXIT_OK
        doc = json.loads(out)
        assert doc["model"] == "ou-env"
        assert doc["prosolvable"] is True
        assert doc["partition"] == [["x1"], ["x2"]]
        assert doc["block_weights"] == [1, 3]
        assert doc["coupling_bounds"] == {"2,1": 2}

    def test_json_violation(self, capsys):
        code, out, _ = run_cli(capsys, "check", DOUBLE_WELL, "--json")
        assert code == EXIT_CHECK_FAILED
        doc = json.loads(out)
        assert doc["prosolvable"] is False
        assert doc["violation"]["edge"] == "x1 -> x1 (nonlinear)"
        assert doc["violation"]["cycle_variables"] == ["x1"]


# ---------------------------------------------------------------------------
# closure
# ---------------------------------------------------------------------------


class TestClosure:
    def test_reports_size(self, capsys):
        code, out, _ = run_cli(capsys, "closure", OU_ENV, "--alpha", "0,2")
        assert code == EXIT_OK
        assert "closure size: 8" in out
        assert "target: m(0,2)" in out

    def test_rows_print_the_system(self, capsys):
        code, out, _ = run_cli(capsys, "closure", OU_ENV, "--alpha", "0,2", "--rows")
        assert code == EXIT_OK
        first = next(line for line in out.splitlines() if line.startswith("d/dt"))
        assert first.startswith("d/dt m(0,2) = -4 * m(0,2)")
        assert "2 * m(2,1)" in first
        assert "m(0) = [0, 0, 0, 0, 0, 0, 0, 0]" in out

    def test_order_option_is_gone(self, capsys):
        # The closure is the same set whatever the worklist order, so there
        # is no option to choose one.
        with pytest.raises(SystemExit) as info:
            main(["closure", OU_ENV, "--alpha", "0,2", "--order", "lifo"])
        assert info.value.code == EXIT_USAGE

    def test_json_document(self, capsys):
        code, out, _ = run_cli(capsys, "closure", OU_ENV, "--alpha", "0,2", "--json")
        assert code == EXIT_OK
        doc = json.loads(out)
        assert doc["model"] == "ou-env"
        assert doc["indices"][0] == [0, 2]
        assert len(doc["matrix"]) == 8
        assert len(doc["constant"]) == 8
        assert doc["build_seconds"] >= 0

    @staticmethod
    def _assert_reference_bytes(capsys, path, exponents):
        code, out, _ = run_cli(
            capsys, "closure", path, "--alpha", ",".join(map(str, exponents)), "--json"
        )
        assert code == EXIT_OK
        ms = build_closure(load_model_file(path), Monomial(exponents))
        seconds = json.loads(out)["build_seconds"]
        reference = {**ms.to_json_dict(), "build_seconds": seconds}
        assert out == json.dumps(reference, indent=2) + "\n"
        return ms

    @pytest.mark.parametrize(
        "name, exponents", [(name, exps) for name, exps, _, _ in cli._TABLE1]
    )
    def test_json_bytes_match_the_dense_document(self, capsys, name, exponents):
        path = str(BENCHMARKS / f"{name}.json")
        self._assert_reference_bytes(capsys, path, exponents)

    def test_json_bytes_of_a_one_index_closure(self, capsys):
        ms = self._assert_reference_bytes(capsys, OU_ENV, (1, 0))
        assert ms.dimension == 1

    def test_json_bytes_escape_the_model_name(self, capsys, tmp_path):
        name = 'M\u00fcller "OU" \\ x'
        doc = {
            "name": name,
            "variables": ["x1"],
            "brownian_dim": 1,
            "drift": ["-x1"],
            "diffusion": [["1"]],
            "initial": {"kind": "point", "values": ["1"]},
        }
        path = tmp_path / "named.json"
        path.write_text(json.dumps(doc))
        ms = self._assert_reference_bytes(capsys, str(path), (2,))
        assert ms.model_name == name

    def test_json_never_builds_the_dense_cells(self, capsys, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("dense cells built")

        monkeypatch.setattr(MomentSystem, "_dense", refuse)
        code, out, _ = run_cli(capsys, "closure", OU_ENV, "--alpha", "0,10", "--json")
        assert code == EXIT_OK
        matrix = json.loads(out)["matrix"]
        assert len(matrix) == 120
        assert all(len(row) == 120 for row in matrix)

    def test_alpha_is_required(self, capsys):
        code, _, err = run_cli(capsys, "closure", OU_ENV)
        assert code == EXIT_USAGE
        assert "--alpha is required" in err

    def test_divergence_exits_two(self, capsys):
        code, _, err = run_cli(
            capsys, "closure", DOUBLE_WELL, "--alpha", "2", "--budget-degree", "40"
        )
        assert code == EXIT_DIVERGENCE
        assert "budget" in err
        assert "(2)" in err  # witness chain starts at the requested moment


# ---------------------------------------------------------------------------
# moment
# ---------------------------------------------------------------------------


class TestMoment:
    def test_full_run_with_certificate_and_closed_form(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "moment",
            OU_ENV,
            "--alpha",
            "0,2",
            "--closed-form",
            "--certify",
            "--times",
            "0,1,2",
        )
        assert code == EXIT_OK
        assert "target: E[x^(0,2)]" in out
        assert "prosolvable: yes" in out
        assert "partition: {x1} < {x2}" in out
        assert "closure size: 8" in out
        assert "certificate: ok (weights [1, 3], weighted degree <= 6)" in out
        assert f"closed form [exact-rational]: {GOLDEN_FORM}" in out
        assert "time,value" in out
        assert out.splitlines()[-3] == "0,0"

    def test_json_report(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "moment",
            OU_ENV,
            "--alpha",
            "0,2",
            "--certify",
            "--closed-form",
            "--times",
            "0,1",
            "--json",
        )
        assert code == EXIT_OK
        doc = json.loads(out)
        assert doc["model"] == "ou-env"
        assert doc["target"] == "E[x^(0,2)]"
        assert doc["prosolvable"] is True
        assert doc["closure_size"] == 8
        assert doc["closed_form"] == GOLDEN_FORM
        assert doc["closed_form_kind"] == "exact-rational"
        assert doc["certificate"]["block_weights"] == [1, 3]
        assert [s["time"] for s in doc["samples"]] == [0.0, 1.0]
        assert doc["samples"][0]["value"] == 0.0

    def test_functional_target(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "moment",
            CONSENSUS,
            "--functional",
            "(x1 - x2)^2",
            "--times",
            "0,1",
        )
        assert code == EXIT_OK
        assert "target: E[(x1 - x2)^2]" in out
        assert "closure size: 3" in out

    def test_certify_refused_for_unsolvable_model(self, capsys):
        code, _, err = run_cli(
            capsys, "moment", COUPLED3D, "--alpha", "2,2,0", "--certify"
        )
        assert code == EXIT_CHECK_FAILED
        assert "structurally solvable" in err

    def test_divergence_exits_two(self, capsys):
        code, _, err = run_cli(
            capsys, "moment", DOUBLE_WELL, "--alpha", "2", "--budget-degree", "40"
        )
        assert code == EXIT_DIVERGENCE
        assert "budget" in err


class TestMomentSimulate:
    def test_pure_noise_comparison_passes(self, capsys, write_model):
        # dX = dW from 0: E[X] stays 0 and Euler is exact, so four standard
        # errors is a deterministic pass at any path count.
        path = write_model(
            "noise", variables=["x1"], drift=["0"], diffusion=[["1"]], values=["0"]
        )
        code, out, _ = run_cli(
            capsys,
            "moment",
            path,
            "--alpha",
            "1",
            "--simulate",
            "--times",
            "0.5,1",
            "--paths",
            "4000",
            "--dt",
            "0.01",
        )
        assert code == EXIT_OK
        assert "simulation comparison (4 standard errors):" in out
        assert out.count("[pass]") == 2

    def test_discretisation_mismatch_exits_four(self, capsys, write_model):
        # Noiseless decay: every path returns (1 - dt)^n, so the standard
        # error is zero while the exact answer is e^{-t}; the comparison
        # must flag the Euler bias and exit 4.
        path = write_model(
            "decay", variables=["x1"], drift=["-x1"], diffusion=[["0"]], values=["1"]
        )
        code, out, err = run_cli(
            capsys,
            "moment",
            path,
            "--alpha",
            "1",
            "--simulate",
            "--times",
            "1",
            "--paths",
            "16",
            "--dt",
            "0.01",
        )
        assert code == EXIT_VERIFY_MISMATCH
        assert "[FAIL]" in out
        assert "simulation mismatch beyond 4 standard errors" in err

    def test_json_report(self, capsys, write_model):
        path = write_model(
            "noise", variables=["x1"], drift=["0"], diffusion=[["1"]], values=["0"]
        )
        code, out, _ = run_cli(
            capsys, "moment", path, "--alpha", "1", "--simulate",
            "--times", "0.5,1", "--paths", "64", "--dt", "0.05", "--json",
        )
        assert code == EXIT_OK
        doc = json.loads(out)
        assert doc["simulation_ok"] is True
        assert [row["time"] for row in doc["simulation"]] == [0.5, 1.0]
        assert all(row["within_4_sigma"] is True for row in doc["simulation"])
        assert all(row["paths"] == 64 for row in doc["simulation"])

    def test_simulation_reuses_the_samples(self, capsys, monkeypatch):
        calls = []
        eval_numeric = odesolve.eval_numeric

        def counting_eval_numeric(ms, times):
            calls.append(list(times))
            return eval_numeric(ms, times)

        monkeypatch.setattr(odesolve, "eval_numeric", counting_eval_numeric)
        code, out, _ = run_cli(
            capsys, "moment", OU_ENV, "--alpha", "0,2", "--simulate",
            "--times", "0,0.5", "--paths", "64", "--json",
        )
        assert code == EXIT_OK
        assert calls == [[0.0, 0.5]]
        doc = json.loads(out)
        sample = {row["time"]: row["value"] for row in doc["samples"]}
        assert [row["time"] for row in doc["simulation"]] == [0.5]
        assert all(row["exact"] == sample[row["time"]] for row in doc["simulation"])


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------


class TestSimulate:
    def test_csv_output(self, capsys, write_model):
        path = write_model(
            "noise", variables=["x1"], drift=["0"], diffusion=[["1"]], values=["0"]
        )
        code, out, _ = run_cli(
            capsys,
            "simulate",
            path,
            "--alpha",
            "2",
            "--times",
            "0.5,1",
            "--paths",
            "2000",
            "--dt",
            "0.05",
        )
        assert code == EXIT_OK
        lines = out.strip().splitlines()
        assert lines[0] == "time,mean,std_error,paths"
        assert len(lines) == 3
        assert lines[1].startswith("0.5,")
        assert lines[1].endswith(",2000")

    def test_json_output(self, capsys, write_model):
        path = write_model(
            "noise", variables=["x1"], drift=["0"], diffusion=[["1"]], values=["0"]
        )
        code, out, _ = run_cli(
            capsys,
            "simulate",
            path,
            "--alpha",
            "1",
            "--times",
            "1",
            "--paths",
            "1000",
            "--dt",
            "0.05",
            "--json",
        )
        assert code == EXIT_OK
        doc = json.loads(out)
        assert doc["model"] == "noise"
        assert doc["target"] == "E[x^(1)]"
        (row,) = doc["estimates"]
        assert row["time"] == 1.0
        assert row["paths"] == 1000
        assert row["std_error"] > 0

    def test_blow_up_exits_two(self, capsys, write_model):
        path = write_model(
            "cubic", variables=["x1"], drift=["x1^3"], diffusion=[["0"]], values=["2"]
        )
        code, _, err = run_cli(
            capsys, "simulate", path, "--alpha", "1", "--times", "1",
            "--paths", "8", "--dt", "0.01",
        )
        assert code == EXIT_DIVERGENCE
        assert "simulation blow-up" in err

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_non_finite_state_exits_two(self, capsys, write_model):
        # x^30 - x^29 at 1e11 is inf - inf: the first step makes every path NaN.
        path = write_model(
            "nan", variables=["x1"], drift=["x1^30 - x1^29"], diffusion=[["0"]],
            values=["100000000000"],
        )
        code, out, err = run_cli(
            capsys, "simulate", path, "--alpha", "1", "--times", "0.01",
            "--paths", "16", "--dt", "0.01",
        )
        assert code == EXIT_DIVERGENCE
        assert "non-finite" in err
        assert "nan" not in out

    @pytest.mark.parametrize("dt", ["-0.1", "nan", "inf"])
    def test_bad_step_exits_three(self, capsys, write_model, dt):
        path = write_model(
            "noise", variables=["x1"], drift=["0"], diffusion=[["1"]], values=["0"]
        )
        code, _, err = run_cli(
            capsys, "simulate", path, "--alpha", "1", "--times", "1", "--dt", dt
        )
        assert code == EXIT_MODEL_ERROR
        assert "simulation error" in err

    def test_needs_a_positive_time(self, capsys, write_model):
        path = write_model(
            "noise", variables=["x1"], drift=["0"], diffusion=[["1"]], values=["0"]
        )
        code, _, err = run_cli(capsys, "simulate", path, "--alpha", "1", "--times", "0")
        assert code == EXIT_USAGE
        assert "positive record time" in err


# ---------------------------------------------------------------------------
# table1
# ---------------------------------------------------------------------------


class TestTable1:
    def test_full_suite_matches(self, capsys):
        code, out, _ = run_cli(capsys, "table1", "--json")
        assert code == EXIT_OK
        doc = json.loads(out)
        assert doc["ok"] is True
        assert len(doc["rows"]) == 12
        assert all(row["ok"] for row in doc["rows"])
        by_key = {(r["benchmark"], r["target"]): r for r in doc["rows"]}
        assert by_key[("ou-env", "(0,10)")]["closure_size"] == 120
        last = by_key[("coupled3d", "(2,2,0)")]
        assert last["closure_size"] == 3
        assert last["prosolvable"] is False

    def test_solve_reports_exact_for_triangular_rows(self, capsys):
        code, out, _ = run_cli(capsys, "table1", "--solve", "--json")
        assert code == EXIT_OK
        for row in json.loads(out)["rows"]:
            if row["benchmark"] in ("consensus", "oscillator"):
                assert row["solve_status"] == "float", row
            elif row["prosolvable"]:
                assert row["solve_status"] == "exact", row

    def test_mismatch_is_reported(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "_TABLE1", (("ou-env", (0, 2), 9, True),))
        code, out, _ = run_cli(capsys, "table1")
        assert code == EXIT_VERIFY_MISMATCH
        assert "MISMATCH" in out
        assert "overall: MISMATCH" in out


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


class TestVerify:
    def test_bounds_pass(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "verify",
            CONSENSUS,
            "--functional",
            "(x1 - x2)^2",
            "--times",
            "0,1,2",
            "--lower",
            "0",
            "--upper",
            "1",
        )
        assert code == EXIT_OK
        assert out.count("PASS t=") == 3
        assert "overall: PASS" in out

    def test_bounds_fail(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "verify",
            CONSENSUS,
            "--functional",
            "(x1 - x2)^2",
            "--times",
            "2",
            "--lower",
            "0.5",
        )
        assert code == EXIT_VERIFY_MISMATCH
        assert "FAIL t=2" in out
        assert "overall: FAIL" in out

    def test_tail_bound_passes(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "verify",
            CONSENSUS,
            "--functional",
            "(x1 - x2)^2",
            "--times",
            "10,12,15",
            "--markov-threshold",
            "0.1",
            "--power",
            "2",
            "--tail-exp",
            "1",
        )
        assert code == EXIT_OK
        assert "P(|Z| >= 0.1)" in out
        assert "overall: PASS" in out

    def test_requires_some_check(self, capsys):
        code, _, err = run_cli(
            capsys, "verify", CONSENSUS, "--functional", "(x1 - x2)^2"
        )
        assert code == EXIT_USAGE
        assert "nothing to verify" in err

    def test_tail_exp_requires_markov_flags(self, capsys):
        code, _, err = run_cli(
            capsys,
            "verify",
            CONSENSUS,
            "--functional",
            "(x1 - x2)^2",
            "--tail-exp",
            "1",
        )
        assert code == EXIT_USAGE
        assert "--tail-exp requires" in err

    @pytest.mark.parametrize(
        "threshold, power",
        [("1", "3"), ("0", "2"), ("nan", "2"), ("1", "-2")],
        ids=["odd", "zero-threshold", "nan-threshold", "negative"],
    )
    def test_bad_tail_bound_arguments_print_nothing(self, capsys, threshold, power):
        code, out, err = run_cli(
            capsys, "verify", OU_ENV, "--alpha", "0,2", "--markov-threshold", threshold, "--power", power
        )
        assert code == EXIT_USAGE
        assert out == ""
        assert "bad tail-bound arguments" in err

    def test_markov_flags_must_pair(self, capsys):
        code, _, err = run_cli(
            capsys,
            "verify",
            CONSENSUS,
            "--functional",
            "(x1 - x2)^2",
            "--markov-threshold",
            "0.1",
        )
        assert code == EXIT_USAGE
        assert "must be given together" in err


# ---------------------------------------------------------------------------
# usage and error mapping
# ---------------------------------------------------------------------------


class TestUsage:
    def test_no_arguments(self, capsys):
        with pytest.raises(SystemExit) as info:
            main([])
        assert info.value.code == EXIT_USAGE

    def test_unknown_subcommand(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["frobnicate"])
        assert info.value.code == EXIT_USAGE

    def test_help_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["--help"])
        assert info.value.code == 0
        assert "check" in capsys.readouterr().out

    def test_missing_model_file(self, capsys):
        code, _, err = run_cli(capsys, "check", "no-such-model.json")
        assert code == EXIT_MODEL_ERROR
        assert "model error" in err

    def test_target_is_required(self, capsys):
        code, _, err = run_cli(capsys, "moment", OU_ENV)
        assert code == EXIT_USAGE
        assert "one of --alpha or --functional" in err

    def test_alpha_and_functional_conflict(self, capsys):
        code, _, err = run_cli(
            capsys, "moment", OU_ENV, "--alpha", "0,2", "--functional", "x1"
        )
        assert code == EXIT_USAGE
        assert "mutually exclusive" in err

    def test_alpha_dimension_mismatch(self, capsys):
        code, _, err = run_cli(capsys, "moment", OU_ENV, "--alpha", "0,2,1")
        assert code == EXIT_USAGE
        assert "the model has 2 variables" in err

    def test_alpha_must_be_integers(self, capsys):
        code, _, err = run_cli(capsys, "moment", OU_ENV, "--alpha", "a,b")
        assert code == EXIT_USAGE
        assert "comma-separated integers" in err

    def test_alpha_needs_positive_degree(self, capsys):
        code, _, err = run_cli(capsys, "moment", OU_ENV, "--alpha", "0,0")
        assert code == EXIT_USAGE
        assert "total degree at least 1" in err

    def test_constant_functional_rejected(self, capsys):
        code, _, err = run_cli(capsys, "moment", OU_ENV, "--functional", "3")
        assert code == EXIT_USAGE
        assert "mention at least one variable" in err

    def test_unsorted_times_rejected(self, capsys):
        code, _, err = run_cli(
            capsys, "moment", OU_ENV, "--alpha", "0,2", "--times", "2,1"
        )
        assert code == EXIT_USAGE
        assert "sorted ascending" in err

    @pytest.mark.parametrize(
        "command, flags",
        [("moment", []), ("moment", ["--simulate"]), ("simulate", [])],
        ids=["moment", "moment-simulate", "simulate"],
    )
    def test_repeated_times_rejected(self, capsys, command, flags):
        code, _, err = run_cli(
            capsys, command, OU_ENV, "--alpha", "0,2", "--times", "1,1", *flags
        )
        assert code == EXIT_USAGE
        assert "each time once" in err

    @pytest.mark.parametrize(
        "command, flags",
        [("moment", []), ("simulate", []), ("verify", ["--upper", "1"])],
        ids=["moment", "simulate", "verify"],
    )
    def test_empty_times_rejected(self, capsys, command, flags):
        # An empty --times is not the default grid.
        code, _, err = run_cli(capsys, command, OU_ENV, "--alpha", "0,2", "--times=", *flags)
        assert code == EXIT_USAGE
        assert "--times must list at least one time" in err

    @pytest.mark.parametrize(
        "command, target, budget",
        [
            ("closure", ["--alpha", "0,3"], ["--budget-degree", "2"]),
            ("moment", ["--alpha", "0,3"], ["--budget-degree", "2"]),
            ("moment", ["--functional", "x1^2 + x1*x2 + x2^2"], ["--budget-monomials", "2"]),
        ],
        ids=["closure-degree", "moment-degree", "moment-functional-monomials"],
    )
    def test_targets_over_budget_rejected(self, capsys, command, target, budget):
        code, out, err = run_cli(capsys, command, OU_ENV, *target, *budget)
        assert code == EXIT_USAGE
        assert err.startswith("error: targets already exceed the closure budget")
        assert out == ""

    @pytest.mark.parametrize("times", ["-1,0", "nan", "0,inf"])
    def test_negative_times_rejected(self, capsys, times):
        code, _, err = run_cli(
            capsys, "moment", OU_ENV, "--alpha", "0,2", f"--times={times}"
        )
        assert code == EXIT_USAGE
        assert "non-negative" in err


class TestRepeatedCalls:
    """main() parses with one parser per process; each call in a sequence
    must print what the same call prints in a fresh process."""

    SEQUENCE = [
        ["closure", OU_ENV, "--alpha", "0,3", "--rows"],
        ["moment", OU_ENV, "--alpha", "0,2", "--times", "0.5,1", "--closed-form"],
        ["moment", OU_ENV, "--alpha", "0,2", "--order", "lifo"],
        ["closure", OU_ENV, "--alpha", "0,3", "--rows"],
    ]

    @staticmethod
    def masked(text: str) -> str:
        return re.sub(r"(?m)^build time: [0-9.]+ s$", "build time: masked", text)

    def test_calls_in_one_process_match_fresh_processes(self, capsys):
        assert cli.build_parser() is cli.build_parser()
        codes = []
        for argv in self.SEQUENCE:
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
            got = capsys.readouterr()
            fresh = subprocess.run(
                [sys.executable, "-m", "sdemoments", *argv], capture_output=True, text=True
            )
            assert code == fresh.returncode
            assert self.masked(got.out) == self.masked(fresh.stdout)
            assert got.err == fresh.stderr
            codes.append(code)
        assert codes == [EXIT_OK, EXIT_OK, EXIT_USAGE, EXIT_OK]


class TestNumericFailure:
    @pytest.mark.parametrize(
        "command, flags",
        [("verify", ["--upper", "1"]), ("moment", [])],
        ids=["verify", "moment"],
    )
    def test_overflow_exits_three_without_traceback(self, write_model, command, flags):
        # E[x^2] grows like e^{200 t}: the state overflows at t = 10.  Run as
        # a process so that a traceback or a numpy warning would show.
        path = write_model(
            "explode", variables=["x1"], drift=["100*x1"], diffusion=[["1"]], values=["1"]
        )
        proc = subprocess.run(
            [sys.executable, "-m", "sdemoments", command, path,
             "--alpha", "2", "--times", "10", *flags],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == EXIT_MODEL_ERROR
        assert "numeric evaluation failed: moment evaluation overflowed at t=10" in proc.stderr
        assert "Traceback" not in proc.stderr
        assert "RuntimeWarning" not in proc.stderr


class TestModuleEntry:
    def test_python_dash_m_wiring(self):
        proc = subprocess.run(
            [sys.executable, "-m", "sdemoments", "check", OU_ENV],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert "prosolvable: yes" in proc.stdout


class TestBrokenPipe:
    def test_reader_closing_early_leaves_no_traceback(self):
        # --rows prints about 160 kB here, more than a pipe holds, so the
        # writer is still printing when the reader closes its end.
        proc = subprocess.Popen(
            [sys.executable, "-m", "sdemoments", "closure", OU_ENV, "--alpha", "3,40", "--rows"],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
        )
        assert proc.stdout.readline() == "model: ou-env\n"
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait(timeout=60) == EXIT_BROKEN_PIPE
        assert "Traceback" not in err
