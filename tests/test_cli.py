"""End-to-end tests for the command-line interface.

Every test drives ``sdemoments.cli.main`` with an argv list and asserts on
the exit code plus the captured stdout/stderr, exactly as a shell user
would see them.  Temporary model files exercise the simulation error
paths without touching the bundled benchmarks.
"""

from __future__ import annotations

import cmath
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
OSCILLATOR = str(BENCHMARKS / "oscillator.json")

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

    def test_text_view_of_a_float_form_prints_the_note(self, capsys):
        code, out, _ = run_cli(
            capsys, "moment", CONSENSUS, "--alpha", "1,1", "--closed-form", "--times", "0"
        )
        assert code == EXIT_OK
        lines = out.splitlines()
        assert lines[5].startswith("closed form [float-spectrum]: ")
        assert lines[6] == (
            "note: exact path unavailable: the spectrum is not rational: an SCC block "
            "of size 3 leaves a characteristic factor of degree 2 with no rational root"
        )
        assert lines[7:] == ["time,value", "0,0"]

    def test_printed_complex_float_form_matches_the_samples(self, capsys):
        code, out, _ = run_cli(
            capsys, "moment", OSCILLATOR, "--alpha", "0,1,2", "--closed-form", "--json"
        )
        assert code == EXIT_OK
        doc = json.loads(out)
        assert doc["closed_form_kind"] == "float-spectrum"
        form = doc["closed_form"]
        assert "j)*exp((" in form  # complex-conjugate modes, printed as (a+bj)
        for sample in doc["samples"]:
            # Read back as the benchmark checks read it: ^ is **, exp is cmath.exp.
            names = {"exp": cmath.exp, "t": sample["time"]}
            value = eval(form.replace("^", "**"), {"__builtins__": {}}, names)
            assert abs(complex(value).real - sample["value"]) <= 1e-9
        # The lambda = 0 term is the stationary value, exactly 1/112.
        (constant,) = [chunk for chunk in form.split(" + ") if "exp" not in chunk]
        assert abs(float(constant) - 1 / 112) <= 1e-12

    def test_text_view_of_a_numeric_only_moment(self, capsys, write_model):
        # x1 and x2 share the rate -1, so the float spectrum is refused too.
        path = write_model(
            "twin-rate",
            variables=["x1", "x2", "x3", "x4", "x5"],
            drift=["-x1", "-x2", "x1 + x2 - 2*x3", "-x4 + x5", "x4 - 2*x5"],
            diffusion=[["0"]] * 5,
            values=["1", "2", "0", "1", "0"],
        )
        code, out, _ = run_cli(
            capsys, "moment", path, "--functional", "x3 + x4", "--closed-form", "--times", "0,1"
        )
        assert code == EXIT_OK
        lines = out.splitlines()
        assert lines[4] == "closure size: 5"
        assert lines[5].startswith(
            "closed form: unavailable (no closed form: the spectrum is not rational: "
        )
        assert "; float path: eigenvalues " in lines[5]
        assert lines[5].endswith("the numeric spectrum may be defective)")
        assert not any(line.startswith("note:") for line in lines)
        assert lines[6:] == ["time,value", "0,1", "1,1.21166913545"]

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

    @pytest.mark.parametrize(
        "flags, code, message",
        [
            (["--dt", "-1"], EXIT_MODEL_ERROR, "simulation error: dt must be positive and finite\n"),
            (["--paths", "0"], EXIT_MODEL_ERROR, "simulation error: paths must be positive\n"),
            (["--times", "0"], EXIT_USAGE, "error: need at least one positive record time\n"),
        ],
        ids=["dt", "paths", "times"],
    )
    def test_bad_simulation_flags_fail_before_the_closure(self, capsys, monkeypatch, flags, code, message):
        def no_closure(*args, **kwargs):
            raise AssertionError("the closure was built before the simulation flags were checked")

        monkeypatch.setattr(cli, "linear_functional_moment", no_closure)
        got, out, err = run_cli(capsys, "moment", OU_ENV, "--alpha", "0,2", "--simulate", *flags)
        assert (got, out, err) == (code, "", message)

    def test_a_bad_flag_wins_over_a_divergent_closure(self, capsys):
        # E[x1] on coupled3d diverges (exit 2 after about 10,000 monomials);
        # the flag error is reported first.
        code, out, err = run_cli(capsys, "moment", COUPLED3D, "--alpha", "1,0,0", "--simulate", "--dt", "-1")
        assert (code, out, err) == (EXIT_MODEL_ERROR, "", "simulation error: dt must be positive and finite\n")


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

    def test_two_times_on_one_step_share_its_estimate(self, capsys):
        # Both times round to step 1 of dt = 0.1.
        times = ("--times", "0.1,0.1000000000001", "--dt", "0.1", "--paths", "16")
        code, out, _ = run_cli(capsys, "simulate", OU_ENV, "--alpha", "1,0", *times, "--json")
        assert code == EXIT_OK
        first, second = json.loads(out)["estimates"]
        assert (first["time"], second["time"]) == (0.1, 0.1000000000001)
        assert (first["mean"], first["std_error"]) == (second["mean"], second["std_error"])
        code, out, _ = run_cli(
            capsys, "moment", OU_ENV, "--alpha", "1,0", *times, "--simulate", "--json"
        )
        assert code == EXIT_OK
        first, second = json.loads(out)["simulation"]
        assert (first["mc_mean"], first["mc_std_error"]) == (second["mc_mean"], second["mc_std_error"])

    def test_overflowing_functional_is_a_simulation_error(self, capsys, write_model):
        # x1 stays near 1e11, under the blow-up limit, but x1^30 overflows.
        path = write_model(
            "big", variables=["x1"], drift=["-x1"], diffusion=[["1"]], values=["100000000000"]
        )
        code, out, err = run_cli(
            capsys, "simulate", path, "--alpha", "30", "--times", "0.01",
            "--dt", "0.001", "--paths", "16", "--json",
        )
        assert code == EXIT_MODEL_ERROR
        assert out == ""
        assert err == (
            "simulation error: the functional's sum over paths is non-finite at t=0.01 "
            "(path block starting at 0)\n"
        )


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

    def test_solve_text_view(self, capsys):
        code, out, _ = run_cli(capsys, "table1", "--solve")
        assert code == EXIT_OK
        masked = re.sub(r" +\d+\.\d{4}s", "  <t>", out)
        assert masked.splitlines() == [
            "benchmark    target           |S| expect  p-s      time  solve",
            "ou-env       (0,2)              8      8  yes  <t>  exact",
            "ou-env       (0,3)             15     15  yes  <t>  exact",
            "ou-env       (0,4)             24     24  yes  <t>  exact",
            "ou-env       (0,5)             35     35  yes  <t>  exact",
            "ou-env       (0,10)           120    120  yes  <t>  exact",
            "gene         (1,0,0,0,1)       23     23  yes  <t>  exact",
            "gene         (0,0,0,0,2)       85     85  yes  <t>  exact",
            "gene         (1,0,0,0,2)      115    115  yes  <t>  exact",
            "consensus    (1,1)              3      3  yes  <t>  float",
            "vehicles     (0,0,2,0)         13     13  yes  <t>  exact",
            "oscillator   (0,1,2)            6      6  yes  <t>  float",
            "coupled3d    (2,2,0)            3      3   no  <t>  exact",
            "overall: ok",
        ]

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

    @pytest.mark.parametrize(
        "target",
        [["--alpha", "1,0", "--tail-exp", "50"], ["--functional", "x1^2 - 5"]],
        ids=["odd-moment", "negative-functional"],
    )
    def test_tail_bound_refuses_a_target_that_is_no_square(self, capsys, target):
        # Both printed "P(|Z| >= 0.01) <= 0" and PASS: E[x1] = 0 is no
        # E[Z^2], and E[x1^2 - 5] < 0 was clamped to 0.
        code, out, err = run_cli(
            capsys, "verify", OU_ENV, *target, "--markov-threshold", "0.01", "--power", "2", "--times", "1,2"
        )
        assert code == EXIT_USAGE
        assert out == ""
        assert "the tail bound needs E[Z^2] for a polynomial Z" in err

    def test_tail_bound_prints_its_root(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", OU_ENV, "--alpha", "2,0", "--markov-threshold", "1", "--power", "2", "--times", "1"
        )
        assert code == EXIT_OK
        assert out.splitlines()[2] == "Z = x1"
        assert "PASS t=1 value=0.432332358 P(|Z| >= 1) <= 0.432332" in out

    def test_tail_bound_is_at_most_one(self, capsys):
        # E[(x1 - x2)^2] = 1 at t = 0 gave "<= 100" against a threshold of 0.1.
        code, out, _ = run_cli(
            capsys, "verify", CONSENSUS, "--functional", "(x1 - x2)^2", "--times", "0",
            "--markov-threshold", "0.1", "--power", "2",
        )
        assert code == EXIT_OK
        assert "PASS t=0 value=1 P(|Z| >= 0.1) <= 1\n" in out

    def test_negative_even_moment_is_an_error(self, capsys, monkeypatch):
        exact = odesolve.FunctionalMoment.eval_numeric
        monkeypatch.setattr(odesolve.FunctionalMoment, "eval_numeric", lambda self, times: exact(self, times) - 1)
        code, out, err = run_cli(
            capsys, "verify", OU_ENV, "--alpha", "2,0", "--markov-threshold", "1", "--power", "2", "--times", "1"
        )
        assert code == EXIT_MODEL_ERROR
        assert out == ""
        assert "the even moment E[x^(2,0)] is negative" in err

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

    @pytest.mark.parametrize(
        "flags",
        [
            ["--lower", "nan"],
            ["--upper", "nan"],
            ["--upper", "inf"],
            ["--markov-threshold", "1", "--power", "2", "--tail-exp", "nan"],
        ],
        ids=["nan-lower", "nan-upper", "inf-upper", "nan-tail-exp"],
    )
    def test_non_finite_bounds_are_usage_errors(self, capsys, flags):
        code, out, err = run_cli(capsys, "verify", OU_ENV, "--alpha", "0,2", "--times", "0,1", *flags)
        assert code == EXIT_USAGE
        assert out == ""
        assert f"{flags[-2]} must be finite" in err

    def test_divergent_target_prints_the_witness(self, capsys):
        code, out, err = run_cli(capsys, "verify", DOUBLE_WELL, "--alpha", "1", "--lower", "0", "--times", "1")
        assert code == EXIT_DIVERGENCE
        assert out == ""
        assert "growth witness: (1) -> (3) -> (5)" in err

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

    @pytest.mark.parametrize("command", ["closure", "moment"])
    @pytest.mark.parametrize("alpha", ["1_0,2", "+1,2", "\u0661,2", "0,\u0662", "0,2.0"])
    def test_alpha_takes_ascii_integers_only(self, capsys, command, alpha):
        # int() alone reads "1_0" as 10 and Arabic-Indic digits as digits.
        code, out, err = run_cli(capsys, command, OU_ENV, "--alpha", alpha)
        assert (code, out) == (EXIT_USAGE, "")
        assert "comma-separated integers" in err

    @pytest.mark.parametrize("times", ["0,1_0", "0,+1", "0,\u0661\u0662", "1e", "0,.", "0x1"])
    def test_times_take_decimal_literals_only(self, capsys, times):
        # float() alone reads "1_0" as 10 and Arabic-Indic digits as digits.
        code, out, err = run_cli(capsys, "moment", OU_ENV, "--alpha", "0,2", f"--times={times}")
        assert (code, out) == (EXIT_USAGE, "")
        assert "comma-separated non-negative numbers" in err

    @pytest.mark.parametrize(
        "alpha, times, expected",
        [(" 0, 2", "0.5", [0.5]), ("0,2 ", "1e-3, 2", [0.001, 2.0]), ("0,2", ".5,1.,2E+1", [0.5, 1.0, 20.0])],
    )
    def test_plain_literals_are_accepted(self, capsys, alpha, times, expected):
        code, out, _ = run_cli(capsys, "moment", OU_ENV, "--alpha", alpha, f"--times={times}", "--json")
        assert code == 0
        result = json.loads(out)
        assert result["target"] == "E[x^(0,2)]"
        assert [s["time"] for s in result["samples"]] == expected

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
        "command, flags, model, alpha, times",
        [
            ("verify", ["--upper", "1"], None, "2", "10"),
            ("moment", [], None, "2", "10"),
            # ||aug||_1 * t passes the float range: the route estimate is not finite
            ("moment", [], "ou-env", "0,2", "0,1e308"),
            ("verify", ["--upper", "1"], "ou-env", "0,2", "0,1e308"),
            ("moment", [], "vehicles", "0,0,2,0", "0,1e307"),
        ],
        ids=["verify", "moment", "moment-ou-env-1e308", "verify-ou-env-1e308", "moment-vehicles-1e307"],
    )
    def test_overflow_exits_three_without_traceback(self, write_model, command, flags, model, alpha, times):
        # E[x^2] grows like e^{200 t}: the state overflows at t = 10.  Run as
        # a process so that a traceback or a numpy warning would show.
        path = str(BENCHMARKS / f"{model}.json") if model else write_model(
            "explode", variables=["x1"], drift=["100*x1"], diffusion=[["1"]], values=["1"]
        )
        proc = subprocess.run(
            [sys.executable, "-m", "sdemoments", command, path,
             "--alpha", alpha, "--times", times, *flags],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == EXIT_MODEL_ERROR
        last = times.split(",")[-1]
        assert f"numeric evaluation failed: moment evaluation overflowed at t={float(last):g}" in proc.stderr
        assert "Traceback" not in proc.stderr
        assert "RuntimeWarning" not in proc.stderr

    @pytest.mark.parametrize(
        "command, flags",
        [("verify", ["--upper", "1"]), ("moment", [])],
        ids=["verify", "moment"],
    )
    def test_a_start_moment_beyond_the_float_range_exits_three(self, capsys, write_model, command, flags):
        # E[x1^30] starts at (1e11)^30 = 1e330, which no float holds.
        path = write_model(
            "big", variables=["x1"], drift=["-x1"], diffusion=[["1"]], values=["100000000000"]
        )
        code, out, err = run_cli(capsys, command, path, "--alpha", "30", "--times", "0.01", *flags)
        assert code == EXIT_MODEL_ERROR
        assert out == ""
        assert err == "numeric evaluation failed: the start moment (30) is beyond the float range\n"


class TestFreshProcessNumpy:
    """numpy runs on first numeric use: importing the package and running
    the exact commands never execute it."""

    def test_symbolic_commands_never_execute_numpy(self):
        symbolic = [
            ["check", str(BENCHMARKS / "gene.json")],
            ["closure", OU_ENV, "--alpha", "0,3", "--rows"],
            ["closure", OU_ENV, "--alpha", "0,3", "--json"],
            ["table1"],
        ]
        code = (
            "import contextlib, io, sys\n"
            "import sdemoments, sdemoments.cli\n"
            "def run(argv):\n"
            "    with contextlib.redirect_stdout(io.StringIO()):\n"
            "        assert sdemoments.cli.main(argv) == 0, argv\n"
            "    return 'numpy._core' in sys.modules\n"
            "seen = ['numpy._core' in sys.modules]\n"
            f"seen += [run(argv) for argv in {symbolic!r}]\n"
            "from sdemoments.odesolve import ClosedFormUnsupported, solve_closed_form_vector\n"
            "try:\n"  # a cyclic block whose spectrum is not rational
            "    solve_closed_form_vector(sdemoments.build_closure(sdemoments.load_benchmark('consensus'),"
            " sdemoments.Monomial((1, 1))))\n"
            "except ClosedFormUnsupported:\n"
            "    seen.append('numpy._core' in sys.modules)\n"
            f"seen.append(run(['moment', {OU_ENV!r}, '--alpha', '0,2', '--times', '1']))\n"
            "print(seen)\n"
        )
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == str([False] * 6 + [True])

    def test_simulate_loads_numpy_before_its_pool(self):
        # The first numeric call of the process is a simulation on three
        # path blocks.  numpy must have loaded before the pool starts, as
        # LazyLoader is not thread-safe on Python 3.11, and the bytes must
        # not depend on the worker count.
        code = (
            "import concurrent.futures, sys\n"
            "import sdemoments.cli\n"
            "start = concurrent.futures.ThreadPoolExecutor.__init__\n"
            "def init(self, *args, **kwargs):\n"
            "    assert 'numpy._core' in sys.modules, 'the pool started before numpy loaded'\n"
            "    start(self, *args, **kwargs)\n"
            "concurrent.futures.ThreadPoolExecutor.__init__ = init\n"
            "sys.exit(sdemoments.cli.main(sys.argv[1:]))\n"
        )
        argv = ["simulate", OU_ENV, "--alpha", "1,2", "--times", "0.25,0.5", "--dt", "0.01", "--paths", "5000"]
        outputs = []
        for workers in ("1", "2"):
            proc = subprocess.run(
                [sys.executable, "-c", code, *argv, "--workers", workers, "--json"], capture_output=True, text=True
            )
            assert proc.returncode == 0, proc.stderr
            outputs.append(proc.stdout)
        assert outputs[0] == outputs[1]
        assert json.loads(outputs[0])["estimates"][0]["paths"] == 5000


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


# ---------------------------------------------------------------------------
# golden output
# ---------------------------------------------------------------------------

# Each case is `main(argv)` run from the repository root, with its exit code,
# stdout and stderr: `moment` on one target of every bundled model with every
# --closed-form/--certify combination as text and JSON, two functional
# targets, `table1` and three `verify` runs.
CLI_GOLDEN = json.loads((Path(__file__).parent / "data" / "cli_golden.json").read_text())["cases"]
FLOAT = re.compile(r"-?(?:\d+\.\d*|\.\d+|\d+(?=[eE]))(?:[eE][-+]?\d+)?")


def masked(out: str) -> tuple[str, list[float]]:
    """stdout with the build times masked and its floats taken out."""
    out = re.sub(r'"build_seconds": [^,\n]+', '"build_seconds": <t>', out)
    out = re.sub(r" +\d+\.\d{4}s", "  <t>", out)  # table1's time column
    return FLOAT.sub("<f>", out), [float(x) for x in FLOAT.findall(out)]


class TestGoldenOutput:
    @pytest.mark.parametrize("case", CLI_GOLDEN, ids=[" ".join(c["argv"]) for c in CLI_GOLDEN])
    def test_output_matches(self, capsys, case):
        argv = [str(BENCHMARKS / a.removeprefix("benchmarks/")) if a.startswith("benchmarks/") else a
                for a in case["argv"]]
        code, out, err = run_cli(capsys, *argv)
        assert (code, err) == (case["code"], case["stderr"])
        text, floats = masked(out)
        want_text, want_floats = masked(case["stdout"])
        assert text == want_text
        assert floats == pytest.approx(want_floats, rel=1e-12)  # BLAS builds differ in the last bit


# `check --json` on every bundled model, captured before the block weights
# were computed in one pass: the partition, weights and coupling bounds.
CHECK_GOLDEN = json.loads((Path(__file__).parent / "data" / "check_golden.json").read_text())["cases"]


@pytest.mark.parametrize("case", CHECK_GOLDEN, ids=[" ".join(c["argv"]) for c in CHECK_GOLDEN])
def test_check_json_matches_golden(capsys, case):
    path = str(BENCHMARKS / case["argv"][1].removeprefix("benchmarks/"))
    assert run_cli(capsys, "check", path, *case["argv"][2:]) == (case["code"], case["stdout"], case["stderr"])
