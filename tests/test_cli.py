"""CLI subcommands: outputs, determinism, exit codes, error JSON."""

import hashlib
import importlib.metadata
import json
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

import arcadeproc
from arcadeproc.cli import EXIT_CONFIG, EXIT_INFEASIBLE, EXIT_NUMERIC, EXIT_OK, main


CONFIGS = pathlib.Path(__file__).resolve().parent.parent / "configs"


def _run(tmp_path, name, doc, *args):
    cfg = tmp_path / f"{name}.json"
    cfg.write_text(json.dumps(doc))
    out = tmp_path / f"out_{name}"
    rc = main([*args, "--config", str(cfg), "--out", str(out), "--quiet"])
    return rc, out


BASE_AP = {
    "kind": "ap",
    "partition": {"dates": [0, 2, 4, 6, 8, 10], "steps_per_arc": 8},
    "driver": {"preset": "brownian"},
    "coefficients": {"family": "piecewise_linear"},
    "n_paths": 10,
    "seed": 42,
}


class TestSimulate:
    def test_stitched_ap_writes_pinned_paths(self, tmp_path):
        rc, out = _run(tmp_path, "ap", BASE_AP, "simulate")
        assert rc == EXIT_OK
        summary = json.loads((out / "summary.json").read_text())
        assert summary["max_pinning_residual"] <= 1e-12
        lines = (out / "paths.csv").read_text().strip().splitlines()
        assert lines[0].startswith("t,path_0")
        # zero rows at the matching dates
        table = np.asarray([[float(v) for v in ln.split(",")] for ln in lines[1:]])
        for date in (0.0, 2.0, 4.0, 6.0, 8.0, 10.0):
            row = table[np.argmin(np.abs(table[:, 0] - date))]
            assert np.max(np.abs(row[1:])) <= 1e-12

    def test_elliptic_ap_summary(self, tmp_path):
        doc = dict(BASE_AP, coefficients={"family": "elliptic"})
        rc, out = _run(tmp_path, "ell", doc, "simulate")
        assert rc == EXIT_OK
        summary = json.loads((out / "summary.json").read_text())
        assert summary["max_pinning_residual"] <= 1e-12

    def test_carryover_rap_nearly_markov_report(self, tmp_path):
        doc = {
            "kind": "rap",
            "partition": {"dates": [0.5, 2.0, 3.5], "steps_per_arc": 16},
            "driver": {"preset": "brownian"},
            "coefficients": {"family": "carryover"},
            "signal": {"family": "carryover_signal"},
            "coupling": {"preset": "binary_chain", "params": {"n_arcs": 2}},
            "n_paths": 16,
            "seed": 7,
            "checks": {"nearly_markov": True},
        }
        rc, out = _run(tmp_path, "exf", doc, "simulate")
        assert rc == EXIT_OK
        summary = json.loads((out / "summary.json").read_text())
        assert summary["nearly_markov"]["pass"] is True
        assert summary["max_pinning_residual"] <= 1e-12

    def test_determinism_byte_identical(self, tmp_path):
        rc1, out1 = _run(tmp_path, "det1", BASE_AP, "simulate")
        rc2, out2 = _run(tmp_path, "det2", BASE_AP, "simulate")
        assert rc1 == rc2 == EXIT_OK
        assert (out1 / "paths.csv").read_bytes() == (out2 / "paths.csv").read_bytes()
        assert (out1 / "summary.json").read_bytes() == (out2 / "summary.json").read_bytes()

    def test_seed_override_changes_output(self, tmp_path):
        cfg = tmp_path / "s.json"
        cfg.write_text(json.dumps(BASE_AP))
        out1, out2 = tmp_path / "s1", tmp_path / "s2"
        assert main(["simulate", "--config", str(cfg), "--out", str(out1),
                     "--quiet"]) == EXIT_OK
        assert main(["simulate", "--config", str(cfg), "--out", str(out2),
                     "--seed", "43", "--quiet"]) == EXIT_OK
        assert (out1 / "paths.csv").read_bytes() != (out2 / "paths.csv").read_bytes()

    def test_missing_seed_is_config_error(self, tmp_path, capsys):
        doc = {k: v for k, v in BASE_AP.items() if k != "seed"}
        rc, _ = _run(tmp_path, "noseed", doc, "simulate")
        assert rc == EXIT_CONFIG
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert err["error"]["type"] == "config"

    def test_unknown_family_is_config_error(self, tmp_path):
        doc = dict(BASE_AP, coefficients={"family": "septic"})
        rc, _ = _run(tmp_path, "bad", doc, "simulate")
        assert rc == EXIT_CONFIG


class TestFam:
    def test_tanh_diagnostics(self, tmp_path):
        doc = {
            "partition": {"dates": [0.0, 1.0], "steps_per_arc": 64},
            "driver": {"preset": "brownian"},
            "coefficients": {"family": "piecewise_linear"},
            "coupling": {"preset": "binary_pm1"},
            "standard": True,
            "n_paths": 128,
            "seed": 9,
            "isometry": {"n_paths": 4000},
            "max_path_files": 3,
        }
        rc, out = _run(tmp_path, "fam", doc, "fam")
        assert rc == EXIT_OK
        diag = json.loads((out / "diagnostics.json").read_text())
        assert diag["tanh_closed_form_max_dev"] <= 1e-10
        assert diag["martingale_mean"]["pass"] is True
        assert diag["isometry"]["pass"] is True
        assert len(diag["path_files"]) == 3
        header = (out / "path_0000.csv").read_text().splitlines()[0]
        assert header == "t,I,M,W,vol"

    def test_brownian_coupling_m_equals_i(self, tmp_path):
        doc = {
            "partition": {"dates": [0.0, 1.0], "steps_per_arc": 64},
            "driver": {"preset": "brownian"},
            "coefficients": {"family": "piecewise_linear"},
            "coupling": {"preset": "brownian", "params": {"sigma2": 1.0, "horizon": 1.0}},
            "standard": True,
            "n_paths": 64,
            "seed": 10,
        }
        rc, out = _run(tmp_path, "famb", doc, "fam")
        assert rc == EXIT_OK
        diag = json.loads((out / "diagnostics.json").read_text())
        assert diag["martingale_vs_process_max_dev"] <= 1e-8

    @pytest.mark.parametrize("key, value", [
        ("isometry", True),
        ("driver", "preset"),
        ("partition", [0.0, 1.0]),
    ])
    def test_section_of_wrong_type_is_config_error(self, tmp_path, capsys, key, value):
        doc = json.loads((CONFIGS / "fam_ou_standard.json").read_text())
        doc[key] = value
        rc, _ = _run(tmp_path, "famtype", doc, "fam", "--paths", "4")
        assert rc == EXIT_CONFIG
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert err["error"]["type"] == "config"
        assert f"{key!r} must be a JSON object" in err["error"]["message"]

    def test_degenerate_driver_arc_is_numeric_error(self, tmp_path, capsys):
        # t*B_t from 0 has a zero factorization denominator on the first arc
        doc = {
            "partition": {"dates": [0.0, 1.0], "steps_per_arc": 50},
            "driver": {"preset": "scaled_bm"},
            "coefficients": {"family": "standard"},
            "coupling": {"preset": "binary_pm1"},
            "standard": True,
            "n_paths": 4,
            "seed": 11,
        }
        rc, _ = _run(tmp_path, "famdeg", doc, "fam")
        assert rc == EXIT_NUMERIC
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert err["error"]["type"] == "numeric"

    def test_isometry_with_zero_spread_fails(self, tmp_path):
        # every path moves 1 -> 2, so the difference is 1 with zero SE
        doc = json.loads((CONFIGS / "fam_tanh.json").read_text())
        doc["coupling"] = {"atoms_mu": [[1.0, 1.0]], "values_nu": [2.0], "gamma": [[1.0]]}
        doc["standard"] = False
        doc["isometry"] = {"n_paths": 50}
        rc, out = _run(tmp_path, "famzero", doc, "fam", "--paths", "4")
        assert rc == EXIT_OK
        text = (out / "diagnostics.json").read_text()
        iso = json.loads(text, parse_constant=lambda c: pytest.fail(f"non-JSON {c}"))["isometry"]
        assert iso["pass"] is False
        assert iso["z_score"] is None

    @pytest.mark.parametrize("n_paths", [0, 1])
    def test_isometry_with_fewer_than_two_paths_is_config_error(self, tmp_path, capsys,
                                                                 n_paths):
        # one path has no standard error, so the check could not fail
        doc = json.loads((CONFIGS / "fam_tanh.json").read_text())
        doc["isometry"] = {"n_paths": n_paths}
        rc, out = _run(tmp_path, "famiso", doc, "fam", "--paths", "4")
        assert rc == EXIT_CONFIG
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert err["error"]["type"] == "config"
        assert "at least 2 paths" in err["error"]["message"]
        assert not (out / "diagnostics.json").exists()


class TestIbmot:
    def test_gaussian_instance(self, tmp_path):
        doc = {
            "mu": {"dist": "normal", "mean": 0, "var": 1, "atoms": 15},
            "nu": {"dist": "normal", "mean": 0, "var": 2, "atoms": 15},
            "T": 1.0,
            "seed": 3,
            "options": {"gap": 1e-6},
        }
        rc, out = _run(tmp_path, "ib", doc, "ibmot")
        assert rc == EXIT_OK
        sol = json.loads((out / "solution.json").read_text())
        assert sol["converged"] is True
        assert abs(sol["correlation"] - 1.0 / np.sqrt(2.0)) <= 0.05
        assert abs(sol["objective_KI_target"] - 1.0) <= 0.02

    def test_explicit_atoms_with_mc_check(self, tmp_path):
        doc = {
            "mu": [[-1.0, 0.5], [1.0, 0.5]],
            "nu": [[-2.0, 0.25], [0.0, 0.5], [2.0, 0.25]],
            "T": 1.0,
            "seed": 4,
            "options": {"gap": 1e-8},
            "mc_check": {"coupling": {"preset": "binary_pm1"},
                         "n_paths": 4000, "steps": 200},
        }
        rc, out = _run(tmp_path, "ib23", doc, "ibmot")
        assert rc == EXIT_OK
        sol = json.loads((out / "solution.json").read_text())
        assert "mc_check" in sol
        assert sol["duality_gap"] <= 1e-8 * (1 + abs(sol["objective_quantile"]))

    @pytest.mark.parametrize("n_paths", [0, 1])
    def test_mc_check_with_fewer_than_two_paths_is_config_error(self, tmp_path, capsys,
                                                                 n_paths):
        doc = {"mu": [[-1.0, 0.5], [1.0, 0.5]],
               "nu": [[-2.0, 0.25], [0.0, 0.5], [2.0, 0.25]], "T": 1.0, "seed": 4,
               "mc_check": {"coupling": {"preset": "binary_pm1"},
                            "n_paths": n_paths, "steps": 20}}
        rc, out = _run(tmp_path, "ibmc", doc, "ibmot")
        assert rc == EXIT_CONFIG
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert err["error"]["type"] == "config"
        assert "at least 2 paths" in err["error"]["message"]
        assert not (out / "solution.json").exists()

    def test_non_converged_exits_numeric(self, tmp_path, capsys):
        doc = {
            "mu": {"dist": "normal", "mean": 0, "var": 1, "atoms": 15},
            "nu": {"dist": "normal", "mean": 0, "var": 2, "atoms": 15},
            "T": 1.0,
            "seed": 3,
            "options": {"gap": 1e-12, "max_iter": 2},
        }
        rc, out = _run(tmp_path, "ibnc", doc, "ibmot")
        assert rc == EXIT_NUMERIC
        sol = json.loads((out / "solution.json").read_text())
        assert sol["converged"] is False
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert err["error"]["type"] == "numeric"
        assert "gap" in err["error"]["message"] and "limit" in err["error"]["message"]

    def test_unknown_option_exits_config(self, tmp_path, capsys):
        doc = {"mu": [[0.0, 1.0]], "nu": [[-1.0, 0.5], [1.0, 0.5]], "T": 1.0,
               "seed": 1, "options": {"gap": 1e-7, "variant": "away"}}
        rc, _ = _run(tmp_path, "ibopt", doc, "ibmot")
        assert rc == EXIT_CONFIG
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert err["error"]["type"] == "config"
        assert "variant" in err["error"]["message"]

    def test_internal_value_error_is_not_config_error(self, tmp_path, monkeypatch):
        # a ValueError raised while solving is a program fault, not a user's
        # config mistake, and must surface as such
        def broken(*args, **kwargs):
            raise ValueError("internal failure")

        monkeypatch.setattr("arcadeproc.cli.solve_ibmot", broken)
        doc = {"mu": [[0.0, 1.0]], "nu": [[-1.0, 0.5], [1.0, 0.5]], "T": 1.0, "seed": 1}
        with pytest.raises(ValueError, match="internal failure"):
            _run(tmp_path, "ibbug", doc, "ibmot")

    def test_malformed_value_is_config_error(self, tmp_path, capsys):
        doc = {"mu": [[0.0, 1.0]], "nu": [[-1.0, 0.5], [1.0, 0.5]], "T": "soon",
               "seed": 1}
        rc, _ = _run(tmp_path, "ibval", doc, "ibmot")
        assert rc == EXIT_CONFIG
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert err["error"]["type"] == "config"

    IB23 = {"mu": [[-1.0, 0.5], [1.0, 0.5]],
            "nu": [[-2.0, 0.25], [0.0, 0.5], [2.0, 0.25]], "T": 1.0, "seed": 1}

    @pytest.mark.parametrize("horizon", [float("nan"), float("inf")], ids=["nan", "inf"])
    def test_non_finite_horizon_is_config_error(self, tmp_path, capsys, horizon):
        # a horizon that is not finite must not reach the Newton step
        rc, out = _run(tmp_path, "ibT", dict(self.IB23, T=horizon), "ibmot")
        assert rc == EXIT_CONFIG
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert err["error"]["type"] == "config"
        assert "horizon" in err["error"]["message"]
        assert not (out / "solution.json").exists()

    @pytest.mark.parametrize("options, word", [
        ({"gap": float("nan")}, "gap_tol"),
        ({"gap": -1}, "gap_tol"),
        ({"max_iter": -3}, "max_iter"),
    ], ids=["gap_nan", "gap_negative", "max_iter_negative"])
    def test_invalid_solver_option_is_config_error(self, tmp_path, capsys, options, word):
        # an invalid option is the config's fault, not a numeric failure (exit 4)
        rc, out = _run(tmp_path, "ibopt", dict(self.IB23, options=options), "ibmot")
        assert rc == EXIT_CONFIG
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert err["error"]["type"] == "config"
        assert word in err["error"]["message"]
        assert not (out / "solution.json").exists()

    def test_point_mass_mu_writes_null_correlation(self, tmp_path):
        # a point mass has no variance, so the induced correlation is undefined
        doc = {"mu": [[0.0, 1.0]], "nu": [[-1.0, 0.5], [1.0, 0.5]], "T": 1.0, "seed": 1}
        rc, out = _run(tmp_path, "ibpm", doc, "ibmot")
        assert rc == EXIT_OK
        sol = json.loads((out / "solution.json").read_text())
        assert sol["converged"] is True
        assert sol["correlation"] is None

    def test_non_convex_order_exits_infeasible(self, tmp_path, capsys):
        doc = {"mu": [[1.0, 1.0]], "nu": [[0.0, 1.0]], "T": 1.0, "seed": 1}
        rc, _ = _run(tmp_path, "ibbad", doc, "ibmot")
        assert rc == EXIT_INFEASIBLE
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert err["error"]["type"] == "infeasible"
        assert "witness" in err["error"]


class TestCheck:
    def test_coefficient_validator(self, tmp_path):
        doc = {
            "kind": "coefficients",
            "partition": {"dates": [0.0, 1.0, 2.0], "steps_per_arc": 10},
            "coefficients": {"family": "lagrange"},
            "tol": 1e-9,
        }
        rc, out = _run(tmp_path, "chk", doc, "check")
        assert rc == EXIT_OK
        rep = json.loads((out / "check.json").read_text())
        assert rep["passed"] is True

    def test_markov_validator_rejects_lagrange(self, tmp_path):
        doc = {
            "kind": "markov",
            "partition": {"dates": [0.0, 1.0, 2.0], "steps_per_arc": 16},
            "driver": {"preset": "brownian"},
            "coefficients": {"family": "lagrange"},
        }
        rc, out = _run(tmp_path, "chkm", doc, "check")
        assert rc == EXIT_OK
        rep = json.loads((out / "check.json").read_text())
        assert rep["pass"] is False
        assert rep["cross_arc_max"] > 1e-3

    def test_kernel_validator(self, tmp_path):
        doc = {"kind": "kernel", "coupling": {"preset": "uniform_mot"}}
        rc, out = _run(tmp_path, "chkk", doc, "check")
        assert rc == EXIT_OK
        assert json.loads((out / "check.json").read_text())["martingale"] is True

    def test_kernel_rows_follow_unsorted_atoms(self, tmp_path):
        written = {"kind": "kernel", "coupling": {
            "atoms_mu": [[1.0, 0.5], [-1.0, 0.5]], "values_nu": [-2.0, 0.0, 2.0],
            "gamma": [[0.0, 0.5, 0.5], [0.5, 0.5, 0.0]]}}
        in_order = {"kind": "kernel", "coupling": {
            "atoms_mu": [[-1.0, 0.5], [1.0, 0.5]], "values_nu": [-2.0, 0.0, 2.0],
            "gamma": [[0.5, 0.5, 0.0], [0.0, 0.5, 0.5]]}}
        (rc1, out1), (rc2, out2) = (_run(tmp_path, name, doc, "check")
                                    for name, doc in (("rev", written), ("fwd", in_order)))
        assert rc1 == rc2 == EXIT_OK
        assert (out1 / "check.json").read_bytes() == (out2 / "check.json").read_bytes()
        assert json.loads((out1 / "check.json").read_text())["martingale"] is True

    def test_convex_order_validator(self, tmp_path):
        doc = {"kind": "convex_order",
               "mu": {"dist": "uniform", "lo": -1, "hi": 1, "atoms": 21},
               "nu": {"dist": "uniform", "lo": -2, "hi": 2, "atoms": 21}}
        rc, out = _run(tmp_path, "chko", doc, "check")
        assert rc == EXIT_OK
        assert json.loads((out / "check.json").read_text())["pass"] is True

    @pytest.mark.parametrize("mu, word", [
        ({"dist": "normal", "mean": 0, "var": float("nan")}, "var"),
        ({"dist": "normal", "mean": 0, "var": -1.0}, "var"),
        ([[0.0, 0.5], [float("nan"), 0.5]], "finite"),
        ([[0.0, float("nan")], [1.0, 0.5]], "finite"),
    ])
    def test_invalid_marginal_is_config_error(self, tmp_path, capsys, mu, word):
        # json accepts NaN; it must not reach the report as pass=false
        doc = {"kind": "convex_order", "mu": mu,
               "nu": {"dist": "uniform", "lo": -2, "hi": 2, "atoms": 21}}
        rc, out = _run(tmp_path, "chknan", doc, "check")
        assert rc == EXIT_CONFIG
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert err["error"]["type"] == "config"
        assert word in err["error"]["message"]
        assert not (out / "check.json").exists()

    @pytest.mark.parametrize("mu", [[1.0, 2.0], [[1.0, 0.5, 0.5]]], ids=["flat", "triple"])
    def test_marginal_that_is_not_pairs_is_config_error(self, tmp_path, capsys, mu):
        doc = {"kind": "convex_order", "mu": mu,
               "nu": {"dist": "uniform", "lo": -2, "hi": 2, "atoms": 21}}
        rc, out = _run(tmp_path, "chkpairs", doc, "check")
        assert rc == EXIT_CONFIG
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert err["error"]["type"] == "config"
        assert "[value, weight] pairs" in err["error"]["message"]
        assert not (out / "check.json").exists()

    def test_unknown_uniform_method_is_config_error(self, tmp_path, capsys):
        # rejected as it is for a normal marginal, though both methods agree here
        doc = {"kind": "convex_order",
               "mu": {"dist": "uniform", "lo": -1, "hi": 1, "atoms": 5, "method": "bogus"},
               "nu": {"dist": "uniform", "lo": -2, "hi": 2, "atoms": 5, "method": "midpoint"}}
        rc, out = _run(tmp_path, "chkmeth", doc, "check")
        assert rc == EXIT_CONFIG
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert err["error"]["type"] == "config"
        assert "bogus" in err["error"]["message"]
        assert not (out / "check.json").exists()

    NAN = float("nan")
    MARKOV = {"kind": "markov", "partition": {"dates": [0.0, 1.0, 2.0], "steps_per_arc": 8},
              "coefficients": {"family": "standard"}}

    @pytest.mark.parametrize("doc, word", [
        ({"kind": "kernel", "coupling": {"atoms_mu": [[0.0, 1.0]], "values_nu": [-1.0, 1.0],
                                         "gamma": [[NAN, 0.5]]}}, "finite"),
        ({"kind": "kernel", "coupling": {"atoms_mu": [[0.0, 1.0]], "values_nu": [-1.0, NAN],
                                         "gamma": [[0.5, 0.5]]}}, "finite"),
        ({"kind": "kernel", "coupling": {"preset": "brownian", "params": {"horizon": NAN}}},
         "variance"),
        ({"kind": "kernel", "coupling": {"preset": "deterministic", "params": {"value": NAN}}},
         "finite"),
        ({"kind": "coefficients", "partition": {"dates": [0.0, 1.0], "steps_per_arc": 4},
          "coefficients": {"family": "explicit_table",
                           "table": [[1.0, 0.75, NAN, 0.25, 0.0],
                                     [0.0, 0.25, 0.5, 0.75, 1.0]]}}, "finite"),
        ({**MARKOV, "driver": {"preset": "ou", "params": {"theta": NAN, "sigma": 1.0}}},
         "theta"),
        ({**MARKOV, "driver": {"preset": "ou", "params": {"theta": 1.0, "sigma": NAN}}},
         "sigma"),
    ], ids=["gamma", "values_nu", "brownian_horizon", "deterministic_value",
            "explicit_table", "ou_theta", "ou_sigma"])
    def test_non_finite_number_is_config_error(self, tmp_path, capsys, doc, word):
        # a NaN must not reach the report, where comparisons read it as a pass
        rc, out = _run(tmp_path, "chkinf", doc, "check")
        assert rc == EXIT_CONFIG
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert err["error"]["type"] == "config"
        assert word in err["error"]["message"]
        assert not (out / "check.json").exists()

    @pytest.mark.parametrize("doc, preset", [
        ({"kind": "kernel", "coupling": {"preset": "binary_pm1", "params": {"n_arcs": 7}}},
         "binary_pm1"),
        ({**MARKOV, "driver": {"preset": "brownian", "params": {"theta": 5}}}, "brownian"),
        ({**MARKOV, "driver": {"preset": "ou", "params": {"sigma": 1.0}}}, "ou"),
    ], ids=["binary_pm1_n_arcs", "brownian_theta", "ou_without_theta"])
    def test_unknown_preset_parameter_is_config_error(self, tmp_path, capsys, doc, preset):
        rc, out = _run(tmp_path, "chkpar", doc, "check")
        assert rc == EXIT_CONFIG
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert err["error"]["type"] == "config"
        assert f"preset {preset!r}" in err["error"]["message"]
        assert not (out / "check.json").exists()

    def test_malformed_config_file(self, tmp_path, capsys):
        cfg = tmp_path / "broken.json"
        cfg.write_text("{not json")
        rc = main(["check", "--config", str(cfg), "--quiet"])
        assert rc == EXIT_CONFIG


class TestIntegerOptions:
    """A fractional value of an integer option is a config error (exit 2),
    not truncated to the integer below it."""

    BASES = {
        "simulate": BASE_AP,
        "fam": {**json.loads((CONFIGS / "fam_tanh.json").read_text()),
                "n_paths": 8, "isometry": {"n_paths": 50}, "max_path_files": 2},
        "ibmot": {"mu": {"dist": "normal", "mean": 0, "var": 1, "atoms": 5},
                  "nu": {"dist": "normal", "mean": 0, "var": 2, "atoms": 5},
                  "T": 1.0, "seed": 4, "options": {"max_iter": 50},
                  "mc_check": {"coupling": {"preset": "binary_pm1"},
                               "n_paths": 40, "steps": 20}},
    }

    @pytest.mark.parametrize("command, key", [
        ("simulate", "n_paths"),
        ("simulate", "seed"),
        ("simulate", "partition.steps_per_arc"),
        ("fam", "n_paths"),
        ("fam", "isometry.n_paths"),
        ("fam", "max_path_files"),
        ("ibmot", "mu.atoms"),
        ("ibmot", "options.max_iter"),
        ("ibmot", "mc_check.n_paths"),
        ("ibmot", "mc_check.steps"),
    ])
    def test_fractional_value_is_config_error(self, tmp_path, capsys, command, key):
        doc = json.loads(json.dumps(self.BASES[command]))
        *parents, key = key.split(".")
        section = doc
        for name in parents:
            section = section[name]
        section[key] += 0.5
        rc, _ = _run(tmp_path, "frac", doc, command)
        assert rc == EXIT_CONFIG
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert err["error"]["type"] == "config"
        assert "whole number" in err["error"]["message"]

    def test_integral_values_still_run(self, tmp_path):
        # a JSON number with a zero fraction is the same count
        doc = dict(BASE_AP, n_paths=10.0)
        rc, out = _run(tmp_path, "whole", doc, "simulate")
        assert rc == EXIT_OK
        assert json.loads((out / "summary.json").read_text())["n_paths"] == 10


class TestJsonTypes:
    """A flag must be a JSON boolean and a number a JSON number: a string or
    a boolean in their place is a config error, not read as truthy or as 1."""

    @pytest.mark.parametrize("command, doc, word", [
        ("simulate", {**BASE_AP, "kind": "rap", "coefficients": {"family": "lagrange"},
                      "coupling": {"preset": "antithetic_pm1", "params": {"n_arcs": 5}},
                      "standard": "no"}, "'standard' must be true or false"),
        ("simulate", {**BASE_AP, "checks": {"markov": "no"}}, "'markov' must be true or false"),
        ("simulate", {**BASE_AP, "partition": {"dates": [0, 2, 4], "steps_per_arc": True}},
         "whole number"),
        ("check", {"kind": "coefficients", "partition": {"dates": [0.0, 1.0], "steps_per_arc": 4},
                   "coefficients": {"family": "lagrange"}, "continuity_c": "big"}, "big"),
    ], ids=["standard_string", "checks_string", "steps_per_arc_bool", "continuity_c_string"])
    def test_wrong_json_type_is_config_error(self, tmp_path, capsys, command, doc, word):
        rc, out = _run(tmp_path, "jtype", doc, command)
        assert rc == EXIT_CONFIG
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert err["error"]["type"] == "config"
        assert word in err["error"]["message"]
        assert not list(out.glob("*.json"))


class TestPathCounts:
    """A path count below one, given on the command line or in the config,
    is a config error (exit 2), never a run with another count."""

    @pytest.mark.parametrize("paths", [0, -3])
    @pytest.mark.parametrize("command, name", [("simulate", "stitched_ap.json"),
                                               ("fam", "fam_ou_standard.json")])
    def test_paths_below_one_is_config_error(self, tmp_path, capsys, command, name, paths):
        out = tmp_path / "out"
        rc = main([command, "--config", str(CONFIGS / name), "--out", str(out), "--quiet",
                   "--paths", str(paths)])
        assert rc == EXIT_CONFIG
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert err["error"] == {"type": "config", "message": "n_paths must be positive"}
        assert not (out / "summary.json").exists() and not (out / "diagnostics.json").exists()

    @pytest.mark.parametrize("where", ["command line", "config"])
    def test_one_fam_path_is_config_error(self, tmp_path, capsys, where):
        # the martingale-mean band needs a standard error, so two paths
        doc = json.loads((CONFIGS / "fam_ou_standard.json").read_text())
        if where == "config":
            rc, out = _run(tmp_path, "one", {**doc, "n_paths": 1}, "fam")
        else:
            rc, out = _run(tmp_path, "one", doc, "fam", "--paths", "1")
        assert rc == EXIT_CONFIG
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert err["error"]["type"] == "config"
        assert "at least 2 paths" in err["error"]["message"]
        assert not (out / "diagnostics.json").exists()

    def test_negative_max_path_files_is_config_error(self, tmp_path, capsys):
        doc = {**json.loads((CONFIGS / "fam_ou_standard.json").read_text()),
               "n_paths": 8, "max_path_files": -2}
        rc, out = _run(tmp_path, "files", doc, "fam")
        assert rc == EXIT_CONFIG
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert err["error"]["type"] == "config"
        assert "max_path_files" in err["error"]["message"]
        assert not (out / "diagnostics.json").exists()

    def test_zero_max_path_files_writes_no_path_file(self, tmp_path):
        doc = {**json.loads((CONFIGS / "fam_ou_standard.json").read_text()),
               "n_paths": 8, "max_path_files": 0}
        rc, out = _run(tmp_path, "nofiles", doc, "fam")
        assert rc == EXIT_OK
        assert json.loads((out / "diagnostics.json").read_text())["path_files"] == []


class TestConfigKeys:
    """A key that no reader of its section reads is a config error (exit 2)
    naming the key and the section, and a section that is present is run,
    even when empty."""

    FAM = json.loads((CONFIGS / "fam_tanh.json").read_text())
    IBMOT = {"mu": [[-1.0, 0.5], [1.0, 0.5]], "nu": [[-2.0, 0.25], [0.0, 0.5], [2.0, 0.25]],
             "T": 1.0, "seed": 4}

    @pytest.mark.parametrize("command, doc, key, where", [
        ("simulate", {**BASE_AP, "checks": {"markv": True}}, "markv", "'checks'"),
        ("ibmot", {**IBMOT, "mc_check": {"coupling": {"preset": "binary_pm1"}, "stepz": 5}},
         "stepz", "'mc_check'"),
        ("simulate", {**BASE_AP, "n_path": 12}, "n_path", "simulate ap config"),
        ("check", {"kind": "kernel", "coupling": {"preset": "uniform_mot"}, "tol": 1e-9},
         "tol", "check kernel config"),
    ], ids=["checks.markv", "mc_check.stepz", "top_level.n_path", "check_kernel.tol"])
    def test_unknown_key_is_config_error(self, tmp_path, capsys, command, doc, key, where):
        rc, out = _run(tmp_path, "keys", doc, command)
        assert rc == EXIT_CONFIG
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert err["error"]["type"] == "config"
        assert repr(key) in err["error"]["message"] and where in err["error"]["message"]
        assert not list(out.glob("*.json"))

    def test_empty_isometry_section_runs_the_default_check(self, tmp_path):
        assert self.FAM["isometry"] == {"n_paths": 20000}
        (rc1, out1), (rc2, out2) = (_run(tmp_path, name, doc, "fam", "--paths", "4")
                                    for name, doc in (("set", self.FAM),
                                                      ("empty", {**self.FAM, "isometry": {}})))
        assert rc1 == rc2 == EXIT_OK
        assert "isometry" in json.loads((out2 / "diagnostics.json").read_text())
        assert (out1 / "diagnostics.json").read_bytes() == (out2 / "diagnostics.json").read_bytes()

    def test_empty_mc_check_section_needs_a_coupling(self, tmp_path, capsys):
        rc, out = _run(tmp_path, "mc", {**self.IBMOT, "mc_check": {}}, "ibmot")
        assert rc == EXIT_CONFIG
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert "'coupling'" in err["error"]["message"]
        assert not (out / "solution.json").exists()


class TestColdStart:
    """``scipy.special`` loads on the first Gaussian quantile or cdf call, not
    with the CLI: arcade, filtered-martingale and convex-order runs never
    import it."""

    SCRIPT = """
import sys
import numpy as np
from arcadeproc.cli import main
from arcadeproc.coupling import GaussianMarginal
configs, out = sys.argv[1:]
for command, name, extra in (("simulate", "stitched_ap", []),
                             ("fam", "fam_ou_standard", ["--paths", "4"]),
                             ("check", "check_convex_order", [])):
    rc = main([command, "--config", f"{configs}/{name}.json", "--out", f"{out}/{name}",
               "--quiet", *extra])
    assert rc == 0, (name, rc)
loaded = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
assert not loaded, loaded
law = GaussianMarginal(0.0, 1.0)
q = np.linspace(0.0, 1.0, 1001)
x = np.linspace(-40.0, 40.0, 1601)
quantiles, cdfs = law.quantile(q), law.cdf(x)
from scipy.special import ndtr, ndtri
assert quantiles.tobytes() == ndtri(q).tobytes()
assert cdfs.tobytes() == ndtr(x).tobytes()
"""

    def test_arcade_and_check_runs_leave_scipy_unloaded(self, tmp_path):
        src = str(pathlib.Path(arcadeproc.__file__).resolve().parent.parent)
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        result = subprocess.run([sys.executable, "-c", self.SCRIPT, str(CONFIGS), str(tmp_path)],
                                env=env, capture_output=True, text=True, timeout=300)
        assert result.returncode == 0, result.stderr


class TestRerunsByteIdentical:
    """Two runs with the same config and seed write byte-identical result files."""

    GAUSS8 = {
        "mu": {"dist": "normal", "mean": 0, "var": 1, "atoms": 8},
        "nu": {"dist": "normal", "mean": 0, "var": 2, "atoms": 8},
        "T": 1.0,
        "seed": 5,
    }

    @pytest.mark.parametrize("command,config,extra", [
        ("fam", "fam_ou_standard.json", ["--paths", "4"]),
        ("check", "check_convex_order.json", []),
        ("ibmot", None, []),
    ])
    def test_rerun_identical(self, tmp_path, command, config, extra):
        if config is None:
            cfg = tmp_path / "gauss8.json"
            cfg.write_text(json.dumps(self.GAUSS8))
        else:
            cfg = CONFIGS / config
        outs = []
        for run in ("a", "b"):
            out = tmp_path / run
            rc = main([command, "--config", str(cfg), "--out", str(out), "--quiet", *extra])
            assert rc == EXIT_OK
            outs.append({p.relative_to(out): p.read_bytes()
                         for p in sorted(out.rglob("*")) if p.is_file()})
        assert outs[0] and outs[0] == outs[1]


class TestShippedConfigs:
    """Every config under configs/ runs clean through its subcommand."""

    CONFIGS = {
        "stitched_ap.json": "simulate",
        "lagrange_damped_ap.json": "simulate",
        "elliptic_ap.json": "simulate",
        "ou_driver_paths.json": "simulate",
        "antithetic_rap.json": "simulate",
        "carryover_rap.json": "simulate",
        "fam_tanh.json": "fam",
        "fam_ou_standard.json": "fam",
        "ibmot_gaussian.json": "ibmot",
        "check_convex_order.json": "check",
    }

    def test_all_configs_run(self, tmp_path):
        import pathlib

        root = pathlib.Path(__file__).resolve().parent.parent / "configs"
        assert root.is_dir()
        seen = {p.name for p in root.glob("*.json")}
        assert seen == set(self.CONFIGS)
        for name, command in self.CONFIGS.items():
            out = tmp_path / name.replace(".json", "")
            rc = main([command, "--config", str(root / name),
                       "--out", str(out), "--quiet", "--paths", "4"]
                      if command in ("simulate", "fam")
                      else [command, "--config", str(root / name),
                            "--out", str(out), "--quiet"])
            assert rc == EXIT_OK, name

    @pytest.fixture(scope="class")
    def passes(self, tmp_path_factory):
        """The result-file digests of two passes over the shipped configs in
        one process, the second in reverse order."""
        tmp_path = tmp_path_factory.mktemp("shipped")
        passes = []
        for index, order in enumerate((list(self.CONFIGS), list(self.CONFIGS)[::-1])):
            out = tmp_path / f"pass{index}"
            for name in order:
                rc = main([self.CONFIGS[name], "--config", str(CONFIGS / name),
                           "--out", str(out / name[:-5]), "--quiet"])
                assert rc == EXIT_OK, name
            passes.append({f.relative_to(out).as_posix(): hashlib.sha256(f.read_bytes()).hexdigest()
                           for f in sorted(out.rglob("*.*"))})
        return passes

    def test_two_passes_in_one_process_write_the_same_bytes(self, passes):
        # the cached grids, grid matrices and parser must not carry state from
        # one run into the next
        assert len(passes[0]) == 40
        assert passes[0] == passes[1]

    def test_result_files_match_the_committed_digests(self, passes):
        # the result files are the seeded outputs every change must keep; a
        # deliberate re-baseline edits the table
        table = json.loads((pathlib.Path(__file__).parent / "data" / "result_digests.json")
                           .read_text())
        want, got = table["digests"], passes[0]
        moved = sorted(name for name in want.keys() | got.keys()
                       if want.get(name) != got.get(name))
        assert not moved, (
            f"{len(moved)} result file(s) differ from tests/data/result_digests.json: "
            f"{', '.join(moved)}; the table was made with {table['made_with']}, this run uses "
            f"python {sys.version.split()[0]}, numpy {np.__version__}, "
            f"scipy {importlib.metadata.version('scipy')}")
