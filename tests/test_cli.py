"""Tests for the command-line front end."""

import json
import math
from collections import Counter

import pytest

from harmext import boundary
from harmext.cli import main, region_label
from harmext.poisson import PoissonExtension


# ---------------------------------------------------------- region labels

@pytest.mark.parametrize("p,alpha,lam,label", [
    (2.0, -0.5, 0.0, "comparable"),
    (2.0, 0.0, 0.0, "comparable"),
    (2.0, 0.5, 0.0, "comparable"),
    (2.0, 1.5, 0.0, "finite"),
    (2.0, 0.0, -3.0, "comparable"),
    (2.0, -1.0, 0.0, "divergent"),
    (2.0, -2.0, 5.0, "divergent"),
    (2.0, -1.0, -2.0, "uncovered"),
    (3.0, 2.5, 0.0, "finite"),
])
def test_region_label_cases(p, alpha, lam, label):
    assert region_label(p, alpha, lam) == label


# ----------------------------------------------------------------- energy

def test_energy_identity_json(tmp_path):
    out = tmp_path / "energy.json"
    code = main(["energy", "--map", "identity", "--p", "2", "--alpha", "0",
                 "--lambda", "0", "--levels", "12",
                 "--functionals", "e1,e2,u,v", "--out", str(out)])
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["schema_version"] == 1
    by_name = {r["functional"]: r for r in payload["reports"]}
    e1 = by_name["length_power"]["value"]
    assert e1 == pytest.approx(4 * math.pi ** 2 * (1 - 2.0 ** -12), rel=1e-9)
    assert by_name["gauge_pair"]["value"] == pytest.approx(
        4 * math.pi ** 2, rel=1e-3)
    assert abs(by_name["inverse_kernel"]["value"]) < 1e-3
    ratios = payload["ratios"]
    assert ratios["gauge_ratio_over_length_power"] == pytest.approx(1.0,
                                                                    rel=1e-9)
    assert ratios["gauge_pair_over_length_power"] == pytest.approx(1.0,
                                                                   rel=1e-2)
    assert "inverse_kernel_root_over_length_power" in ratios


def test_energy_csv_format(tmp_path):
    out = tmp_path / "energy.csv"
    code = main(["energy", "--map", "piecewise_linear:0,0;0.5,0.25;1,1",
                 "--levels", "6", "--format", "csv", "--out", str(out)])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "functional,j,level_sum,cumulative,classification"
    assert len(lines) == 1 + 2 * 6            # e1 and e2, six levels each


def test_energy_deterministic_output(tmp_path):
    argv = ["energy", "--map", "cantor_log:s=2,depth=10", "--p", "1.5",
            "--alpha", "-0.5", "--lambda", "1", "--levels", "10",
            "--functionals", "e1,e2", "--seed", "7"]
    f1, f2 = tmp_path / "a.json", tmp_path / "b.json"
    assert main(argv + ["--out", str(f1)]) == 0
    assert main(argv + ["--out", str(f2)]) == 0
    assert f1.read_bytes() == f2.read_bytes()


def test_energy_rejects_multiple_params(capsys):
    code = main(["energy", "--p", "2", "--p", "3"])
    assert code == 1
    assert "exactly one" in capsys.readouterr().err


def test_malformed_map_is_config_error(capsys):
    code = main(["energy", "--map", "moebius:2"])
    assert code == 1
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("desc", [
    "rotation:nan", "rotation:inf", "piecewise_linear:0,0;0.5,nan;1,1",
    "cantor_log:s=nan,depth=5", "cantor_loglog:p=nan,depth=3"])
def test_non_finite_map_numbers_are_rejected(desc, capsys):
    code = main(["energy", "--map", desc, "--functionals", "e1"])
    assert code == 1
    assert "is not finite" in capsys.readouterr().err


@pytest.mark.parametrize("arg", ["--p=nan", "--alpha=inf", "--lambda=-inf"])
def test_non_finite_parameters_are_rejected(arg, capsys):
    code = main(["energy", "--functionals", "e1", "--levels", "4", arg])
    assert code == 1
    assert "must be finite" in capsys.readouterr().err


@pytest.mark.parametrize("lam", ["-1.5", "-1"])
def test_inverse_kernel_diverges_for_lambda_at_most_minus_one(lam, tmp_path):
    # the kernel is +inf below t = 1 and -inf above it
    out = tmp_path / "v.json"
    code = main(["energy", "--functionals", "v", "--p", "2", "--lambda", lam,
                 "--levels", "4", "--out", str(out)])
    assert code == 0
    text = out.read_text()
    assert "NaN" not in text
    (rep,) = json.loads(text)["reports"]
    assert rep["value"] == math.inf
    assert rep["classification"] == "diverging"


def test_pair_energy_rejects_zero_levels(capsys):
    # u with no rings used to report 0.0, unlike e1 and i1
    code = main(["energy", "--functionals", "u", "--levels", "0"])
    assert code == 1
    assert "diagonal_rings must be >= 1" in capsys.readouterr().err


def test_config_file_supplies_defaults(tmp_path):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"map": "identity", "p": 2.0, "alpha": 0.5,
                               "lambda": 0.0, "levels": 8,
                               "functionals": "e1"}))
    out = tmp_path / "out.json"
    code = main(["energy", "--config", str(cfg), "--out", str(out)])
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["reports"][0]["alpha"] == 0.5
    assert payload["reports"][0]["levels"] == list(range(1, 9))


def test_config_file_rejects_unknown_keys(tmp_path, capsys):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"turbo": True}))
    assert main(["energy", "--config", str(cfg)]) == 1


# ------------------------------------------------------------------ sweep

def test_sweep_region_labels(tmp_path):
    out = tmp_path / "sweep.json"
    code = main(["sweep", "--map", "identity", "--p", "2",
                 "--alpha", "-0.5", "--alpha", "0", "--alpha", "0.5",
                 "--alpha", "1.5", "--lambda", "0", "--levels", "12",
                 "--functionals", "e1", "--out", str(out)])
    assert code == 0
    payload = json.loads(out.read_text())
    labels = [g["region"] for g in payload["grid"]]
    assert labels == ["comparable", "comparable", "comparable", "finite"]
    classes = [g["results"][0]["classification"] for g in payload["grid"]]
    assert all(c == "converged" for c in classes)


def test_sweep_divergent_point(tmp_path):
    out = tmp_path / "sweep.json"
    code = main(["sweep", "--map", "identity", "--p", "2", "--alpha", "-1",
                 "--lambda", "0", "--levels", "14", "--functionals", "e1",
                 "--out", str(out)])
    assert code == 0
    payload = json.loads(out.read_text())
    entry = payload["grid"][0]
    assert entry["region"] == "divergent"
    assert entry["results"][0]["classification"] == "diverging"


def test_sweep_builds_each_stage_once(monkeypatch, tmp_path):
    # the map-only stages are built once per command and every grid point
    # is evaluated against them
    built = Counter()

    def count(owner, name, key):
        original = getattr(owner, name)

        def wrapper(*args, **kwargs):
            built[key] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, name, wrapper)

    count(boundary.PairGeometry, "build", "pair")
    count(boundary.InverseGeometry, "build", "inverse")
    level_samples = PoissonExtension.level_samples

    def counting_level_samples(self, j):
        if j not in self._samples:
            built[("level", j)] += 1
        return level_samples(self, j)

    monkeypatch.setattr(PoissonExtension, "level_samples",
                        counting_level_samples)
    out = tmp_path / "sweep.json"
    code = main(["sweep", "--map", "piecewise_linear:0,0;0.5,0.25;1,1",
                 "--p", "1.5", "--p", "2", "--p", "3", "--alpha", "0",
                 "--lambda", "0", "--levels", "6",
                 "--functionals", "e1,e2,i1,i2,u,v", "--out", str(out)])
    assert code == 0
    assert len(json.loads(out.read_text())["grid"]) == 3
    assert built == Counter({"pair": 1, "inverse": 2,
                             **{("level", j): 1 for j in range(1, 7)}})


# ------------------------------------------------------- other subcommands

def test_examples_studies_pass(tmp_path):
    out = tmp_path / "examples.json"
    code = main(["examples", "--out", str(out)])
    assert code == 0
    payload = json.loads(out.read_text())
    assert {c["study"] for c in payload["checks"]} == {
        "shallow_schedule_blowup", "steep_schedule_kernel_blowup",
        "double_exp_critical_line"}
    assert all(c["ok"] for c in payload["checks"])


def test_weights_check(tmp_path):
    out = tmp_path / "w.json"
    code = main(["weights-check", "--p", "2", "--alpha", "0.5",
                 "--lambda", "1", "--trials", "20", "--out", str(out)])
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["factorization_max_rel_error"] < 1e-9
    assert payload["ap_estimate"] >= 1.0 - 1e-9


def test_weights_check_rejects_zero_trials(capsys):
    # an estimate over no disks has no value (it printed -Infinity)
    code = main(["weights-check", "--trials", "0"])
    assert code == 1
    assert "trials >= 1" in capsys.readouterr().err


def test_orlicz_check(tmp_path):
    out = tmp_path / "o.json"
    code = main(["orlicz-check", "--p", "2", "--lambda", "-1",
                 "--out", str(out)])
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["monotonicity_violations"] == 0
    assert payload["convexity_violations"] == 0
    assert 0 < payload["breakpoints"]["t1"] < payload["breakpoints"]["t2"]
