"""Tests for the command-line front end."""

import json
import math
import os
import subprocess
import sys
import warnings
from collections import Counter
from pathlib import Path

import pytest

from harmext import boundary, cli
from harmext.cli import COMMANDS, FLAGS, build_parser, main, region_label
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


@pytest.mark.parametrize("desc,levels", [
    ("piecewise_linear:0,0;0.25,0.5;0.75,0.6;1,1", 23),
    ("cantor_log:s=2,depth=24", 4)])
def test_energy_levels_need_no_cell_enumeration(desc, levels, tmp_path):
    # level 23 has 2^23 cells, and the staircase of depth 24 has 2^25
    # gaps; neither is enumerated
    out = tmp_path / "energy.json"
    code = main(["energy", "--map", desc, "--functionals", "e1",
                 "--levels", str(levels), "--out", str(out)])
    assert code == 0
    (rep,) = json.loads(out.read_text())["reports"]
    assert rep["levels"] == list(range(1, levels + 1))
    assert all(math.isfinite(v) and v > 0 for v in rep["per_level"])


def test_disk_integrals_take_levels_up_to_sixteen(tmp_path):
    # i1/i2 sum the levels asked for; the identity's i1 at (2, 0, 0) is pi
    # on the whole disk, and levels 1..16 come within 1e-4 of it
    out = tmp_path / "energy.json"
    code = main(["energy", "--functionals", "i1,i2", "--p", "2",
                 "--levels", "16", "--out", str(out)])
    assert code == 0
    reports = json.loads(out.read_text())["reports"]
    assert [r["levels"] for r in reports] == [list(range(1, 17))] * 2
    assert abs(reports[0]["value"] - math.pi) < 1e-4


def test_disk_integrals_past_sixteen_levels_exit_1(capsys):
    code = main(["energy", "--functionals", "e1,i1", "--levels", "17"])
    assert code == 1
    captured = capsys.readouterr()
    assert "error: level 17 needs" in captured.err and not captured.out


def test_a_level_cap_is_checked_before_any_stage_is_built(monkeypatch,
                                                          capsys):
    # i1 comes last, after the map, pair and inverse stages would be built
    built = []
    for name, build in list(cli.STAGES.items()):
        monkeypatch.setitem(
            cli.STAGES, name,
            lambda m, levels, name=name, build=build:
            built.append(name) or build(m, levels))
    code = main(["energy", "--map", "cantor_log:s=2,depth=10",
                 "--functionals", "e1,u,v,i1", "--levels", "17"])
    assert code == 1
    assert "error: level 17 needs" in capsys.readouterr().err
    assert built == []


def test_pair_energy_keeps_its_ring_cap_past_sixteen_levels(tmp_path):
    # u is built on at most 14 rings, whatever --levels asks; e1 takes all
    out = tmp_path / "energy.json"
    code = main(["energy", "--functionals", "e1,u", "--levels", "17",
                 "--out", str(out)])
    assert code == 0
    e1, u = json.loads(out.read_text())["reports"]
    assert e1["levels"] == list(range(1, 18))
    assert u["levels"] == list(range(1, 15))


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
            "--functionals", "e1,e2"]
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


def test_a_rotation_by_whole_turns_reports_as_the_identity(tmp_path):
    # 1e300 is an integer, so the map is the identity, bit for bit
    texts = {}
    for desc in ("identity", "rotation:1e300"):
        out = tmp_path / "out.json"
        code = main(["energy", "--map", desc, "--functionals",
                     "e1,e2,i1,i2,u,v", "--levels", "6", "--out", str(out)])
        assert code == 0
        texts[desc] = out.read_text()
    assert texts["rotation:1e300"].replace("rotation:1e+300", "identity") \
        == texts["identity"]


@pytest.mark.parametrize("functional", ["v", "e1", "u"])
@pytest.mark.parametrize("levels", ["-1", "0"])
def test_levels_below_one_are_refused(levels, functional, capsys):
    # refused where the flags are resolved, whichever functional runs
    code = main(["energy", "--map", "identity", "--functionals", functional,
                 "--levels", levels])
    assert code == 1
    assert f"--levels must be >= 1, got {levels}" in capsys.readouterr().err


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


@pytest.mark.parametrize("cfg,field,want", [
    ({"levels": "5"}, "levels", list(range(1, 6))),
    ({"p": "2.5"}, "p", 2.5),
    ({"p": ["3"]}, "p", 3.0),
    ({"lambda": 1}, "lambda", 1.0),
])
def test_config_values_convert_as_flag_text(tmp_path, cfg, field, want):
    # "5" reads as --levels 5 does, and --p values are floats
    path, out = tmp_path / "run.json", tmp_path / "out.json"
    path.write_text(json.dumps({"functionals": "e1", "levels": 4, **cfg}))
    assert main(["energy", "--config", str(path), "--out", str(out)]) == 0
    (rep,) = json.loads(out.read_text())["reports"]
    assert rep[field] == want and type(rep[field]) is type(want)


@pytest.mark.parametrize("cfg,message", [
    ({"levels": 2.5}, "config key 'levels': invalid int value: '2.5'"),
    ({"levels": True}, "config key 'levels' needs a string or a number"),
    ({"functionals": ["e1"]},
     "config key 'functionals' needs a string or a number"),
    ({"p": [None]}, "config key 'p' needs a string or a number"),
    ({"alpha": "half"}, "config key 'alpha': invalid float value"),
    ({"format": "xml"}, "config key 'format': invalid choice: 'xml'"),
    ({"map": 5}, "unrecognized map description '5'"),
    ({"config": "other.json"}, "unknown config key 'config'"),
])
def test_config_values_the_flags_refuse(tmp_path, capsys, cfg, message):
    path = tmp_path / "run.json"
    path.write_text(json.dumps({"functionals": "e1", "levels": 4, **cfg}))
    assert main(["energy", "--config", str(path),
                 "--out", str(tmp_path / "out.json")]) == 1
    assert f"error: {message}" in capsys.readouterr().err


@pytest.mark.parametrize("content,message", [
    (b"{levels: 3}", "Expecting property name"),
    (b"\xff\xfe{", "'utf-8' codec can't decode byte 0xff"),
])
def test_config_file_that_is_not_json_is_refused(tmp_path, capsys, content,
                                                 message):
    path = tmp_path / "run.json"
    path.write_bytes(content)
    assert main(["energy", "--config", str(path)]) == 1
    assert f"error: {message}" in capsys.readouterr().err


def test_config_file_sets_trials(tmp_path):
    # --trials used to parse to 100, so a config value never reached it
    path, out = tmp_path / "run.json", tmp_path / "out.json"
    path.write_text(json.dumps({"trials": 3}))
    assert main(["weights-check", "--config", str(path),
                 "--out", str(out)]) == 0
    assert json.loads(out.read_text())["trials"] == 3


@pytest.mark.parametrize("functionals,message", [
    (",", "--functionals names no functional"),
    ("", "--functionals names no functional"),
    ("e1,e1", "--functionals names ['e1'] more than once"),
    ("e1,e9", "unknown functionals ['e9']"),
])
def test_functionals_must_name_each_functional_once(functionals, message,
                                                    capsys):
    assert main(["energy", "--functionals", functionals]) == 1
    assert f"error: {message}" in capsys.readouterr().err


def test_a_sweep_axis_from_a_config_file_is_not_empty(tmp_path, capsys):
    # the command line cannot give an empty axis, but a config list can
    path = tmp_path / "run.json"
    path.write_text(json.dumps({"p": [], "functionals": "e1", "levels": 3}))
    assert main(["sweep", "--config", str(path),
                 "--out", str(tmp_path / "out.json")]) == 1
    assert "error: --p names no value" in capsys.readouterr().err


def test_a_sweep_axis_names_each_value_once(tmp_path, capsys):
    # 2 and 2.0 are one point of the grid
    assert main(["sweep", "--p", "2", "--p", "2.0", "--functionals", "e1",
                 "--levels", "3", "--out", str(tmp_path / "out.json")]) == 1
    assert "error: --p names [2.0] more than once" in capsys.readouterr().err


# ------------------------------------------------------------ the parser

# a value that each flag's type and choices accept
FLAG_TEXT = {"map": "identity", "p": "2", "alpha": "0", "lambda": "0",
             "levels": "3", "functionals": "e1", "trials": "5",
             "out": "out.json", "seed": "1", "format": "csv",
             "config": "run.json"}
NOT_READ = [(command, flag) for command in sorted(COMMANDS)
            for flag in FLAGS if flag not in COMMANDS[command][2]]


@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_each_command_takes_exactly_the_flags_it_reads(command):
    flags = COMMANDS[command][2]
    parser = build_parser()
    for flag in flags:
        parser.parse_args([command, f"--{flag}", FLAG_TEXT[flag]])
    dests = {FLAGS[flag][0].get("dest", flag) for flag in flags}
    assert set(vars(parser.parse_args([command]))) == {"command"} | dests


def test_settable_values_per_command():
    parser = build_parser()
    assert {c: len(vars(parser.parse_args([c]))) - 1 for c in COMMANDS} == {
        "energy": 9, "sweep": 9, "examples": 3, "weights-check": 8,
        "orlicz-check": 5}


@pytest.mark.parametrize("command,flag", NOT_READ)
def test_a_flag_the_command_does_not_read_is_refused(command, flag, capsys):
    assert main([command, f"--{flag}", FLAG_TEXT[flag]]) == 1
    assert f"unrecognized arguments: --{flag}" in capsys.readouterr().err


@pytest.mark.parametrize("command,flag", NOT_READ)
def test_a_config_key_the_command_does_not_read_is_refused(
        command, flag, tmp_path, capsys):
    path = tmp_path / "run.json"
    path.write_text(json.dumps({flag: FLAG_TEXT[flag]}))
    assert main([command, "--config", str(path)]) == 1
    assert f"error: unknown config key {flag!r}" in capsys.readouterr().err


@pytest.mark.parametrize("argv,message", [
    (["energy", "--levels", "x"],
     "argument --levels: invalid int value: 'x'"),
    (["energy", "--format", "xml"],
     "argument --format: invalid choice: 'xml'"),
    (["energy", "--p"], "argument --p: expected one argument"),
    ([], "the following arguments are required: command"),
])
def test_usage_errors_exit_1(argv, message, capsys):
    # returned, not raised, so an in-process caller gets the code
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert f"error: {message}" in err and "usage: harmext-lab" in err


@pytest.mark.parametrize("argv,dest,value", [
    (["energy", "--functionals", "e1", "--alpha", "-1e-1"], "alpha", -0.1),
    (["energy", "--functionals", "e1", "--lambda", "-5E-1"], "lambda", -0.5),
    (["sweep", "--functionals", "e1", "--lambda", "-.5e+0", "--lambda",
      "1"], "lambda", -0.5),
])
def test_negative_values_in_scientific_notation_follow_their_flag(
        argv, dest, value, capsys):
    # argparse alone reads only -d and -d.d as negative numbers, and took
    # -1e-1 for a flag: "expected one argument"
    assert main(argv + ["--levels", "4"]) == 0
    payload = json.loads(capsys.readouterr().out)
    first = payload["reports"][0] if "reports" in payload \
        else payload["grid"][0]
    assert first[dest] == value


def test_help_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["energy", "--help"])
    assert exc.value.code == 0
    assert "--functionals" in capsys.readouterr().out


def test_energy_v_of_a_map_with_a_steep_piece(tmp_path):
    # a 1e-8-wide piece rising by 0.8: the grid of the inverse cannot
    # match the target values on it to better than about 2e-5
    out = tmp_path / "v.json"
    code = main(["energy", "--map",
                 "piecewise_linear:0,0;0.5,0.1;0.50000001,0.9;1,1",
                 "--functionals", "v", "--out", str(out)])
    assert code == 0
    (rep,) = json.loads(out.read_text())["reports"]
    assert math.isfinite(rep["value"])


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

    def counting_level_samples(self, max_level):
        if max_level not in self._samples:
            built[("dh", max_level)] += 1
        return level_samples(self, max_level)

    monkeypatch.setattr(PoissonExtension, "level_samples",
                        counting_level_samples)
    out = tmp_path / "sweep.json"
    code = main(["sweep", "--map", "piecewise_linear:0,0;0.5,0.25;1,1",
                 "--p", "1.5", "--p", "2", "--p", "3", "--alpha", "0",
                 "--lambda", "0", "--levels", "6",
                 "--functionals", "e1,e2,i1,i2,u,v", "--out", str(out)])
    assert code == 0
    assert len(json.loads(out.read_text())["grid"]) == 3
    assert built == Counter({"pair": 1, "inverse": 2, ("dh", 6): 1})


@pytest.mark.parametrize("desc", [
    "piecewise_linear:0,0;0.25,0.5;0.75,0.6;1,1", "cantor_log:s=2,depth=10"])
def test_energy_reports_are_a_one_point_sweep(desc, tmp_path):
    # energy is the one-point case of the sweep's loop: its reports are
    # the sweep point's results, byte for byte as JSON
    argv = ["--map", desc, "--p", "2.5", "--alpha", "0.25",
            "--lambda", "-0.5", "--levels", "8",
            "--functionals", "e1,e2,i1,i2,u,v"]
    one, grid = tmp_path / "energy.json", tmp_path / "sweep.json"
    assert main(["energy", *argv, "--out", str(one)]) == 0
    assert main(["sweep", *argv, "--out", str(grid)]) == 0
    [point] = json.loads(grid.read_text())["grid"]
    reports = json.loads(one.read_text())["reports"]
    assert len(reports) == 6
    assert json.dumps(reports, sort_keys=True) == \
        json.dumps(point["results"], sort_keys=True)


@pytest.mark.parametrize("command", ["energy", "sweep"])
def test_functionals_are_checked_before_the_parameters(command, capsys):
    # both commands check --functionals before any parameter point
    assert main([command, "--p", "0.5", "--functionals", "bogus"]) == 1
    err = capsys.readouterr().err
    assert "error: unknown functionals ['bogus']" in err and "p=" not in err


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


def test_weights_check_output_is_fixed_by_its_seed(tmp_path):
    # the one command that draws random numbers, and the one that reads
    # --seed
    argv = ["weights-check", "--p", "2", "--alpha", "0.5", "--lambda", "1",
            "--trials", "5"]
    files = {name: tmp_path / f"{name}.json" for name in ("a", "b", "c")}
    for name, seed in (("a", "0"), ("b", "0"), ("c", "1")):
        assert main(argv + ["--seed", seed, "--out", str(files[name])]) == 0
    assert files["a"].read_bytes() == files["b"].read_bytes()
    a, c = (json.loads(files[name].read_text()) for name in ("a", "c"))
    assert (a["seed"], c["seed"]) == (0, 1)
    assert a["ap_estimate"] != c["ap_estimate"]


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


def test_orlicz_check_refuses_a_gauge_past_the_float_range(capsys):
    # at p = 2, Phi(2e6) = e^711.1 at lambda = 255 and e^1098.9 at 400:
    # every sampled check would read inf or NaN, so none runs
    for lam in ("255", "400"):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["orlicz-check", "--p", "2", "--lambda", lam])
        assert code == 1
        assert "passes the float range" in capsys.readouterr().err
    # just inside the range every check is finite
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["orlicz-check", "--p", "2", "--lambda", "254.5"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert math.isfinite(payload["doubling_sup"])
    assert payload["convexity_violations"] == 0


def test_orlicz_check_refuses_a_tail_check_past_the_float_range(capsys):
    # the breakpoint search of a lambda < 0 gauge samples Phi' up to
    # t = 1e12, where t^(p-1) p log(e+t) passes the float range from
    # p = 26.45 on, whatever lambda
    for p, lam in (("26.5", "-0.5"), ("40", "-0.5"), ("26.46", "-10")):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["orlicz-check", "--p", p, "--lambda", lam])
        assert code == 1
        err = capsys.readouterr().err
        assert "Phi'(1e+12)" in err and "past the float range" in err
        assert f"p={float(p)}, lambda={float(lam)}" in err
    # just inside the range the search runs without a warning
    for lam in ("-0.5", "-10"):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["orlicz-check", "--p", "26.4", "--lambda", lam]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert 0 < payload["breakpoints"]["t1"] < payload["breakpoints"]["t2"]


def test_orlicz_check_refuses_a_huge_negative_lambda(capsys):
    # lambda t and lambda^2 at t = 1e12 pass the float range in Phi' and
    # Phi'' before t^(p-1) p log(e+t) does; these overflowed before they
    # exited 1
    for p, lam in (("26.44", "-3e7"), ("26", "-1e15"), ("2", "-1e300")):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["orlicz-check", f"--p={p}", f"--lambda={lam}"])
        assert code == 1
        err = capsys.readouterr().err
        assert "Phi'(1e+12)" in err and "past the float range" in err
        assert f"p={float(p)}, lambda={float(lam)}" in err


@pytest.mark.parametrize("argv", [
    ["orlicz-check", "--p=nan", "--lambda", "0"],
    ["orlicz-check", "--lambda=inf"],
    ["weights-check", "--alpha=nan", "--trials", "5"],
    ["weights-check", "--lambda=inf", "--trials", "5"],
    ["weights-check", "--p=nan", "--trials", "5"],
])
def test_check_commands_refuse_non_finite_input(argv, capsys):
    # refused before any computation: no warning, no traceback
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(argv)
    assert code == 1
    assert "finite" in capsys.readouterr().err


# ------------------------------------------------------------- cold start

# scipy is imported only by V's kernel; this process holds it already
# (tests/test_boundary.py imports scipy.integrate), so a fresh one runs
# every command without v, then v
COLD_START = """
import sys
from harmext.cli import main
from harmext.circle_map import piecewise_linear
from harmext.poisson import PoissonExtension

out, light = sys.argv[1], "e1,e2,i1,i2,u"
for argv in (["energy", "--functionals", light, "--levels", "4"],
             ["sweep", "--functionals", light, "--levels", "4",
              "--p", "2", "--p", "3"],
             ["examples"], ["weights-check", "--trials", "5"],
             ["orlicz-check"]):
    assert main(argv + ["--out", out]) == 0, argv
ext = PoissonExtension(piecewise_linear([(0, 0), (0.5, 0.25), (1, 1)]))
ext.extend(0.5)
ext.wirtinger(0.5)
print("scipy" in sys.modules)
assert main(["energy", "--functionals", "v", "--levels", "4",
             "--out", out]) == 0
print("scipy" in sys.modules)
"""


# the first np.unique of a process imports numpy.ma (14-19 ms, 1.6 MB);
# the two check commands sort and mask instead
CHECKS_COLD_START = """
import sys
from harmext.cli import main

for argv in (["weights-check", "--trials", "5"], ["orlicz-check"]):
    assert main(argv + ["--out", sys.argv[1]]) == 0, argv
print("numpy.ma" in sys.modules)
"""


def _run_cold(script, tmp_path):
    """The words a fresh interpreter prints running ``script``."""
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    done = subprocess.run([sys.executable, "-c", script,
                           str(tmp_path / "out")], env=env,
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    return done.stdout.split()


def test_only_v_loads_scipy(tmp_path):
    assert _run_cold(COLD_START, tmp_path) == ["False", "True"]


def test_check_commands_leave_numpy_ma_unloaded(tmp_path):
    assert _run_cold(CHECKS_COLD_START, tmp_path) == ["False"]
