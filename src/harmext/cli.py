"""Command-line front end for the energy laboratory.

Subcommands:

    energy        evaluate selected functionals for one map / parameter grid
    sweep         parameter sweep with region labels and classifications
    examples      run the built-in counterexample studies
    weights-check estimate an A_p constant and verify the factorization
    orlicz-check  resolve gauge breakpoints and verify gauge properties

Flags each subcommand reads (``cli.COMMANDS``; any other flag is a usage
error):

    energy, sweep  --map --p --alpha --lambda --levels --functionals
                   --out --format --config
    examples       --out --format --config
    weights-check  --p --alpha --lambda --trials --seed
                   --out --format --config
    orlicz-check   --p --lambda --out --format --config

Only ``sweep`` takes several values of --p/--alpha/--lambda.

Exit codes: 0 success, 1 bad configuration / usage, 2 an ``examples``
signature check failed (observed behaviour contradicts the expected one).

Map grammar (``--map``):

    identity
    rotation:<rho>
    piecewise_linear:<x0>,<y0>;<x1>,<y1>;...
    cantor_log:s=<s>,depth=<N>
    cantor_loglog:p=<p>,depth=<N>

Outputs are deterministic: JSON is emitted with sorted keys and CSV rows
in a fixed order.  ``weights-check`` is the one command that draws random
numbers, and its ``--seed`` fixes them.
"""

from __future__ import annotations

import argparse
import csv
import io
import itertools
import json
import re
import sys

import numpy as np

from . import boundary, cantor, discrete
from .circle_map import from_description
from .errors import LabError
from .orlicz import resolve_breakpoints, verify_properties
from .poisson import PoissonExtension, check_level_terms
from .report import SCHEMA_VERSION, EnergyParams
from .weights import WeightSpec, estimate_ap_constant, jones_factors, weight

# The pair stage (``u``) builds at most this many rings, whatever --levels
# asks; the disk stage's levels are capped by ``poisson`` alone.
MAX_PAIR_RINGS = 14

# Every command computes in two stages.  A stage holds the map-only data
# of some functionals and is built at most once per command, when a
# functional first needs it: stage name -> build(circle_map, levels).
STAGES = {
    "map": lambda m, levels: m,
    "poisson": lambda m, levels: PoissonExtension(m),
    "pair": lambda m, levels: boundary.PairGeometry.build(
        m, diagonal_rings=min(levels, MAX_PAIR_RINGS)),
    "inverse": lambda m, levels: boundary.inverse_kernel_geometries(m),
}

# Functional key -> (stage name, evaluate(stage, params, levels)); the
# evaluation runs once per parameter point against the built stage.
FUNCTIONALS = {
    "e1": ("map", lambda m, params, levels:
           discrete.length_power_energy(m, params, levels)),
    "e2": ("map", lambda m, params, levels:
           discrete.gauge_ratio_energy(m, params, levels)),
    "i1": ("poisson", lambda ext, params, levels:
           ext.kernel_weight_integral(params, levels)),
    "i2": ("poisson", lambda ext, params, levels:
           ext.kernel_gauge_integral(params, levels)),
    "u": ("pair", lambda geom, params, levels:
          boundary.evaluate_gauge_pair(geom, params)),
    "v": ("inverse", lambda geoms, params, levels:
          boundary.evaluate_inverse_kernel(geoms, params)),
}


def region_label(p: float, alpha: float, lam: float) -> str:
    """Predicted behaviour of the weighted integrals for a homeomorphism.

    comparable: alpha in (-1, p-1) -- the regime where the integral,
    discrete and boundary energies control each other; finite: above the
    critical exponent alpha = p-2 (or on it with lam < -1) the energies
    are finite outright; divergent: alpha < -1, or alpha = -1 with
    lam >= -1; the remaining edge (alpha = -1, lam < -1) is uncovered.
    """
    if -1 < alpha < p - 1:
        return "comparable"
    if alpha > p - 2 or (alpha == p - 2 and lam < -1):
        return "finite"
    if alpha < -1 or (alpha == -1 and lam >= -1):
        return "divergent"
    return "uncovered"


def _emit(args, payload: dict, rows: list):
    if args.format == "json":
        text = json.dumps(payload, sort_keys=True, indent=2) + "\n"
    else:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(
            ["functional", "j", "level_sum", "cumulative", "classification"])
        writer.writerows(rows)
        text = buf.getvalue()
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _wanted_functionals(args) -> list:
    """The requested functional keys, checked once per command, with the
    level cap of each one's stage."""
    wanted = [f.strip() for f in args.functionals.split(",") if f.strip()]
    bad = [f for f in wanted if f not in FUNCTIONALS]
    if bad:
        raise LabError(f"unknown functionals {bad}; choose from "
                       f"{sorted(FUNCTIONALS)}")
    if not wanted:
        raise LabError("--functionals names no functional")
    twice = sorted({f for f in wanted if wanted.count(f) > 1})
    if twice:
        raise LabError(f"--functionals names {twice} more than once")
    # the disk stage's level cap, before any stage of the command is built
    if any(FUNCTIONALS[f][0] == "poisson" for f in wanted):
        check_level_terms(args.levels)
    return wanted


def _compute_reports(circle_map, stages: dict, wanted: list,
                     params: EnergyParams, levels: int) -> list:
    """The wanted functionals at one parameter point.

    ``stages`` is shared by every point of a command; a stage is built when
    a functional first needs it, so the map-only work of the first point
    happens in the same order as in a single ``energy`` run.
    """
    reports = []
    for f in wanted:
        name, evaluate = FUNCTIONALS[f]
        if name not in stages:
            stages[name] = STAGES[name](circle_map, levels)
        reports.append(evaluate(stages[name], params, levels))
    return reports


def _ratio_summary(reports, p: float) -> dict:
    """Ratios of every computed functional against the dyadic length energy.

    The inverse-kernel value enters through its (p-1)-th root so that it is
    commensurable with the others.
    """
    values = {r.functional: r.value for r in reports}
    base = values.get("length_power")
    out = {}
    if not base or base <= 0:
        return out
    for name, val in values.items():
        if name == "length_power":
            continue
        if name == "inverse_kernel":
            out["inverse_kernel_root_over_length_power"] = \
                float(max(val, 0.0) ** (1.0 / (p - 1.0)) / base)
        else:
            out[f"{name}_over_length_power"] = float(val / base)
    return out


def _grid_reports(args):
    """The map, and (params, reports) per point of the parameter grid, in
    flag order (p, then alpha, then lambda).

    The functionals and their level cap are checked before any point, and
    each point's parameters just before its reports; ``energy`` is the
    one-point case.
    """
    circle_map = from_description(args.map)
    wanted, stages, points = _wanted_functionals(args), {}, []
    for p, alpha, lam in itertools.product(args.p, args.alpha, args.lam):
        params = EnergyParams(p, alpha, lam)
        points.append((params, _compute_reports(
            circle_map, stages, wanted, params, args.levels)))
    return circle_map, points


def cmd_energy(args) -> int:
    circle_map, [(params, reports)] = _grid_reports(args)
    payload = {
        "schema_version": SCHEMA_VERSION,
        "command": "energy",
        "map": circle_map.description,
        "reports": [r.to_json_dict() for r in reports],
        "ratios": _ratio_summary(reports, params.p),
    }
    rows = [row for r in reports for row in r.to_csv_rows()]
    _emit(args, payload, rows)
    return 0


def cmd_sweep(args) -> int:
    circle_map, points = _grid_reports(args)
    payload = {
        "schema_version": SCHEMA_VERSION,
        "command": "sweep",
        "map": circle_map.description,
        "grid": [{
            "p": params.p, "alpha": params.alpha, "lambda": params.lam,
            "region": region_label(params.p, params.alpha, params.lam),
            "results": [r.to_json_dict() for r in reports],
        } for params, reports in points],
    }
    rows = [row for _, reports in points
            for r in reports for row in r.to_csv_rows()]
    _emit(args, payload, rows)
    return 0


def cmd_examples(args) -> int:
    checks = []

    # Study 1: shallow power schedule, p in (1, 2).  The boundary kernel
    # integral stays bounded while the dyadic length energy grows along
    # schedule blocks like 2^(n (1 - p + 1/s)).
    p, s = 1.5, 4.0 / 3.0
    m = cantor.make_staircase_map("power", s, 11)
    sch = m.lift.schedule
    edges = [sch.j[n - 1] for n in range(sch.n0, sch.n0 + 5)]
    B = discrete.block_sums(m, EnergyParams(p, p - 2, 0.0), edges)
    slope = float(np.polyfit(np.arange(B.size), np.log2(B), 1)[0])
    predicted = 1.0 - p + s ** -1
    checks.append({
        "study": "shallow_schedule_blowup",
        "block_sums": [float(b) for b in B],
        "fitted_block_exponent": slope,
        "predicted_block_exponent": predicted,
        "ok": bool(abs(slope - predicted) <= 0.25 * abs(predicted)),
    })

    # Study 2: steep power schedule, p > 2.  The dyadic energy converges
    # while the kernel-integral surrogate sum j_n 2^-n has unbounded,
    # fast-growing partial sums.
    p2, s2 = 3.0, 2.0 / 3.0
    m2 = cantor.make_staircase_map("power", s2, 8)
    sch2 = m2.lift.schedule
    edges2 = [sch2.j[n - 1] for n in range(sch2.n0, sch2.n0 + 5)]
    B2 = discrete.block_sums(m2, EnergyParams(p2, p2 - 2, 0.0), edges2)
    ratios = B2[1:] / B2[:-1]
    part = cantor.gap_rise_partial_sums(sch2, sch2.n0, 4)
    growth = part[1:] / part[:-1] - 1.0
    checks.append({
        "study": "steep_schedule_kernel_blowup",
        "e1_block_sums": [float(b) for b in B2],
        "e1_block_ratios": [float(r) for r in ratios],
        "surrogate_partials": [float(x) for x in part],
        "surrogate_growth": [float(g) for g in growth],
        "ok": bool(np.all(ratios <= 0.9) and np.all(growth[:3] >= 0.5)),
    })

    # Study 3: doubly exponential schedule at the critical exponent pair
    # (p, p-2, -1): identity stays finite, the staircase map's block sums
    # do not decay.
    p3 = 2.0
    m3 = cantor.make_staircase_map("double_exp", p3, 3)
    sch3 = m3.lift.schedule
    edges3 = list(sch3.j)
    B3 = discrete.block_sums(m3, EnergyParams(p3, p3 - 2, -1.0), edges3)
    ident = from_description("identity")
    e1_id = discrete.length_power_energy(
        ident, EnergyParams(p3, p3 - 2, -1.0), 20)
    checks.append({
        "study": "double_exp_critical_line",
        "identity_classification": e1_id.classification,
        "block_sums": [float(b) for b in B3],
        "ok": bool(e1_id.classification == "converged"
                   and B3[1] >= 0.5 * B3[0]),
    })

    payload = {
        "schema_version": SCHEMA_VERSION,
        "command": "examples",
        "checks": checks,
    }
    rows = [(c["study"], 0, 0.0, 0.0, "ok" if c["ok"] else "failed")
            for c in checks]
    _emit(args, payload, rows)
    return 0 if all(c["ok"] for c in checks) else 2


def cmd_weights_check(args) -> int:
    p, alpha, lam = args.p[0], args.alpha[0], args.lam[0]
    spec = WeightSpec(alpha=alpha, lam=lam)
    w1, w2 = jones_factors(p, alpha, lam)
    radii = np.linspace(0.05, 2.5, 64)
    recon = weight(w1, radii) * weight(w2, radii) ** (1 - p)
    direct = weight(spec, radii)
    mask = np.isfinite(direct) & (direct > 0)
    fact_err = float(np.max(np.abs(recon[mask] / direct[mask] - 1.0)))
    est = estimate_ap_constant(spec, p, trials=args.trials,
                               rng_seed=args.seed)
    payload = {
        "schema_version": SCHEMA_VERSION,
        "command": "weights-check",
        "p": p, "alpha": alpha, "lambda": lam,
        "seed": args.seed,
        "factor_exponents": {
            "alpha1": w1.alpha, "lambda1": w1.lam,
            "alpha2": w2.alpha, "lambda2": w2.lam,
        },
        "factorization_max_rel_error": fact_err,
        "ap_estimate": est.value,
        "trials": est.trials,
    }
    rows = [("ap_estimate", 0, est.value, est.value, "estimated")]
    _emit(args, payload, rows)
    return 0


def cmd_orlicz_check(args) -> int:
    p, lam = args.p[0], args.lam[0]
    spec = resolve_breakpoints(p, lam)
    rep = verify_properties(spec)
    payload = {
        "schema_version": SCHEMA_VERSION,
        "command": "orlicz-check",
        "p": p, "lambda": lam,
        "breakpoints": {"t1": spec.t1, "t2": spec.t2, "k": spec.k_slope},
        "monotonicity_violations": rep.monotonicity_violations,
        "convexity_violations": rep.convexity_violations,
        "doubling_sup": rep.doubling_sup,
        "derivative_ratio_sup": rep.derivative_ratio_sup,
        "quasi_power_sup": {f"{k:g}": v
                            for k, v in rep.quasi_power_sup.items()},
        "comparability_sup": rep.comparability_sup,
    }
    rows = [("orlicz_doubling", 0, rep.doubling_sup, rep.doubling_sup,
             "checked")]
    _emit(args, payload, rows)
    return 0


# Flag -> (argparse keywords, fallback).  Every flag parses to None, so a
# config file can fill what the command line left out; the fallback
# fills what neither gave.
FLAGS = {
    "map": ({"help": "map description (see module docstring)"}, "identity"),
    "p": ({"type": float, "action": "append"}, (2.0,)),
    "alpha": ({"type": float, "action": "append"}, (0.0,)),
    "lambda": ({"dest": "lam", "type": float, "action": "append"}, (0.0,)),
    "levels": ({"type": int}, 12),
    "functionals": ({}, "e1,e2"),
    "trials": ({"type": int}, 100),
    "out": ({}, None),
    "seed": ({"type": int}, 0),
    "format": ({"choices": ("json", "csv")}, "json"),
    "config": ({"help": "JSON file supplying defaults for the flags"}, None),
}

_OUTPUT = ("out", "format", "config")
_ENERGY = ("map", "p", "alpha", "lambda", "levels", "functionals") + _OUTPUT

# Subcommand -> (run(args), help, the flags it reads).  ``run`` looks its
# handler up when called, as STAGES and FUNCTIONALS look up theirs.
COMMANDS = {
    "energy": (lambda args: cmd_energy(args),
               "evaluate functionals at one point", _ENERGY),
    "sweep": (lambda args: cmd_sweep(args),
              "evaluate over a parameter grid", _ENERGY),
    "examples": (lambda args: cmd_examples(args),
                 "run the counterexample studies", _OUTPUT),
    "weights-check": (lambda args: cmd_weights_check(args),
                      "A_p estimate + factorization",
                      ("p", "alpha", "lambda", "trials", "seed") + _OUTPUT),
    "orlicz-check": (lambda args: cmd_orlicz_check(args),
                     "gauge breakpoints + properties",
                     ("p", "lambda") + _OUTPUT),
}


class _Parser(argparse.ArgumentParser):
    """Reports a usage error as a LabError, so that it exits 1, and reads
    ``-1e-1`` as a negative number, as argparse reads -1 and -0.1."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(
            r"^-(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?$")

    def error(self, message):
        self.print_usage(sys.stderr)
        raise LabError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="harmext-lab",
        description="numerical laboratory for circle-map energy functionals")
    # subparsers are made by the parser's own class
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text, flags) in COMMANDS.items():
        sp = sub.add_parser(name, help=help_text)
        for flag in flags:
            sp.add_argument(f"--{flag}", default=None, **FLAGS[flag][0])
    return parser


def _config_value(flag: str, val):
    """A config value converted as its text would be on the command line:
    by the flag's own ``type``, then checked against its ``choices``."""
    if isinstance(val, bool) or not isinstance(val, (str, int, float)):
        raise LabError(f"config key {flag!r} needs a string or a number, "
                       f"got {json.dumps(val)}")
    kwargs, text = FLAGS[flag][0], str(val)
    kind, choices = kwargs.get("type", str), kwargs.get("choices")
    try:
        out = kind(text)
    except ValueError:
        raise LabError(f"config key {flag!r}: invalid "
                       f"{kind.__name__} value: {text!r}") from None
    if choices is not None and out not in choices:
        raise LabError(f"config key {flag!r}: invalid choice: {out!r} "
                       f"(choose from {', '.join(map(repr, choices))})")
    return out


def _apply_config(args, flags):
    """Fill each flag the command line left out: from the config file if
    it names the flag, else with the fallback; then check the values."""
    cfg = {}
    if args.config:
        with open(args.config, encoding="utf-8") as fh:
            cfg = json.load(fh)
        if not isinstance(cfg, dict):
            raise LabError("config file must contain a JSON object")
    for key in cfg:
        # a config file names no further config file
        if key not in flags or key == "config":
            raise LabError(f"unknown config key {key!r}")
    for flag in flags:
        kwargs, val = FLAGS[flag]
        dest = kwargs.get("dest", flag)
        repeatable = kwargs.get("action") == "append"
        if getattr(args, dest) is not None:
            val = getattr(args, dest)
        elif flag in cfg and repeatable:
            val = [_config_value(flag, v) for v in (
                cfg[flag] if isinstance(cfg[flag], list) else [cfg[flag]])]
        elif flag in cfg:
            val = _config_value(flag, cfg[flag])
        if repeatable:
            # only a sweep takes several values of a parameter, each once
            if args.command != "sweep" and len(val) != 1:
                raise LabError(
                    f"this command takes exactly one --{flag} value")
            if not val:
                raise LabError(f"--{flag} names no value")
            twice = sorted({v for v in val if val.count(v) > 1})
            if twice:
                raise LabError(f"--{flag} names {twice} more than once")
        setattr(args, dest, val)
    if "levels" in flags and args.levels < 1:
        raise LabError(f"--levels must be >= 1, got {args.levels}")


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        run, _, flags = COMMANDS[args.command]
        _apply_config(args, flags)
        return run(args)
    except (LabError, OSError, json.JSONDecodeError,
            UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
