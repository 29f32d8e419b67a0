#!/usr/bin/env python3
"""Record the gate's reference values from the current program.

    python3 perfbench/make_reference.py

Writes ``perfbench/reference.json``.  The stored file was made at the
commit that introduced the benchmark; regenerating it on a later commit
would make the gate compare the program with itself, so a change that
moves a value must justify the move and re-record it in its own change.
Takes about three minutes, most of it the 60-point sweep.
"""

import contextlib
import io
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from harmext import cantor, circle_map, cli, discrete  # noqa: E402
from harmext.report import EnergyParams  # noqa: E402

import workloads as W  # noqa: E402
from gate import REFERENCE_PATH, param_key  # noqa: E402


def run_cli(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    if code != 0:
        raise SystemExit(f"harmext-lab {argv} exited {code}")
    return json.loads(buf.getvalue())


def report_refs(reports):
    return {r["functional"]: {"value": r["value"],
                              "per_level": r["per_level"],
                              "classification": r["classification"]}
            for r in reports}


def fleet_energy():
    out = {}
    for name, desc in W.FLEET.items():
        W.clear_caches(sys.modules["harmext"])
        payload = run_cli(["energy", "--map", desc, "--functionals",
                           W.ALL_FUNCTIONALS, "--levels", str(W.LEVELS),
                           "--p", "2", "--alpha", "0", "--lambda", "0"])
        out[name] = {"reports": report_refs(payload["reports"]),
                     "ratios": payload["ratios"]}
    return out


def grid_sweep():
    argv = ["sweep", "--map", W.FLEET[W.SWEEP_MAP], "--functionals",
            W.ALL_FUNCTIONALS, "--levels", str(W.LEVELS)]
    for flag, menu in (("--p", W.P_MENU), ("--alpha", W.ALPHA_MENU),
                       ("--lambda", W.LAMBDA_MENU)):
        for v in menu:
            argv += [flag, repr(float(v))]
    payload = run_cli(argv)
    return {param_key(e["p"], e["alpha"], e["lambda"]):
            {"region": e["region"], "reports": report_refs(e["results"])}
            for e in payload["grid"]}


def staircase_studies():
    examples = run_cli(["examples"])["checks"]
    m = circle_map.from_description(W.BLOCKS_MAP)
    sch = m.lift.tree.schedule
    edges = [sch.j[n - 1] for n in range(sch.n0, sch.depth + 1)]
    params = EnergyParams(*W.BLOCKS_PARAMS)
    sums = {f: discrete.block_sums(m, params, edges, f).tolist()
            for f in ("length_power", "gauge_ratio")}
    kind, param, depth = W.MODULUS_TREE
    tree = cantor.build_tree(cantor.build_schedule(kind, param, depth))
    rep = cantor.certify_modulus(tree, *W.MODULUS_FORM,
                                 rng_seed=W.FIXED_RNG_SEED)
    weights = run_cli(["weights-check", *W.WEIGHTS_ARGS])
    orlicz = {}
    for p in W.ORLICZ_P_MENU:
        for lam in W.ORLICZ_NEG_MENU + W.ORLICZ_POS_MENU:
            payload = run_cli(["orlicz-check", "--p", repr(p),
                               "--lambda", repr(lam)])
            orlicz[param_key(p, 0, lam)] = {
                k: payload[k] for k in ("doubling_sup",
                                        "derivative_ratio_sup",
                                        "comparability_sup")}
    return {"examples": examples, "block_sums": sums,
            "certify_modulus": {"sup_product": rep.sup_product,
                                "pairs_checked": rep.pairs_checked},
            "weights_check": {k: weights[k] for k in (
                "factor_exponents", "factorization_max_rel_error",
                "ap_estimate", "trials")},
            "orlicz_check": orlicz}


def main():
    ref = {"fleet_energy": fleet_energy(),
           "staircase_studies": staircase_studies(),
           "grid_sweep": grid_sweep()}
    with open(REFERENCE_PATH, "w") as fh:
        json.dump(ref, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
