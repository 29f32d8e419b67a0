"""The three benchmark workloads.

Each workload builds its inputs from the seed (untimed), then runs rounds:
one round is the whole workload once, against the public ``harmext`` API
and the ``harmext-lab`` CLI (called in-process through ``cli.main``).
Every output of a round goes through the gate in ``gate.py``.

A *unit* is the verified work the workload exists for:

* ``fleet_energy``: one functional report, one block-sum series, or one
  staircase check completed;
* ``grid_sweep``: one functional report;
* ``pointwise``: one point evaluation (a value of h, or a pair h_z, h_zbar).

Each unit is also one attempted operation; a unit fails when the program
raises a ``LabError`` (``PrecisionError`` included), exits non-zero, or the
gate rejects its value.  Failures are never retried or skipped.
"""

from __future__ import annotations

import contextlib
import io
import json
import random

import numpy as np

from gate import (BoundarySeries, anchor_problems, check_reports, close,
                  param_key, point_problems)

# the five-map fleet of tests/conftest.py, by map description
FLEET = {
    "identity": "identity",
    "rotation": "rotation:0.3",
    "pl_mild": "piecewise_linear:0,0;0.5,0.25;1,1",
    "pl_kinked": "piecewise_linear:0,0;0.25,0.5;0.75,0.6;1,1",
    "staircase_s2": "cantor_log:s=2,depth=10",
}
ROTATIONS = {"identity": 0.0, "rotation": 0.3}
ALL_FUNCTIONALS = "e1,e2,i1,i2,u,v"
LEVELS = 14

# grid_sweep draws its grid from these menus; reference.json holds every
# point of their product.  An integer lambda makes the kernel table of
# ``v`` about ten times cheaper, which would swing the sweep time by seed,
# so lambda is drawn from two non-integers of either sign.
SWEEP_MAP = "pl_kinked"
P_MENU = (1.5, 2.0, 2.5, 3.0)
ALPHA_MENU = (-0.5, -0.25, 0.0, 0.25, 0.5)
LAMBDA_MENU = (-0.5, 0.5)

# pointwise: the staircase batches are 2 points (a 4-point batch peaks near
# 550 MB, 16 points 1.9 GB); the other maps converge with far fewer nodes.
# With 4-point batches a round took about 15 s, so a run held one round and
# its time followed whatever the shared host did during it; 2-point batches
# make a round about 10 s, and the median over the rounds of a run drops a
# round slowed by a busy spell.  On the staircase the node doubling stops
# (or hits its cap) erratically, so its cost and its PrecisionErrors swing
# with the angles, and no affordable run averages that out: its points come
# from a fixed stream, the same in every run, while the points of the other
# four maps come from the seed.  The stream is chosen by a rule, over numpy
# streams 0-9 (four radii, extend and wirtinger each): among the streams at
# the median failure count, the one whose cost is nearest the median cost.
# Measured at the seed commit with 2-point batches: wirtinger fails on no
# radius for 2 streams, 1 radius for 5, 2 radii for 3; the costs range over
# 5.9-10.7 s, median 8.0 s.  Stream 3 fails at |z| = 0.3 (2 of the 16
# staircase point units) and costs 7.8 s.  (With 4-point batches the median
# was 2 failing radii: a larger batch fails more often, since the doubling
# stops only when every point of the batch has converged.)
RADII = (0.3, 0.6, 0.8, 0.9)
BATCH = {"staircase_s2": 2}
BATCH_DEFAULT = 8
FIXED_POINT_STREAM = {"staircase_s2": 3}

# the staircase studies that close each fleet_energy round
BLOCKS_MAP = "cantor_log:s=2,depth=14"
BLOCKS_PARAMS = (2.0, 0.0, 0.0)
MODULUS_TREE = ("power", 2.0, 12)
MODULUS_FORM = ("log", 1.0)
# The random disks of weights-check and the random pairs of
# certify_modulus change their cost by up to 2x from one seed to the next,
# so both use one fixed seed (and are compared with its reference); the
# run seed picks the orlicz-check parameters.
FIXED_RNG_SEED = 0
WEIGHTS_ARGS = ("--p", "2", "--alpha", "0.5", "--lambda", "1",
                "--trials", "200", "--seed", str(FIXED_RNG_SEED))
ORLICZ_P_MENU = (1.5, 2.0, 3.0)
ORLICZ_NEG_MENU = (-1.5, -0.5)
ORLICZ_POS_MENU = (0.5, 1.5)


class Tally:
    """Units attempted, failed and verified, plus what went wrong."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.wrong = 0            # failures that are wrong values or bugs
        self.output_bytes = 0
        self.problems: list = []

    @property
    def verified(self) -> int:
        return self.attempted - self.failed

    def add(self, units: int, failed: int = 0, wrong: int = 0,
            problems=()):
        self.attempted += units
        self.failed += failed
        self.wrong += wrong
        self.problems.extend(problems)


def call_cli(harmext, argv, tally):
    """Run ``harmext-lab`` in-process; return (exit code, stdout text)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = harmext.cli.main(list(argv))
    text = out.getvalue()
    tally.output_bytes += len(text.encode())
    if code != 0:
        tally.problems.append(f"harmext-lab {argv[0]} exited {code}: "
                              f"{err.getvalue().strip()[:200]}")
    return code, text


def _payload(code, text):
    if code != 0:
        return None
    try:
        return json.loads(text)
    except ValueError:
        return None


def _add_reports(tally, per_functional: dict):
    """One unit per functional; a functional with problems fails."""
    bad = [f for f, probs in per_functional.items() if probs]
    tally.add(len(per_functional), failed=len(bad), wrong=len(bad),
              problems=[p for f in bad for p in per_functional[f]])


class Workload:
    name = ""

    def __init__(self, harmext, seed: int, reference: dict):
        self.harmext = harmext
        self.seed = seed
        self.ref = reference

    def map_descriptions(self) -> list:
        """Maps the workload builds; the set-up probe builds them too."""
        return list(FLEET.values())

    def run_round(self, tally: Tally):
        raise NotImplementedError


class FleetEnergy(Workload):
    """Sample stage, then the staircase studies.

    Every sample set is built once and used once.  The staircase studies
    cover the cantor, discrete, orlicz and weights layers; as a workload of
    their own they spread too much from run to run (see README.md).
    """

    name = "fleet_energy"

    def __init__(self, harmext, seed, reference):
        super().__init__(harmext, seed, reference)
        self.order = sorted(FLEET)
        random.Random(seed).shuffle(self.order)
        cm = harmext.circle_map
        self.series = {n: BoundarySeries(cm.from_description(FLEET[n]))
                       for n in FLEET}
        self.studies = StaircaseStudies(harmext, seed, reference)

    def map_descriptions(self):
        return list(FLEET.values()) + [BLOCKS_MAP]

    def run_round(self, tally):
        self._energies(tally)
        self.studies.run_round(tally)

    def _energies(self, tally):
        for name in self.order:
            argv = ["energy", "--map", FLEET[name], "--functionals",
                    ALL_FUNCTIONALS, "--levels", str(LEVELS),
                    "--p", "2", "--alpha", "0", "--lambda", "0"]
            code, text = call_cli(self.harmext, argv, tally)
            want = self.ref["fleet_energy"][name]
            payload = _payload(code, text)
            if payload is None:
                tally.add(len(want["reports"]), failed=len(want["reports"]))
                continue
            reports = payload.get("reports", [])
            per = check_reports(reports, want["reports"], name)
            by_name = {r.get("functional"): r for r in reports}
            anchors = anchor_problems(
                name, {f: by_name[f] for f in per if f in by_name},
                self.series[name], (2, 0, 0), ROTATIONS.get(name))
            for f, probs in anchors.items():
                per[f].extend(probs)
            ratios = payload.get("ratios", {})
            if sorted(ratios) != sorted(want["ratios"]) or not close(
                    [ratios[k] for k in sorted(ratios)],
                    [want["ratios"][k] for k in sorted(ratios)]):
                per[next(iter(per))].append(f"{name}: ratios differ")
            _add_reports(tally, per)


def sweep_grid(seed: int):
    """Seeded 3 x 3 x 1 grid: p and alpha vary, lambda != 0."""
    rng = random.Random(seed)
    ps = sorted(rng.sample(P_MENU, 3))
    alphas = sorted(rng.sample(ALPHA_MENU, 3))
    lams = [rng.choice(LAMBDA_MENU)]
    return ps, alphas, lams


class GridSweep(Workload):
    """Work repeated per (p, alpha, lambda) point of one map."""

    name = "grid_sweep"

    def __init__(self, harmext, seed, reference):
        super().__init__(harmext, seed, reference)
        self.grid = sweep_grid(seed)

    def map_descriptions(self):
        return [FLEET[SWEEP_MAP]]

    def run_round(self, tally):
        ps, alphas, lams = self.grid
        argv = ["sweep", "--map", FLEET[SWEEP_MAP], "--functionals",
                ALL_FUNCTIONALS, "--levels", str(LEVELS)]
        for flag, values in (("--p", ps), ("--alpha", alphas),
                             ("--lambda", lams)):
            for v in values:
                argv += [flag, repr(float(v))]
        code, text = call_cli(self.harmext, argv, tally)
        want = self.ref["grid_sweep"]
        n_units = len(ps) * len(alphas) * len(lams) * 6
        payload = _payload(code, text)
        entries = payload.get("grid", []) if payload else []
        if len(entries) != len(ps) * len(alphas) * len(lams):
            tally.add(n_units, failed=n_units, wrong=n_units if payload else 0,
                      problems=["sweep: wrong number of grid entries"])
            return
        for entry in entries:
            key = param_key(entry["p"], entry["alpha"], entry["lambda"])
            ref = want[key]
            per = check_reports(entry.get("results", []), ref["reports"],
                                f"sweep {key}")
            if entry.get("region") != ref["region"]:
                per[next(iter(per))].append(f"sweep {key}: region differs")
            _add_reports(tally, per)


class Pointwise(Workload):
    """Point evaluation: the only user of trapezoid node doubling."""

    name = "pointwise"

    def __init__(self, harmext, seed, reference):
        super().__init__(harmext, seed, reference)
        self.order = sorted(FLEET)
        random.Random(seed).shuffle(self.order)
        cm = harmext.circle_map
        self.maps = {n: cm.from_description(FLEET[n]) for n in FLEET}
        self.series = {n: BoundarySeries(m) for n, m in self.maps.items()}

    def _evaluate(self, name, ext, kind, z, tally):
        try:
            got = getattr(ext, kind)(z)
        except self.harmext.errors.LabError as exc:
            tally.add(z.size, failed=z.size,
                      problems=[f"{name} {kind} |z|={abs(z[0]):.2g}: "
                                f"{type(exc).__name__}"])
            return
        probs = point_problems(name, kind, z, got, self.series[name],
                               ROTATIONS.get(name))
        bad = z.size if probs else 0
        tally.add(z.size, failed=bad, wrong=bad, problems=probs)

    def run_round(self, tally):
        PoissonExtension = self.harmext.poisson.PoissonExtension
        for name in self.order:
            # every round of a run evaluates the same points
            rng = np.random.default_rng(FIXED_POINT_STREAM.get(name,
                                                               self.seed))
            ext = PoissonExtension(self.maps[name])
            self._evaluate(name, ext, "extend", np.zeros(1, dtype=complex),
                           tally)
            b = BATCH.get(name, BATCH_DEFAULT)
            for r in RADII:
                z = r * np.exp(2j * np.pi * rng.random(b))
                self._evaluate(name, ext, "extend", z, tally)
                self._evaluate(name, ext, "wirtinger", z, tally)


class StaircaseStudies(Workload):
    """examples, deep block sums, modulus certificate, weights and gauges."""

    def __init__(self, harmext, seed, reference):
        super().__init__(harmext, seed, reference)
        rng = random.Random(seed)
        self.orlicz = [(rng.choice(ORLICZ_P_MENU), rng.choice(ORLICZ_NEG_MENU)),
                       (rng.choice(ORLICZ_P_MENU), rng.choice(ORLICZ_POS_MENU))]
        cantor = harmext.cantor
        self.blocks_map = harmext.circle_map.from_description(BLOCKS_MAP)
        sch = self.blocks_map.lift.tree.schedule
        self.edges = [sch.j[n - 1] for n in range(sch.n0, sch.depth + 1)]
        kind, param, depth = MODULUS_TREE
        self.tree = cantor.build_tree(cantor.build_schedule(kind, param,
                                                            depth))

    def run_round(self, tally):
        h = self.harmext
        ref = self.ref["staircase_studies"]

        # exit 2 means a study contradicted its expected signature: the
        # payload is still there, and the check below marks the study wrong
        code, text = call_cli(h, ["examples"], tally)
        payload = _payload(0 if code == 2 else code, text)
        want = ref["examples"]
        checks = payload.get("checks", []) if payload else []
        if len(checks) != len(want):
            tally.add(len(want), failed=len(want),
                      wrong=len(want) if payload else 0,
                      problems=["examples: wrong number of checks"])
            checks = []
        for got, exp in zip(checks, want):
            probs = [] if got.get("ok") is True else \
                [f"examples {got.get('study')}: ok is not set"]
            for key, val in exp.items():
                if isinstance(val, (int, float, list)) and \
                        not isinstance(val, bool):
                    if not close(got.get(key, np.nan), val):
                        probs.append(f"examples {exp['study']}: {key} differs")
                elif got.get(key) != val:
                    probs.append(f"examples {exp['study']}: {key} differs")
            tally.add(1, failed=int(bool(probs)), wrong=int(bool(probs)),
                      problems=probs)

        params = h.report.EnergyParams(*BLOCKS_PARAMS)
        for functional in ("length_power", "gauge_ratio"):
            try:
                sums = h.discrete.block_sums(self.blocks_map, params,
                                             self.edges, functional)
            except h.errors.LabError as exc:
                tally.add(1, failed=1,
                          problems=[f"block_sums {functional}: {exc}"])
                continue
            ok = close(sums, ref["block_sums"][functional])
            tally.add(1, failed=int(not ok), wrong=int(not ok),
                      problems=[] if ok else
                      [f"block_sums {functional} differ"])

        form, exponent = MODULUS_FORM
        want = ref["certify_modulus"]
        try:
            rep = h.cantor.certify_modulus(self.tree, form, exponent,
                                           rng_seed=FIXED_RNG_SEED)
        except h.errors.LabError as exc:
            tally.add(1, failed=1, problems=[f"certify_modulus: {exc}"])
        else:
            ok = close(rep.sup_product, want["sup_product"]) and \
                rep.pairs_checked == want["pairs_checked"]
            tally.add(1, failed=int(not ok), wrong=int(not ok),
                      problems=[] if ok else ["certify_modulus differs"])

        code, text = call_cli(h, ["weights-check", *WEIGHTS_ARGS], tally)
        payload = _payload(code, text)
        want = ref["weights_check"]
        probs = []
        if payload is None:
            probs.append("weights-check gave no payload")
        else:
            # the A_p ratio is >= 1 by Hoelder's inequality
            if not payload["ap_estimate"] >= 1.0 - 1e-9:
                probs.append(f"weights-check A_p {payload['ap_estimate']!r}"
                             " < 1")
            for key, val in want.items():
                if isinstance(val, dict) and payload.get(key) != val or \
                        not isinstance(val, dict) and \
                        not close(payload.get(key, np.nan), val):
                    probs.append(f"weights-check {key} differs")
        tally.add(1, failed=int(bool(probs)),
                  wrong=int(bool(probs) and payload is not None),
                  problems=probs)

        for p, lam in self.orlicz:
            argv = ["orlicz-check", "--p", repr(p), "--lambda", repr(lam)]
            code, text = call_cli(h, argv, tally)
            payload = _payload(code, text)
            want = ref["orlicz_check"][param_key(p, 0, lam)]
            probs = []
            if payload is None:
                probs.append(f"orlicz-check {p} {lam} gave no payload")
            else:
                if payload["monotonicity_violations"] or \
                        payload["convexity_violations"]:
                    probs.append(f"orlicz-check {p} {lam} reports violations")
                for key in ("doubling_sup", "derivative_ratio_sup",
                            "comparability_sup"):
                    if not close(payload[key], want[key]):
                        probs.append(f"orlicz-check {p} {lam}: {key} differs")
            tally.add(1, failed=int(bool(probs)),
                      wrong=int(bool(probs) and payload is not None),
                      problems=probs)


WORKLOADS = {w.name: w for w in (FleetEnergy, GridSweep, Pointwise)}


def clear_caches(harmext):
    """Empty the program's module-level caches so each round starts cold.

    Names a later version of the program no longer has are skipped.
    """
    boundary = harmext.boundary
    for attr in ("_pair_geometry_cache", "_inverse_geometry_cache"):
        cache = getattr(boundary, attr, None)
        if isinstance(cache, dict):
            cache.clear()
    table = getattr(boundary, "_kernel_table", None)
    if hasattr(table, "cache_clear"):
        table.cache_clear()
