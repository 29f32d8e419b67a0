"""Correctness gate: every output of a timed operation is checked here.

Three kinds of check, in order of strength:

* exact anchors that the mathematics gives at (p, alpha, lambda) =
  (2, 0, 0): the dyadic and disk energies of a rigid rotation, the
  extension h(z) = e^{2 pi i rho} z of a rotation, the mean-value property
  h(0) = boundary mean, the Douglas formula u = 4 pi^2 S and the bracket
  i1 in [(1 - 2^-14)^2 pi S, 2 pi S], with S = sum_k |k| |c_k|^2 taken from
  this module's own FFT of the boundary map;
* an independent oracle for point evaluation: the Fourier series of the
  boundary map, summed here, against the program's kernel quadrature;
* reference values recorded at the seed commit (``reference.json``, made
  by ``make_reference.py``) for every other output.

A check returns a list of problems; an empty list means the output passed.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

REFERENCE_PATH = Path(__file__).with_name("reference.json")

# boundary samples for the benchmark's own Fourier coefficients
ORACLE_SAMPLES = 1 << 20
# reference comparisons: the program is deterministic, so only summation
# order may differ between versions of it
REF_RTOL = 1e-7
REF_ATOL = 1e-10
# Douglas formula u = 4 pi^2 S: the 14-ring quadrature of u leaves a
# truncation error (seed: 6e-5 to 1.2e-4 on smooth and piecewise-linear
# maps, 3.9e-3 on the staircase)
DOUGLAS_RTOL = {"staircase_s2": 2e-2}
DOUGLAS_RTOL_DEFAULT = 1e-3
# exact closed forms at (2, 0, 0), levels 14
EXACT_RTOL = 1e-9
# point evaluation: the program stops doubling nodes once successive
# values agree to 1e-9 / (1 - |z|); the gate allows a hundred times that
POINT_TOL = 1e-7
TRUNCATED_LEVELS = 14


def close(got, want, rtol=REF_RTOL, atol=REF_ATOL) -> bool:
    got = np.asarray(got, dtype=float)
    want = np.asarray(want, dtype=float)
    if got.shape != want.shape:
        return False
    scale = max(1.0, float(np.max(np.abs(want)))) if want.size else 1.0
    same_inf = np.isinf(got) & np.isinf(want) & (np.sign(got) == np.sign(want))
    ok = np.abs(got - want) <= rtol * np.abs(want) + atol * scale
    return bool(np.all(ok | same_inf))


class BoundarySeries:
    """Fourier coefficients c_k of the boundary map, from an FFT here."""

    def __init__(self, circle_map, n: int = ORACLE_SAMPLES):
        t = np.arange(n) / n
        values = np.exp(2j * np.pi * np.asarray(circle_map.eval(t)))
        self.c = np.fft.fft(values) / n
        self.n = n
        k = np.fft.fftfreq(n, 1.0 / n)
        self.dirichlet = float(np.sum(np.abs(k) * np.abs(self.c) ** 2))

    @property
    def mean(self) -> complex:
        return complex(self.c[0])

    def _terms(self, z):
        r = float(np.max(np.abs(z))) if np.size(z) else 0.0
        m = min(int(40.0 / max(1.0 - r, 1e-3)) + 2, self.n // 2 - 1)
        k = np.arange(1, m + 1)
        return k, self.c[k], self.c[-k]

    def extend(self, z):
        """h(z) = sum_{k>=0} c_k z^k + sum_{k>=1} c_{-k} zbar^k."""
        z = np.atleast_1d(np.asarray(z, dtype=complex))
        k, pos, neg = self._terms(z)
        zk = z[:, None] ** k[None, :]
        return self.c[0] + zk @ pos + np.conj(zk) @ neg

    def wirtinger(self, z):
        """h_z = sum k c_k z^(k-1), h_zbar = sum k c_{-k} zbar^(k-1)."""
        z = np.atleast_1d(np.asarray(z, dtype=complex))
        k, pos, neg = self._terms(z)
        zk = z[:, None] ** (k - 1)[None, :]
        return zk @ (k * pos), np.conj(zk) @ (k * neg)


def load_reference(path=REFERENCE_PATH) -> dict:
    with open(path) as fh:
        return json.load(fh)


def param_key(p, alpha, lam) -> str:
    return f"{float(p):g},{float(alpha):g},{float(lam):g}"


# ------------------------------------------------------------- reports

def _check_report(got: dict, want: dict, label: str) -> list:
    problems = []
    if got.get("classification") != want["classification"]:
        problems.append(f"{label}: classification {got.get('classification')!r}"
                        f" != {want['classification']!r}")
    if not close(got.get("value", math.nan), want["value"]):
        problems.append(f"{label}: value {got.get('value')!r} != "
                        f"{want['value']!r}")
    if not close(got.get("per_level", []), want["per_level"]):
        problems.append(f"{label}: per_level differs")
    return problems


def check_reports(reports: list, want: dict, label: str) -> dict:
    """Problems per functional of a list of report dicts vs the reference."""
    out = {}
    got = {r.get("functional"): r for r in reports}
    for functional, ref in want.items():
        if functional not in got:
            out[functional] = [f"{label}: {functional} missing"]
        else:
            out[functional] = _check_report(got[functional], ref,
                                            f"{label} {functional}")
    return out


def anchor_problems(name: str, reports: dict, series: BoundarySeries,
                    params: tuple, rotation=None) -> dict:
    """Exact anchors at (2, 0, 0) for the reports of one map."""
    out = {f: [] for f in reports}
    if tuple(map(float, params)) != (2.0, 0.0, 0.0):
        return out
    S = series.dirichlet
    J = TRUNCATED_LEVELS
    if "length_power" in reports and rotation is not None:
        want = 4 * math.pi ** 2 * (1 - 2.0 ** -J)
        if not close(reports["length_power"]["value"], want, EXACT_RTOL, 0):
            out["length_power"].append(f"{name} e1 != 4 pi^2 (1 - 2^-{J})")
    if "kernel_weight" in reports:
        i1 = reports["kernel_weight"]["value"]
        if rotation is not None:
            want = math.pi * (1 - 2.0 ** -J) ** 2
            if not close(i1, want, EXACT_RTOL, 0):
                out["kernel_weight"].append(
                    f"{name} i1 = {i1!r} != pi (1 - 2^-{J})^2")
        lo = (1 - 2.0 ** -J) ** 2 * math.pi * S
        if not (lo * (1 - EXACT_RTOL) <= i1 <= 2 * math.pi * S):
            out["kernel_weight"].append(
                f"{name} i1 = {i1!r} outside [{lo!r}, {2 * math.pi * S!r}]")
    if "gauge_pair" in reports:
        u = reports["gauge_pair"]["value"]
        want = 4 * math.pi ** 2 * S
        tol = DOUGLAS_RTOL.get(name, DOUGLAS_RTOL_DEFAULT)
        if not close(u, want, tol, 0):
            out["gauge_pair"].append(
                f"{name} u = {u!r} != 4 pi^2 S = {want!r} (rtol {tol})")
    return out


# ------------------------------------------------------- point values

def point_problems(name: str, kind: str, z, got, series: BoundarySeries,
                   rotation=None) -> list:
    """Check extend (``got`` = h values) or wirtinger (``got`` = (hz, hzb))."""
    z = np.atleast_1d(np.asarray(z, dtype=complex))
    tol = POINT_TOL / max(1.0 - float(np.max(np.abs(z))), 1e-9)
    if kind == "extend":
        pairs = [("h", np.atleast_1d(got), series.extend(z))]
        if rotation is not None:
            pairs.append(("h exact", np.atleast_1d(got),
                          np.exp(2j * np.pi * rotation) * z))
        if np.all(z == 0):
            pairs.append(("h(0) mean", np.atleast_1d(got),
                          np.full(z.shape, series.mean)))
    else:
        hz, hzb = (np.atleast_1d(g) for g in got)
        ohz, ohzb = series.wirtinger(z)
        pairs = [("h_z", hz, ohz), ("h_zbar", hzb, ohzb)]
        if rotation is not None:
            pairs.append(("h_z exact", hz,
                          np.full(z.shape, np.exp(2j * np.pi * rotation))))
            pairs.append(("h_zbar exact", hzb, np.zeros(z.shape)))
    problems = []
    for label, g, w in pairs:
        if g.shape != w.shape:
            problems.append(f"{name} {kind} {label}: shape {g.shape}")
            continue
        err = np.abs(g - w)
        bad = err > tol * np.maximum(1.0, np.abs(w))
        if np.any(bad):
            problems.append(f"{name} {kind} {label}: max error "
                            f"{float(np.max(err)):.3g} > {tol:.3g}")
    return problems
