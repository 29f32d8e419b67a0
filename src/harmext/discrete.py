"""Dyadic-arc energy sums of a circle map.

For a map with lift u, level j splits the circle into 2^j arcs Gamma_{j,k}
of length 2 pi 2^-j whose images have length ell_{j,k} = 2 pi Delta_k u.
The two discrete energies are

    length_power_energy (per level):
        S_j = sum_k ell_{j,k}^p * (2 pi 2^-j)^(2+alpha-p) * j^lam

    gauge_ratio_energy (per level):
        S_j = sum_k Phi_{p,lam}(ell_{j,k} / (2 pi 2^-j)) * (2 pi 2^-j)^(2+alpha)

with Phi_{p,lam}(t) = t^p log^lam(e+t).  Both are reported level by level
with a windowed tail classification.

Staircase maps expose grouped increments (an exact count of background
cells plus a short list of active cells); for those the per-term weights
are combined in log space so levels far beyond float range (j in the
thousands) stay finite and accurate.  A level sum and the total over
levels 1..J are correctly rounded (math.fsum) at every size.
"""

from __future__ import annotations

import math

import numpy as np

from .circle_map import CircleMap, LevelIncrements
from .errors import DomainError
from .report import EnergyParams, EnergyReport, finalize

_LOG_2PI = math.log(2 * math.pi)
_LN2 = math.log(2.0)


def _fsum(values: np.ndarray) -> float:
    """Correctly rounded sum of nonnegative terms; inf past the float range."""
    try:
        return math.fsum(values.tolist())
    except OverflowError:
        return math.inf


def _exp_safe(logv: float) -> float:
    if logv < -745.0:
        return 0.0
    if logv > 709.0:
        return math.inf
    return math.exp(logv)


def _log_gauge_of_ratio(log_ratio: float, p: float, lam: float) -> float:
    """log Phi(t) from log t, stable for ratios far outside float range."""
    if log_ratio > 700.0:
        log_e_plus = log_ratio          # log(e + t) ~ log t
    else:
        log_e_plus = math.log(math.e + math.exp(log_ratio))
    return p * log_ratio + lam * math.log(log_e_plus)


def _level_sum(inc: LevelIncrements, params: EnergyParams,
               functional: str) -> float:
    j = inc.level
    p, alpha, lam = params.p, params.alpha, params.lam
    log_arc = _LOG_2PI - j * _LN2        # log of the source arc length

    if functional == "length_power":
        log_weight = (2 + alpha - p) * log_arc + lam * math.log(j)
    else:
        log_weight = (2 + alpha) * log_arc

    total = 0.0
    deltas = inc.deltas
    if deltas.size:
        pos = deltas[deltas > 0]
        if functional == "length_power":
            # ell^p * weight, ell = 2 pi * delta
            logs = p * (np.log(pos) + _LOG_2PI) + log_weight
        else:
            log_ratios = np.log(pos) + j * _LN2    # delta / 2^-j
            big = log_ratios > 700.0
            log_e_plus = np.where(
                big, log_ratios,
                np.log(math.e + np.exp(np.minimum(log_ratios, 700.0))))
            logs = p * log_ratios + lam * np.log(log_e_plus) + log_weight
        total += _fsum(np.exp(np.clip(logs, -745.0, 709.0)))
    if inc.plateau_count:
        log_delta = inc.background_log2_delta * _LN2
        if functional == "length_power":
            log_term = p * (log_delta + _LOG_2PI) + log_weight
        else:
            log_term = _log_gauge_of_ratio(log_delta + j * _LN2, p, lam) \
                + log_weight
        total += _exp_safe(math.log(inc.plateau_count) + log_term)
    return total


def _energy(circle_map: CircleMap, params: EnergyParams, max_level: int,
            functional: str) -> EnergyReport:
    if max_level < 1:
        raise DomainError("max_level must be >= 1")
    levels = list(range(1, max_level + 1))
    per_level = level_sums_for_range(circle_map, params, levels, functional)
    rep = EnergyReport(functional=functional, params=params, levels=levels,
                       per_level=per_level, value=_fsum(per_level))
    rep.notes["map"] = circle_map.description
    return finalize(rep)


def length_power_energy(circle_map: CircleMap, params: EnergyParams,
                        max_level: int) -> EnergyReport:
    """Truncated sum over levels 1..max_level of the p-power arc energy."""
    return _energy(circle_map, params, max_level, "length_power")


def gauge_ratio_energy(circle_map: CircleMap, params: EnergyParams,
                       max_level: int) -> EnergyReport:
    """Truncated sum over levels of the Orlicz-gauge distortion energy."""
    return _energy(circle_map, params, max_level, "gauge_ratio")


def level_sums_for_range(circle_map: CircleMap, params: EnergyParams,
                         levels, functional: str = "length_power"):
    """Per-level sums for an arbitrary (possibly deep) list of levels.

    Unlike the EnergyReport entry points this does not start at level 1,
    which matters for staircase maps whose interesting levels sit in blocks
    j_n < j <= j_{n+1} far beyond any enumerable range.
    """
    if functional not in ("length_power", "gauge_ratio"):
        raise DomainError(f"unknown functional {functional!r}")
    return np.array([
        _level_sum(circle_map.level_increments(int(j)), params, functional)
        for j in levels])


def block_sums(circle_map: CircleMap, params: EnergyParams,
               block_edges, functional: str = "length_power"):
    """Sums of per-level contributions over blocks (e0, e1], (e1, e2], ...

    ``block_edges`` is an increasing list of levels; block i covers levels
    block_edges[i] + 1 .. block_edges[i+1].
    """
    edges = [int(e) for e in block_edges]
    if any(b <= a for a, b in zip(edges[:-1], edges[1:])):
        raise DomainError("block edges must be strictly increasing")
    out = []
    for a, b in zip(edges[:-1], edges[1:]):
        levels = range(a + 1, b + 1)
        out.append(float(np.sum(level_sums_for_range(
            circle_map, params, levels, functional))))
    return np.array(out)
