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

A level's increments are a few (delta, count) pairs, each term computed
from the log of its increment, so levels far beyond float range (j in the
thousands) stay finite and accurate.  A pair adds count * term, the
correctly rounded sum of its equal terms, or past the float range
exp(log count + log term).  A level sum and the total over levels 1..J
are correctly rounded (math.fsum) at every size.
"""

from __future__ import annotations

import math

import numpy as np

from .circle_map import CircleMap, LevelIncrements
from .errors import DomainError
from .report import EnergyParams, EnergyReport, finalize

_LOG_2PI = math.log(2 * math.pi)
_LN2 = math.log(2.0)
_EXACT_COUNT = 1 << 53       # every smaller count is exact in a float


def _fsum(values) -> float:
    """Correctly rounded sum of nonnegative terms; inf past the float range."""
    try:
        return math.fsum(values)
    except OverflowError:
        return math.inf


def _exp_safe(logv: float) -> float:
    if logv < -745.0:
        return 0.0
    if logv > 709.0:
        return math.inf
    return math.exp(logv)


def _pair_term(count: int, log_term: float, term: float) -> float:
    """The sum of count terms e^log_term, ``term`` its float: count * term
    while count is exact in a float and term in range, else from logs."""
    if count < _EXACT_COUNT and -745.0 <= log_term <= 709.0:
        return count * term
    return _exp_safe(math.log(count) + log_term)


def _level_sum(inc: LevelIncrements, params: EnergyParams,
               functional: str) -> float:
    j = inc.level
    p, alpha, lam = params.p, params.alpha, params.lam
    log_arc = _LOG_2PI - j * _LN2        # log of the source arc length

    if functional == "length_power":
        # ell^p * weight, ell = 2 pi * delta
        log_weight = (2 + alpha - p) * log_arc + lam * math.log(j)
        logs = p * (inc.log_deltas + _LOG_2PI) + log_weight
    else:
        log_weight = (2 + alpha) * log_arc
        log_ratios = inc.log_deltas + j * _LN2    # delta / 2^-j
        big = log_ratios > 700.0
        log_e_plus = np.where(
            big, log_ratios,
            np.log(math.e + np.exp(np.minimum(log_ratios, 700.0))))
        logs = p * log_ratios + lam * np.log(log_e_plus) + log_weight
    terms = np.exp(np.clip(logs, -745.0, 709.0))
    return _fsum([_pair_term(c, lt, t) for c, lt, t in
                  zip(inc.counts, logs.tolist(), terms.tolist())])


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
