"""Common result container for the level-by-level energy computations.

Every energy functional in this package is evaluated as a sum over dyadic
levels (or dyadic diagonal rings), so results are reported uniformly: the
truncated value, the per-level contributions, and a coarse convergence
classification obtained from windowed tail behaviour.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError

SCHEMA_VERSION = 1

CONVERGED = "converged"
DIVERGING = "diverging"
INCONCLUSIVE = "inconclusive"

# classification knobs
TAIL_DECAY_RATIO = 0.9      # window-sum ratio below which we call it converged
GROWTH_FRACTION = 0.05      # cumulative growth per window calling it diverging
DEFAULT_WINDOW = 4


@dataclass(frozen=True)
class EnergyParams:
    """The exponent triple (p, alpha, lam) shared by all functionals."""

    p: float
    alpha: float
    lam: float

    def __post_init__(self):
        if not all(map(math.isfinite, (self.p, self.alpha, self.lam))):
            raise DomainError(f"p, alpha and lambda must be finite, got "
                              f"{self.p}, {self.alpha}, {self.lam}")
        if self.p <= 1:
            raise DomainError(f"need p > 1, got p={self.p}")


@dataclass
class EnergyReport:
    """Truncated value of a level-sum energy plus its tail diagnostics."""

    functional: str
    params: EnergyParams
    levels: list
    per_level: np.ndarray
    value: float
    classification: str = INCONCLUSIVE
    growth_exponent: float | None = None
    notes: dict = field(default_factory=dict)

    def cumulative(self) -> np.ndarray:
        return np.cumsum(self.per_level)

    def to_json_dict(self) -> dict:
        return {
            "schema_version": SCHEMA_VERSION,
            "functional": self.functional,
            "p": self.params.p,
            "alpha": self.params.alpha,
            "lambda": self.params.lam,
            "levels": list(map(int, self.levels)),
            "per_level": [float(v) for v in self.per_level],
            "value": float(self.value),
            "classification": self.classification,
            "growth_exponent": self.growth_exponent,
            "notes": {k: _jsonable(v) for k, v in self.notes.items()},
        }

    def to_csv_rows(self) -> list:
        """Rows (functional, j, level_sum, cumulative, classification)."""
        return [(self.functional, int(j), float(s), float(c),
                 self.classification)
                for j, s, c in zip(self.levels, self.per_level,
                                   self.cumulative())]


def _jsonable(v):
    if isinstance(v, (np.floating, np.integer)):
        return v.item()
    if isinstance(v, np.ndarray):
        return v.tolist()
    return v


def classify_growth(levels, per_level, window: int = DEFAULT_WINDOW):
    """Classify the tail of a level-sum sequence.

    Returns (classification, growth_exponent).  Converged: the sum over the
    last window of levels is at most TAIL_DECAY_RATIO times the sum over the
    preceding window.  Diverging: the cumulative value grows by at least
    GROWTH_FRACTION per window over each of the last two windows; in that
    case the growth exponent is the least-squares slope of log2(per-level)
    against level over the last two windows.  Everything else, including
    sequences shorter than three windows, is inconclusive.
    """
    s = np.asarray(per_level, dtype=float)
    lv = np.asarray(levels, dtype=float)
    if s.size < 3 * window:
        return INCONCLUSIVE, None
    last = float(np.sum(s[-window:]))
    prev = float(np.sum(s[-2 * window:-window]))
    if prev > 0 and last <= TAIL_DECAY_RATIO * prev:
        return CONVERGED, None
    if prev == 0 and last == 0:
        return CONVERGED, None

    cum = np.cumsum(s)
    c2, c1, c0 = cum[-1], cum[-1 - window], cum[-1 - 2 * window]
    if c1 > 0 and c0 > 0:
        g1 = (c2 - c1) / c1
        g0 = (c1 - c0) / c0
        if g1 >= GROWTH_FRACTION and g0 >= GROWTH_FRACTION:
            tail_s = s[-2 * window:]
            tail_l = lv[-2 * window:]
            mask = tail_s > 0
            if np.sum(mask) >= 2:
                slope = np.polyfit(tail_l[mask], np.log2(tail_s[mask]), 1)[0]
            else:
                slope = math.nan
            return DIVERGING, float(slope)
    return INCONCLUSIVE, None


def finalize(report: EnergyReport, window: int = DEFAULT_WINDOW) -> EnergyReport:
    """Fill in classification and growth exponent from the per-level data."""
    cls, slope = classify_growth(report.levels, report.per_level, window)
    report.classification = cls
    report.growth_exponent = slope
    return report
