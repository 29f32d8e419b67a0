"""Radial Muckenhoupt-type weights concentrated on the unit circle.

The weights are

    w(x) = delta(x)^alpha * log^lambda(2 / delta(x)),   delta(x) = |1 - |x||,

for |x| <= 2, and the constant log^lambda(2) for |x| >= 2.  They are the
model weights whose A_p membership is governed by alpha in (-1, p-1) with a
logarithmic correction, and they factor as w = w1 * w2^(1-p) with w1, w2 in
A_1 (a Jones-type factorization).

``estimate_ap_constant`` samples random disks and evaluates

    (avg_B w) * (avg_B w^(1/(1-p)))^(p-1)

with a one-dimensional radial quadrature aligned with the level sets of
delta, geometrically refined toward the circle.  Each refinement stage is
one array pass over all of a disk's panels at once (a (panels, n) grid of
radii), summed row by row, so a disk costs a few numpy calls per stage
rather than a few per panel.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, QuadratureOverflowError

_LOG2 = math.log(2.0)


@dataclass(frozen=True)
class WeightSpec:
    """A single weight delta^alpha log^lambda(2/delta)."""

    alpha: float
    lam: float

    def __post_init__(self):
        if not (math.isfinite(self.alpha) and math.isfinite(self.lam)):
            raise DomainError(f"alpha and lambda must be finite, got "
                              f"alpha={self.alpha}, lambda={self.lam}")


def weight(spec: WeightSpec, x):
    """Evaluate the weight at points of the plane (complex array or radii).

    Accepts complex positions or nonnegative radii; only |x| matters, and
    a NaN position is refused like a negative radius.
    """
    arr = np.asarray(x)
    radii = np.abs(arr).astype(float)
    return weight_radial(spec, radii)


def weight_radial(spec: WeightSpec, radii):
    """The weight at radii >= 0 (+inf included: the far constant).

    A NaN or negative radius raises DomainError; the NaN clean-up below is
    only for 0 * inf products of the two factors.
    """
    arr = np.asarray(radii, dtype=float)
    # written so that NaN fails it too
    if not np.all(arr >= 0):
        raise DomainError("radii must be nonnegative numbers, not NaN")
    scalar = arr.shape == ()
    arr = np.atleast_1d(arr)
    delta = np.abs(1.0 - arr)
    out = np.empty_like(delta)
    far = arr >= 2.0
    out[far] = _LOG2 ** spec.lam
    near = ~far
    d = delta[near]
    vals = np.empty_like(d)
    zero = d == 0.0
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        vals[~zero] = d[~zero] ** spec.alpha * \
            np.log(2.0 / d[~zero]) ** spec.lam
    # limits on the circle itself
    if np.any(zero):
        if spec.alpha < 0:
            lim = np.inf
        elif spec.alpha > 0:
            lim = 0.0
        else:
            lim = np.inf if spec.lam > 0 else (0.0 if spec.lam < 0 else 1.0)
        vals[zero] = lim
    out[near] = vals
    out = np.where(np.isnan(out), np.inf, out)
    if scalar:
        return float(out[0])
    return out.reshape(np.shape(radii))


# ---------------------------------------------------------- factorization

def jones_factors(p: float, alpha: float, lam: float):
    """Split w_{alpha,lam} as w1 * w2^(1-p) with w1, w2 of A_1 type.

    Writes alpha = a1 * (-1) + a2 * (p-1) with a1 + a2 = 1, i.e.
    a1 = (p-1-alpha)/p, a2 = (1+alpha)/p, and assigns

        lambda >= 0:  w1 = delta^{-a1} log^{p lam},  w2 = delta^{-a2} log^{lam}
        lambda <  0:  w1 = delta^{-a1} log^{-lam},
                      w2 = delta^{-a2} log^{2 lam/(1-p)}

    so that w1 * w2^(1-p) = w exactly.  The A_1 range requires
    alpha in (-1, p-1) (both a1, a2 in (0, 1)).
    """
    if not (math.isfinite(p) and p > 1):
        raise DomainError(f"need finite p > 1, got {p}")
    a1 = (p - 1 - alpha) / p
    a2 = (1 + alpha) / p
    if lam >= 0:
        lam1, lam2 = p * lam, lam
    else:
        lam1, lam2 = -lam, 2 * lam / (1 - p)
    w1 = WeightSpec(alpha=-a1, lam=lam1)
    w2 = WeightSpec(alpha=-a2, lam=lam2)
    return w1, w2


# ------------------------------------------------------- A_p constant

_REFINE_START = 24
_MAX_REFINES = 9
_CONVERGE_RTOL = 0.01


def _disk_average(spec: WeightSpec, power: float, center: complex,
                  radius: float) -> float:
    """Average of w^power over the disk B(center, radius).

    Reduced to a radial integral: the weight depends only on rho = |x|, so

        avg = (1 / pi R^2) * int w(rho)^power * rho * ang(rho) d rho

    where ang(rho) is the angular measure of the circle of radius rho inside
    the disk.  The rho-grid is split at rho = 1 with geometric panels toward
    the circle (the only singular set), each panel integrated by midpoints,
    and refined by node doubling until the value settles within 1%.

    A stage evaluates the weight, its power and ang once, on the (panels, n)
    array of all midpoints.  Each row is summed with ``np.sum(axis=1)``,
    the same pairwise sum as over that panel alone, and the row sums are
    added in panel order by ``np.cumsum``, so the value is the one a loop
    over the panels gives, bit for bit.
    """
    c = abs(center)
    lo = max(0.0, c - radius)
    hi = c + radius

    def ang(rho):
        if c == 0.0:
            return np.full_like(rho, 2 * math.pi)
        with np.errstate(divide="ignore", invalid="ignore"):
            cosv = (c * c + rho * rho - radius * radius) / (2 * c * rho)
        return 2 * np.arccos(np.clip(cosv, -1.0, 1.0))

    # panel edges: geometric refinement toward rho = 1 when the disk meets it
    edges = [lo, hi]
    if lo < 1.0 < hi:
        scale = max(hi - 1.0, 1.0 - lo)
        for m in range(1, 40):
            step = scale * 2.0 ** -m
            if 1.0 - step > lo:
                edges.append(1.0 - step)
            if 1.0 + step < hi:
                edges.append(1.0 + step)
            if step < 1e-13:
                break
        edges.append(1.0)
    # sorted, each value once (np.unique would import numpy.ma), so every
    # panel width is positive; one row per panel
    edges = np.sort(np.asarray(edges, dtype=float))
    edges = edges[np.append(True, edges[1:] != edges[:-1])]
    a = edges[:-1, None]
    width = (edges[1:] - edges[:-1])[:, None]

    prev = None
    history = []
    n = _REFINE_START
    for _ in range(_MAX_REFINES + 1):
        rho = a + (np.arange(n) + 0.5) * width / n
        vals = weight_radial(spec, rho)
        # a zero weight (a midpoint rounded onto the circle) to a negative
        # power is +inf, like an overflow
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            vals = vals ** power
        slab = rho * ang(rho) * width / n
        # plain float additions in panel order: a cumulative sum is never
        # pairwise (the builtin sum() compensates since Python 3.12, which
        # would change the last bits)
        total = float(np.cumsum(np.sum(vals * slab, axis=1))[-1])
        measure = float(np.cumsum(np.sum(slab, axis=1))[-1])
        # normalizing by the quadrature's own measure of the disk cancels
        # the discretization of ang(rho), so constant weights average to 1
        # exactly at every refinement stage
        total /= measure
        history.append(total)
        if prev is not None and np.isfinite(total):
            denom = max(abs(total), 1e-300)
            if abs(total - prev) / denom < _CONVERGE_RTOL:
                return total
        prev = total
        n *= 2

    # not settled: decide between "slow" and "diverging"
    if not np.isfinite(history[-1]):
        raise QuadratureOverflowError(
            f"disk average of w^{power:g} is non-finite (alpha={spec.alpha}, "
            f"lam={spec.lam})")
    tail = history[-3:]
    if all(b > a * 1.02 for a, b in zip(tail[:-1], tail[1:])):
        raise QuadratureOverflowError(
            f"disk average of w^{power:g} keeps growing under refinement "
            f"(alpha={spec.alpha}, lam={spec.lam}): {tail}")
    return history[-1]


@dataclass
class ApEstimate:
    value: float          # max over sampled disks of the A_p ratio
    trials: int


def estimate_ap_constant(spec: WeightSpec, p: float, trials: int,
                         rng_seed: int = 0) -> ApEstimate:
    """Randomized lower estimate of the A_p constant of the weight.

    Samples disks with centers uniform in [-4,4]^2 and log-uniform radii in
    [1e-4, 4]; raises QuadratureOverflowError when a sampled disk average
    fails to converge (weight outside the A_p range).
    """
    if not (math.isfinite(p) and p > 1):
        raise DomainError(f"need finite p > 1, got {p}")
    try:
        trials = operator.index(trials)
    except TypeError:
        raise DomainError(f"trials must be an integer, got {trials!r}") \
            from None
    if trials < 1:
        raise DomainError(f"need trials >= 1, got {trials}")
    rng = np.random.default_rng(rng_seed)
    best = -np.inf
    for _ in range(trials):
        cx, cy = rng.uniform(-4.0, 4.0, size=2)
        radius = float(np.exp(rng.uniform(math.log(1e-4), math.log(4.0))))
        center = complex(cx, cy)
        avg_w = _disk_average(spec, 1.0, center, radius)
        avg_dual = _disk_average(spec, 1.0 / (1.0 - p), center, radius)
        best = max(best, avg_w * avg_dual ** (p - 1.0))
    return ApEstimate(value=float(best), trials=trials)
