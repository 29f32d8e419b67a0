"""Orlicz gauge functions t^p log^lambda(e + t) and their convex repairs.

For lambda >= 0 the gauge

    Phi(t) = t^p log^lambda(e + t),   p > 1,

is already convex and increasing.  For lambda < 0 it fails convexity near
the origin, so a repaired gauge Psi is used: t^p below a breakpoint t1, a
straight line on [t1, t2), and Phi itself from t2 on.  The slope of the
linear piece is k = (Phi(t2) - t1^p) / (t2 - t1) and the breakpoints are
chosen so that

    p t1^(p-1)  <=  k  <=  Phi'(t2),

which makes Psi convex, and t2 additionally satisfies
(p+1) Phi(t)/(2t) <= Phi'(t) with Phi' > 0, Phi'' >= 0 beyond t2.

First and second derivatives of Phi are evaluated in closed form.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, replace

import numpy as np

from .errors import BreakpointResolutionError, DomainError, UnresolvedSpecError

_E = math.e


@dataclass(frozen=True)
class OrliczSpec:
    """Parameters (p, lam) of a gauge, plus resolved repair breakpoints."""

    p: float
    lam: float
    t1: float | None = None
    t2: float | None = None
    k_slope: float | None = None

    def __post_init__(self):
        if not (math.isfinite(self.p) and math.isfinite(self.lam)):
            raise DomainError(f"p and lambda must be finite, got p={self.p}, "
                              f"lambda={self.lam}")
        if self.p <= 1:
            raise DomainError(f"need p > 1, got p={self.p}")

    @property
    def needs_repair(self) -> bool:
        return self.lam < 0

    @property
    def resolved(self) -> bool:
        return (not self.needs_repair) or self.t1 is not None


def phi(spec: OrliczSpec, t):
    """Phi(t) = t^p log^lambda(e + t) for t >= 0.

    An array is computed in place, in two buffers of its size.  A scalar
    goes through the same array loop, since numpy's scalar ** can round
    differently from it: a value does not depend on whether it was
    computed alone or in an array.
    """
    scalar = np.ndim(t) == 0
    arr = np.atleast_1d(np.asarray(t, dtype=float))
    if np.any(arr < 0):
        raise DomainError("gauge argument must be >= 0")
    out = arr ** spec.p
    log_term = _E + arr
    np.log(log_term, out=log_term)
    log_term **= spec.lam
    out *= log_term
    return float(out[0]) if scalar else out


def phi_prime(spec: OrliczSpec, t):
    """Closed-form Phi'(t).

    Phi'(t) = (p log(e+t) + lam t/(e+t)) t^(p-1) log^(lambda-1)(e+t).
    """
    p, lam = spec.p, spec.lam
    arr = np.asarray(t, dtype=float)
    if np.any(arr < 0):
        raise DomainError("gauge argument must be >= 0")
    L = np.log(_E + arr)
    out = (p * L + lam * arr / (_E + arr)) * arr ** (p - 1) * L ** (lam - 1)
    return float(out) if arr.shape == () else out


def phi_double_prime(spec: OrliczSpec, t):
    """Closed-form Phi''(t).

    Phi''(t) = [ p(p-1) log^2(e+t) + lam e t (e+t)^-2 log(e+t) + R(t) ]
               * t^(p-2) log^(lambda-2)(e+t),
    R(t) = lam (lam-1) (t/(e+t))^2 + lam (2p-1) (t/(e+t)) log(e+t).
    """
    p, lam = spec.p, spec.lam
    arr = np.asarray(t, dtype=float)
    if np.any(arr < 0):
        raise DomainError("gauge argument must be >= 0")
    L = np.log(_E + arr)
    q = arr / (_E + arr)
    R = lam * (lam - 1) * q ** 2 + lam * (2 * p - 1) * q * L
    head = p * (p - 1) * L ** 2 + lam * _E * arr / (_E + arr) ** 2 * L + R
    out = head * arr ** (p - 2) * L ** (lam - 2)
    return float(out) if arr.shape == () else out


# ------------------------------------------------------------- breakpoints

_GRID_TOP = 1e9
_TAIL_CHECK_TOP = 1e12
_TAIL_CHECK_POINTS = 240
# log of the largest float, about 709.78
_LOG_FLOAT_MAX = math.log(sys.float_info.max)


def _t2_condition(spec: OrliczSpec, t: float) -> bool:
    return (spec.p + 1) * phi(spec, t) / (2 * t) <= phi_prime(spec, t)


def _tail_ok(spec: OrliczSpec, t: float) -> bool:
    ts = np.geomspace(t, _TAIL_CHECK_TOP, _TAIL_CHECK_POINTS)
    return bool(np.all(phi_prime(spec, ts) > 0)
                and np.all(phi_double_prime(spec, ts) >= 0))


def resolve_breakpoints(p: float, lam: float) -> OrliczSpec:
    """Resolve (t1, t2, k) for the convex repair of a lambda < 0 gauge.

    t2: smallest admissible point >= e found on a factor-2 grid and then
    refined by bisection; t1: largest grid point t2 / 2^m satisfying the
    slope chain p t1^(p-1) <= k <= Phi'(t2).

    The tail check samples Phi' and Phi'' up to t = 1e12; DomainError,
    before any sampling, if a factor of theirs there passes the float
    range (t^(p-1) p log(e+t) from p = 26.45 on, or a huge -lambda).
    """
    spec = OrliczSpec(p=p, lam=lam)
    if lam >= 0:
        return spec
    top = _TAIL_CHECK_TOP
    # Phi'(t) has the factor (pL + lam q) t^(p-1) <= max(pL, -lam) t^(p-1),
    # Phi''(t) a bracket <= 2 (pL - lam)^2; L = log(e+t), q = t/(e+t) < 1
    pL, log_t = p * math.log(_E + top), math.log(top)
    log_top = max(math.log(max(pL, -lam)) + (p - 1) * log_t,
                  2 * math.log(pL - lam) + math.log(2) + max(p - 2, 0) * log_t)
    if log_top >= _LOG_FLOAT_MAX:
        raise DomainError(
            f"Phi'({top:g}) and Phi''({top:g}) form factors up to "
            f"e^{log_top:.1f}, past the float range (e^{_LOG_FLOAT_MAX:.1f}) "
            f"at p={p}, lambda={lam}")

    t = _E
    t2_grid = None
    while t <= _GRID_TOP:
        if _t2_condition(spec, t) and _tail_ok(spec, t):
            t2_grid = t
            break
        t *= 2.0
    if t2_grid is None:
        raise BreakpointResolutionError(
            f"no admissible t2 below {_GRID_TOP:g} for p={p}, lam={lam}")

    lo, hi = max(t2_grid / 2.0, _E), t2_grid
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if _t2_condition(spec, mid) and _tail_ok(spec, mid):
            hi = mid
        else:
            lo = mid
    t2 = hi

    dphi_t2 = phi_prime(spec, t2)
    phi_t2 = phi(spec, t2)
    t1 = None
    k = None
    cand = t2 / 2.0
    while cand > 1e-12:
        slope = (phi_t2 - cand ** p) / (t2 - cand)
        if p * cand ** (p - 1) <= slope <= dphi_t2:
            t1, k = cand, slope
            break
        cand /= 2.0
    if t1 is None:
        raise BreakpointResolutionError(
            f"no admissible t1 below t2={t2:g} for p={p}, lam={lam}")
    return replace(spec, t1=t1, t2=t2, k_slope=k)


def psi(spec: OrliczSpec, t):
    """The convex repaired gauge (equals Phi itself when lambda >= 0)."""
    if not spec.needs_repair:
        return phi(spec, t)
    if not spec.resolved:
        raise UnresolvedSpecError(
            "lambda < 0 gauge used without resolved breakpoints; "
            "build the spec with resolve_breakpoints(p, lam)")
    arr = np.asarray(t, dtype=float)
    if np.any(arr < 0):
        raise DomainError("gauge argument must be >= 0")
    t1, t2, k = spec.t1, spec.t2, spec.k_slope
    out = np.where(arr < t1, arr ** spec.p,
                   np.where(arr < t2,
                            k * (arr - t1) + t1 ** spec.p,
                            phi(spec, np.maximum(arr, t2))))
    return float(out) if arr.shape == () else out


# ---------------------------------------------------------------- checking

@dataclass
class PropertyReport:
    """Result of sampling-based verification of the gauge properties."""

    monotonicity_violations: int
    convexity_violations: int
    doubling_sup: float               # sup f(2t)/f(t)
    derivative_ratio_sup: float       # sup t f'(t)/f(t), central differences
    quasi_power_sup: dict             # r -> sup over s<=1, t of f(st)/(s^r f(t))
    comparability_sup: float          # sup of max(Psi/Phi, Phi/Psi)


# relative tolerance of the second-difference convexity check
_SECOND_DIFF_TOL = 1e-9


def _default_grid(t_max: float, n: int) -> np.ndarray:
    lin = np.linspace(0.0, t_max, n // 2)
    geo = np.geomspace(1e-8, t_max, n - n // 2)
    # sorted, each value once (np.unique would import numpy.ma)
    grid = np.sort(np.concatenate([lin, geo]))
    return grid[np.append(True, grid[1:] != grid[:-1])]


def verify_properties(spec: OrliczSpec, t_max: float = 1e6,
                      grid_points: int = 4000) -> PropertyReport:
    """Check monotonicity, convexity (second differences), the doubling
    bound and the quasi-power bounds of the convex gauge ``psi`` (Phi
    itself when lambda >= 0), and global Psi ~ Phi comparability, on a
    sample grid.

    A lambda < 0 spec must come from ``resolve_breakpoints``, or ``psi``
    raises UnresolvedSpecError.  The largest argument sampled is 2 t_max;
    DomainError, before any sampling, if log Phi there passes the float
    range, where every check would read inf or NaN.
    """
    top = 2.0 * t_max
    log_top = spec.p * math.log(top) + spec.lam * math.log(math.log(_E + top))
    if log_top >= _LOG_FLOAT_MAX:
        raise DomainError(
            f"Phi(2 t_max) = Phi({top:g}) = e^{log_top:.1f} passes the float "
            f"range (e^{_LOG_FLOAT_MAX:.1f}) at p={spec.p}, "
            f"lambda={spec.lam}")

    def f(t):
        return psi(spec, t)

    grid = _default_grid(t_max, grid_points)
    vals = f(grid)
    mono = int(np.sum(np.diff(vals) < -1e-12 * np.maximum(vals[1:], 1.0)))

    # convexity via second differences on uniform windows spanning the range
    convex = 0
    for lo, hi in ((0.0, 10.0), (0.0, 1e3), (1.0, t_max)):
        u = np.linspace(lo, hi, 2001)
        fv = f(u)
        d2 = fv[2:] - 2 * fv[1:-1] + fv[:-2]
        scale = np.maximum(np.abs(fv[1:-1]), 1.0)
        convex += int(np.sum(d2 < -_SECOND_DIFF_TOL * scale - 1e-12))

    pos = grid[grid > 1e-8]
    with np.errstate(divide="ignore", invalid="ignore"):
        doubling = np.nanmax(f(2 * pos) / f(pos))

    # sup of t f'(t)/f(t) by central differences on a log grid
    tc = np.geomspace(1e-6, t_max, 800)
    h = 1e-4 * tc
    with np.errstate(divide="ignore", invalid="ignore"):
        dfr = tc * (f(tc + h) - f(tc - h)) / (2 * h) / f(tc)
    deriv_ratio = float(np.nanmax(dfr[np.isfinite(dfr)]))

    quasi = {}
    s_vals = np.geomspace(1e-4, 1.0, 60)
    t_vals = np.geomspace(1e-6, t_max, 120)
    for r in (spec.p / 2.0, 0.9 * spec.p):
        S, T = np.meshgrid(s_vals, t_vals, indexing="ij")
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio = f(S * T) / (S ** r * f(T))
        quasi[float(r)] = float(np.nanmax(ratio))

    comp = 1.0
    if spec.needs_repair and spec.resolved:
        with np.errstate(divide="ignore", invalid="ignore"):
            a = psi(spec, pos) / phi(spec, pos)
        a = a[np.isfinite(a) & (a > 0)]
        comp = float(max(np.max(a), np.max(1.0 / a)))

    return PropertyReport(monotonicity_violations=mono,
                          convexity_violations=convex,
                          doubling_sup=float(doubling),
                          derivative_ratio_sup=deriv_ratio,
                          quasi_power_sup=quasi,
                          comparability_sup=comp)
