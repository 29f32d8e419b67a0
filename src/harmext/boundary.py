"""Boundary double-integral energies of a circle map.

Two functionals over the unit circle (chord metric throughout):

gauge_pair_energy ("U"):
    int int Phi_{p,lam}( |phi(xi)-phi(eta)| / |xi-eta| ) |xi-eta|^alpha,
  computed by splitting the off-diagonal set into dyadic rings
  A_j = { arc distance in (pi 2^-j, pi 2^(1-j)] } and midpoint quadrature
  per ring; ring sums play the role of dyadic levels.

inverse_kernel_energy ("V"):
    int ( int A(|phi^-1 xi - phi^-1 eta|) |d eta| )^(p-1) |d xi|,
  where the kernel is

    A(t) = int_1^t -x^(1+alpha-p) log_2^lam(1/x) dx
         = ln 2 * int_0^{log_2(1/t)} y^lam 2^(-(2+alpha-p) y) dy   (t <= 1)

  and, for t > 1, the negative of the mirrored integral (the literal
  expression involves log_2^lam of a negative number for t > 1 and
  non-integer lam, so the mirror is the convention used throughout).
  For lam <= -1 the y-integral already diverges at its lower endpoint, so
  A(t) = +inf for every t < 1.

  The inner integral can be negative (A changes sign at t = 1); the outer
  power uses the positive part, with the number of negative inner values
  and, when p-1 is an integer, the raw signed total reported in the notes.

Both are computed in two stages.  The map-only stage is a geometry of
chords (``PairGeometry.build``; the fine and coarse ``InverseGeometry``
from ``inverse_kernel_geometries``), which a caller builds once and
evaluates at any number of parameter points (``evaluate_gauge_pair``,
``evaluate_inverse_kernel``).  ``gauge_pair_energy`` and
``inverse_kernel_energy`` do both in one call.  A geometry lives as long
as its caller holds it; the only cache here is the kernel table, keyed by
the parameter values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.integrate import quad

from .circle_map import CircleMap
from .errors import DomainError
from .orlicz import OrliczSpec, phi
from .report import EnergyParams, EnergyReport, finalize

_LN2 = math.log(2.0)


# ----------------------------------------------------------------- kernel

def kernel_antiderivative(params: EnergyParams, t: float) -> float:
    """The kernel A(t) (see module docstring), computed by direct quadrature."""
    p, alpha, lam = params.p, params.alpha, params.lam
    if t < 0:
        raise DomainError("kernel argument must be >= 0")
    if t == 1.0:
        return 0.0
    c = 2.0 + alpha - p
    if t < 1.0 or t == 0.0:
        if lam <= -1.0:
            return math.inf
        if t == 0.0:
            if c <= 0.0:
                return math.inf
            # int_0^inf y^lam 2^(-c y) dy = Gamma(lam+1) / (c ln 2)^(lam+1)
            return _LN2 * math.gamma(lam + 1.0) / (c * _LN2) ** (lam + 1.0)
        Y = math.log2(1.0 / t)
        val, _ = quad(lambda y: y ** lam * 2.0 ** (-c * y), 0.0, Y,
                      limit=200)
        return _LN2 * val
    if lam <= -1.0:
        return -math.inf
    Y = math.log2(t)
    val, _ = quad(lambda y: y ** lam * 2.0 ** (c * y), 0.0, Y, limit=200)
    return -_LN2 * val


@lru_cache(maxsize=32)
def _kernel_table(p: float, alpha: float, lam: float):
    """Interpolation table for A: 3000 log-spaced t in [1e-16, 2], and 1."""
    params = EnergyParams(p, alpha, lam)
    ts = np.geomspace(1e-16, 2.0, 3000)
    ts = np.unique(np.append(ts, 1.0))
    vals = np.array([kernel_antiderivative(params, float(t)) for t in ts])
    return ts, vals


def _kernel_eval(p: float, alpha: float, lam: float,
                 t: np.ndarray) -> np.ndarray:
    ts, vals = _kernel_table(p, alpha, lam)
    t = np.asarray(t, dtype=float)
    out = np.interp(np.log(np.maximum(t, ts[0])), np.log(ts), vals)
    # below the table: extend with the exact quadrature lazily (rare)
    small = t < ts[0]
    if np.any(small):
        params = EnergyParams(p, alpha, lam)
        uniq = np.unique(t[small])
        rep = {float(u): kernel_antiderivative(params, float(u))
               for u in uniq}
        out = out.copy()
        out[small] = [rep[float(u)] for u in t[small]]
    return out


# ---------------------------------------------------------- ring geometry

def _chord(d):
    """Chord length between circle points at turn-distance d."""
    return 2.0 * np.abs(np.sin(np.pi * np.asarray(d, dtype=float)))


@dataclass
class PairGeometry:
    """Chords and quadrature weights for the off-diagonal ring split.

    The map-only stage of U: the geometry depends only on the map and the
    quadrature spec, while Phi and the exponents do not touch it, so one
    geometry serves every parameter point (``evaluate_gauge_pair``).
    """

    description: str       # the map's description
    n_outer: int
    n_inner: int
    rings: list            # ring index j
    chords: list           # |xi - eta| per inner offset: (2 n_inner,) a ring
    image_chords: list     # |phi xi - phi eta|: (n_out, 2 n_inner) a ring
    weights: list          # product measure per node, one scalar per ring

    @classmethod
    def build(cls, circle_map: CircleMap, n_outer: int = 256,
              n_inner: int = 32, diagonal_rings: int = 12) -> "PairGeometry":
        if diagonal_rings < 1:
            raise DomainError("diagonal_rings must be >= 1")
        rings, chords, imchords, weights = [], [], [], []
        for j in range(1, diagonal_rings + 1):
            # the integrand varies at the offset scale 2^-j, so the outer
            # grid must refine with the ring or deep rings of maps with
            # fine structure (staircases) are aliased
            n_out = min(max(n_outer, 8 << j), 1 << 15)
            x = (np.arange(n_out) + 0.5) / n_out
            ux = circle_map.eval(x)
            band_lo = 2.0 ** -(j + 1)
            band_w = 2.0 ** -(j + 1)
            offs = band_lo + (np.arange(n_inner) + 0.5) * band_w / n_inner
            offs = np.concatenate([offs, -offs])
            w = band_w / n_inner / n_out
            y = (x[:, None] + offs[None, :]) % 1.0
            uy = circle_map.eval(y)
            d_source = np.minimum(np.abs(offs), 1.0 - np.abs(offs))
            du = np.abs(uy - ux[:, None])
            du = np.minimum(du, 1.0 - du)
            rings.append(j)
            chords.append(_chord(d_source))
            imchords.append(_chord(du))
            weights.append(w)
        return cls(description=circle_map.description, n_outer=n_outer,
                   n_inner=n_inner, rings=rings, chords=chords,
                   image_chords=imchords, weights=weights)


# -------------------------------------------------------------------- U

def gauge_pair_energy(circle_map: CircleMap, params: EnergyParams,
                      diagonal_rings: int = 12, n_outer: int = 256,
                      n_inner: int = 32) -> EnergyReport:
    """The Orlicz-gauge pair energy over the circle, by diagonal rings."""
    geom = PairGeometry.build(circle_map, n_outer, n_inner, diagonal_rings)
    return evaluate_gauge_pair(geom, params)


def evaluate_gauge_pair(geom: PairGeometry,
                        params: EnergyParams) -> EnergyReport:
    """U at one parameter point from a built pair geometry."""
    spec = OrliczSpec(p=params.p, lam=params.lam)
    scale = (2.0 * math.pi) ** 2
    per_ring = []
    for chords, imchords, w in zip(geom.chords, geom.image_chords,
                                   geom.weights):
        # source offsets are >= 2^-(j+1), so no chord is 0
        integrand = phi(spec, imchords / chords) * chords ** params.alpha
        per_ring.append(scale * float(np.sum(integrand * w)))
    rep = EnergyReport(functional="gauge_pair", params=params,
                       levels=geom.rings, per_level=np.asarray(per_ring),
                       value=float(np.sum(per_ring)))
    rep.notes["map"] = geom.description
    rep.notes["n_outer"] = geom.n_outer
    rep.notes["n_inner"] = geom.n_inner
    return finalize(rep, window=3)


# -------------------------------------------------------------------- V

@dataclass
class InverseGeometry:
    """Inverse-image chords for the V-energy quadrature (map-only stage)."""

    description: str          # the map's description
    inv_chords: np.ndarray    # (n_outer, n_offsets)
    offset_weights: np.ndarray

    @classmethod
    def build(cls, circle_map: CircleMap, n_outer: int, nodes_per_ring: int,
              total_rings: int) -> "InverseGeometry":
        x = (np.arange(n_outer) + 0.5) / n_outer
        offs = []
        wts = []
        for r in range(1, total_rings + 1):
            lo = 2.0 ** -(r + 1)
            width = 2.0 ** -(r + 1)
            mid = lo + (np.arange(nodes_per_ring) + 0.5) * width / nodes_per_ring
            offs.extend(mid)
            offs.extend(-mid)
            wts.extend([width / nodes_per_ring] * (2 * nodes_per_ring))
        offs = np.asarray(offs)
        wts = np.asarray(wts)
        winv_x = circle_map.invert(x)
        args = (x[:, None] + offs[None, :]) % 1.0
        winv_y = circle_map.invert(args.ravel()).reshape(args.shape)
        d = np.abs(winv_y - winv_x[:, None])
        d = np.minimum(d, 1.0 - d)
        # distinct offsets always have distinct preimages, but on nearly
        # flat stretches of the inverse (steep map gaps) their float
        # difference underflows to 0 and the kernel would report a
        # spurious divergence; floor at the resolution of the inversion
        d = np.maximum(d, 2.0 ** -50)
        return cls(description=circle_map.description, inv_chords=_chord(d),
                   offset_weights=wts)


def inverse_kernel_geometries(circle_map: CircleMap, n_outer: int = 192,
                              nodes_per_ring: int = 32, total_rings: int = 28,
                              refine_check: bool = True) -> tuple:
    """The map-only stage of V: the fine geometry and the coarse one.

    The coarse geometry (half the nodes) serves the refinement check that
    classifies the value; it is None when ``refine_check`` is off.
    """
    fine = InverseGeometry.build(circle_map, n_outer, nodes_per_ring,
                                 total_rings)
    coarse = InverseGeometry.build(
        circle_map, n_outer // 2, max(nodes_per_ring // 2, 4),
        total_rings) if refine_check else None
    return fine, coarse


def inverse_kernel_energy(circle_map: CircleMap, params: EnergyParams,
                          n_outer: int = 192, nodes_per_ring: int = 32,
                          total_rings: int = 28,
                          refine_check: bool = True) -> EnergyReport:
    """The kernel double integral V with positive-part outer power."""
    return evaluate_inverse_kernel(
        inverse_kernel_geometries(circle_map, n_outer, nodes_per_ring,
                                  total_rings, refine_check), params)


def evaluate_inverse_kernel(geometries: tuple,
                            params: EnergyParams) -> EnergyReport:
    """V at one parameter point from ``inverse_kernel_geometries``."""
    fine, coarse = geometries
    value, inner, notes = _v_value(fine, params)
    classification = "inconclusive"
    if coarse is not None:
        coarse_value, _, _ = _v_value(coarse, params)
        notes["coarse_value"] = coarse_value
        denom = max(abs(value), 1e-12)
        if abs(value - coarse_value) / denom < 0.05 or \
                (abs(value) < 1e-9 and abs(coarse_value) < 1e-9):
            classification = "converged"
        elif np.isinf(value) or (abs(coarse_value) > 0
                                 and value > 4 * abs(coarse_value)):
            classification = "diverging"
    rep = EnergyReport(functional="inverse_kernel", params=params,
                       levels=[0], per_level=np.array([value]), value=value,
                       classification=classification, notes=notes)
    rep.notes["map"] = fine.description
    rep.notes["inner_range"] = (float(np.min(inner)), float(np.max(inner)))
    return rep


def _v_value(geom: InverseGeometry, params: EnergyParams):
    p, alpha, lam = params.p, params.alpha, params.lam
    A = _kernel_eval(p, alpha, lam, geom.inv_chords)
    two_pi = 2.0 * math.pi
    inner = two_pi * np.sum(A * geom.offset_weights[None, :], axis=1)
    neg = inner < 0
    pos_part = np.where(neg, 0.0, inner)
    with np.errstate(over="ignore"):
        value = two_pi * float(np.mean(pos_part ** (p - 1.0)))
    notes = {"negative_inner_count": int(np.sum(neg))}
    if abs((p - 1.0) - round(p - 1.0)) < 1e-12:
        r = int(round(p - 1.0))
        signed = two_pi * float(np.mean(np.sign(inner) * np.abs(inner) ** r))
        notes["signed_value"] = signed
    return value, inner, notes
