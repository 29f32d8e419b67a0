"""Boundary double-integral energies of a circle map.

Two functionals over the unit circle (chord metric throughout):

U, the Orlicz-gauge pair energy:
    int int Phi_{p,lam}( |phi(xi)-phi(eta)| / |xi-eta| ) |xi-eta|^alpha,
  computed by splitting the off-diagonal set into dyadic rings
  A_j = { arc distance in (pi 2^-j, pi 2^(1-j)] } and midpoint quadrature
  per ring; ring sums play the role of dyadic levels.  The lift is linear
  between its breakpoints, so a pair whose two ends lie on one piece, of
  slope s, at offset d has the image chord chord(s d) wherever it sits:
  Phi is applied once per (offset, slope), weighted by the number of such
  pairs, and once per pair that straddles a breakpoint, 0 or 1, the only
  pairs at which the map is read.  The quadrature sizes ``n_outer`` and
  ``n_inner`` are powers of two, so every node is a dyadic point k 2^-e,
  exact in floating point up to the ring count ``PairGeometry.build``
  allows.

V, the inverse-kernel energy:
    int ( int A(|phi^-1 xi - phi^-1 eta|) |d eta| )^(p-1) |d xi|,
  where the kernel is

    A(t) = int_1^t -x^(1+alpha-p) log_2^lam(1/x) dx
         = ln 2 * int_0^{log_2(1/t)} y^lam 2^(-(2+alpha-p) y) dy   (t <= 1)

  and, for t > 1, the negative of the mirrored integral (the literal
  expression involves log_2^lam of a negative number for t > 1 and
  non-integer lam, so the mirror is the convention used throughout).
  For lam <= -1 the y-integral already diverges at its lower endpoint, so
  A(t) = +inf for every t < 1 and -inf for every t > 1.  Otherwise, with
  Kummer's function M = 1F1 (DLMF 8.5.1, 13.2.2), both cases are

    A(t) = sgn(1-t) ln 2 |log_2 t|^(lam+1) / (lam+1)
           * M(lam+1, lam+2, (2+alpha-p) ln t).

  M is ``scipy.special.hyp1f1``, imported inside ``kernel_antiderivative``
  where it is called: scipy is the package's slowest import and V its only
  user, so a process that computes no V never loads scipy.

  The inner integral can be negative (A changes sign at t = 1); the outer
  power uses the positive part, with the number of negative inner values
  and, when p-1 is an integer, the raw signed total reported in the notes.

Both are computed in two stages.  The map-only stage is a geometry of
chords (``PairGeometry.build``; the fine and coarse ``InverseGeometry``
from ``inverse_kernel_geometries``), which a caller builds once and
evaluates at any number of parameter points (``evaluate_gauge_pair``,
``evaluate_inverse_kernel``).  A geometry lives as long as its caller
holds it; nothing here is cached across calls.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .circle_map import CircleMap, log2_exact
from .errors import DomainError
from .orlicz import OrliczSpec, phi
from .report import EnergyParams, EnergyReport, finalize

_LN2 = math.log(2.0)


# ----------------------------------------------------------------- kernel

def kernel_antiderivative(params: EnergyParams, t):
    """The kernel A(t) (see module docstring) in closed form.

    Vectorised over t; a scalar t gives a float.
    """
    p, alpha, lam = params.p, params.alpha, params.lam
    t_arr = np.asarray(t, dtype=float)
    if np.any(t_arr < 0):
        raise DomainError("kernel argument must be >= 0")
    if lam <= -1.0:
        out = np.where(t_arr < 1.0, math.inf,
                       np.where(t_arr > 1.0, -math.inf, 0.0))
    else:
        from scipy.special import hyp1f1

        c = 2.0 + alpha - p
        at_zero = t_arr == 0.0
        ln_t = np.log(np.where(at_zero, 1.0, t_arr))
        # for large lam, A at small t lies past the float range: inf
        with np.errstate(over="ignore"):
            out = (np.sign(1.0 - t_arr) * _LN2
                   * np.abs(ln_t / _LN2) ** (lam + 1.0) / (lam + 1.0)
                   * hyp1f1(lam + 1.0, lam + 2.0, c * ln_t))
        if np.any(at_zero):
            # int_0^inf y^lam 2^(-c y) dy = Gamma(lam+1) / (c ln 2)^(lam+1)
            a0 = (_LN2 * math.gamma(lam + 1.0) / (c * _LN2) ** (lam + 1.0)
                  if c > 0.0 else math.inf)
            out = np.where(at_zero, a0, out)
    return float(out) if out.ndim == 0 else out


# V interpolates A(t) in log t on these nodes: 3000 log-spaced t in [1e-16,
# 2], and 1 (sorted in: np.unique would import numpy.ma with the package).
# Every inverse chord is at least chord(2^-50) = 5.6e-15, inside them.
_KERNEL_NODES = np.sort(np.append(np.geomspace(1e-16, 2.0, 3000), 1.0))
_KERNEL_LOG_NODES = np.log(_KERNEL_NODES)


# ---------------------------------------------------------- ring geometry

def _chord(d: np.ndarray) -> np.ndarray:
    """Chord length 2 sin(pi d) at turn-distances d in [0, 1/2], in place."""
    d *= np.pi
    np.sin(d, out=d)
    d *= 2.0
    return d


def _straddling(x: np.ndarray, d: np.ndarray, xs: np.ndarray) -> tuple:
    """The pairs (x, x + d) with a breakpoint xs[k] strictly inside.

    xs runs from 0 to 1, so the pairs that wrap past 0 are among them.
    Returns the node index of each, in order of offset, then node, and
    the number per offset.  With (lo, hi) the pair in order, xs[k] is
    inside for the nodes [first with hi > xs[k], first with lo >= xs[k]).
    Both ends grow with k, so clipping each start at the previous end
    leaves disjoint ranges with the same union.
    """
    starts = np.empty((d.size, xs.size), dtype=np.int64)
    ends = np.empty_like(starts)
    for o, off in enumerate(d):
        lo, hi = (x, x + off) if off > 0 else (x + off, x)
        starts[o] = np.searchsorted(hi, xs, side="right")
        ends[o] = np.searchsorted(lo, xs, side="left")
    np.maximum(starts[:, 1:], ends[:, :-1], out=starts[:, 1:])
    lengths = np.maximum(ends - starts, 0).ravel()
    node = np.repeat(starts.ravel() - (np.cumsum(lengths) - lengths),
                     lengths)
    node += np.arange(node.size)
    return node, lengths.reshape(d.size, -1).sum(axis=1)


def _ring_offsets(j: int, n: int) -> np.ndarray:
    """The n positive offsets 2^-(j+1) (1 + (m + 1/2)/n), m < n, of ring j."""
    band = 2.0 ** -(j + 1)
    return band + (np.arange(n) + 0.5) * band / n


# ring j puts its pairs on the grid 2^-(j + log2 n_inner + 2), and a node
# plus an offset stays exact in floating point while that grid is no finer
# than 2^-52
_FINEST_GRID = 52

# inverse targets per block of ``InverseGeometry.build``
_INVERSE_BLOCK = 1 << 15


@dataclass
class PairGeometry:
    """Chords and pair counts for the off-diagonal ring split.

    The map-only stage of U: the geometry depends only on the map and the
    quadrature spec, while Phi and the exponents do not touch it, so one
    geometry serves every parameter point (``evaluate_gauge_pair``).

    Ring j pairs the outer nodes x = (i + 1/2) / n_out with the 2 n_inner
    offsets d = +-2^-(j+1) (1 + (m + 1/2) / n_inner).  When x and x + d lie
    on one linear piece of the lift, of slope s, the image chord is
    chord(s d) wherever x is, so such a pair is kept only as a count per
    (offset, slope).  A pair straddles when a breakpoint of the lift, 0 or
    1 lies strictly between x and x + d; the map is read at the two ends of
    the straddling pairs only (``CircleMap.eval``).  Each ring keeps Phi's
    arguments, image chord over source chord, in one array: per (offset,
    slope) in row order, then per straddling pair in order of offset, then
    node.
    """

    description: str       # the map's description
    n_outer: int
    n_inner: int
    rings: list            # ring index j
    chords: list           # |xi - eta| per offset: (2 n_inner,) a ring
    ratios: list           # Phi's arguments, as above, a ring
    slope_counts: list     # one-piece pairs per (offset, slope)
    straddle_counts: list  # straddling pairs per offset: (2 n_inner,)
    weights: list          # product measure per pair, one scalar per ring

    @classmethod
    def build(cls, circle_map: CircleMap, n_outer: int = 256,
              n_inner: int = 32, diagonal_rings: int = 12) -> "PairGeometry":
        if diagonal_rings < 1:
            raise DomainError("diagonal_rings must be >= 1")
        log2_exact(n_outer, "n_outer")
        b = log2_exact(n_inner, "n_inner")
        top = _FINEST_GRID - b - 2
        if diagonal_rings > top:
            raise DomainError(
                f"diagonal_rings must be <= {top} with n_inner = {n_inner}, "
                f"got {diagonal_rings}: ring j puts its pairs on the grid "
                f"2^-(j + {b + 2}), which must stay exact in floating point")
        xs, ys = circle_map.lift.xs, circle_map.lift.ys
        slopes, piece_slope = np.unique(np.diff(ys) / np.diff(xs),
                                        return_inverse=True)
        geom = cls(description=circle_map.description, n_outer=n_outer,
                   n_inner=n_inner, rings=[], chords=[], ratios=[],
                   slope_counts=[], straddle_counts=[], weights=[])
        for j in range(1, diagonal_rings + 1):
            # the integrand varies at the offset scale 2^-j, so the outer
            # grid must refine with the ring or deep rings of maps with
            # fine structure (staircases) are aliased
            n_out = min(max(n_outer, 8 << j), 1 << 15)
            x = (np.arange(n_out) + 0.5) / n_out
            d = _ring_offsets(j, n_inner)
            d = np.concatenate([d, -d])
            node, per_offset = _straddling(x, d, xs)
            offset = np.repeat(np.arange(d.size), per_offset)
            x_s = x[node]
            ends = circle_map.eval(np.concatenate([x_s,
                                                   (x_s + d[offset]) % 1.0]))
            du = np.abs(ends[node.size:] - ends[:node.size])
            np.minimum(du, 1.0 - du, out=du)

            # the piece of a one-piece pair holds x on [xs[p], xs[p+1]) when
            # d > 0 and on (xs[p], xs[p+1]] when d < 0; counting every node
            # there and taking the straddling ones out leaves the one-piece
            # pairs per slope
            right = piece_slope[np.searchsorted(xs, x, side="right") - 1]
            left = piece_slope[np.searchsorted(xs, x, side="left") - 1]
            label = np.where(d[offset] > 0, right[node], left[node])
            counts = np.repeat(
                [np.bincount(right, minlength=slopes.size),
                 np.bincount(left, minlength=slopes.size)], n_inner, axis=0)
            counts -= np.bincount(
                offset * slopes.size + label,
                minlength=counts.size).reshape(counts.shape)
            rise = np.abs(np.outer(d, slopes)) % 1.0
            np.minimum(rise, 1.0 - rise, out=rise)
            rise = _chord(rise)
            # a chord no pair has may exceed what Phi can hold, and Phi(0)
            # is 0: keep inf * 0 out of the sum
            rise[counts == 0] = 0.0

            # source offsets are >= 2^-(j+1), so no chord is 0
            chords = _chord(np.minimum(np.abs(d), 1.0 - np.abs(d)))
            geom.rings.append(j)
            geom.chords.append(chords)
            geom.ratios.append(np.concatenate(
                [(rise / chords[:, None]).ravel(),
                 _chord(du) / np.repeat(chords, per_offset)]))
            geom.slope_counts.append(counts)
            geom.straddle_counts.append(per_offset)
            geom.weights.append(2.0 ** -(j + 1) / n_inner / n_out)
        return geom


# -------------------------------------------------------------------- U

def evaluate_gauge_pair(geom: PairGeometry,
                        params: EnergyParams) -> EnergyReport:
    """U at one parameter point from a built pair geometry.

    Phi is applied once per (offset, slope) and once per straddling pair.
    """
    spec = OrliczSpec(p=params.p, lam=params.lam)
    scale = (2.0 * math.pi) ** 2
    per_ring = []
    for chords, ratios, s_counts, x_counts, w in zip(
            geom.chords, geom.ratios, geom.slope_counts,
            geom.straddle_counts, geom.weights):
        powered = chords ** params.alpha
        terms = phi(spec, ratios)
        terms *= np.concatenate([(s_counts * powered[:, None]).ravel(),
                                 np.repeat(powered, x_counts)])
        per_ring.append(scale * w * float(np.sum(terms)))
    rep = EnergyReport(functional="gauge_pair", params=params,
                       levels=geom.rings, per_level=np.asarray(per_ring),
                       value=float(np.sum(per_ring)))
    rep.notes["map"] = geom.description
    rep.notes["n_outer"] = geom.n_outer
    rep.notes["n_inner"] = geom.n_inner
    straddling = sum(int(c.sum()) for c in geom.straddle_counts)
    rep.notes["straddling_nodes"] = straddling
    rep.notes["pair_nodes"] = straddling + sum(int(c.sum())
                                               for c in geom.slope_counts)
    return finalize(rep, window=3)


# -------------------------------------------------------------------- V

@dataclass
class InverseGeometry:
    """Inverse-image chords for the V-energy quadrature (map-only stage)."""

    description: str          # the map's description
    log_chords: np.ndarray    # log of the inverse chords: (n_outer, n_offsets)
    offset_weights: np.ndarray

    @classmethod
    def build(cls, circle_map: CircleMap, n_outer: int, nodes_per_ring: int,
              total_rings: int) -> "InverseGeometry":
        x = (np.arange(n_outer) + 0.5) / n_outer
        rings = range(1, total_rings + 1)
        mids = [_ring_offsets(r, nodes_per_ring) for r in rings]
        offs = np.concatenate([o for mid in mids for o in (mid, -mid)])
        wts = np.repeat([2.0 ** -(r + 1) / nodes_per_ring for r in rings],
                        2 * nodes_per_ring)
        winv_x = circle_map.invert(x)
        # the targets x + offset are inverted a block of outer nodes at a
        # time, about _INVERSE_BLOCK of them, so the stage holds d and one
        # block's temporaries; ``invert`` solves each target on its own,
        # so the blocks change no bit
        d = np.empty((n_outer, offs.size))
        rows = max(1, _INVERSE_BLOCK // offs.size)
        for lo in range(0, n_outer, rows):
            block = slice(lo, lo + rows)
            dist = np.abs(circle_map.invert((x[block, None] + offs) % 1.0)
                          - winv_x[block, None])
            np.minimum(dist, 1.0 - dist, out=d[block])
        # distinct offsets always have distinct preimages, but ``invert``
        # resolves them only to its grid k 2^-n: two targets closer than
        # that can land on one grid point (on the staircase, whose tol
        # gives a 2^-19 grid, every chord floored at 28 rings does) and a
        # 0 chord would make the kernel report a spurious divergence;
        # floor at 2^-50, below 2^-49, the finest grid ``invert`` uses
        np.maximum(d, 2.0 ** -50, out=d)
        return cls(description=circle_map.description,
                   log_chords=np.log(_chord(d), out=d),
                   offset_weights=wts)


def inverse_kernel_geometries(circle_map: CircleMap, n_outer: int = 192,
                              nodes_per_ring: int = 32,
                              total_rings: int = 28) -> tuple:
    """The map-only stage of V: the fine geometry and the coarse one.

    The coarse geometry (half the nodes) serves the refinement check that
    classifies the value.
    """
    fine = InverseGeometry.build(circle_map, n_outer, nodes_per_ring,
                                 total_rings)
    coarse = InverseGeometry.build(circle_map, n_outer // 2,
                                   max(nodes_per_ring // 2, 4), total_rings)
    return fine, coarse


def evaluate_inverse_kernel(geometries: tuple,
                            params: EnergyParams) -> EnergyReport:
    """V at one parameter point from ``inverse_kernel_geometries``."""
    fine, coarse = geometries
    if params.lam <= -1.0:
        # the kernel itself diverges: A = +inf below t = 1, -inf above
        return EnergyReport(functional="inverse_kernel", params=params,
                            levels=[0], per_level=np.array([math.inf]),
                            value=math.inf, classification="diverging",
                            notes={"map": fine.description})
    A = kernel_antiderivative(params, _KERNEL_NODES)
    value, inner, notes = _v_value(fine, params.p, A)
    coarse_value, _, _ = _v_value(coarse, params.p, A)
    notes["coarse_value"] = coarse_value
    classification = "inconclusive"
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


def _v_value(geom: InverseGeometry, p: float, kernel: np.ndarray):
    """V from one geometry, with A given on ``_KERNEL_NODES``."""
    A = np.interp(geom.log_chords, _KERNEL_LOG_NODES, kernel)
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
