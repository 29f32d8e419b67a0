"""Poisson (harmonic) extension of a circle map and its energy integrals.

The extension of boundary data phi is

    h(z) = (1/2pi) int P(z, w) phi(w) |dw|,
    P(z, w) = (1 - |z|^2) / |w - z|^2,   w on the unit circle,

and the differential is measured by the operator norm

    |Dh|(z) = |h_z(z)| + |h_zbar(z)|.

Pointwise evaluation sums the Fourier series of h with the exact
coefficients c_k of phi (``CircleMap.fourier_coefficients``, which the
lift gives in closed form over its pieces, or by the staircase's
self-similar recursion):

    h(z)      = c_0 + sum_{k>=1} (c_k z^k + c_{-k} zbar^k),
    h_z(z)    = sum_{k>=1} k c_k z^(k-1),
    h_zbar(z) = sum_{k>=1} k c_{-k} zbar^(k-1),

each cut at K = floor(37 / (1 - |z|_max)) + 1 terms, past which |z|^k is
below 1e-16.  A point that needs more than 2^20 terms (|z| > 1 - 3.5e-5)
raises PrecisionError naming its K.  The coefficients for the largest K
asked so far are kept on the extension; a larger K computes all of them
again, which gives the same bits for the ones held, since each c_k
depends on k alone.  Each series is summed in blocks of B = ceil(sqrt(K))
terms (``_power_series``): a (points x B) table of powers, one matrix
product for the block sums and Horner's rule in z^B over the blocks,
about sqrt(K) array steps in place of K.  The tests check h_z and h_zbar
against central differences of ``extend``.

The weighted Dirichlet-type integrals

    kernel_weight_integral ("I1"): int |Dh|^p delta^alpha log^lam(2/delta)
    kernel_gauge_integral  ("I2"): int Phi_{p,lam}(|Dh|) delta^alpha

are accumulated cell-by-cell over the dyadic decomposition up to level J,
with 4x4 Gauss nodes per cell.  Level j splits the circle into 2^j arcs of
angle 2 pi 2^-j and pairs the k-th arc with the polar rectangle

    Q_{j,k} = { r e^{i theta} : 1 - 2^(1-j) <= r <= 1 - 2^-j,
                                 theta in the k-th arc },

so the cells of levels 1..J tile the disk minus a boundary annulus of
width 2^-J (the level-1 cells reach down to r = 0).

For the bulk sampling the harmonic series h_z = sum k c_k z^(k-1),
h_zbar = sum k c_{-k} zbar^(k-1) (c_k the FFT coefficients of the boundary
samples) is evaluated on radial slices by index folding -- exactly the
trapezoid kernel quadrature, resummed, which keeps level J ~ 16
affordable.  Each Gauss radius of a level folds its damped series for all
four angular offsets as matrix products: the coefficient grid itself, read
as Q whole rows of C = 2^j terms (the terms past K lie below r^K < 1e-16,
and QC <= m/2), is multiplied by an (8 x Q) weight matrix, and one FFT
runs over the stack of four offsets.  The damping is split in rank two,
k r^(k-1) = r^(qC) r^l (qC + l + 1) for k = qC + l + 1: the weights hold
e^(sign 2 pi i g q) r^(qC) and the same times qC, and r^l and l + 1 act
once on the (4 x C) result, so no copy of the series is made.  h_zbar
reads the grid's last rows forwards, with the reversal in its weights and
its result.  The products run over tiles of 128 columns: an (8 x 35) x
(35 x 128) product makes under 2^16 multiply-adds, which OpenBLAS runs on
the calling thread, where one product per radius woke a second BLAS
thread whose spin cost more CPU time than the fold saved.  The column
phases are computed once per build, at level J; level j's are that table
at stride 2^(J-j), and the -1 sign's its conjugate.  A radius is cut at
2^21 series terms, and a level whose first dropped power r^n exceeds 1e-14
(every level past 16) raises PrecisionError before any grid is built.  The
samples of levels 1..J are one build (``level_samples(J)``), cached per J:
a ``PoissonExtension`` is the map-only stage of I1 and I2, built once per
``energy`` or ``sweep`` command (``cli.STAGES``) and evaluated at every
parameter point.  Radius r folds the FFT coefficients of m(r) boundary
samples e^{2 pi i eval(k/m)}, m(r) >= 2^14 the least power of two that
holds twice its series length (2^21 at level 14's outermost radius).  A
build transforms only the largest grid, in place, by Bailey's four-step
FFT (J. Supercomputing 4, 1990; ``_coefficient_grid``), so pocketfft's
work buffers are a quarter of what one FFT of the whole grid takes.  It
walks the radii from the outside in, so m(r) never grows; before each
radius that needs fewer samples it halves the grid in place by the
trapezoid aliasing identity c^(m/2)_k = c^(m)_k + c^(m)_(k+m/2)
(``_alias_half``; Trefethen & Weideman, SIAM Rev. 56, 2014).  The grid
differs from a single FFT of the same samples by rounding only (at most
2.3e-16 for m = 2^14..2^22 on the tested maps), and so does a halved grid
from the FFT of its own samples.  The samples depend on (map, J) alone,
and the extension holds no grid afterwards.  A 14-level build of
``pl_kinked`` peaks at 43.4 MB traced, a 16-level one at 109.0 MB.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .circle_map import CircleMap
from .errors import DomainError, PrecisionError
from .orlicz import OrliczSpec, phi
from .report import EnergyParams, EnergyReport, finalize

_GAUSS4_X, _GAUSS4_W = np.polynomial.legendre.leggauss(4)
# nodes/weights rescaled to (0, 1)
_G4X = 0.5 * (_GAUSS4_X + 1.0)
_G4W = 0.5 * _GAUSS4_W

_SERIES_DECAY = 37.0          # r^n < 1e-16 once n > 37 / (1 - r)
_MAX_SERIES_TERMS = 1 << 20   # pointwise terms, |z| <= 1 - 3.5e-5
_MAX_SLICE_TERMS = 1 << 21    # damped series terms per radius
_SLICE_CUT = 1e-14            # largest first dropped power r^n allowed
_RADIX = 4                    # rows of the coefficient grid's build
_JOIN_CHUNK = 1 << 12         # columns per step of its join, 64 KB a row
_FOLD_TILE = 128              # columns per product of the fold


def _level_nodes(j: int):
    """Gauss radii of level j's annulus and their radial weights."""
    r_min = max(0.0, 1.0 - 2.0 ** (1 - j))
    width = 1.0 - 2.0 ** -j - r_min
    return r_min + _G4X * width, _G4W * width


def _series_terms(r: float) -> int:
    """K = floor(37 / (1 - r)) + 1: past K terms, r^n < 1e-16 (0 <= r < 1)."""
    return int(_SERIES_DECAY / max(1.0 - r, 1e-12)) + 1


def check_level_terms(j: int):
    """PrecisionError if level j's series would be cut where r^n > 1e-14.

    The outermost radius needs the most terms and drops the largest
    power, so it speaks for the level.
    """
    r = float(_level_nodes(j)[0][-1])
    need = _series_terms(r)
    if need > _MAX_SLICE_TERMS and r ** _MAX_SLICE_TERMS > _SLICE_CUT:
        raise PrecisionError(
            f"level {j} needs {need} series terms at r = {r!r}, over the "
            f"cap of {_MAX_SLICE_TERMS} (r^{_MAX_SLICE_TERMS} = "
            f"{r ** _MAX_SLICE_TERMS:.1e} > {_SLICE_CUT:g})")


def _grid_size(r: float) -> int:
    """Size m(r) of the coefficient grid for radius r: the power of two
    that holds both halves of r's series, 2^14 <= m <= 2^22."""
    return max(1 << 14, 1 << (2 * min(_series_terms(r), _MAX_SLICE_TERMS) - 1)
               .bit_length())


def _alias_half(grid: np.ndarray) -> np.ndarray:
    """c^(m/2)_k = c^(m)_k + c^(m)_(k+m/2), the forward-scaled FFT of every
    other sample, computed in place in the first half of ``grid``."""
    half = grid.size // 2
    grid[:half] += grid[half:]
    return grid[:half]


def _column_phases(J: int) -> np.ndarray:
    """e^(2 pi i g l / 2^J), l = 0..2^J-1, one row per Gauss offset g.

    Level j's phases are this table at stride 2^(J-j), bit for bit: the
    argument is scaled by powers of two, which round nothing.
    """
    col_index = np.arange(1 << J)
    return np.stack([np.exp(2j * np.pi * g * col_index / (1 << J))
                     for g in _G4X])


def _slice_derivatives(coeffs: np.ndarray, r: float, j: int, col_phases):
    """h_z and h_zbar at r * exp(2 pi i (l + g)/2^j), l = 0..2^j-1.

    One row per Gauss offset g: each returned array has shape (4, 2^j).
    ``col_phases[sign]`` holds e^(sign 2 pi i g l / 2^j), shared by the
    radii of the level.  Folds the damped series of the FFT grid
    ``coeffs`` into 2^j residue classes; the result is the trapezoid
    kernel quadrature with the full grid, evaluated exactly on the slices.
    """
    C = 1 << j
    M = coeffs.size
    # whole rows of C terms: those past K lie below r^K < 1e-16, and
    # Q C <= M/2, as the grid holds twice K and C divides M/2
    n_rows = -(-max(min(_series_terms(r), M // 2), 1) // C)
    span = n_rows * C
    # k r^(k-1) = r^(qC) r^l (qC + l + 1) for k = qC + l + 1: the weights
    # take r^(qC) and qC, the (4 x C) result r^l and l + 1 (r > 0: a
    # Gauss radius)
    log_r = math.log(r)
    row_index = np.arange(n_rows)
    row_start = row_index * C
    row_damp = np.exp(row_start * log_r)
    col_damp = np.exp(np.arange(C) * log_r)
    col_k = np.arange(1, C + 1)
    prod = np.empty((8, C), dtype=complex)

    def fold(sign, rows):
        # prod[:4] = sum_q e^(sign 2 pi i g q) r^(qC) rows[q], and prod[4:]
        # the same with qC, in tiles of _FOLD_TILE columns, which keep
        # OpenBLAS on the calling thread
        w = np.exp(sign * 2j * np.pi * _G4X[:, None] * row_index)
        w *= row_damp
        weights = np.concatenate([w, w * row_start])
        if sign < 0:
            # h_zbar's rows run backwards; a contiguous copy, as BLAS
            # takes no negative stride
            weights = weights[:, ::-1].copy()
        for a in range(0, C, _FOLD_TILE):
            np.matmul(weights, rows[:, a:a + _FOLD_TILE],
                      out=prod[:, a:a + _FOLD_TILE])
        out = prod[:, ::-1] if sign < 0 else prod
        folded = out[:4] * col_k
        folded += out[4:]
        folded *= col_damp
        folded *= col_phases[sign]
        # C is a power of two, so skipping ifft's 1/C is exact
        if sign > 0:
            return np.fft.ifft(folded, axis=1, norm="forward")
        return np.fft.fft(folded, axis=1)

    # h_z takes coeffs[k], k = 1..span, as Q rows of C; h_zbar takes
    # coeffs[M - k], which are the rows of coeffs[M - span:] backwards,
    # both along the rows and within each: the weights run backwards,
    # and so does the result (span <= M/2, so neither wraps)
    return fold(+1, coeffs[1:span + 1].reshape(n_rows, C)), \
        fold(-1, coeffs[M - span:].reshape(n_rows, C))


def _exp_turns(turns: np.ndarray) -> np.ndarray:
    """e^(2 pi i t) of positions t in turns, in one fresh array."""
    out = np.multiply(turns, 2j * np.pi)
    return np.exp(out, out=out)


def _coefficient_grid(boundary: CircleMap, M: int) -> np.ndarray:
    """c_k = (1/M) sum_n e^(2 pi i eval(n/M)) e^(-2 pi i k n/M), k = 0..M-1.

    Bailey's four-step FFT in one M-point buffer, M >= 2^14 a power of
    two.  Row r of ``grid.reshape(4, M/4)`` gets the boundary samples at
    n = 4t + r and their forward-scaled FFT y_r, one row at a time, so
    pocketfft's work buffers are a quarter of the grid.  The join then
    walks the columns q in chunks of ``_JOIN_CHUNK``: with z_r = w^(rq) y_r
    (w = e^(-2 pi i/M)), c_(q + sM/4) = (1/4) sum_r (-i)^(rs) z_r[q], the
    forward-scaled 4-point DFT across the rows, which numpy's FFT writes
    back over the same columns.  The twiddles w^(rq), q = a + t, are
    products of a table over the chunk starts a and one over
    t < ``_JOIN_CHUNK``.
    """
    N = M // _RADIX
    grid = np.empty(M, dtype=complex)
    rows = grid.reshape(_RADIX, N)
    for r, row in enumerate(rows):
        # (4t + r)/M is the float np.arange(M)/M holds at index 4t + r
        np.multiply(boundary.eval(np.arange(r, M, _RADIX) / M), 2j * np.pi,
                    out=row)
        np.exp(row, out=row)
        # N is a power of two, so the 1/N scaling is exact
        np.fft.fft(row, norm="forward", out=row)
    r_col = np.arange(1, _RADIX)[:, None]
    head = _exp_turns(r_col * np.arange(0, N, _JOIN_CHUNK) / -M)
    tail = _exp_turns(r_col * np.arange(_JOIN_CHUNK) / -M)
    twiddle = np.empty_like(tail)
    for c, a in enumerate(range(0, N, _JOIN_CHUNK)):
        z = rows[:, a:a + _JOIN_CHUNK]
        np.multiply(tail, head[:, c:c + 1], out=twiddle)
        z[1:] *= twiddle
        # the 1/4 is a power of two, so it rounds nothing
        np.fft.fft(z, axis=0, norm="forward", out=z)
    return grid


def _power_series(z: np.ndarray, coeffs: np.ndarray) -> np.ndarray:
    """sum_t coeffs[t] z^t, t = 0..K-1, at each point of z, in blocks.

    With B = ceil(sqrt(K)), the powers z^t, t < B, form one (points x B)
    table, built by doubling; one matrix product with the coefficients
    reshaped to (K/B, B) gives the block sums, and Horner's rule in z^B
    runs over the K/B blocks.  That is about sqrt(K) array steps in place
    of K, in O(points x B) memory.
    """
    K = coeffs.size
    B = math.isqrt(K - 1) + 1         # ceil(sqrt(K)), K >= 1
    n_blocks = -(-K // B)
    blocks = np.zeros(n_blocks * B, dtype=complex)
    blocks[:K] = coeffs
    powers = np.empty((z.size, B), dtype=complex)
    powers[:, 0] = 1.0
    zp, filled = z, 1                 # zp = z^filled
    while filled < B:
        step = min(filled, B - filled)
        np.multiply(powers[:, :step], zp[:, None],
                    out=powers[:, filled:filled + step])
        zp, filled = zp * zp, 2 * filled
    sums = powers @ blocks.reshape(n_blocks, B).T
    zB = powers[:, -1] * z
    out = sums[:, -1].copy()
    for b in range(n_blocks - 2, -1, -1):
        out *= zB
        out += sums[:, b]
    return out


def _tail_estimate(a_J: float, J: int, alpha: float, mu: float) -> float:
    """The levels past J: a_J sum_{k>=1} ((J+k)/J)^mu r^k, r = 2^-(1+alpha).

    The level sums of I1 decay like j^lam 2^(-j(1+alpha)) (the weight
    log^lam(2/delta) is about (j ln 2)^lam on level j), those of I2 like
    2^(-j(1+alpha)); mu is lam for I1 and 0 for I2.  The series is cut
    where r^k has fallen below 2^-100.
    """
    k = np.arange(1, math.ceil(100.0 / (1.0 + alpha)) + 1)
    return float(a_J * np.sum(((J + k) / J) ** mu
                              * 2.0 ** (-(1.0 + alpha) * k)))


@dataclass
class PoissonExtension:
    boundary: CircleMap
    # caches of the map-only stage: not arguments, and not part of ==
    _point_coeffs: np.ndarray | None = field(default=None, init=False,
                                             compare=False, repr=False)
    # level_samples(J) by J
    _samples: dict = field(default_factory=dict, init=False, compare=False,
                           repr=False)

    # ---------------------------------------------------------- pointwise

    def _check_inside(self, z: np.ndarray):
        # written so that NaN fails it too
        if not np.all(np.abs(z) <= 1.0 - 1e-9):
            raise DomainError("evaluation point not finite or too close to "
                              "the boundary (need |z| <= 1 - 1e-9)")

    def _series_coeffs(self, z: np.ndarray):
        """(c_0, c_1..c_K, c_-1..c_-K) for the K the points need."""
        zmax = float(np.max(np.abs(z))) if z.size else 0.0
        K = _series_terms(zmax)
        if K > _MAX_SERIES_TERMS:
            raise PrecisionError(
                f"|z| = {zmax!r} needs K = {K} series terms, over the cap "
                f"of {_MAX_SERIES_TERMS}")
        cached = self._point_coeffs
        if cached is None or cached.size < 2 * K + 1:
            # c_k depends on k alone, so the larger K recomputes them all
            self._point_coeffs = cached = \
                self.boundary.fourier_coefficients(K)
        mid = cached.size // 2
        return cached[mid], cached[mid + 1:mid + K + 1], \
            cached[mid - K:mid][::-1]

    def extend(self, z):
        """Harmonic extension h(z) for z strictly inside the disk."""
        arr = np.asarray(z, dtype=complex)
        scalar = arr.shape == ()
        arr = np.atleast_1d(arr)
        self._check_inside(arr)
        c0, pos, neg = self._series_coeffs(arr)
        out = c0 + arr * _power_series(arr, pos) \
            + np.conj(arr) * _power_series(np.conj(arr), neg)
        return complex(out[0]) if scalar else out

    def wirtinger(self, z):
        """(h_z, h_zbar), the term-wise derivatives of the series."""
        arr = np.asarray(z, dtype=complex)
        scalar = arr.shape == ()
        arr = np.atleast_1d(arr)
        self._check_inside(arr)
        _, pos, neg = self._series_coeffs(arr)
        k = np.arange(1, pos.size + 1)
        hz = _power_series(arr, k * pos)
        hzb = _power_series(np.conj(arr), k * neg)
        if scalar:
            return complex(hz[0]), complex(hzb[0])
        return hz, hzb

    # ----------------------------------------------------- bulk sampling

    def level_samples(self, max_level: int):
        """|Dh|, radii and weights on the 4x4 Gauss grids of levels 1..J.

        Returns a tuple whose entry j - 1 is (dh, r_nodes, radial_weights,
        angular_weight) for level j, where dh has shape (4, 4, 2^j): radial
        node x angular offset x cell.  Raises PrecisionError, before any
        grid is built, for a J the series cap would cut (every J past 16).
        """
        if max_level < 1:
            raise DomainError(f"level must be >= 1, got {max_level}")
        if max_level in self._samples:
            return self._samples[max_level]
        check_level_terms(max_level)
        nodes = [_level_nodes(j) for j in range(1, max_level + 1)]
        grid = _coefficient_grid(self.boundary,
                                 _grid_size(float(nodes[-1][0][-1])))
        phases = _column_phases(max_level)
        samples = []
        # from the outside in, so the grid size m(r) never grows
        for j in range(max_level, 0, -1):
            r_nodes, wr = nodes[j - 1]
            level_phases = phases[:, ::1 << (max_level - j)]
            col_phases = {+1: level_phases, -1: np.conj(level_phases)}
            dh = np.empty((4, 4, 1 << j))
            for ri in range(3, -1, -1):
                r = float(r_nodes[ri])
                while grid.size > _grid_size(r):
                    grid = _alias_half(grid)
                hz, hzb = _slice_derivatives(grid, r, j, col_phases)
                dh[ri] = np.abs(hz) + np.abs(hzb)
            samples.append((dh, r_nodes, wr,
                            _G4W * (2 * math.pi * 2.0 ** -j)))
        self._samples[max_level] = tuple(samples[::-1])
        return self._samples[max_level]

    # ------------------------------------------------------ the integrals

    def _integral(self, params: EnergyParams, max_level: int,
                  functional: str) -> EnergyReport:
        samples = self.level_samples(max_level)
        p, alpha, lam = params.p, params.alpha, params.lam
        spec = OrliczSpec(p=p, lam=lam) if functional == "kernel_gauge" \
            else None
        per_level = []
        for dh, r_nodes, wr, ang_w in samples:
            delta = 1.0 - r_nodes
            if functional == "kernel_weight":
                radial_factor = delta ** alpha * \
                    np.log(2.0 / delta) ** lam * r_nodes * wr
                vals = dh ** p
            else:
                radial_factor = delta ** alpha * r_nodes * wr
                vals = phi(spec, dh)
            level = float(np.einsum("rgc,r,g->", vals, radial_factor, ang_w))
            per_level.append(level)
        rep = EnergyReport(functional=functional, params=params,
                           levels=list(range(1, max_level + 1)),
                           per_level=np.asarray(per_level),
                           value=float(np.sum(per_level)))
        rep.notes["map"] = self.boundary.description
        rep = finalize(rep)
        if rep.classification == "converged" and alpha > -1.0:
            mu = lam if functional == "kernel_weight" else 0.0
            rep.notes["tail_estimate"] = _tail_estimate(
                rep.per_level[-1], max_level, alpha, mu)
        return rep

    def kernel_weight_integral(self, params: EnergyParams,
                               max_level: int) -> EnergyReport:
        """int |Dh|^p delta^alpha log^lam(2/delta) over cells of level <= J."""
        return self._integral(params, max_level, "kernel_weight")

    def kernel_gauge_integral(self, params: EnergyParams,
                              max_level: int) -> EnergyReport:
        """int Phi_{p,lam}(|Dh|) delta^alpha over cells of level <= J."""
        return self._integral(params, max_level, "kernel_gauge")
