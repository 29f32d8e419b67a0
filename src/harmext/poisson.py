"""Poisson (harmonic) extension of a circle map and its energy integrals.

The extension of boundary data phi is

    h(z) = (1/2pi) int P(z, w) phi(w) |dw|,
    P(z, w) = (1 - |z|^2) / |w - z|^2,   w on the unit circle,

and the differential is measured by the operator norm

    |Dh|(z) = |h_z(z)| + |h_zbar(z)|.

Two derivative routes are kept deliberately independent and cross-checked
in the tests: "analytic_kernel" differentiates the Poisson kernel in
closed form under the integral,

    dP/dz    = -zbar / |w-z|^2 + (1 - |z|^2)(wbar - zbar) / |w-z|^4,
    dP/dzbar = -z    / |w-z|^2 + (1 - |z|^2)(w - z)    / |w-z|^4,

while "finite_difference" applies central differences with step
(1-|z|)/100 to ``extend``.  Pointwise evaluation uses uniform trapezoid
quadrature with node doubling (geometric convergence for the analytic
periodic integrand) until the value settles.

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

For the bulk sampling the harmonic series
h_z = sum k c_k z^(k-1), h_zbar = sum k c_{-k} zbar^(k-1) (c_k the FFT
coefficients of the boundary samples) is evaluated on radial slices by
index folding -- exactly the trapezoid kernel quadrature, resummed, which
keeps level J ~ 16 affordable.  |Dh| samples are cached per level and
reused across parameter points: a ``PoissonExtension`` is the map-only
stage of I1 and I2 (the FFT coefficients, about 32 MB at level 14, and
the per-level samples), and the ``energy`` and ``sweep`` commands build
one per command (``cli.STAGES``) and evaluate every parameter point
against it.
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

_KERNEL_NODES = 2048          # first trapezoid grid of point evaluation
_MAX_POINT_NODES = 1 << 21
_SERIES_DECAY = 37.0          # r^n < 1e-16 once n > 37 / (1 - r)
_MAX_COEFF_LEN = 1 << 22


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
    derivative_mode: str = "analytic_kernel"
    _coeffs: np.ndarray | None = field(default=None, repr=False)
    _samples: dict = field(default_factory=dict, repr=False)

    def __post_init__(self):
        if self.derivative_mode not in ("analytic_kernel",
                                        "finite_difference"):
            raise DomainError(
                f"unknown derivative mode {self.derivative_mode!r}")

    # ----------------------------------------------------------- boundary

    def boundary_values(self, n: int) -> np.ndarray:
        t = np.arange(n) / n
        return np.exp(2j * np.pi * self.boundary.eval(t))

    # ---------------------------------------------------------- pointwise

    def _check_inside(self, z: np.ndarray):
        if np.any(np.abs(z) > 1.0 - 1e-9):
            raise DomainError("evaluation point too close to the boundary "
                              "(need |z| <= 1 - 1e-9)")

    def _adaptive_mean(self, z: np.ndarray, integrand) -> np.ndarray:
        """Trapezoid mean over the circle with node doubling.

        ``integrand(z, pos, val)`` receives the boundary positions (points
        of the circle itself) and the boundary values of the map there.
        """
        zmax = float(np.max(np.abs(z))) if z.size else 0.0
        tol = 1e-9 / max(1.0 - zmax, 1e-9)
        n = _KERNEL_NODES
        prev = None
        while n <= _MAX_POINT_NODES:
            pos = np.exp(2j * np.pi * np.arange(n) / n)
            val = self.boundary_values(n)
            cur = np.mean(integrand(z[..., None], pos, val), axis=-1)
            if prev is not None and np.max(np.abs(cur - prev)) <= tol:
                return cur
            prev = cur
            n *= 2
        raise PrecisionError(
            f"node doubling hit {_MAX_POINT_NODES} before reaching {tol:g}")

    def extend(self, z):
        """Harmonic extension h(z) for z strictly inside the disk."""
        arr = np.asarray(z, dtype=complex)
        scalar = arr.shape == ()
        arr = np.atleast_1d(arr)
        self._check_inside(arr)

        def integrand(zz, pos, val):
            return (1.0 - np.abs(zz) ** 2) / np.abs(pos - zz) ** 2 * val

        out = self._adaptive_mean(arr, integrand)
        return complex(out[0]) if scalar else out

    def wirtinger(self, z):
        """(h_z, h_zbar) via the configured derivative mode."""
        arr = np.asarray(z, dtype=complex)
        scalar = arr.shape == ()
        arr = np.atleast_1d(arr)
        self._check_inside(arr)
        if self.derivative_mode == "analytic_kernel":
            hz, hzb = self._wirtinger_analytic(arr)
        else:
            hz, hzb = self._wirtinger_fd(arr)
        if scalar:
            return complex(hz[0]), complex(hzb[0])
        return hz, hzb

    def _wirtinger_analytic(self, z):
        def hz_integrand(zz, pos, val):
            d2 = np.abs(pos - zz) ** 2
            return (-np.conj(zz) / d2
                    + (1 - np.abs(zz) ** 2) * np.conj(pos - zz) / d2 ** 2) \
                * val

        def hzb_integrand(zz, pos, val):
            d2 = np.abs(pos - zz) ** 2
            return (-zz / d2
                    + (1 - np.abs(zz) ** 2) * (pos - zz) / d2 ** 2) * val

        return (self._adaptive_mean(z, hz_integrand),
                self._adaptive_mean(z, hzb_integrand))

    def _wirtinger_fd(self, z):
        # fourth-order central differences: the second-order stencil is
        # not accurate enough near the boundary where the higher
        # derivatives of h grow like powers of 1/(1-|z|)
        step = (1.0 - np.abs(z)) / 100.0

        def deriv(direction):
            return (8.0 * (self.extend(z + direction * step)
                           - self.extend(z - direction * step))
                    - (self.extend(z + 2 * direction * step)
                       - self.extend(z - 2 * direction * step))) \
                / (12.0 * step)

        hx, hy = deriv(1.0), deriv(1j)
        return 0.5 * (hx - 1j * hy), 0.5 * (hx + 1j * hy)

    def derivative_norm(self, z):
        """|Dh| = |h_z| + |h_zbar| (operator norm of the differential)."""
        hz, hzb = self.wirtinger(z)
        return np.abs(hz) + np.abs(hzb)

    # ----------------------------------------------------- bulk sampling

    def _fourier_coeffs(self, length: int) -> np.ndarray:
        # exactly the grid the radius asks for, never a larger one kept from
        # a deeper level: the samples must not depend on the call order
        m = min(max(1 << 14, 1 << (max(length, 1) - 1).bit_length()),
                _MAX_COEFF_LEN)
        if self._coeffs is None or self._coeffs.size != m:
            self._coeffs = np.fft.fft(self.boundary_values(m)) / m
        return self._coeffs

    def _slice_derivatives(self, r: float, j: int, offset: float):
        """h_z and h_zbar at r * exp(2 pi i (l + offset)/2^j), l = 0..2^j-1.

        Folds the damped coefficient series into 2^j residue classes; the
        result is the trapezoid kernel quadrature with the full coefficient
        grid, evaluated exactly on the slice.
        """
        C = 1 << j
        need = int(_SERIES_DECAY / max(1.0 - r, 1e-12)) + 1
        coeffs = self._fourier_coeffs(2 * min(need, _MAX_COEFF_LEN // 2))
        M = coeffs.size
        n_terms = min(need, M // 2)
        n_terms = max(n_terms, 1)
        k = np.arange(1, n_terms + 1)
        damp = k * np.exp((k - 1) * math.log(r) if r > 0 else
                          np.where(k == 1, 0.0, -np.inf))
        a = coeffs[k % M] * damp            # for h_z, frequency k-1
        b = coeffs[(-k) % M] * damp         # for h_zbar, frequency -(k-1)

        def fold(vec, sign):
            # value_l = sum_m vec[m] * e^(sign * 2 pi i m (l+offset)/C),
            # vec indexed by m = k-1 = 0..n_terms-1
            pad = (-vec.size) % C
            if pad:
                vec = np.concatenate([vec, np.zeros(pad, dtype=complex)])
            rows = vec.reshape(-1, C)
            row_phase = np.exp(sign * 2j * np.pi * offset
                               * np.arange(rows.shape[0]))
            col_phase = np.exp(sign * 2j * np.pi * offset * np.arange(C) / C)
            folded = (rows * row_phase[:, None]).sum(axis=0) * col_phase
            if sign > 0:
                return np.fft.ifft(folded) * C
            return np.fft.fft(folded)

        return fold(a, +1), fold(b, -1)

    def level_samples(self, j: int):
        """|Dh|, radii and weights on the 4x4 Gauss grid of level j's cells.

        Returns (dh, r_nodes, radial_weights, angular_weight) where dh has
        shape (4, 4, 2^j): radial node x angular offset x cell.
        """
        if j in self._samples:
            return self._samples[j]
        r_min = max(0.0, 1.0 - 2.0 ** (1 - j))
        width = 1.0 - 2.0 ** -j - r_min
        r_nodes = r_min + _G4X * width
        wr = _G4W * width
        ang_w = _G4W * (2 * math.pi * 2.0 ** -j)
        n_cells = 1 << j
        dh = np.empty((4, 4, n_cells))
        for ri, r in enumerate(r_nodes):
            for gi, g in enumerate(_G4X):
                hz, hzb = self._slice_derivatives(float(r), j, float(g))
                dh[ri, gi] = np.abs(hz) + np.abs(hzb)
        self._samples[j] = (dh, r_nodes, wr, ang_w)
        return self._samples[j]

    # ------------------------------------------------------ the integrals

    def _integral(self, params: EnergyParams, max_level: int,
                  functional: str) -> EnergyReport:
        if max_level < 1:
            raise DomainError("max_level must be >= 1")
        p, alpha, lam = params.p, params.alpha, params.lam
        spec = OrliczSpec(p=p, lam=lam) if functional == "kernel_gauge" \
            else None
        per_level = []
        for j in range(1, max_level + 1):
            dh, r_nodes, wr, ang_w = self.level_samples(j)
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
