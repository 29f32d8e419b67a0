"""Monotone circle maps represented through normalized lifts.

A sense-preserving circle map is stored as a lift ``u : [0,1] -> [0,1]``
with ``u(0) = 0`` and ``u(1) = 1`` (angles measured in turns) together with a
rotation offset ``rho`` (finite, reduced into [0, 1) when the map is made);
the map itself sends ``exp(2 pi i t)`` to
``exp(2 pi i (u(t) + rho))``.  Every lift is a ``PiecewiseLinearLift``: the
breakpoints (xs, ys) that it interpolates linearly, checked once and
exactly where they are made.  The lift is nondecreasing, so plateau maps
(limits of homeomorphisms, e.g. devil-staircase boundary data) are
admissible.  The lift owns the Fourier coefficients of exp(2 pi i u)
(``fourier_coefficients_at``) and its increments over the dyadic cells of
a level (``level_increments``): a piecewise-linear lift computes both
from its pieces, and the staircase lift of ``cantor``, a subclass, from
its schedule (the coefficients by the self-similar recursion).  The
map's coefficients (``fourier_coefficients``) are the lift's times
e^(2 pi i rho).

Inversion solves on a dyadic grid k 2^-n, n = ceil(-log2 tol) + 2, with
the one tolerance tol = max(eval_tolerance 1e-2, 1e-14), so the grid is
2^-49 at its finest: each side of the preimage is the smallest grid point
whose value reaches the target (>= on the left side, > on the right),
which is what n bisection steps over [0, 1] return.  It is read off the
breakpoints (the piece holding the target gives the seed) and settled by
a few unit steps of k; a target the steps do not settle (a nearly flat
piece rounds many grid points to one value) is bisected.  The two sides
differ only where the left one's value is the target itself, so the
right side is searched only there.  When the requested value sits on a
plateau the midpoint of the plateau is returned, so ``invert`` is a
genuine monotone right inverse even for degenerate maps.  The lift is
continuous from 0 to 1, so every finite target has a preimage and none
is refused; on a piece steeper than the grid resolves, the result lies
within one grid step of the preimage.

The map keeps no table of its values: the |Dh| stage reads it once per
build, at the dyadic points k 2^-e of its largest grid, a quarter of them
at a time (``poisson._coefficient_grid``), and exponentiates the samples
in place in that grid.  Arguments are
checked once, at the public entry points (``lift_eval``, ``eval``,
``invert``), which refuse non-finite points; ``_lift``, the interpolation
itself, is what they and the inverse's grid search share.

``eval`` and ``invert`` reduce mod 1 with the bits of ``np.mod(x, 1.0)``
but mostly without its two passes (``_mod_one``): an argument of ``eval``
already in [0, 1) goes to the lift as it is, and a fresh result in
[0, 2) is reduced in place by subtracting 1 where it is >= 1, which is
exact there, then adding 0.0, which turns -0.0 into +0.0 as ``np.mod``
does.  Any other range, and every 0-d value, still goes through
``np.mod``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DomainError

_SNAP_STEPS = 4               # unit steps of k before a target is bisected
_COEFF_BLOCK = 1 << 16        # pieces x frequencies evaluated at once
_MIN_EXP = -1021              # ldexp(m, e) is normal from here, m in [1/2, 1)
_LN2 = math.log(2.0)


@dataclass
class LevelIncrements:
    """Lift increments over the 2^level dyadic cells of one level:
    ``counts[i]`` cells each gain exp(log_deltas[i]) turns; zero increments
    are left out.  Counts are ints and increments logs, since a deep level
    has more cells than a float holds, each gaining less than a float.
    """

    level: int
    log_deltas: np.ndarray
    counts: tuple


def log_ldexp(v, e) -> np.ndarray:
    """log(v 2^e) for positive floats v and integers e, below the float range
    too: ``np.log`` of the float v 2^e wherever that is normal."""
    mant, exp = np.frexp(np.asarray(v, dtype=float))
    exp = exp + np.asarray(e, dtype=np.int64)
    below = np.minimum(exp - _MIN_EXP, 0)
    return np.log(np.ldexp(mant, exp - below)) + below * _LN2


def _as_array(t):
    arr = np.asarray(t, dtype=float)
    return arr, arr.shape == ()


def log2_exact(n: int, name: str) -> int:
    """e with n = 2^e; DomainError unless n is a positive power of two."""
    if not (isinstance(n, (int, np.integer)) and n > 0 and n & (n - 1) == 0):
        raise DomainError(f"{name} must be a positive power of two, "
                          f"got {n!r}")
    return int(n).bit_length() - 1


def _check_finite(arr: np.ndarray, what: str):
    if not np.all(np.isfinite(arr)):
        raise DomainError(f"{what} needs finite points")


def _within(arr, top: float) -> bool:
    """True for a nonempty array with every value in [0, top); NaN fails."""
    return arr.ndim > 0 and arr.size > 0 and arr.min() >= 0.0 \
        and arr.max() < top


def _mod_one(out):
    """``np.mod(out, 1.0)`` bit for bit, in place on [0, 2).

    ``out`` must be an array the caller owns, never the caller's argument.
    """
    if not _within(out, 2.0):
        return np.mod(out, 1.0)
    np.subtract(out, 1.0, out=out, where=out >= 1.0)
    out += 0.0
    return out


class PiecewiseLinearLift:
    """The lift that interpolates its breakpoints (xs, ys) linearly.

    The arrays are checked here, once and exactly: finite, of one length
    >= 2, xs strictly increasing and ys nondecreasing, from (0, 0) to
    (1, 1).  They are copied and made read-only, so the check keeps
    holding.
    """

    # how far the float lift may sit from the map it stands for: a
    # piecewise-linear map is its own lift, so only rounding
    eval_tolerance = 1e-10

    def __init__(self, xs, ys):
        xs, ys = np.array(xs, dtype=float), np.array(ys, dtype=float)
        if xs.ndim != 1 or xs.shape != ys.shape or xs.size < 2:
            raise DomainError("breakpoints need xs and ys of one length, "
                              "at least the two endpoints")
        if not (np.all(np.isfinite(xs)) and np.all(np.isfinite(ys))):
            raise DomainError("breakpoint values must be finite")
        if np.any(np.diff(xs) <= 0):
            raise DomainError("breakpoint x values must be strictly "
                              "increasing")
        if np.any(np.diff(ys) < 0):
            raise DomainError("breakpoint y values must be nondecreasing")
        if (xs[0], ys[0], xs[-1], ys[-1]) != (0.0, 0.0, 1.0, 1.0):
            raise DomainError(
                f"lift must fix 0 and 1: breakpoints run from "
                f"({xs[0]!r}, {ys[0]!r}) to ({xs[-1]!r}, {ys[-1]!r}), "
                f"not from (0, 0) to (1, 1)")
        xs.flags.writeable = ys.flags.writeable = False
        self.xs, self.ys = xs, ys

    def fourier_coefficients_at(self, ks) -> np.ndarray:
        """int_0^1 exp(2 pi i (u(t) - k t)) dt at the integer frequencies ks.

        On a linear piece of width dx and rise dy with midpoint (xm, ym),
        the integral over the piece is exactly
        dx exp(2 pi i (ym - k xm)) sinc(dy - k dx), sinc(x) = sin(pi x)/(pi x);
        this midpoint form has no cancellation where the slope meets k.
        Each c_k is its own sum over the pieces, so it does not depend on
        which other frequencies are asked for alongside it.  The sum runs
        over blocks of about ``_COEFF_BLOCK`` pieces x frequencies (one
        frequency at a time once the pieces alone exceed it).
        """
        ks = np.asarray(ks)
        xs, ys = self.xs, self.ys
        dx, dy = np.diff(xs), np.diff(ys)
        xm, ym = (xs[:-1] + xs[1:]) / 2, (ys[:-1] + ys[1:]) / 2
        out = np.empty(ks.size, dtype=complex)
        step = max(1, _COEFF_BLOCK // dx.size)
        for start in range(0, ks.size, step):
            k = ks[start:start + step, None].astype(float)
            terms = dx * np.exp(2j * np.pi * (ym - k * xm)) \
                * np.sinc(dy - k * dx)
            out[start:start + step] = terms.sum(axis=1)
        return out

    def level_increments(self, j: int) -> LevelIncrements:
        """Increments over the dyadic cells of level j >= 1, by pieces.

        A cell inside one piece gains slope 2^-j, so those are counted per
        piece; a cell with a breakpoint strictly inside is listed on its
        own, its increment read off ``np.interp`` at its ends.  Cell indices
        are exact ints (``float.as_integer_ratio``), so every level works.
        """
        xs, ys = self.xs, self.ys
        floors, ceils, inside = [], [], set()
        for x in xs.tolist():
            num, den = x.as_integer_ratio()
            k, rest = divmod(num << j, den)
            floors.append(k)
            ceils.append(k + (rest > 0))
            if rest:
                inside.add(k)
        # piece i holds the cells ceil(x_i 2^j) .. floor(x_(i+1) 2^j) - 1
        whole = [max(0, b - a) for a, b in zip(ceils[:-1], floors[1:])]
        slopes = np.diff(ys) / np.diff(xs)
        keep = [i for i, n in enumerate(whole) if n and slopes[i] > 0]
        left = np.ldexp(np.array(sorted(inside), dtype=float), -j)
        cut = np.interp(left + math.ldexp(1.0, -j), xs, ys) \
            - np.interp(left, xs, ys)
        cut = cut[cut > 0]
        return LevelIncrements(
            level=j,
            log_deltas=np.concatenate([log_ldexp(slopes[keep], -j),
                                       np.log(cut)]),
            counts=tuple(whole[i] for i in keep) + (1,) * cut.size)

    def __eq__(self, other):
        """Equal lifts: one class and equal breakpoints.

        Defining ``__eq__`` leaves the class unhashable, like ``CircleMap``.
        """
        if type(other) is not type(self):
            return NotImplemented
        return (np.array_equal(self.xs, other.xs)
                and np.array_equal(self.ys, other.ys))


@dataclass
class CircleMap:
    """A circle map given by a normalized lift and a rotation offset."""

    lift: PiecewiseLinearLift
    rotation: float = 0.0
    description: str = "custom"

    def __post_init__(self):
        if not isinstance(self.lift, PiecewiseLinearLift):
            raise DomainError("lift must be a PiecewiseLinearLift, the "
                              "breakpoints (xs, ys) it interpolates linearly")
        if not math.isfinite(self.rotation):
            raise DomainError(
                f"rotation must be finite, got {self.rotation!r}")
        # rho counts only mod 1, and a rho of a turn or more would round
        # away the low bits of u(t) + rho: reduce it once (exactly, so 0.3
        # keeps its bits; a tiny negative rho rounds to 1.0, which is 0.0)
        rho = float(self.rotation) % 1.0
        self.rotation = 0.0 if rho == 1.0 else rho
        # the lift's arrays fix 0 and 1; this reads them back through the
        # evaluation path, identity shortcut included
        u = self.lift_eval(np.array([0.0, 1.0]))
        if abs(u[0]) > 1e-12 or abs(u[1] - 1.0) > 1e-12:
            raise DomainError(
                f"lift must fix 0 and 1 (got u(0)={u[0]!r}, u(1)={u[1]!r})")

    @property
    def eval_tolerance(self) -> float:
        """How far the float lift may sit from the map it stands for."""
        return self.lift.eval_tolerance

    # ---------------------------------------------------------------- eval

    def _lift(self, arr: np.ndarray) -> np.ndarray:
        """u on an array already in [0,1]."""
        xs, ys = self.lift.xs, self.lift.ys
        if xs.size == 2:
            # (0, 0) to (1, 1) is the identity, which a two-point np.interp
            # would only slow down
            return arr
        return np.interp(arr, xs, ys)

    def lift_eval(self, t):
        """Normalized lift u(t) for t in [0,1] (scalar or array)."""
        arr, scalar = _as_array(t)
        # written so that NaN fails it too
        if not np.all((arr >= -1e-12) & (arr <= 1 + 1e-12)):
            raise DomainError("lift argument outside [0,1]")
        out = self._lift(np.clip(arr, 0.0, 1.0))
        return float(out) if scalar else out

    def eval(self, t):
        """Image position in turns: (u(t mod 1) + rotation) mod 1."""
        arr, scalar = _as_array(t)
        # np.mod would return [0, 1) as it is, up to the sign of a zero,
        # which the sum below and _mod_one make +0.0 either way
        if not _within(arr, 1.0):
            _check_finite(arr, "eval")
            arr = np.mod(arr, 1.0)
        out = _mod_one(self._lift(arr) + self.rotation)
        return float(out) if scalar else out

    def fourier_coefficients(self, K: int) -> np.ndarray:
        """c_k of exp(2 pi i (u(t) + rho)) for k = -K..K, index k + K."""
        if K < 0:
            raise DomainError(f"need K >= 0, got {K}")
        return self.fourier_coefficients_at(np.arange(-K, K + 1))

    def fourier_coefficients_at(self, ks) -> np.ndarray:
        """c_k of exp(2 pi i (u(t) + rho)) at the integer frequencies ks:
        e^(2 pi i rho) times the lift's own coefficients."""
        return np.exp(2j * np.pi * self.rotation) \
            * self.lift.fourier_coefficients_at(ks)

    # -------------------------------------------------------------- invert

    def invert(self, y):
        """Monotone inverse of ``eval`` with plateau-midpoint convention.

        Returns t in [0,1) with eval(t) = y (mod 1), solved to the grid of
        tol = max(eval_tolerance 1e-2, 1e-14).  If y falls on a plateau of
        the lift the midpoint of the plateau is returned.  The two sides
        are the smallest grid points with u >= target and with u > target;
        they differ only where the first lands on the target itself, so
        the strict side is searched for those targets alone.
        """
        tol = max(self.eval_tolerance * 1e-2, 1e-14)
        arr, scalar = _as_array(y)
        _check_finite(arr, "invert")
        target = _mod_one(arr - self.rotation)
        t = np.reshape(target, -1)

        left = self._bisect_smallest(t, tol)
        # left passes u > t unless u(left) = t, and every grid point below
        # it fails u >= t and so u > t: the strict side is left but there
        tie = (left < 1.0) & (self._lift(left) == t)
        right = left.copy()
        right[tie] = self._bisect_smallest(t[tie], tol, strict=True)
        out = _mod_one((0.5 * (left + right)).reshape(np.shape(target)))
        return float(out) if scalar else out

    def _bisect_smallest(self, target, tol, strict=False):
        """Smallest x = k 2^-n, 1 <= k < 2^n, with u(x) >= target (> target
        when strict), else 1; n = ceil(-log2 tol) + 2.

        That is what n bisection steps over [0, 1] return.  The piece of
        the lift holding the target gives a seed x*, k starts at
        ceil(x* 2^n) and steps to the first k that passes; targets left
        after ``_SNAP_STEPS`` steps either way are bisected.
        """
        n = max(0, int(np.ceil(-np.log2(tol))) + 2)
        top, scale = 2.0 ** n, 2.0 ** -n
        t = target.reshape(-1)

        def passes(x, idx):
            vals = self._lift(x)
            return vals > t[idx] if strict else vals >= t[idx]

        xs, ys = self.lift.xs, self.lift.ys
        j = np.clip(np.searchsorted(ys, t, side="right" if strict else "left"),
                    1, ys.size - 1)
        dy = ys[j] - ys[j - 1]
        # a flat piece (dy = 0) seeds at its left end
        rise = np.divide(t - ys[j - 1], dy, out=np.zeros_like(t),
                         where=dy > 0)
        seed = xs[j - 1] + rise * (xs[j] - xs[j - 1])
        k = np.clip(np.ceil(seed * top), 1.0, top)

        every = np.arange(t.size)
        held = passes(k * scale, every)
        # up while k fails; k = 2^n is taken untested, as by the bisection
        up = every[~held & (k < top)]
        for _ in range(_SNAP_STEPS):
            if not up.size:
                break
            k[up] += 1.0
            up = up[k[up] < top]
            up = up[~passes(k[up] * scale, up)]
        # down while k - 1 still passes (bisection never tests x = 0)
        down = every[held & (k > 1.0)]
        down = down[passes((k[down] - 1.0) * scale, down)]
        for _ in range(_SNAP_STEPS):
            if not down.size:
                break
            k[down] -= 1.0
            down = down[k[down] > 1.0]
            down = down[passes((k[down] - 1.0) * scale, down)]

        rest = np.concatenate([up, down])
        if rest.size:
            lo, hi = np.zeros(rest.size), np.ones(rest.size)
            for _ in range(n):
                mid = 0.5 * (lo + hi)
                take_hi = passes(mid, rest)
                hi = np.where(take_hi, mid, hi)
                lo = np.where(take_hi, lo, mid)
            k[rest] = hi * top
        return (k * scale).reshape(target.shape)

    # ------------------------------------------------------- dyadic images

    def level_increments(self, j: int) -> LevelIncrements:
        """Lift increments over the dyadic cells of level j, from the lift."""
        if j < 1:
            raise DomainError(f"level must be >= 1, got {j}")
        return self.lift.level_increments(j)


# ------------------------------------------------------------ constructors

def identity() -> CircleMap:
    return CircleMap(lift=PiecewiseLinearLift([0.0, 1.0], [0.0, 1.0]),
                     description="identity")


def rotation_map(rho: float) -> CircleMap:
    return CircleMap(lift=PiecewiseLinearLift([0.0, 1.0], [0.0, 1.0]),
                     rotation=float(rho), description=f"rotation:{rho}")


def piecewise_linear(breakpoints: Sequence[tuple[float, float]]) -> CircleMap:
    """Circle map whose lift linearly interpolates (x_i, y_i) breakpoints.

    The breakpoints are taken in order of x and must start at (0,0), end
    at (1,1), have strictly increasing x and nondecreasing y.
    """
    pts = sorted((float(x), float(y)) for x, y in breakpoints)
    lift = PiecewiseLinearLift([x for x, _ in pts], [y for _, y in pts])
    desc = "piecewise_linear:" + ";".join(f"{x:g},{y:g}" for x, y in pts)
    return CircleMap(lift=lift, description=desc)


def _number(text: str, message: str) -> float:
    """``float(text)``, or DomainError(message) unless it is finite."""
    try:
        value = float(text)
    except ValueError as exc:
        raise DomainError(message) from exc
    if not math.isfinite(value):
        raise DomainError(f"{message}: {text!r} is not finite")
    return value


def from_description(text: str) -> CircleMap:
    """Build a map from its textual description.

    Grammar (one line, no spaces; every number finite):
        identity
        rotation:<rho>
        piecewise_linear:<x0>,<y0>;<x1>,<y1>;...
        cantor_log:s=<s>,depth=<N>
        cantor_loglog:p=<p>,depth=<N>
    """
    text = text.strip()
    if text == "identity":
        return identity()
    if text.startswith("rotation:"):
        return rotation_map(_number(text.split(":", 1)[1],
                                    f"bad rotation amount in {text!r}"))
    if text.startswith("piecewise_linear:"):
        body = text.split(":", 1)[1]
        pts = []
        for chunk in body.split(";"):
            parts = chunk.split(",")
            if len(parts) != 2:
                raise DomainError(f"bad breakpoint {chunk!r} in {text!r}")
            pts.append(tuple(_number(x, f"bad breakpoint {chunk!r}")
                             for x in parts))
        return piecewise_linear(pts)
    if text.startswith(("cantor_log:", "cantor_loglog:")):
        kind, body = text.split(":", 1)
        kv = {}
        for chunk in body.split(","):
            if "=" not in chunk:
                raise DomainError(f"bad key=value chunk {chunk!r} in {text!r}")
            key, val = chunk.split("=", 1)
            kv[key.strip()] = val.strip()
        from . import cantor  # local import to avoid a cycle
        try:
            depth = int(kv.pop("depth"))
        except (KeyError, ValueError) as exc:
            raise DomainError(f"{kind} needs integer depth=<N>") from exc
        if kind == "cantor_log":
            s = _number(kv.pop("s", ""), "cantor_log needs s=<float>")
            if kv:
                raise DomainError(f"unknown keys {sorted(kv)} for cantor_log")
            return cantor.make_staircase_map("power", s, depth)
        p = _number(kv.pop("p", ""), "cantor_loglog needs p=<float>")
        if kv:
            raise DomainError(f"unknown keys {sorted(kv)} for cantor_loglog")
        return cantor.make_staircase_map("double_exp", p, depth)
    raise DomainError(f"unrecognized map description {text!r}")
