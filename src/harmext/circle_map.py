"""Monotone circle maps represented through normalized lifts.

A sense-preserving circle map is stored as a lift ``u : [0,1] -> [0,1]``
with ``u(0) = 0`` and ``u(1) = 1`` (angles measured in turns) together with a
rotation offset ``rho``; the map itself sends ``exp(2 pi i t)`` to
``exp(2 pi i (u(t) + rho))``.  The lift is required to be nondecreasing, so
plateau maps (limits of homeomorphisms, e.g. devil-staircase boundary data)
are admissible.

Inversion uses bisection; when the requested value sits on a plateau the
midpoint of the plateau is returned, so ``invert`` is a genuine monotone
right inverse even for degenerate maps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import DomainError, LabError

# Hard cap on the number of dyadic cells enumerated explicitly at one level.
MAX_LEVEL_CELLS = 2 ** 22

_MONOTONE_CHECK_POINTS = 4097
_MONOTONE_SLACK = 1e-12
_MAX_BISECTIONS = 200


@dataclass
class LevelIncrements:
    """Lift increments over the 2^level dyadic arcs of one level.

    ``deltas`` holds the increments (in turns) of explicitly enumerated
    cells.  ``plateau_count`` counts the remaining cells on which the lift
    gains exactly the background increment ``2^-(level+1)`` (half the cell
    width, as happens away from the active set of a staircase lift).  For
    generic maps every cell is enumerated and ``plateau_count`` is 0.
    ``plateau_count`` may exceed the float range, hence the plain int.
    """

    level: int
    deltas: np.ndarray
    plateau_count: int = 0

    @property
    def background_log2_delta(self) -> float:
        return -(self.level + 1)


def _as_array(t):
    arr = np.asarray(t, dtype=float)
    return arr, arr.shape == ()


@dataclass
class CircleMap:
    """A circle map given by a normalized lift and a rotation offset."""

    lift: Callable[[np.ndarray], np.ndarray]
    rotation: float = 0.0
    eval_tolerance: float = 1e-10
    description: str = "custom"

    def __post_init__(self):
        u = self.lift_eval(np.array([0.0, 1.0]))
        if abs(u[0]) > 1e-12 or abs(u[1] - 1.0) > 1e-12:
            raise DomainError(
                f"lift must fix 0 and 1 (got u(0)={u[0]!r}, u(1)={u[1]!r})")
        grid = np.linspace(0.0, 1.0, _MONOTONE_CHECK_POINTS)
        vals = self.lift_eval(grid)
        if np.any(np.diff(vals) < -_MONOTONE_SLACK):
            raise DomainError("lift is not nondecreasing")

    # ---------------------------------------------------------------- eval

    def lift_eval(self, t):
        """Normalized lift u(t) for t in [0,1] (scalar or array)."""
        arr, scalar = _as_array(t)
        if np.any(arr < -1e-12) or np.any(arr > 1 + 1e-12):
            raise DomainError("lift argument outside [0,1]")
        arr = np.clip(arr, 0.0, 1.0)
        out = np.clip(np.asarray(self.lift(arr), dtype=float), 0.0, 1.0)
        return float(out) if scalar else out

    def eval(self, t):
        """Image position in turns: (u(t mod 1) + rotation) mod 1."""
        arr, scalar = _as_array(t)
        frac = np.mod(arr, 1.0)
        out = np.mod(self.lift_eval(frac) + self.rotation, 1.0)
        return float(out) if scalar else out

    # -------------------------------------------------------------- invert

    def invert(self, y, tol: float | None = None):
        """Monotone inverse of ``eval`` with plateau-midpoint convention.

        Returns t in [0,1) with eval(t) = y (mod 1).  If y falls on a
        plateau of the lift the midpoint of the plateau is returned.
        """
        if tol is None:
            tol = max(self.eval_tolerance * 1e-2, 1e-14)
        elif not (math.isfinite(tol) and tol > 0):
            raise DomainError(f"tol must be a positive finite number, "
                              f"got {tol}")
        arr, scalar = _as_array(y)
        target = np.mod(arr - self.rotation, 1.0)

        left = self._bisect_smallest(target, tol)
        right = self._bisect_smallest(target, tol, strict=True)
        mid = 0.5 * (left + right)
        resid = np.abs(self.lift_eval(np.clip(mid, 0.0, 1.0)) - target)
        # residual may legitimately be ~plateau tolerance; a large residual
        # means the lift jumped (not a homeomorphism limit) -> refuse.
        if np.any(resid > np.sqrt(tol) + 10 * self.eval_tolerance + 1e-6):
            raise LabError("bisection could not match the target value")
        out = np.mod(mid, 1.0)
        return float(out) if scalar else out

    def _bisect_smallest(self, target, tol, strict=False):
        """Smallest x with u(x) >= target (or > target when strict)."""
        lo = np.zeros_like(target)
        hi = np.ones_like(target)
        n_iter = min(_MAX_BISECTIONS, int(np.ceil(-np.log2(tol))) + 2)
        for _ in range(n_iter):
            mid = 0.5 * (lo + hi)
            vals = self.lift_eval(mid)
            if strict:
                take_hi = vals > target
            else:
                take_hi = vals >= target
            hi = np.where(take_hi, mid, hi)
            lo = np.where(take_hi, lo, mid)
        return hi

    # ------------------------------------------------------- dyadic images

    def arc_image_length(self, j: int, k: int) -> float:
        """Arc length of the image of the k-th dyadic boundary arc at level j.

        The source arc is [2 pi (k-1) 2^-j, 2 pi k 2^-j]; its image length is
        2 pi (u(k 2^-j) - u((k-1) 2^-j)).
        """
        if j < 1:
            raise DomainError(f"level must be >= 1, got {j}")
        if not (1 <= k <= 2 ** j):
            raise DomainError(f"arc index {k} outside 1..2^{j}")
        a = (k - 1) * 2.0 ** -j
        b = k * 2.0 ** -j
        return 2 * np.pi * (self.lift_eval(b) - self.lift_eval(a))

    def level_increments(self, j: int) -> LevelIncrements:
        """Lift increments over all dyadic arcs of level j.

        Uses the structure-aware path when the lift provides one (staircase
        lifts), otherwise enumerates all 2^j cells subject to the budget.
        """
        if j < 1:
            raise DomainError(f"level must be >= 1, got {j}")
        grouped = getattr(self.lift, "level_increment_groups", None)
        if grouped is not None:
            special, plateau_count = grouped(j)
            return LevelIncrements(level=j,
                                   deltas=np.asarray(special, dtype=float),
                                   plateau_count=plateau_count)
        if 2 ** j > MAX_LEVEL_CELLS:
            raise LabError(
                f"level {j} needs 2^{j} cells > budget {MAX_LEVEL_CELLS}")
        grid = np.linspace(0.0, 1.0, 2 ** j + 1)
        vals = self.lift_eval(grid)
        return LevelIncrements(level=j, deltas=np.diff(vals), plateau_count=0)


# ------------------------------------------------------------ constructors

class _IdentityLift:
    def __call__(self, t):
        return t


class _PiecewiseLinearLift:
    def __init__(self, xs, ys):
        self.xs = np.asarray(xs, dtype=float)
        self.ys = np.asarray(ys, dtype=float)

    def __call__(self, t):
        return np.interp(t, self.xs, self.ys)


def identity() -> CircleMap:
    return CircleMap(lift=_IdentityLift(), description="identity")


def rotation_map(rho: float) -> CircleMap:
    return CircleMap(lift=_IdentityLift(), rotation=float(rho),
                     description=f"rotation:{rho}")


def piecewise_linear(breakpoints: Sequence[tuple[float, float]]) -> CircleMap:
    """Circle map whose lift linearly interpolates (x_i, y_i) breakpoints.

    The breakpoints must start at (0,0), end at (1,1), have strictly
    increasing x and nondecreasing y.
    """
    pts = sorted((float(x), float(y)) for x, y in breakpoints)
    if len(pts) < 2:
        raise DomainError("need at least the two endpoint breakpoints")
    xs = np.array([p[0] for p in pts])
    ys = np.array([p[1] for p in pts])
    if abs(xs[0]) > 1e-12 or abs(xs[-1] - 1) > 1e-12:
        raise DomainError("breakpoint x-range must be exactly [0,1]")
    if abs(ys[0]) > 1e-12 or abs(ys[-1] - 1) > 1e-12:
        raise DomainError("breakpoint y-range must be exactly [0,1]")
    if np.any(np.diff(xs) <= 0):
        raise DomainError("breakpoint x values must be strictly increasing")
    if np.any(np.diff(ys) < 0):
        raise DomainError("breakpoint y values must be nondecreasing")
    desc = "piecewise_linear:" + ";".join(f"{x:g},{y:g}" for x, y in pts)
    return CircleMap(lift=_PiecewiseLinearLift(xs, ys), description=desc)


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
