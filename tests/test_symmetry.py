"""Exact symmetries of the six functionals, as oracles that need no
reference values.

Two transforms of a circle map phi(t) = exp(2 pi i (u(t) + rho)) leave
every functional unchanged:

* reflection, the conjugation by z -> conj(z): the lift becomes
  1 - u(1 - t), whose breakpoints are (1 - xs, 1 - ys) reversed, and rho
  becomes -rho.  The dyadic arcs, the rings, the Gauss offsets and the
  ring nodes are all symmetric under t -> 1 - t, so each computed value is
  unchanged to rounding, level by level;
* pre-rotation by a quarter turn, psi(t) = phi(t + 1/4): the lift becomes
  u(t + 1/4) - u(1/4), and rho becomes rho + u(1/4).  The quarter turn
  maps every dyadic cell of level >= 2 onto a cell, so ``u`` and ``v``
  agree in total, and ``e1``, ``e2``, ``i1`` and ``i2`` level by level
  from level 2.  Level 1 is not a symmetry of the computation: for
  ``e1``/``e2`` it is the dyadic split itself, and for ``i1``/``i2`` it is
  level 1's quadrature error (1.2e-4 to 4.2e-4 of the total here).

Measured largest differences, relative to the total: reflection 5.1e-16
for the five functionals besides ``v`` and 1.2e-11 for ``v`` (whose
inverse is solved on a grid); quarter turn 5.1e-16 for ``u``, 2.0e-11
for ``v`` and 2.1e-16 per level from level 2 for the other four.
"""

import math

import numpy as np
import pytest

from conftest import build_fleet
from harmext import cli
from harmext.circle_map import CircleMap, PiecewiseLinearLift, from_description
from harmext.report import EnergyParams

LEVELS = 12          # levels of e1, e2, i1, i2 and rings of u; v has 28
POINTS = [EnergyParams(2.0, 0.0, 0.0), EnergyParams(3.0, 0.5, 0.5)]
RTOL = 1e-13         # e1, e2, i1, i2, u
V_RTOL = 1e-10       # v, through the inverse's grid
# v is 0 on the identity and on the rotation at (2, 0, 0)
ABS_FLOOR = 1e-14
# compared level by level from level 2 under the quarter turn
PER_LEVEL = {"e1", "e2", "i1", "i2"}

MAPS = ["identity", "rotation", "pl_mild", "pl_kinked", "staircase_s2",
        "piecewise_linear:0,0;0.3,0.1;0.7,0.8;1,1",
        "piecewise_linear:0,0;0.1,0.35;0.45,0.4;0.8,0.95;1,1"]


def reflect(m: CircleMap) -> CircleMap:
    """The map conj(phi(1 - t)): lift 1 - u(1 - t), rotation -rho."""
    xs, ys = m.lift.xs, m.lift.ys
    return CircleMap(PiecewiseLinearLift((1.0 - xs)[::-1], (1.0 - ys)[::-1]),
                     rotation=-m.rotation, description=m.description)


def quarter_turn(m: CircleMap) -> CircleMap:
    """The map phi(t + 1/4): lift u(t + 1/4) - u(1/4), rotation
    rho + u(1/4).  A breakpoint x of u past 1/4 moves to x - 1/4, one
    before it to x + 3/4 and up by 1 (0 and 1 are one point)."""
    xs, ys = m.lift.xs, m.lift.ys
    u4 = float(m.lift_eval(0.25))
    after, before = (xs > 0.25) & (xs < 1.0), xs < 0.25
    tx = np.concatenate([[0.0], xs[after] - 0.25, xs[before] + 0.75, [1.0]])
    ty = np.concatenate([[0.0], ys[after] - u4, ys[before] + 1.0 - u4,
                         [1.0]])
    return CircleMap(PiecewiseLinearLift(tx, ty), rotation=m.rotation + u4,
                     description=m.description)


TRANSFORMS = {"reflection": reflect, "quarter_turn": quarter_turn}


@pytest.fixture(scope="module")
def reports():
    """(map, transform or None) -> the six reports at each of POINTS, in
    the order of ``cli.FUNCTIONALS``, computed once per module."""
    fleet = build_fleet()
    cache = {}

    def get(name, transform=None):
        key = (name, transform)
        if key not in cache:
            m = fleet[name] if name in fleet else from_description(name)
            if transform is not None:
                m = TRANSFORMS[transform](m)
            stages = {}
            cache[key] = [
                dict(zip(cli.FUNCTIONALS, cli._compute_reports(
                    m, stages, list(cli.FUNCTIONALS), params, LEVELS)))
                for params in POINTS]
        return cache[key]

    return get


def assert_close(a: float, b: float, scale: float, rtol: float, what):
    assert math.isfinite(a) and math.isfinite(b), what
    assert abs(a - b) <= rtol * abs(scale) + ABS_FLOOR, (what, a, b)


# the staircase lift is its own reflection, and its breakpoints in a
# PiecewiseLinearLift give the first five functionals exactly; its v
# follows the lift class, since ``invert`` solves on the grid of the
# class's eval_tolerance (2^-19 for the staircase, 2^-42 for a
# piecewise-linear lift): 1.4e-2 apart at (2, 0, 0) and 100% apart at
# (3, 0.5, 0.5), until v uses the exact inverse (ROADMAP item 2)
STAIRCASE_V = pytest.mark.xfail(
    strict=True, reason="the staircase's v follows invert's grid, which "
    "follows the lift class (ROADMAP item 2, the exact inverse)")


def cases():
    for transform in TRANSFORMS:
        for name in MAPS:
            for f in cli.FUNCTIONALS:
                marks = [STAIRCASE_V] if (name, f) == ("staircase_s2",
                                                       "v") else []
                yield pytest.param(name, transform, f, marks=marks,
                                   id=f"{transform}-{name}-{f}")


@pytest.mark.parametrize("name, transform, functional", cases())
def test_functional_is_invariant(reports, name, transform, functional):
    rtol = V_RTOL if functional == "v" else RTOL
    for params, before, after in zip(POINTS, reports(name),
                                     reports(name, transform)):
        a, b = before[functional], after[functional]
        what = (functional, params)
        assert a.levels == b.levels, what
        if transform == "quarter_turn" and functional in PER_LEVEL:
            for j, x, y in zip(a.levels[1:], a.per_level[1:],
                               b.per_level[1:]):
                assert_close(x, y, a.value, rtol, what + (j,))
        else:
            assert_close(a.value, b.value, a.value, rtol, what)
