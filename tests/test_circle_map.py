"""Tests for the lift-based circle map representation."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from harmext import circle_map
from harmext.cantor import make_staircase_map
from harmext.errors import DomainError

PL = ((0.0, 0.0), (0.5, 0.25), (1.0, 1.0))


# ------------------------------------------------------------------ eval

def test_identity_eval():
    m = circle_map.identity()
    assert m.eval(0.25) == pytest.approx(0.25, abs=1e-15)


def test_piecewise_linear_breakpoint_readout():
    m = circle_map.piecewise_linear(PL)
    assert m.eval(0.5) == pytest.approx(0.25, abs=1e-15)


def test_staircase_midpoint_value():
    # midpoint of the first kept plateau carries the value 1/2
    m = make_staircase_map("power", 2.0, 10)
    assert m.eval(0.5) == pytest.approx(0.5, abs=m.eval_tolerance)


def test_eval_domain_error():
    m = circle_map.identity()
    with pytest.raises(DomainError):
        m.lift_eval(1.5)
    with pytest.raises(DomainError):
        m.lift_eval(-0.1)


def test_eval_wraps_mod_one():
    m = circle_map.rotation_map(0.75)
    assert m.eval(0.5) == pytest.approx(0.25, abs=1e-12)


# ---------------------------------------------------------------- invert

def test_invert_identity():
    m = circle_map.identity()
    assert m.invert(0.7, tol=1e-12) == pytest.approx(0.7, abs=1e-10)


def test_invert_piecewise_linear():
    m = circle_map.piecewise_linear(PL)
    assert m.invert(0.25) == pytest.approx(0.5, abs=1e-9)


def test_invert_staircase_plateau_midpoint():
    # oracle: dense grid scan of the lift for the preimage of 1/2
    m = make_staircase_map("power", 2.0, 10)
    grid = np.linspace(0.0, 1.0, 1 << 14)
    vals = m.eval(grid)
    close = grid[np.abs(vals - 0.5) <= 2 * m.eval_tolerance]
    oracle_mid = 0.5 * (close.min() + close.max())
    assert m.invert(0.5) == pytest.approx(oracle_mid, abs=1e-3)
    assert m.invert(0.5) == pytest.approx(0.5, abs=1e-6)


@pytest.mark.parametrize("tol", [0.0, math.nan])
def test_invert_rejects_bad_tolerance(tol):
    with pytest.raises(DomainError):
        circle_map.identity().invert(0.5, tol=tol)


def test_invert_respects_rotation():
    m = circle_map.rotation_map(0.3)
    y = m.eval(0.62)
    assert m.invert(y) == pytest.approx(0.62, abs=1e-9)


@settings(max_examples=60, deadline=None)
@given(st.floats(min_value=0.001, max_value=0.999))
def test_invert_eval_roundtrip(t):
    m = circle_map.piecewise_linear(((0.0, 0.0), (0.3, 0.2), (1.0, 1.0)))
    assert abs(m.invert(m.eval(t)) - t) <= 1e-8


# --------------------------------------------------------- image lengths

def test_arc_image_length_identity():
    m = circle_map.identity()
    assert m.arc_image_length(3, 5) == pytest.approx(2 * math.pi / 8,
                                                     rel=1e-14)


def test_arc_image_length_piecewise_linear():
    m = circle_map.piecewise_linear(PL)
    assert m.arc_image_length(1, 1) == pytest.approx(math.pi / 2, rel=1e-13)


def test_arc_image_lengths_telescope():
    for m in (circle_map.identity(), circle_map.piecewise_linear(PL)):
        total = sum(m.arc_image_length(4, k) for k in range(1, 17))
        assert total == pytest.approx(2 * math.pi, rel=1e-12)


def test_arc_image_refinement_consistency():
    m = circle_map.piecewise_linear(PL)
    for j in (2, 3, 4):
        for k in range(1, 2 ** j + 1):
            parent = m.arc_image_length(j, k)
            children = (m.arc_image_length(j + 1, 2 * k - 1)
                        + m.arc_image_length(j + 1, 2 * k))
            assert parent == pytest.approx(children, abs=1e-12)


def test_arc_image_length_rotation_invariant():
    base = circle_map.identity()
    rot = circle_map.rotation_map(0.3)
    for (j, k) in ((1, 1), (3, 5), (6, 40)):
        assert rot.arc_image_length(j, k) == base.arc_image_length(j, k)


def test_arc_image_length_index_errors():
    m = circle_map.identity()
    with pytest.raises(DomainError):
        m.arc_image_length(0, 1)
    with pytest.raises(DomainError):
        m.arc_image_length(3, 9)


def test_level_increments_match_arc_lengths():
    m = circle_map.piecewise_linear(PL)
    inc = m.level_increments(5)
    assert inc.plateau_count == 0
    direct = np.array([m.arc_image_length(5, k) / (2 * math.pi)
                       for k in range(1, 33)])
    np.testing.assert_allclose(inc.deltas, direct, atol=1e-14)


# ---------------------------------------------------------- constructors

def test_lift_must_fix_endpoints():
    with pytest.raises(DomainError):
        circle_map.CircleMap(lift=lambda t: np.asarray(t) * 0.5)


def test_lift_must_be_monotone():
    with pytest.raises(DomainError):
        circle_map.piecewise_linear(((0, 0), (0.5, 0.9), (0.6, 0.2), (1, 1)))


def test_from_description_roundtrip():
    for desc in ("identity", "rotation:0.3",
                 "piecewise_linear:0,0;0.5,0.25;1,1",
                 "cantor_log:s=2,depth=10", "cantor_loglog:p=2,depth=3"):
        m = circle_map.from_description(desc)
        assert m.description.split(":")[0] == desc.split(":")[0]
        # a description reparses to an equivalent map
        m2 = circle_map.from_description(m.description)
        t = np.linspace(0, 1, 257)
        np.testing.assert_allclose(m.eval(t), m2.eval(t), atol=1e-12)


@pytest.mark.parametrize("bad", [
    "triangle", "rotation:fast", "piecewise_linear:0,0;1",
    "cantor_log:depth=4", "cantor_log:s=2", "cantor_loglog:p=2,depth=3,x=1",
])
def test_from_description_rejects_malformed(bad):
    with pytest.raises(DomainError):
        circle_map.from_description(bad)
