"""Tests for the lift-based circle map representation."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from harmext import circle_map
from harmext.boundary import inverse_kernel_geometries
from harmext.cantor import make_staircase_map
from harmext.errors import DomainError

from conftest import build_fleet

PL = ((0.0, 0.0), (0.5, 0.25), (1.0, 1.0))
STEEP = "piecewise_linear:0,0;0.5,0.1;0.50000001,0.9;1,1"
FLEET_NAMES = ("identity", "rotation", "pl_mild", "pl_kinked", "staircase_s2")


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


@pytest.mark.parametrize("rho,want", [
    (0.3, 0.3), (1.75, 0.75), (-0.25, 0.75), (1e300, 0.0), (-1e-20, 0.0),
    (-0.0, 0.0), (10000000000.3, 10000000000.3 % 1.0)])
def test_rotation_is_reduced_once_into_the_unit_interval(rho, want):
    m = circle_map.rotation_map(rho)
    assert _same_bits(m.rotation, want)
    assert m.description == f"rotation:{rho}"


@pytest.mark.parametrize("rho", [math.nan, math.inf, -math.inf])
def test_non_finite_rotation_is_refused(rho):
    with pytest.raises(DomainError, match="rotation must be finite"):
        circle_map.CircleMap(lift=circle_map.identity().lift, rotation=rho)


def test_a_rotation_past_a_turn_keeps_the_bits_of_its_fraction():
    # u(t) + 1e10 + 0.3 would round away the low bits of u(t)
    far = circle_map.rotation_map(10000000000.3)
    near = circle_map.rotation_map(10000000000.3 % 1.0)
    t = np.linspace(0.0, 1.0, 1001)
    assert _same_bits(far.eval(t), near.eval(t))
    assert _same_bits(far.invert(t), near.invert(t))
    assert _same_bits(far.fourier_coefficients(64),
                      near.fourier_coefficients(64))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("method", ["eval", "lift_eval", "invert"])
def test_non_finite_points_are_refused(method, bad):
    call = getattr(circle_map.piecewise_linear(PL), method)
    with pytest.raises(DomainError):
        call(bad)
    with pytest.raises(DomainError):
        call(np.array([0.25, bad]))


# ------------------------------------------------------- mod-1 reduction
# eval and invert reduce mod 1 without np.mod where the range allows; the
# references below are the np.mod forms, compared bit for bit (signbit
# included) on every range and shape the reduction distinguishes.

BELOW_1 = np.nextafter(1.0, 0.0)
BELOW_2 = np.nextafter(2.0, 0.0)
MOD_POINTS = {
    "unit": [0.0, -0.0, 5e-324, 0.25, 0.5, BELOW_1],
    "one_to_two": [1.0, 1.25, BELOW_2, 0.0, BELOW_1],
    "negative": [-0.0, -1e-20, -0.25, -1.0, -BELOW_1, -3.5],
    "wide": [2.0, 7.25, -7.25, 1e6, 0.5],
}
MOD_MAPS = {
    **{name: build_fleet()[name] for name in FLEET_NAMES},
    "rotation_below_1": circle_map.rotation_map(BELOW_1),
    "rotation_minus_zero": circle_map.rotation_map(-0.0),
    "rotation_negative": circle_map.rotation_map(-0.25),
    "rotation_past_1": circle_map.rotation_map(1.75),
    "pl_rotated": circle_map.CircleMap(
        lift=circle_map.piecewise_linear(PL).lift, rotation=BELOW_1),
}


def _mod_eval(m, t):
    arr = np.asarray(t, dtype=float)
    return np.mod(m._lift(np.mod(arr, 1.0)) + m.rotation, 1.0)


def _same_bits(got, want):
    got, want = np.asarray(got), np.asarray(want)
    return got.dtype == want.dtype and got.shape == want.shape \
        and got.tobytes() == want.tobytes()


@pytest.mark.parametrize("points", sorted(MOD_POINTS))
@pytest.mark.parametrize("name", sorted(MOD_MAPS))
def test_eval_is_the_np_mod_form_bit_for_bit(name, points):
    m, t = MOD_MAPS[name], np.array(MOD_POINTS[points])
    assert _same_bits(m.eval(t), _mod_eval(m, t))
    for x in t:
        got = m.eval(x)
        assert isinstance(got, float)
        assert _same_bits(got, _mod_eval(m, x)), x


@pytest.mark.parametrize("name", sorted(MOD_MAPS))
def test_eval_of_no_points(name):
    got = MOD_MAPS[name].eval(np.array([]))
    assert got.shape == (0,) and got.dtype == float


@pytest.mark.parametrize("points", sorted(MOD_POINTS))
@pytest.mark.parametrize("name", sorted(MOD_MAPS))
def test_invert_is_the_np_mod_form_bit_for_bit(name, points, monkeypatch):
    m, y = MOD_MAPS[name], np.array(MOD_POINTS[points])
    got = m.invert(y)
    got_scalar = [m.invert(x) for x in y]
    monkeypatch.setattr(circle_map, "_mod_one", lambda v: np.mod(v, 1.0))
    assert _same_bits(got, m.invert(y))
    for x, g in zip(y, got_scalar):
        assert isinstance(g, float)
        assert _same_bits(g, m.invert(x)), x
    assert m.invert(np.array([])).shape == (0,)


@pytest.mark.parametrize("rho", [0.0, 0.75])
def test_eval_and_invert_leave_their_argument_alone(rho):
    # the identity's lift hands its argument back, so a reduction in place
    # would write into the caller's array
    m = circle_map.rotation_map(rho) if rho else circle_map.identity()
    for t in (np.array([0.0, 0.25, BELOW_1]), np.array([0.5, 1.5])):
        keep = t.copy()
        m.eval(t)
        m.invert(t)
        assert _same_bits(t, keep)


# ------------------------------------------------------- dyadic samples
# The |Dh| stage reads the map at the dyadic points k/n, a quarter of them
# at a time: row r of its coefficient grid gets e^(2 pi i eval(k/n)) at
# k = 4t + r.

DYADIC_LEVELS = (3, 21, 10, 14, 18)


@pytest.mark.parametrize("name", FLEET_NAMES)
def test_dyadic_values_are_eval_in_any_order(fleet, name):
    # each order starts from a fresh map; every row's samples are those of
    # the natural order at its indices
    want = {}
    for e in DYADIC_LEVELS:
        n = 1 << e
        want[e] = np.exp(2j * np.pi * fleet[name].eval(np.arange(n) / n))
    for order in (DYADIC_LEVELS, DYADIC_LEVELS[::-1]):
        m = build_fleet()[name]
        for e in order:
            n = 1 << e
            for r in range(4):
                row = np.exp(2j * np.pi * m.eval(np.arange(r, n, 4) / n))
                assert np.array_equal(row, want[e][r::4]), (order, e, r)


# ---------------------------------------------------------------- invert

def test_invert_identity():
    m = circle_map.identity()
    assert m.invert(0.7) == pytest.approx(0.7, abs=1e-10)


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


def test_invert_steep_piece():
    # the middle piece is 1e-8 wide and rises by 0.8, so one step of the
    # inverse's grid (2^-42 for a piecewise-linear map) moves the lift by
    # about 2e-5: no grid point matches the target that closely
    m = circle_map.from_description(STEEP)
    t = m.invert(np.linspace(0.0, 1.0, 4096, endpoint=False))
    assert np.all((t >= 0.0) & (t < 1.0)) and np.all(np.diff(t) >= 0.0)
    on_piece = 0.5 + np.linspace(0.0, 1e-8, 101)
    assert np.all(np.abs(m.invert(m.eval(on_piece)) - on_piece)
                  <= 2.0 ** -42)


def test_invert_respects_rotation():
    m = circle_map.rotation_map(0.3)
    y = m.eval(0.62)
    assert m.invert(y) == pytest.approx(0.62, abs=1e-9)


@settings(max_examples=60, deadline=None)
@given(st.floats(min_value=0.001, max_value=0.999))
def test_invert_eval_roundtrip(t):
    m = circle_map.piecewise_linear(((0.0, 0.0), (0.3, 0.2), (1.0, 1.0)))
    assert abs(m.invert(m.eval(t)) - t) <= 1e-8


# ------------------------------------- the grid solve against bisection

def _bisection(m, target, tol, strict=False):
    """The bisection ``_bisect_smallest`` ran before the breakpoint solve:
    n = ceil(-log2 tol) + 2 halvings of [0, 1], keeping the upper end."""
    lo = np.zeros_like(target)
    hi = np.ones_like(target)
    for _ in range(int(np.ceil(-np.log2(tol))) + 2):
        mid = 0.5 * (lo + hi)
        vals = m._lift(mid)
        take_hi = vals > target if strict else vals >= target
        hi = np.where(take_hi, mid, hi)
        lo = np.where(take_hi, lo, mid)
    return hi


def _default_tol(m):
    return max(m.eval_tolerance * 1e-2, 1e-14)


def _invert_by_bisection(m, y):
    """What ``invert`` returns: the midpoint of the >= and the > bisection,
    taken mod 1."""
    target = np.mod(np.asarray(y, dtype=float) - m.rotation, 1.0)
    tol = _default_tol(m)
    return np.mod(0.5 * (_bisection(m, target, tol)
                         + _bisection(m, target, tol, strict=True)), 1.0)


@pytest.mark.parametrize("name", FLEET_NAMES)
def test_grid_solve_matches_bisection_on_the_v_targets(name, monkeypatch):
    # every target the fine and coarse inverse geometries of v ask for:
    # invert's result against both bisections, and each grid solve against
    # the bisection of its own side
    m = build_fleet()[name]
    invert, solve = m.invert, m._bisect_smallest
    inverted, calls = [], []

    def record_invert(y):
        out = invert(y)
        inverted.append((np.array(y, dtype=float).ravel(), out.ravel()))
        return out

    def record_solve(target, tol, strict=False):
        calls.append((target, tol, strict))
        return solve(target, tol, strict)

    monkeypatch.setattr(m, "invert", record_invert)
    monkeypatch.setattr(m, "_bisect_smallest", record_solve)
    inverse_kernel_geometries(m)
    monkeypatch.undo()
    y, got = (np.concatenate(part) for part in zip(*inverted))
    # 192 x 1,792 and 96 x 896 offset targets, then the outer nodes
    assert y.size >= 430_080 + 192 + 96
    assert np.array_equal(got, _invert_by_bisection(m, y))
    for target, tol, strict in calls:
        assert np.array_equal(solve(target, tol, strict),
                              _bisection(m, target, tol, strict))


# targets whose >= side lands on the target itself, where the > side is
# searched: the breakpoint values, plateaus of the staircase among them,
# and points k 2^-42 of the grid of a piecewise-linear map
GRID_EXACT = np.ldexp(np.concatenate(
    [np.arange(0, 1 << 42, 1 << 30), [1, 3, (1 << 42) - 1]]).astype(float),
    -42)


@pytest.mark.parametrize("name", ["pl_kinked", "staircase_s2", "identity",
                                  "rotation"])
def test_invert_matches_bisection_where_the_target_is_hit(fleet, name):
    m = fleet[name]
    # on the one-piece lifts of the identity and the rotation, u(k 2^-42)
    # is k 2^-42 itself
    y = m.lift.ys if m.lift.xs.size > 2 else \
        np.mod(GRID_EXACT + m.rotation, 1.0)
    target = np.mod(y - m.rotation, 1.0)
    left = m._bisect_smallest(target, _default_tol(m))
    # the strict search runs on these targets
    assert np.any((left < 1.0) & (m._lift(left) == target))
    assert np.array_equal(m.invert(y), _invert_by_bisection(m, y))


@pytest.mark.parametrize("name", FLEET_NAMES)
def test_grid_solve_matches_bisection_at_the_breakpoints(fleet, name):
    m = fleet[name]
    ys = m.lift.ys
    target = np.concatenate([ys, np.nextafter(ys, -np.inf),
                             np.nextafter(ys, np.inf), [0.0]])
    for strict in (False, True):
        assert np.array_equal(
            m._bisect_smallest(target, _default_tol(m), strict),
            _bisection(m, target, _default_tol(m), strict))


@pytest.mark.parametrize("rise", [0.0, 1e-7, 1e-10])
@pytest.mark.parametrize("tol", [1e-12, 2.0 ** -50, 1e-3, 3.0])
def test_grid_solve_matches_bisection_on_flat_pieces(rise, tol):
    # a flat piece at y = 0.5, or one rising by 1e-7 or 1e-10: there the
    # float lift holds one value over hundreds of grid points or more,
    # past the unit steps, and those targets are bisected
    m = circle_map.piecewise_linear(
        ((0.0, 0.0), (0.5, 0.5), (0.6, 0.5 + rise), (1.0, 1.0)))
    target = np.concatenate([0.5 + np.linspace(0.0, rise, 257),
                             np.nextafter(0.5, [-1.0, 2.0]),
                             np.linspace(0.0, 1.0, 257)])
    for strict in (False, True):
        assert np.array_equal(m._bisect_smallest(target, tol, strict),
                              _bisection(m, target, tol, strict))


def test_grid_solve_of_a_scalar_target():
    m = circle_map.piecewise_linear(PL)
    target = np.mod(np.asarray(0.3) - m.rotation, 1.0)
    for strict in (False, True):
        got = m._bisect_smallest(target, 1e-12, strict)
        want = _bisection(m, target, 1e-12, strict)
        assert np.shape(got) == np.shape(want) == ()
        assert got == want


# ------------------------------------------------------------- equality

@pytest.mark.parametrize("name", FLEET_NAMES)
def test_maps_built_alike_are_equal(fleet, name):
    description = fleet[name].description
    a = circle_map.from_description(description)
    b = circle_map.from_description(description)
    assert a == b and a.lift == b.lift and a == fleet[name]


def test_maps_that_differ_are_unequal():
    assert circle_map.identity() != circle_map.rotation_map(0.3)
    assert make_staircase_map("power", 2.0, 10) != \
        make_staircase_map("power", 2.0, 12)
    # depths 12 and 13 share float_depth 11 and so their breakpoints, not
    # their dyadic increments
    deep, deeper = (make_staircase_map("power", 2.0, d).lift
                    for d in (12, 13))
    assert np.array_equal(deep.xs, deeper.xs) and deep != deeper
    plain = circle_map.PiecewiseLinearLift(deep.xs, deep.ys)
    assert plain != deep
    assert circle_map.identity().lift != "identity"


def test_lifts_are_unhashable():
    with pytest.raises(TypeError):
        hash(circle_map.identity().lift)


# ------------------------------------------------ dyadic arc increments
# level_increments(j) gives (delta, count) pairs: counts[i] of the 2^j
# dyadic arcs each have an image of exp(log_deltas[i]) turns

def _pairs(inc):
    return sorted(zip(np.exp(inc.log_deltas).tolist(), inc.counts))


def _expanded(inc):
    """The increments of the cells, one per cell, in increasing order."""
    return np.sort(np.repeat(np.exp(inc.log_deltas), inc.counts))


def test_arc_image_length_identity():
    inc = circle_map.identity().level_increments(3)
    assert inc.counts == (8,)
    assert math.exp(inc.log_deltas[0]) == pytest.approx(1 / 8, rel=1e-14)


def test_arc_image_length_piecewise_linear():
    # the arcs [0, 1/2] and [1/2, 1] have images of 1/4 and 3/4 turns
    (low, n_low), (high, n_high) = _pairs(
        circle_map.piecewise_linear(PL).level_increments(1))
    assert (n_low, n_high) == (1, 1)
    assert low == pytest.approx(0.25, rel=1e-13)
    assert high == pytest.approx(0.75, rel=1e-13)


def test_arc_image_lengths_telescope():
    stair = make_staircase_map("power", 2.0, 10)
    for m, j in ((circle_map.identity(), 4),
                 (circle_map.piecewise_linear(PL), 4), (stair, 4),
                 (stair, 30)):
        inc = m.level_increments(j)
        total = sum(c * d for d, c in _pairs(inc))
        assert total == pytest.approx(1.0, rel=1e-12), (m.description, j)
        assert sum(inc.counts) == 2 ** j


def test_arc_image_refinement_consistency():
    # the breakpoints of PL lie on every level's grid, so each cell of
    # level j splits into two cells of half its increment
    m = circle_map.piecewise_linear(PL)
    for j in (2, 3, 4):
        parent = m.level_increments(j)
        child = m.level_increments(j + 1)
        assert child.counts == tuple(2 * c for c in parent.counts)
        np.testing.assert_allclose(child.log_deltas,
                                   parent.log_deltas - math.log(2.0),
                                   rtol=0, atol=1e-12)


@pytest.mark.parametrize("desc", [
    "identity", "piecewise_linear:0,0;0.5,0.25;1,1",
    "piecewise_linear:0,0;0.25,0.5;0.75,0.6;1,1",
    "piecewise_linear:0,0;0.3,0.5;0.31,0.5;0.71,0.6;1,1", STEEP])
def test_level_increments_match_enumeration(desc):
    # cells with a breakpoint inside (0.3, 0.31 and 0.71 sit on no dyadic
    # grid, and 0.3 and 0.31 share cells up to level 6) against the
    # differences of the lift over all 2^j + 1 cell edges; the flat piece
    # gives zero increments, which the pairs leave out
    m = circle_map.from_description(desc)
    for j in range(1, 11):
        inc = m.level_increments(j)
        slow = np.diff(m.lift_eval(np.linspace(0.0, 1.0, 2 ** j + 1)))
        np.testing.assert_allclose(_expanded(inc), np.sort(slow[slow > 0]),
                                   rtol=1e-12, atol=0)


def test_level_increments_match_arc_lengths():
    # exact oracle: PL has slope 1/2 on [0, 1/2] and 3/2 on [1/2, 1]
    inc = circle_map.piecewise_linear(PL).level_increments(5)
    assert inc.counts == (16, 16)
    np.testing.assert_allclose(np.exp(inc.log_deltas),
                               np.array([0.5, 1.5]) / 32, rtol=0, atol=1e-14)


# ---------------------------------------------------------- constructors

def test_lift_must_fix_endpoints():
    with pytest.raises(DomainError, match="lift must fix 0 and 1"):
        circle_map.PiecewiseLinearLift([0.0, 1.0], [0.0, 0.5])


@pytest.mark.parametrize("xs,ys,condition", [
    ([0.0], [0.0], "at least the two endpoints"),
    ([0.0, 0.5, 1.0], [0.0, 1.0], "one length"),
    ([0.0, math.nan, 1.0], [0.0, 0.5, 1.0], "finite"),
    ([0.0, 0.5, 1.0], [0.0, math.inf, 1.0], "finite"),
    ([0.0, 0.6, 0.4, 1.0], [0.0, 0.3, 0.5, 1.0], "strictly increasing"),
    ([0.0, 0.5, 0.5, 1.0], [0.0, 0.3, 0.5, 1.0], "strictly increasing"),
    ([0.0, 0.5, 0.6, 1.0], [0.0, 0.9, 0.2, 1.0], "nondecreasing"),
    ([1e-13, 1.0], [0.0, 1.0], "fix 0 and 1"),
    ([0.0, 0.5], [0.0, 1.0], "fix 0 and 1"),
    ([0.0, 0.5, 1.0], [-1e-13, 0.5, 1.0], "fix 0 and 1"),
    ([0.0, 0.5, 1.0], [0.0, 0.5, 2.0], "fix 0 and 1"),
])
def test_lift_refuses_bad_breakpoints(xs, ys, condition):
    with pytest.raises(DomainError, match=condition):
        circle_map.PiecewiseLinearLift(xs, ys)


def test_lift_arrays_are_read_only():
    xs = np.array([0.0, 0.5, 1.0])
    lift = circle_map.PiecewiseLinearLift(xs, [0.0, 0.25, 1.0])
    xs[1] = 0.9                 # the lift holds its own copy
    assert lift.xs[1] == 0.5
    for arr in (lift.xs, lift.ys):
        with pytest.raises(ValueError):
            arr[1] = 0.7


def test_lift_must_provide_breakpoints():
    with pytest.raises(DomainError, match="breakpoints"):
        circle_map.CircleMap(lift=lambda t: np.asarray(t))


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


# --------------------------------------------------- Fourier coefficients

@pytest.mark.parametrize("name", ["pl_mild", "pl_kinked"])
def test_fourier_coefficients_match_fft(fleet, name):
    # independent oracle: the FFT of 2^21 boundary samples, whose aliasing
    # is O(n^-2) for a piecewise-linear lift
    m = fleet[name]
    n = 1 << 21
    fft = np.fft.fft(np.exp(2j * np.pi * m.eval(np.arange(n) / n))) / n
    k = np.arange(-400, 401)
    np.testing.assert_allclose(m.fourier_coefficients(400), fft[k],
                               rtol=0, atol=1e-12)


@pytest.mark.parametrize("name", ["identity", "rotation"])
def test_fourier_coefficients_of_a_rotation(fleet, name):
    # exp(2 pi i (t + rho)) has the single coefficient c_1 = exp(2 pi i rho)
    m = fleet[name]
    want = np.zeros(2001, dtype=complex)
    want[1000 + 1] = np.exp(2j * np.pi * m.rotation)
    np.testing.assert_allclose(m.fourier_coefficients(1000), want,
                               rtol=0, atol=1e-15)


@pytest.mark.parametrize("name", ["pl_kinked", "staircase_s2"])
def test_coefficients_at_any_frequencies_match_the_full_range(fleet, name):
    m = fleet[name]
    full = m.fourier_coefficients(371)
    ks = np.array([371, -5, 0, 200, -371, 38])
    np.testing.assert_array_equal(m.fourier_coefficients_at(ks),
                                  full[ks + 371])
    for K in (38, 53, 93, 186):
        np.testing.assert_array_equal(m.fourier_coefficients(K),
                                      full[371 - K:371 + K + 1])


def test_staircase_breakpoints_reproduce_the_lift(fleet):
    m = fleet["staircase_s2"]
    xs, ys = m.lift.xs, m.lift.ys
    assert xs.size == 2048
    t = np.random.default_rng(5).uniform(0, 1, 4096)
    np.testing.assert_allclose(np.interp(t, xs, ys), m.lift_eval(t),
                               rtol=0, atol=1e-15)
