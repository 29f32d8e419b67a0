"""Tests for the staircase construction: schedules, trees, evaluation."""

import math
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest

from harmext import cantor
from harmext.circle_map import PiecewiseLinearLift, from_description
from harmext.errors import (ConstructionError, DepthBudgetError, DomainError)


# -------------------------------------------------------------- schedules

def test_strict_floor_convention():
    # "largest integer strictly less than x": differs from floor at integers
    assert cantor.strict_floor(2.0) == 1
    assert cantor.strict_floor(2.5) == 2
    assert cantor.strict_floor(7.9999999999999) == 7
    assert cantor.strict_floor(math.sqrt(2)) == 1


def test_power_schedule_values():
    sch = cantor.build_schedule("power", 2.0, 10)
    assert sch.j == (1, 1, 2, 3, 5, 7, 11, 15, 22, 31)
    assert sch.n0 == 10


def test_double_exp_schedule_values():
    sch = cantor.build_schedule("double_exp", 2.0, 3)
    assert sch.j[:2] == (7, 54)          # largest integers below e^2, e^4
    assert sch.n0 == 1


def test_schedule_admissibility_conditions():
    for sch in (cantor.build_schedule("power", 2.0, 10),
                cantor.build_schedule("power", 4.0 / 3.0, 11),
                cantor.build_schedule("double_exp", 2.0, 3)):
        for n in range(max(sch.n0 - 1, 1), sch.depth):
            assert sch.j[n] >= sch.j[n - 1] + 2      # margins nest
        for n in range(max(sch.n0 - 1, 1), sch.depth + 1):
            assert sch.j[n - 1] >= 2 * n             # margins summable


def test_schedule_error_paths():
    with pytest.raises(DomainError):
        cantor.build_schedule("power", -1.0, 5)
    with pytest.raises(DomainError):
        cantor.build_schedule("spiral", 2.0, 5)
    with pytest.raises(DepthBudgetError):
        cantor.build_schedule("double_exp", 2.0, 12)
    with pytest.raises(ConstructionError):
        # shallow depth never reaches the admissible regime for steep s
        cantor.build_schedule("power", 8.0, 3)


def test_schedule_past_the_exponent_cap_raises_before_any_tree():
    # double_exp p = 2 has j_5 = 7.9e13: a tree with margin 2^-j_5 would
    # exhaust memory, so the schedule is refused, naming the step
    for build in (lambda: cantor.build_schedule("double_exp", 2.0, 5),
                  lambda: from_description("cantor_loglog:p=2,depth=5")):
        with pytest.raises(DepthBudgetError, match="step 5 has j_5 = "):
            build()
    assert cantor.build_schedule("double_exp", 2.0, 4).j[-1] \
        <= cantor.MAX_MARGIN_EXPONENT
    # 2^(1/s) overflows a float here
    with pytest.raises(DepthBudgetError, match="step 1 has j_1 = inf"):
        cantor.build_schedule("power", 1e-4, 2)


def candidate_search_n0(js):
    """The first candidate n0 in 1..depth from which j_(n+1) >= j_n + 2 and
    j_n >= 2n hold at every step n >= max(1, n0 - 1), or None: the
    O(depth^2) search that the one-pass rule replaced."""
    depth = len(js)
    for cand in range(1, depth + 1):
        start = max(1, cand - 1)
        if all(js[n] - js[n - 1] >= 2 for n in range(start, depth)) and \
                all(js[n - 1] >= 2 * n for n in range(start, depth + 1)):
            return cand
    return None


@pytest.mark.parametrize("kind, parameters", [
    ("power", list(np.linspace(0.05, 6.0, 120)) + [2 / 3, 4 / 3, 2.0, 8.0]),
    ("double_exp", list(np.linspace(1.01, 3.0, 40)) + [2.0])])
def test_n0_matches_the_candidate_search(kind, parameters):
    for parameter in map(float, parameters):
        for depth in range(2, 39):
            try:
                js = [cantor.strict_floor(
                    2.0 ** (n / parameter) if kind == "power"
                    else math.exp(2.0 ** (n * (parameter - 1))))
                    for n in range(1, depth + 1)]
            except OverflowError:
                js = None
            case = (kind, parameter, depth)
            if js is None or max(js) > cantor.MAX_MARGIN_EXPONENT:
                with pytest.raises(DepthBudgetError):
                    cantor.build_schedule(kind, parameter, depth)
            elif candidate_search_n0(js) is None:
                with pytest.raises(ConstructionError):
                    cantor.build_schedule(kind, parameter, depth)
            else:
                sch = cantor.build_schedule(kind, parameter, depth)
                assert sch.j == tuple(js), case
                assert sch.n0 == candidate_search_n0(js), case


@pytest.mark.parametrize("kind", ["power", "double_exp"])
def test_schedule_refuses_a_nan_parameter(kind):
    with pytest.raises(DomainError):
        cantor.build_schedule(kind, math.nan, 5)


# ------------------------------------------------------------------ trees

def _fraction_tree(schedule):
    """The exact interval bookkeeping of the removal construction, as an
    oracle: ``plateaus[n]`` lists (lo, hi, value) for the 2^(n-1)
    intervals kept at step n and ``gaps[n]`` (lo, hi, f_lo) for the 2^n
    gaps left after it, all Fractions, each step's margin checked to fit
    strictly inside every gap."""
    gaps = [(Fraction(0), Fraction(1), Fraction(0))]
    plateaus, all_gaps = [[]], [gaps]   # plateaus[0] unused
    for n in range(1, schedule.depth + 1):
        m, rise = schedule.margin(n), Fraction(1, 2 ** n)
        new_plateaus, new_gaps = [], []
        for lo, hi, flo in gaps:
            a, b = lo + m, hi - m
            assert lo < a < b < hi, (n, lo, hi)
            new_plateaus.append((a, b, flo + rise))
            new_gaps += [(lo, a, flo), (b, hi, flo + rise)]
        gaps = new_gaps
        plateaus.append(new_plateaus)
        all_gaps.append(gaps)
    return SimpleNamespace(schedule=schedule, plateaus=plateaus,
                           gaps=all_gaps)


@pytest.fixture(scope="module")
def tree_s2():
    return cantor.build_tree(cantor.build_schedule("power", 2.0, 10))


@pytest.fixture(scope="module")
def oracle_s2(tree_s2):
    return _fraction_tree(tree_s2.schedule)


def test_tree_holds_its_schedule_alone(tree_s2):
    sched = cantor.build_schedule("power", 2.0, 10)
    assert tree_s2 == cantor.build_tree(sched)
    assert tree_s2.schedule == sched
    assert cantor.make_staircase_map("power", 2.0, 10).lift.tree == tree_s2


def test_first_steps_of_removal(oracle_s2):
    (a, b, v) = oracle_s2.plateaus[1][0]
    assert (a, b) == (Fraction(1, 4), Fraction(3, 4))
    assert v == Fraction(1, 2)
    step2 = [(p[0], p[1]) for p in oracle_s2.plateaus[2]]
    assert step2 == [(Fraction(1, 16), Fraction(3, 16)),
                     (Fraction(13, 16), Fraction(15, 16))]


def test_plateau_values_are_odd_dyadics(oracle_s2):
    for n in range(1, 5):
        values = [p[2] for p in oracle_s2.plateaus[n]]
        assert values == [Fraction(2 * k - 1, 2 ** n)
                          for k in range(1, 2 ** (n - 1) + 1)]


def test_intervals_disjoint_and_bounded(oracle_s2):
    all_iv = [(p[0], p[1]) for n in range(1, 11)
              for p in oracle_s2.plateaus[n]]
    all_iv.sort()
    for (a1, b1), (a2, b2) in zip(all_iv[:-1], all_iv[1:]):
        assert b1 <= a2
    assert sum(b - a for a, b in all_iv) < 1


def test_interval_length_lower_bound(oracle_s2):
    sch = oracle_s2.schedule
    ratios = []
    for n in range(2, sch.depth + 1):
        scale = Fraction(1, 2 ** sch.j[n - 2])
        ratios.extend(float((b - a) / scale) for a, b, _ in
                      oracle_s2.plateaus[n])
    assert min(ratios) > 0.005


# ------------------------------------------------------------- evaluation

def test_f_endpoint_and_plateau_values(tree_s2):
    assert cantor.f_exact(tree_s2, Fraction(0))[0] == 0
    assert cantor.f_exact(tree_s2, Fraction(1))[0] == 1
    assert cantor.f_exact(tree_s2, Fraction(1, 2))[0] == Fraction(1, 2)
    assert cantor.f_exact(tree_s2, Fraction(1, 8))[0] == Fraction(1, 4)


def test_f_exact_error_bound_shrinks(tree_s2):
    x = Fraction(1, 5)          # stays inside gaps through several steps
    v5, e5 = cantor.f_exact(tree_s2, x, max_step=5)
    v10, e10 = cantor.f_exact(tree_s2, x, max_step=10)
    assert e5 == Fraction(1, 2 ** 6)
    assert abs(v10 - v5) <= e5 + e10


def test_f_monotone_on_sorted_sample(tree_s2):
    rng = np.random.default_rng(5)
    xs = np.sort(rng.uniform(0, 1, 10_000))
    vals = [cantor.f_exact(tree_s2, float(x), max_step=8)[0] for x in xs]
    assert all(b >= a for a, b in zip(vals[:-1], vals[1:]))


def _f_exact_fractions(tree, x, max_step):
    """The Fraction walk the integer walk of ``f_exact`` replaced."""
    x = Fraction(x)
    if x == 0:
        return Fraction(0), Fraction(0)
    if x == 1:
        return Fraction(1), Fraction(0)
    lo, hi, flo = Fraction(0), Fraction(1), Fraction(0)
    for n in range(1, max_step + 1):
        m = tree.schedule.margin(n)
        a, b = lo + m, hi - m
        if a <= x <= b:
            return flo + Fraction(1, 2 ** n), Fraction(0)
        if x < a:
            lo, hi = lo, a
        else:
            lo, hi, flo = b, hi, flo + Fraction(1, 2 ** n)
    half_range = Fraction(1, 2 ** (max_step + 1))
    return flo + half_range, half_range


def test_f_exact_integer_walk_matches_fraction_walk(tree_s2, oracle_s2):
    depth = tree_s2.schedule.depth
    rng = np.random.default_rng(11)
    xs = [float(v) for v in rng.uniform(0.0, 1.0, 2000)]
    tiny = Fraction(1, 2 ** 60)
    for n in range(1, 7):
        for lo, hi, _v in oracle_s2.plateaus[n]:
            xs += [lo, hi, lo - tiny, lo + tiny, hi - tiny, hi + tiny]
    xs += [Fraction(1, 3), Fraction(1, 5), 0, 1]
    for max_step in (0, 1, 5, depth):
        for x in xs:
            got = cantor.f_exact(tree_s2, x, max_step=max_step)
            want = _f_exact_fractions(tree_s2, x, max_step)
            assert got == want, (x, max_step)
            assert all(type(v) is Fraction for v in got)


def test_f_exact_refuses_bad_step_and_non_finite_x(tree_s2):
    for bad in (-1, -2, 2.5):
        with pytest.raises(DomainError):
            cantor.f_exact(tree_s2, Fraction(1, 5), max_step=bad)
    with pytest.raises(DepthBudgetError):
        cantor.f_exact(tree_s2, Fraction(1, 5), max_step=11)
    for x in (math.nan, math.inf, -math.inf):
        with pytest.raises(DomainError):
            cantor.f_exact(tree_s2, x)


# ----------------------------------------------------------------- lifts

def test_staircase_map_basics():
    m = cantor.make_staircase_map("power", 2.0, 10)
    assert m.rotation == 0.0
    assert m.eval(0.0) == pytest.approx(0.0, abs=1e-12)
    assert m.eval(0.5) == pytest.approx(0.5, abs=1e-12)
    t = np.linspace(0.0, 0.99, 500)
    h = 0.01
    gains = m.lift_eval(t + h) - m.lift_eval(t)
    assert np.all(gains >= h / 2 - 1e-9)


def test_fast_level_increments_match_enumeration():
    m = cantor.make_staircase_map("power", 2.0, 10)
    for j in range(4, 11):
        inc = m.level_increments(j)
        fast = np.sort(np.repeat(np.exp(inc.log_deltas), inc.counts))
        grid = np.linspace(0.0, 1.0, 2 ** j + 1)
        slow = np.sort(np.diff(m.lift_eval(grid)))
        np.testing.assert_allclose(fast, slow, atol=1e-12)


def test_level_increments_telescope_exactly():
    m = cantor.make_staircase_map("power", 4.0 / 3.0, 11)
    for j in (10, 40, 100, 181):
        inc = m.level_increments(j)
        total = math.fsum(c * math.exp(d)
                          for d, c in zip(inc.log_deltas.tolist(), inc.counts))
        assert total == pytest.approx(1.0, abs=1e-9)
        assert sum(inc.counts) == 2 ** j


def _level_increment_groups_by_dict(tree, j):
    """The increments of the active cells of level j, one per cell, and the
    number of the other cells, by counting the gaps of the first step m
    whose margin is <= 2^-j in each cell."""
    sched = tree.schedule
    m = next(n for n in range(1, sched.depth + 1)
             if sched.margin_exponent(n) >= j)
    counts = {}
    for lo, _hi, _flo in tree.gaps[m]:
        k = (lo.numerator << j) // lo.denominator
        counts[k] = counts.get(k, 0) + 1
    cell_width = math.ldexp(1.0, -j)
    rise = math.ldexp(1.0, -m)
    deltas = np.array([0.5 * (counts[k] * rise + cell_width)
                       for k in sorted(counts)])
    return deltas, (1 << j) - len(counts)


# the block-sum map of the benchmark and the three maps of ``examples``
STAIRCASE_MAPS = (("power", 2.0, 14), ("power", 4.0 / 3.0, 11),
                  ("power", 2.0 / 3.0, 8), ("double_exp", 2.0, 3))
# and the fleet's map and two more power schedules
SCHEDULES = (("power", 2.0, 10),) + STAIRCASE_MAPS \
    + (("power", 1.0, 10), ("power", 1.5, 10))


def _averaged_staircase(lift):
    """t -> 0.5 (f(t) + t), f interpolating the plateaus of the lift's
    first ``float_depth`` steps: g = (f + id)/2 taken term by term."""
    plateaus = _fraction_tree(lift.schedule).plateaus
    pts = [(0.0, 0.0), (1.0, 1.0)]
    for n in range(1, lift.float_depth + 1):
        for lo, hi, val in plateaus[n]:
            pts += [(float(lo), float(val)), (float(hi), float(val))]
    xs, fs = np.array(sorted(pts)).T
    return lambda t: 0.5 * (np.interp(t, xs, fs) + t)


@pytest.mark.parametrize("spec", (("power", 2.0, 10),) + STAIRCASE_MAPS)
def test_lift_is_the_averaged_staircase_bit_for_bit(spec):
    # the grid 2^21 holds every coarser dyadic grid
    m = cantor.make_staircase_map(*spec)
    want = _averaged_staircase(m.lift)
    for t in (np.arange(1 << 21) / (1 << 21),
              np.random.default_rng(11).random(1 << 20)):
        g = want(t)
        assert np.array_equal(m.lift_eval(t), g)
        assert np.array_equal(m.eval(t), g)


@pytest.mark.parametrize("spec", SCHEDULES,
                         ids=lambda spec: "{}-{:g}-{}".format(*spec))
def test_level_increments_match_dict_count(spec):
    # every active cell holds exactly one gap, so the closed form's two
    # pairs are the dict count's cells, at the first 127 levels (or all
    # the schedule reaches) and the top two
    lift = cantor.make_staircase_map(*spec).lift
    tree = _fraction_tree(lift.schedule)
    top = lift.schedule.margin_exponent(lift.schedule.depth)
    for j in sorted(set(range(1, min(top, 127) + 1)) | {top - 1, top}):
        inc = lift.level_increments(j)
        deltas, plateau_count = _level_increment_groups_by_dict(tree, j)
        assert np.all(deltas == deltas[0]), j
        want = ((deltas.size, plateau_count) if plateau_count
                else (deltas.size,))
        assert inc.counts == want, j
        assert all(type(c) is int for c in inc.counts)
        assert inc.log_deltas[0] == np.log(deltas[0]), j
        # the other cells gain 2^-(j+1), below the float range at the top
        background = [-(j + 1) * math.log(2.0)] * (len(want) - 1)
        np.testing.assert_allclose(inc.log_deltas[1:], background, rtol=1e-15)


@pytest.mark.parametrize("spec", (("power", 2.0, 10),) + STAIRCASE_MAPS)
def test_coefficient_recursion_matches_the_piece_sum(spec):
    # |k| <= 4096, plus 400 frequencies near +-1e5
    lift = cantor.make_staircase_map(*spec).lift
    far = np.random.default_rng(5).integers(-200, 200, 200) + 100_000
    ks = np.concatenate([np.arange(-4096, 4097), far, -far])
    np.testing.assert_allclose(
        lift.fourier_coefficients_at(ks),
        PiecewiseLinearLift.fourier_coefficients_at(lift, ks),
        rtol=0, atol=1e-13)


@pytest.mark.parametrize("size", [cantor._FREQ_BLOCK,
                                  cantor._FREQ_BLOCK + 1,
                                  2 * cantor._FREQ_BLOCK + 1,
                                  2 * cantor._FREQ_BLOCK + 2])
def test_coefficients_in_blocks_are_the_one_call_values(size):
    # numpy rounds an array of one element differently, so a trailing
    # single frequency must ride with the block before it
    lift = cantor.make_staircase_map("power", 2.0, 10).lift
    ks = np.arange(size) - size // 2
    got = lift.fourier_coefficients_at(ks)
    assert got.tobytes() == lift._recursion(ks.astype(float)).tobytes()


def test_modulus_is_certified_at_depth_24():
    # depth 24 has j_24 = 4,095, far under the margin cap, and 2^25 - 2
    # gaps, which are counted but never built
    lift = cantor.make_staircase_map("power", 2.0, 24).lift
    assert lift.level_increments(4095).counts == (1 << 24,
                                                  (1 << 4095) - (1 << 24))
    rep = cantor.certify_modulus(lift.tree, "log", 1.0)
    # 400 random pairs, 2 * 639 plateau pairs and every gap pair
    assert rep.pairs_checked == 33_556_108
    assert rep.sup_product == math.log(2)


def test_level_increments_beyond_schedule_raise():
    m = cantor.make_staircase_map("power", 2.0, 10)
    with pytest.raises(DepthBudgetError):
        m.level_increments(40)


# ---------------------------------------------------------------- modulus

def test_modulus_certificate_finite_and_seeded(tree_s2):
    a = cantor.certify_modulus(tree_s2, "log", 2.0, n_samples=300, rng_seed=4)
    b = cantor.certify_modulus(tree_s2, "log", 2.0, n_samples=300, rng_seed=4)
    assert np.isfinite(a.sup_product) and a.sup_product > 0
    assert a.sup_product == b.sup_product
    x, y, diff, sep = a.witness
    assert 0 <= x < y <= 1 and diff >= 0 and 0 < sep < 1


def test_modulus_rejects_unknown_form(tree_s2):
    with pytest.raises(DomainError):
        cantor.certify_modulus(tree_s2, "poly", 1.0)


def _certify_modulus_by_f_exact(tree, form, exponent, n_samples, rng_seed):
    """certify_modulus with every pair, the gap pairs too, resolved by two
    f_exact walks: the pairs in the same order, the same strict > test."""
    sched = tree.schedule
    rng = np.random.default_rng(rng_seed)
    pairs = []
    d_min = 2.0 ** -min(sched.margin_exponent(sched.depth), 900)
    for _ in range(n_samples):
        d = float(np.exp(rng.uniform(math.log(max(d_min, 1e-250)),
                                     math.log(0.05))))
        x = float(rng.uniform(0.0, 1.0 - min(d, 0.5)))
        pairs.append((Fraction(x), Fraction(x) + Fraction(d)))
    for n in range(1, sched.depth + 1):
        h = sched.margin(n) / 2
        for lo, hi, _v in tree.plateaus[n][:32]:
            for b in (lo, hi):
                if 0 <= b - h and b + h <= 1:
                    pairs.append((b - h, b + h))
    for n in range(1, sched.depth + 1):
        pairs.extend((lo, hi) for lo, hi, _f in tree.gaps[n])
    sup, witness = -math.inf, None
    for a, b in pairs:
        sep = float(b - a)
        if sep <= 0 or sep >= 1:
            continue
        diff = abs(float(cantor.f_exact(tree, b)[0]
                         - cantor.f_exact(tree, a)[0]))
        inner = math.log(1.0 / sep)
        if form == "loglog" and inner <= 1.0:
            continue
        om = inner if form == "log" else math.log(inner)
        prod = diff * om ** exponent
        if prod > sup:
            sup, witness = prod, (float(a), float(b), diff, sep)
    return cantor.ModulusReport(sup_product=sup, witness=witness,
                                pairs_checked=len(pairs))


@pytest.mark.parametrize("kind,parameter,depth,form", [
    ("power", 2.0, 12, "log"), ("power", 1.5, 10, "log"),
    ("power", 4.0 / 3.0, 11, "loglog"), ("double_exp", 2.0, 3, "loglog")])
def test_gap_pairs_rise_by_their_dyadic_step(kind, parameter, depth, form):
    # certify_modulus takes each gap pair's rise 2^-n in closed form; the
    # report is the one two f_exact walks per pair give, bit for bit
    sched = cantor.build_schedule(kind, parameter, depth)
    tree, oracle = cantor.build_tree(sched), _fraction_tree(sched)
    for exponent, seed in ((1.0, 0), (2.0, 5)):
        got = cantor.certify_modulus(tree, form, exponent, rng_seed=seed)
        want = _certify_modulus_by_f_exact(oracle, form, exponent, 400, seed)
        assert got == want, (exponent, seed)


@pytest.mark.parametrize("kind,parameter,depth,form,exponent", [
    ("power", 2.0, 12, "log", 1.0), ("power", 1.5, 10, "log", 1.0),
    ("power", 2.0, 14, "log", 1.0), ("power", 2.0 / 3.0, 8, "log", 1.0),
    ("power", 2.0, 10, "log", 2.0),
    ("power", 4.0 / 3.0, 11, "loglog", 0.5),
    ("power", 1.0, 10, "loglog", 0.5),
    ("double_exp", 2.0, 3, "loglog", 0.5)])
def test_modulus_report_equals_the_exhaustive_oracle(kind, parameter,
                                                     depth, form, exponent):
    # certify_modulus walks 32 gaps per step and takes each step's gap
    # pairs as one; the oracle lists every pair of the Fraction tree
    sched = cantor.build_schedule(kind, parameter, depth)
    tree, oracle = cantor.build_tree(sched), _fraction_tree(sched)
    for seed in (0, 4):
        got = cantor.certify_modulus(tree, form, exponent, rng_seed=seed)
        want = _certify_modulus_by_f_exact(oracle, form, exponent, 400, seed)
        assert got == want, seed


@pytest.mark.parametrize("kind,parameter,depth", [
    ("power", 2.0, 12), ("power", 1.5, 10), ("double_exp", 2.0, 3)])
def test_gaps_are_the_spans_between_sorted_plateaus(kind, parameter, depth):
    # the oracle's gaps[n], whose pairs certify_modulus counts: the spans
    # between consecutive plateaus of depth <= n, in order
    tree = _fraction_tree(cantor.build_schedule(kind, parameter, depth))
    merged = []
    for n in range(1, depth + 1):
        merged = sorted(merged + [(lo, hi) for lo, hi, _v
                                  in tree.plateaus[n]])
        cuts = [Fraction(0)] + [e for iv in merged for e in iv] \
            + [Fraction(1)]
        spans = [(a, b) for a, b in zip(cuts[::2], cuts[1::2]) if a < b]
        assert [(lo, hi) for lo, hi, _f in tree.gaps[n]] == spans, n


def test_gap_rise_partial_sums():
    sch = cantor.build_schedule("power", 2.0 / 3.0, 8)
    part = cantor.gap_rise_partial_sums(sch, sch.n0, 4)
    assert part.shape == (4,)
    assert np.all(np.diff(part) > 0)
    with pytest.raises(DomainError):
        cantor.gap_rise_partial_sums(sch, 7, 5)
