"""Staircase circle maps built by iterated interval removal.

The construction keeps, at step n, one plateau inside every gap left by the
previous steps.  Margins shrink along a schedule j_1 <= j_2 <= ... :

    margin(n) = 4^-n            for n <  n0,
    margin(n) = 2^-j_n          for n >= n0,

where n0 is the first index from which  j_{n+1} >= j_n + 2  and
j_n >= 2n  both hold (so margins stay nested and summable).  Two schedule
kinds are supported:

    power(s):       j_n = largest integer < 2^(n/s)
    double_exp(p):  j_n = largest integer < exp(2^(n(p-1)))

The limit function f is a devil-staircase: constant on every kept plateau
(value (2k-1)/2^n at step n) and rising by exactly 2^-n across every gap
left after step n.  The circle map uses the lift g = (f + id)/2, which is
strictly increasing with slope >= 1/2, hence a homeomorphism lift.

All endpoints are dyadic rationals.  Every gap left after step n has one
width m_n = 2^-e_n (e_n the margin exponent, w_0 = 1), its endpoints are
multiples of that width, and its two children sit at its two ends.  So
``StaircaseLift`` builds its float breakpoints from the schedule alone,
and so are its dyadic increments: at level j, with m the first step
whose e_m >= j, each gap of step m-1 spans at least two whole cells and
puts its two children in two of them.  The 2^m cells that hold one gap
each gain (2^-m + 2^-j)/2, and the other 2^j - 2^m gain 2^-(j+1).

The exact values come from the schedule too.  ``f_exact`` walks the
construction with every endpoint scaled by q 2^E (x = P/q) and builds its
two Fractions only at the end.  ``certify_modulus`` walks the first 32
gaps of each step for its plateau pairs and takes the gap pairs of step n
as one, since all 2^n span m_n and rise 2^-n.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction

import numpy as np

from .circle_map import (CircleMap, LevelIncrements,
                         PiecewiseLinearLift, log_ldexp)
from .errors import (ConstructionError, DepthBudgetError, DomainError)

_FLOAT_MARGIN_BITS = 48   # float tables stop once margins drop below 2^-48
# finest margin 2^-j a schedule may ask for: it bounds the j-bit counts
# of a level's increments and the exact endpoints of ``f_exact`` and
# ``certify_modulus`` (j/8 bytes each, 2 MB at the cap).  The examples
# reach j = 4,095 (power s = 2/3, depth 8) and 2,980 (double_exp p = 2,
# depth 3); double_exp p = 2 at depth 5 has j = 7.9e13.
MAX_MARGIN_EXPONENT = 1 << 24
_FREQ_BLOCK = 1 << 16     # frequencies per pass of the coefficient recursion


def strict_floor(x: float) -> int:
    """Largest integer strictly less than x (x assumed > 1).

    Values within 1e-9 relative of an integer are treated as that integer.
    """
    r = round(x)
    if abs(x - r) <= 1e-9 * max(1.0, abs(x)):
        return int(r) - 1
    return int(math.floor(x))


@dataclass(frozen=True)
class RemovalSchedule:
    """Margin schedule for the interval-removal construction."""

    kind: str                # "power" or "double_exp"
    parameter: float         # s for power, p for double_exp
    depth: int
    j: tuple                 # j_1 .. j_depth
    n0: int

    @cached_property
    def margin_exponents(self) -> tuple:
        """margin_exponent(1) .. margin_exponent(depth)."""
        return tuple(2 * n if n < self.n0 else self.j[n - 1]
                     for n in range(1, self.depth + 1))

    def margin_exponent(self, n: int) -> int:
        """margin(n) = 2^-margin_exponent(n)."""
        if not (1 <= n <= self.depth):
            raise DomainError(f"step {n} outside 1..{self.depth}")
        return self.margin_exponents[n - 1]

    def margin(self, n: int) -> Fraction:
        return Fraction(1, 2 ** self.margin_exponent(n))


def build_schedule(kind: str, parameter: float, depth: int) -> RemovalSchedule:
    """The schedule j_1..j_depth of one kind; DepthBudgetError names the
    first step whose j_n passes ``MAX_MARGIN_EXPONENT``."""
    if depth < 2:
        raise DomainError("need depth >= 2")
    # written so that NaN fails them too
    if kind == "power":
        if not parameter > 0:
            raise DomainError("power schedule needs s > 0")
    elif kind == "double_exp":
        if not parameter > 1:
            raise DomainError("double_exp schedule needs p > 1")
    else:
        raise DomainError(f"unknown schedule kind {kind!r}")
    js = []
    for n in range(1, depth + 1):
        try:
            x = 2.0 ** (n / parameter) if kind == "power" \
                else math.exp(2.0 ** (n * (parameter - 1)))
            j = strict_floor(x)
        except OverflowError:
            j = math.inf
        if j > MAX_MARGIN_EXPONENT:
            raise DepthBudgetError(
                f"{kind} step {n} has j_{n} = {j:.4g}, past the cap of "
                f"{MAX_MARGIN_EXPONENT} on margin exponents (margins 2^-j)")
        js.append(j)

    n0 = None
    for cand in range(1, depth + 1):
        start = max(1, cand - 1)
        ok = all(js[n] - js[n - 1] >= 2 for n in range(start, depth)) and \
            all(js[n - 1] >= 2 * n for n in range(start, depth + 1))
        if ok:
            n0 = cand
            break
    if n0 is None:
        raise ConstructionError(
            f"no admissible n0 within depth {depth} for {kind}({parameter}); "
            "increase depth")
    return RemovalSchedule(kind=kind, parameter=float(parameter), depth=depth,
                           j=tuple(js), n0=n0)


# --------------------------------------------------------------- the tree

@dataclass(frozen=True)
class StaircaseTree:
    """The removal construction, fixed by its schedule alone: every gap
    left after step n spans m_n and rises 2^-n (see the module notes)."""

    schedule: RemovalSchedule


def build_tree(schedule: RemovalSchedule) -> StaircaseTree:
    # only the benchmark still calls this and StaircaseLift.tree
    return StaircaseTree(schedule=schedule)


def f_exact(tree: StaircaseTree, x: Fraction, max_step: int | None = None):
    """Value of the staircase at x, resolved through ``max_step`` steps.

    Returns (value, error_bound): exact (error 0) when x lands on a kept
    plateau, otherwise the midpoint of the final gap's range with error
    bound 2^-(max_step+1).  x must be a finite number in [0, 1] and
    max_step an integer >= 0 (DomainError); a max_step past the built
    depth raises DepthBudgetError.
    """
    depth = tree.schedule.depth
    if max_step is None:
        max_step = depth
    try:
        max_step = operator.index(max_step)
    except TypeError:
        raise DomainError(f"max_step must be an integer, got {max_step!r}") \
            from None
    if max_step < 0:
        raise DomainError(f"max_step must be >= 0, got {max_step}")
    if max_step > depth:
        raise DepthBudgetError(
            f"schedule built to depth {depth}, need {max_step}")
    try:
        x = Fraction(x)
    except (ValueError, OverflowError):
        raise DomainError(f"argument must be a finite number, got {x!r}") \
            from None
    P, q = x.numerator, x.denominator
    if not (0 <= P <= q):
        raise DomainError("argument outside [0,1]")
    # the endpoints are the only residual points never adjacent to a built
    # plateau; their limit values are pinned by construction
    if P == 0:
        return Fraction(0), Fraction(0)
    if P == q:
        return Fraction(1), Fraction(0)
    # every margin is a multiple of 2^-E and x = P/q, so scaling by q 2^E
    # turns the whole walk into integer comparisons; after n steps the
    # value below the current gap is f_bits / 2^n
    exps = tree.schedule.margin_exponents[:max_step]
    E = max(exps, default=0)
    X = P << E
    lo, hi, f_bits = 0, q << E, 0
    for n, e in enumerate(exps, start=1):
        m = q << (E - e)
        a, b = lo + m, hi - m
        if a <= X <= b:
            return Fraction(2 * f_bits + 1, 1 << n), Fraction(0)
        if X < a:
            hi = a
            f_bits <<= 1
        else:
            lo = b
            f_bits = 2 * f_bits + 1
    return Fraction(2 * f_bits + 1, 1 << (max_step + 1)), \
        Fraction(1, 1 << (max_step + 1))


# -------------------------------------------------------------- the lift

def _linear_piece(freq: np.ndarray, width: float) -> np.ndarray:
    """int_0^width exp(2 pi i freq t) dt = width e^(pi i freq width)
    sinc(freq width), per entry of freq."""
    x = freq * width
    return width * np.exp(1j * np.pi * x) * np.sinc(x)


class StaircaseLift(PiecewiseLinearLift):
    """Lift g = (f + id)/2 of the staircase map, with dyadic increments and
    Fourier coefficients from the schedule.

    The breakpoints are the plateau endpoints of the first ``float_depth``
    steps, whose margins stay within float resolution: interpolating them
    is exact on those plateaus and affine across the gaps between them,
    which is the step-``float_depth`` approximant of the limit.
    """

    def __init__(self, schedule: RemovalSchedule):
        self.schedule = schedule
        exps = schedule.margin_exponents
        self.float_depth = next((n for n, e in enumerate(exps)
                                 if e > _FLOAT_MARGIN_BITS), len(exps))
        if self.float_depth < 1:
            raise ConstructionError("schedule too steep for float tables")
        # step n puts a plateau (lo + m, lo + w - m) of value f_lo + 2^-n
        # into each gap (lo, lo + w) of step n-1; all exact in floats
        lo, f_lo = np.zeros(1), np.zeros(1)
        xs, fs = [np.array([0.0, 1.0])], [np.array([0.0, 1.0])]
        width = 1.0
        for n, e in enumerate(exps[:self.float_depth], start=1):
            m = math.ldexp(1.0, -e)
            a, b = lo + m, lo + (width - m)
            value = f_lo + math.ldexp(1.0, -n)
            xs += [a, b]
            fs += [value, value]
            lo, f_lo = np.concatenate([lo, b]), np.concatenate([f_lo, value])
            width = m
        xs, fs = np.concatenate(xs), np.concatenate(fs)
        order = np.argsort(xs, kind="stable")
        xs, fs = xs[order], fs[order]
        super().__init__(xs, 0.5 * (fs + xs))

    @property
    def tree(self) -> StaircaseTree:
        """The schedule as a ``StaircaseTree``."""
        return build_tree(self.schedule)

    @property
    def eval_tolerance(self) -> float:
        """Twice the gap 2^-(float_depth+1) between the float lift and the
        limit staircase."""
        return 2.0 ** -self.float_depth

    def __eq__(self, other):
        """Equal breakpoints and one schedule: two depths past the float
        tables share breakpoints but not the dyadic increments."""
        same = super().__eq__(other)
        if same is not True:
            return same
        return self.schedule == other.schedule

    def fourier_coefficients_at(self, ks) -> np.ndarray:
        """int_0^1 exp(2 pi i (g(t) - k t)) dt at the integer frequencies ks,
        by the self-similar recursion over the float_depth steps.

        Every gap left after step n has the width m_n = 2^-e_n (w_0 = 1
        for the whole interval, w_n = m_n) and, up to translation, one
        lift.  With J_n the integral over one such gap from its left end,
        a gap of step n-1 is a gap of step n, a plateau of slope 1/2 and
        width p_n = w_(n-1) - 2 m_n, and a second gap of step n:

            J_(n-1) = J_n (1 + e(Y_n - k X_n)) + e(Y'_n - k m_n) P_n,

        with e(x) = exp(2 pi i x), X_n = w_(n-1) - m_n, Y_n = (2^-n + X_n)/2,
        Y'_n = (2^-n + m_n)/2 and P_n the plateau's integral.  At the
        bottom, J_D is one linear piece of slope (2^-D + m_D)/(2 m_D), and
        c_k = J_0.  That is O(float_depth) per frequency against O(pieces)
        for the sum over the pieces, which it matches to rounding.  The
        frequencies run in blocks of ``_FREQ_BLOCK``, so a long ks holds a
        few block-sized arrays besides the output.  numpy rounds an array
        of one element differently from a longer one, so a trailing single
        frequency joins the block before it: then c_k depends on k alone,
        whenever ks holds two or more frequencies.
        """
        k = np.asarray(ks, dtype=float).reshape(-1)
        bounds = list(range(0, k.size, _FREQ_BLOCK)) + [k.size]
        if len(bounds) > 2 and bounds[-1] - bounds[-2] == 1:
            del bounds[-2]
        out = np.empty(k.size, dtype=complex)
        for lo, hi in zip(bounds[:-1], bounds[1:]):
            out[lo:hi] = self._recursion(k[lo:hi])
        return out

    def _recursion(self, k: np.ndarray) -> np.ndarray:
        """J_0 at the float frequencies k (``fourier_coefficients_at``)."""
        exps = self.schedule.margin_exponents[:self.float_depth]
        m = math.ldexp(1.0, -exps[-1])
        slope = (math.ldexp(1.0, -self.float_depth) + m) / (2 * m)
        J = _linear_piece(slope - k, m)
        for n in range(self.float_depth, 0, -1):
            m = math.ldexp(1.0, -exps[n - 1])
            w = math.ldexp(1.0, -exps[n - 2]) if n > 1 else 1.0
            rise, X = math.ldexp(1.0, -n), w - m
            J *= 1.0 + np.exp(2j * np.pi * ((rise + X) / 2 - k * X))
            J += np.exp(2j * np.pi * ((rise + m) / 2 - k * m)) \
                * _linear_piece(0.5 - k, w - 2 * m)
        return J

    def level_increments(self, j: int) -> LevelIncrements:
        """Increments over the dyadic cells of level j, from the schedule:
        (2^-m + 2^-j)/2 on 2^m cells and 2^-(j+1) on the other 2^j - 2^m,
        m the first step with margin <= 2^-j (see the module notes)."""
        sched = self.schedule
        m = next((n for n, e in enumerate(sched.margin_exponents, start=1)
                  if e >= j), None)
        if m is None:
            raise DepthBudgetError(
                f"level {j} needs margins below 2^-{j}; built depth "
                f"{sched.depth} reaches 2^-{sched.margin_exponent(sched.depth)}")
        rest = (1 << j) - (1 << m)
        pairs = 2 if rest else 1          # at j = 1 every cell is active
        logs = log_ldexp([1.0 + math.ldexp(1.0, m - j), 1.0],
                         [-m - 1, -j - 1])
        return LevelIncrements(level=j, log_deltas=logs[:pairs],
                               counts=(1 << m, rest)[:pairs])


# ------------------------------------------------------------ public API

def make_staircase_map(kind: str, parameter: float, depth: int) -> CircleMap:
    """Circle map with staircase boundary lift and no rotation offset: the
    point at angle 1/2 turn is fixed, as the step-1 plateau contains 1/2
    and has value 1/2."""
    schedule = build_schedule(kind, parameter, depth)
    name = "cantor_log" if kind == "power" else "cantor_loglog"
    key = "s" if kind == "power" else "p"
    return CircleMap(lift=StaircaseLift(schedule),
                     description=f"{name}:{key}={parameter:g},depth={depth}")


# ------------------------------------------------- modulus certification

@dataclass
class ModulusReport:
    sup_product: float
    witness: tuple            # (x, y, |f(x)-f(y)|, separation)
    pairs_checked: int


def certify_modulus(tree: StaircaseTree, form: str, exponent: float,
                    n_samples: int = 400, rng_seed: int = 0) -> ModulusReport:
    """Empirical sup of |f(x)-f(y)| * omega(|x-y|)^exponent.

    form "log": omega(d) = log(1/d); form "loglog": omega(d) = log log(1/d).
    Pairs: random pairs at log-uniform separations, plus adversarial pairs
    straddling the first 32 plateau endpoints of every step, at its margin
    scale, plus the ends of every gap left after each step.  The random
    and plateau pairs are resolved with ``f_exact``; a gap of step n rises
    by exactly 2^-n.
    """
    if form not in ("log", "loglog"):
        raise DomainError(f"unknown modulus form {form!r}")
    sched = tree.schedule
    rng = np.random.default_rng(rng_seed)
    pairs = []   # (a, b, rise), the rise None where f_exact must find it

    d_min = 2.0 ** -min(sched.margin_exponent(sched.depth), 900)
    for _ in range(n_samples):
        d = float(np.exp(rng.uniform(math.log(max(d_min, 1e-250)),
                                     math.log(0.05))))
        x = float(rng.uniform(0.0, 1.0 - min(d, 0.5)))
        pairs.append((Fraction(x), Fraction(x) + Fraction(d), None))

    # the first 32 plateaus of step n sit in the first 32 gaps of step
    # n-1, (lo, lo + w), at (lo + m, lo + w - m)
    los, w = [Fraction(0)], Fraction(1)
    for n in range(1, sched.depth + 1):
        m = sched.margin(n)
        h = m / 2
        for lo in los:
            for b in (lo + m, lo + w - m):
                a, c = b - h, b + h
                if 0 <= a and c <= 1:
                    pairs.append((a, c, None))
        los = [x for lo in los for x in (lo, lo + w - m)][:32]
        w = m

    # residual-interval spans: the gaps left after step n lie between
    # consecutive plateaus of depth <= n, where the function rises by a
    # full dyadic step over the shortest possible distance, so these pairs
    # are the extremal candidates at every scale.  All 2^n of them span
    # m_n and rise 2^-n, so they give one product, and the strict > below
    # keeps the first, (0, m_n); pairs_checked counts every one
    for n in range(1, sched.depth + 1):
        pairs.append((Fraction(0), sched.margin(n), 2.0 ** -n))
    unlisted = (1 << (sched.depth + 1)) - 2 - sched.depth

    sup = -math.inf
    witness = None
    for a, b, rise in pairs:
        sep = float(b - a)
        if sep <= 0 or sep >= 1:
            continue
        if rise is None:
            fa, _ = f_exact(tree, a)
            fb, _ = f_exact(tree, b)
            diff = abs(float(fb - fa))
        else:
            diff = rise
        if form == "log":
            om = math.log(1.0 / sep)
        else:
            inner = math.log(1.0 / sep)
            if inner <= 1.0:
                continue
            om = math.log(inner)
        prod = diff * om ** exponent
        if prod > sup:
            sup = prod
            witness = (float(a), float(b), diff, sep)
    return ModulusReport(sup_product=sup, witness=witness,
                         pairs_checked=len(pairs) + unlisted)


def gap_rise_partial_sums(schedule: RemovalSchedule, first_block: int,
                          n_blocks: int) -> np.ndarray:
    """Partial sums of j_n * 2^-n over schedule blocks.

    This is the divergence surrogate for the boundary double integral of
    steep-schedule maps: each block past n0 contributes about j_n 2^-n, so
    unbounded partial sums certify divergence.
    """
    if first_block < 1 or first_block + n_blocks - 1 > schedule.depth:
        raise DomainError("blocks outside the built schedule")
    terms = [schedule.j[n - 1] * 2.0 ** -n
             for n in range(first_block, first_block + n_blocks)]
    return np.cumsum(terms)
