"""Memory guards for the |Dh| stage of I1/I2, the pair stage of U, the
inverse stage of V and the staircase Fourier coefficients.

tracemalloc counts numpy's buffers as they are allocated, so the peak of
one step is the same from run to run, unlike the resident set size.  The
|Dh| stage to level 14 builds one grid of 2^21 FFT coefficients (32 MB) in
place from four quarter FFTs and halves it in place for the smaller radii;
the fold reads the grid itself as whole rows, in matrix products over
column tiles, and copies no part of the series.  Afterwards the extension
holds only the samples, about 4 MB.  To level 16 the grid is 2^22
coefficients (64 MB).  pocketfft's work buffers are invisible to
tracemalloc, so the stage's high-water mark of resident memory is checked
in a fresh process: each quarter FFT's buffers take about 8 MB, where one
FFT of the whole grid took 64 MB.  The pair stage is measured after the
|Dh| stage, as in an ``energy`` command.  The pair geometry holds a count
per (offset, slope) and the image chords of the straddling pairs only: the
pairs with a breakpoint of the lift, 0 or 1 between their ends.  The
inverse stage holds its (outer node x offset) chord array and inverts the
targets one block of outer nodes at a time, so its peak is that array and
one block's temporaries, not a dozen arrays of every target.  The
staircase recursion runs over blocks of frequencies, so a long frequency
vector costs its output and one block's arrays.  The modulus certificate of
a staircase counts its 2^(depth+1) gap pairs without listing them, so
depth 24 holds only its random and plateau pairs.
"""

import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from harmext import boundary, circle_map
from harmext.cantor import certify_modulus, make_staircase_map
from harmext.poisson import PoissonExtension
from harmext.report import EnergyParams

PL_KINKED = ((0.0, 0.0), (0.25, 0.5), (0.75, 0.6), (1.0, 1.0))

# levels 1..14 of pl_kinked peak at 43.4 MB and hold 4.1 MB afterwards;
# the row-by-row fold peaked at 46.0 MB, a damped (Q x 2^j) copy of the
# series at 52.2 MB and a zero-padded copy at 53.3 MB
DH_STAGE_PEAK_MB = 47.0
# levels 1..16 peak at 109.0 MB; the row-by-row fold at 119.4 MB, the
# padded copy at 146.5 MB
DH_STAGE_16_PEAK_MB = 118.0
DH_STAGE_HELD_MB = 8.0
# a fresh process that builds them peaks at 85 MB resident, 30 MB of it
# the interpreter and numpy; one FFT of the whole grid took it to 145 MB
DH_STAGE_MAXRSS_MB = 110.0
# the build of pl_kinked peaks near 2 MB, its geometry holds 0.4 MB
BUILD_PEAK_MB = 16.0
# U holds one ring's ratios and weights, with Phi's two buffers, at a time
U_PEAK_MB = 4.0
# the fine and coarse inverse geometries of pl_kinked and staircase_s2
# peak near 6.6 MB; inverting all 344,064 targets at once took 32-34 MB
INVERSE_STAGE_PEAK_MB = 8.0
# the staircase's 291,264 straddling pairs at 14 rings take 2.3 MB
STAIRCASE_GEOMETRY_MB = 8.0
# the staircase coefficients at k = -2^18..2^18: 8 MB of output, a float
# copy of k and one block's recursion at a time; in one pass, 48 MB
STAIRCASE_COEFFS_PEAK_MB = 24.0
# the certificate at depth 24 peaks near 1.8 MB: it lists 1,702 pairs of
# Fractions, with denominators up to 2^4096
MODULUS_DEPTH_24_PEAK_MB = 4.0


def _traced_peak_mb(fn):
    """fn()'s result, and its traced peak above what was held before."""
    held = tracemalloc.get_traced_memory()[0]
    tracemalloc.reset_peak()
    out = fn()
    return out, (tracemalloc.get_traced_memory()[1] - held) / 2 ** 20


def test_dh_stage_peak_stays_bounded():
    ext = PoissonExtension(circle_map.piecewise_linear(PL_KINKED))
    tracemalloc.start()
    try:
        _, stage_mb = _traced_peak_mb(lambda: ext.level_samples(14))
        held_mb = tracemalloc.get_traced_memory()[0] / 2 ** 20
    finally:
        tracemalloc.stop()
    assert stage_mb <= DH_STAGE_PEAK_MB
    # the samples themselves, 16 (2 + 4 + ... + 2^14) floats: no grid
    assert held_mb <= DH_STAGE_HELD_MB


def test_dh_stage_peak_stays_bounded_at_sixteen_levels():
    ext = PoissonExtension(circle_map.piecewise_linear(PL_KINKED))
    tracemalloc.start()
    try:
        _, stage_mb = _traced_peak_mb(lambda: ext.level_samples(16))
    finally:
        tracemalloc.stop()
    assert stage_mb <= DH_STAGE_16_PEAK_MB


# the child reads VmHWM, the peak resident set of its own address space:
# Linux carries the parent's ru_maxrss over fork and exec, so under pytest
# a child's ru_maxrss starts at the test session's peak
DH_STAGE_COLD = f"""
from harmext import circle_map
from harmext.poisson import PoissonExtension
PoissonExtension(circle_map.piecewise_linear({PL_KINKED!r})).level_samples(14)
with open("/proc/self/status") as status:
    print(next(line.split()[1] for line in status
               if line.startswith("VmHWM:")))
"""


def test_dh_stage_resident_peak_stays_bounded():
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    done = subprocess.run([sys.executable, "-c", DH_STAGE_COLD], env=env,
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    # VmHWM is in kB
    assert int(done.stdout) / 2 ** 10 <= DH_STAGE_MAXRSS_MB


def test_pair_stage_peaks_stay_bounded():
    m = circle_map.piecewise_linear(PL_KINKED)
    ext = PoissonExtension(m)
    ext.level_samples(14)
    tracemalloc.start()
    try:
        geom, build_mb = _traced_peak_mb(
            lambda: boundary.PairGeometry.build(m, diagonal_rings=14))
        _, u_mb = _traced_peak_mb(lambda: boundary.evaluate_gauge_pair(
            geom, EnergyParams(2.0, 0.0, 0.5)))
    finally:
        tracemalloc.stop()
    assert build_mb <= BUILD_PEAK_MB
    assert u_mb <= U_PEAK_MB


@pytest.mark.parametrize("m", [circle_map.piecewise_linear(PL_KINKED),
                               make_staircase_map("power", 2.0, 10)],
                         ids=["pl_kinked", "staircase_s2"])
def test_inverse_stage_peak_stays_bounded(m):
    tracemalloc.start()
    try:
        _, stage_mb = _traced_peak_mb(
            lambda: boundary.inverse_kernel_geometries(m))
    finally:
        tracemalloc.stop()
    assert stage_mb <= INVERSE_STAGE_PEAK_MB


def test_staircase_pair_geometry_stays_small():
    geom = boundary.PairGeometry.build(make_staircase_map("power", 2.0, 10),
                                       diagonal_rings=14)
    held = sum(a.nbytes for field in (geom.chords, geom.ratios,
                                      geom.slope_counts, geom.straddle_counts)
               for a in field)
    assert held / 2 ** 20 <= STAIRCASE_GEOMETRY_MB


def test_staircase_coefficients_run_in_blocks():
    lift = make_staircase_map("power", 2.0, 10).lift
    ks = np.arange(-(1 << 18), (1 << 18) + 1)
    tracemalloc.start()
    try:
        _, coeffs_mb = _traced_peak_mb(
            lambda: lift.fourier_coefficients_at(ks))
    finally:
        tracemalloc.stop()
    assert coeffs_mb <= STAIRCASE_COEFFS_PEAK_MB


def test_deep_modulus_certificate_stays_small():
    lift = make_staircase_map("power", 2.0, 24).lift
    tracemalloc.start()
    try:
        rep, modulus_mb = _traced_peak_mb(
            lambda: certify_modulus(lift.tree, "log", 1.0))
    finally:
        tracemalloc.stop()
    assert rep.pairs_checked == 33_556_108
    assert modulus_mb <= MODULUS_DEPTH_24_PEAK_MB
