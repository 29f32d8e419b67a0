"""Memory guard for the sample stages of the pair energy U.

tracemalloc counts numpy's buffers as they are allocated, so the peak of
one step is the same from run to run, unlike the resident set size.  The
|Dh| stage to level 14 runs first and leaves the map's dyadic table at
2^21 values, as in an ``energy`` command.  One ring of the pair
geometry at 14 rings is a (2^15, 64) float array: 16 MB.
"""

import tracemalloc

from harmext import boundary, circle_map
from harmext.poisson import PoissonExtension
from harmext.report import EnergyParams

PL_KINKED = ((0.0, 0.0), (0.25, 0.5), (0.75, 0.6), (1.0, 1.0))

# the geometry holds 67.6 MB; its build may add two ring-sized buffers
BUILD_PEAK_MB = 100.0
# U holds the ring's ratios and two buffers for Phi at a time
U_PEAK_MB = 56.0


def _traced_peak_mb(fn):
    """fn()'s result, and its traced peak above what was held before."""
    held = tracemalloc.get_traced_memory()[0]
    tracemalloc.reset_peak()
    out = fn()
    return out, (tracemalloc.get_traced_memory()[1] - held) / 2 ** 20


def test_pair_stage_peaks_stay_bounded():
    m = circle_map.piecewise_linear(PL_KINKED)
    ext = PoissonExtension(m)
    for j in range(1, 15):
        ext.level_samples(j)
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
