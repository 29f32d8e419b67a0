"""Shared fixtures: the map fleet and cached Poisson extensions.

The fleet is the standing cast used by the comparability studies: the
identity, a rotation, two piecewise-linear homeomorphisms (one mild, one
with three kinks), and a staircase map.  Poisson extensions carry large
per-level caches, so one extension per map is built lazily and shared
across the whole session.  ``wirtinger_fd`` is the finite-difference
oracle for the series derivatives of an extension.
"""

import numpy as np
import pytest

from harmext import circle_map
from harmext.cantor import make_staircase_map
from harmext.poisson import PoissonExtension

PL_A = ((0.0, 0.0), (0.5, 0.25), (1.0, 1.0))
PL_B = ((0.0, 0.0), (0.25, 0.5), (0.75, 0.6), (1.0, 1.0))


def build_fleet():
    return {
        "identity": circle_map.identity(),
        "rotation": circle_map.rotation_map(0.3),
        "pl_mild": circle_map.piecewise_linear(PL_A),
        "pl_kinked": circle_map.piecewise_linear(PL_B),
        "staircase_s2": make_staircase_map("power", 2.0, 10),
    }


@pytest.fixture(scope="session")
def fleet():
    return build_fleet()


@pytest.fixture(scope="session")
def poisson_fleet(fleet):
    """One cached PoissonExtension per fleet map, built on demand."""
    cache = {}

    def get(name):
        if name not in cache:
            cache[name] = PoissonExtension(fleet[name])
        return cache[name]

    return get


def wirtinger_fd(ext, z):
    """(h_z, h_zbar) from central differences of ``ext.extend``.

    Fourth-order stencil with step (1-|z|)/100: the second-order stencil
    is not accurate enough near the boundary, where the higher derivatives
    of h grow like powers of 1/(1-|z|).
    """
    z = np.asarray(z, dtype=complex)
    step = (1.0 - np.abs(z)) / 100.0

    def deriv(direction):
        return (8.0 * (ext.extend(z + direction * step)
                       - ext.extend(z - direction * step))
                - (ext.extend(z + 2 * direction * step)
                   - ext.extend(z - 2 * direction * step))) \
            / (12.0 * step)

    hx, hy = deriv(1.0), deriv(1j)
    return 0.5 * (hx - 1j * hy), 0.5 * (hx + 1j * hy)
