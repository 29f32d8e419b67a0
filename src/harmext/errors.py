"""Shared exception types for the energy laboratory.

Everything raised on purpose by this package derives from LabError so that
callers (notably the CLI) can distinguish "bad input / resolvable config
problem" from genuine bugs.
"""


class LabError(Exception):
    """Base class for all deliberate failures raised by this package, and
    the class of those no caller tells apart (inversion, cell budget)."""


class DomainError(LabError, ValueError):
    """An argument fell outside the mathematical domain of an operation."""


class DepthBudgetError(LabError):
    """A Cantor-type evaluation needs more construction depth than built."""


class ConstructionError(LabError):
    """An interval-removal construction produced an inconsistent state."""


class BreakpointResolutionError(LabError):
    """The Orlicz linear-piece breakpoints could not be resolved."""


class UnresolvedSpecError(LabError):
    """An Orlicz spec was used in a mode that needs resolved breakpoints."""


class QuadratureOverflowError(LabError):
    """A quadrature refinement diverged instead of settling (non-integrable)."""


class PrecisionError(LabError):
    """A point needs more series terms than ``extend`` and ``wirtinger``
    allow (|z| too close to the boundary), or a dyadic level more than its
    |Dh| samples keep (a level past 16)."""
