"""Exception types shared across the package.

Everything raised on purpose derives from :class:`CmrfError`, so callers
(including the command line front end) can catch one base class and turn
it into a clean diagnostic instead of a traceback.
"""


class CmrfError(Exception):
    """Base class for all errors raised by this package."""


class ClosureViolation(CmrfError):
    """A simplex references a face that is not part of the complex."""


class DuplicateSimplex(CmrfError):
    """The same vertex, edge, or triangle appears more than once."""


class DegenerateSimplex(CmrfError):
    """A simplex repeats a vertex (zero-length edge, flat triangle)."""


class InvalidDocument(CmrfError):
    """A JSON document lacks a required key or holds a value of the wrong type."""


class GenerationFailed(CmrfError):
    """Random complex generation exhausted its retry budget."""


class DimensionMismatch(CmrfError):
    """An array argument has a length inconsistent with the complex."""


class NotPositiveDefinite(CmrfError):
    """The requested precision matrix is not positive definite."""


class OverlappingSets(CmrfError):
    """Index sets that must be disjoint share an element."""


class NotColorSeparated(CmrfError):
    """A marginal independence check was asked for a non-separated pair."""


class NotSeparated(CmrfError):
    """A conditional independence check was asked for a non-separated query."""
