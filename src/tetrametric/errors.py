"""Exception hierarchy for tetrametric."""


class TetraError(Exception):
    """Base class for all tetrametric errors."""


class DegenerateInput(TetraError):
    """Tetrahedron too close to flat for reliable unfolding arithmetic."""


class Collinear(TetraError):
    """Planar triangle degenerate within tolerance."""


class NotAcute(TetraError):
    """Side triple does not form an acute triangle."""


class SearchExhausted(TetraError):
    """No straight development reaches a target, or a star point lies
    outside the star, so no surface point develops there."""


class AmbiguousCut(TetraError):
    """A source-to-vertex shortest path is not unique within tolerance."""


class GenerationFailed(TetraError):
    """Random generator exceeded its rejection budget."""
