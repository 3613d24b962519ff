"""Exception types shared across the library."""


class MaxNoetherError(Exception):
    """Base class for all library errors."""


class EmptyGenerators(MaxNoetherError):
    """A semigroup was requested from an empty generating set."""


class NotCofinite(MaxNoetherError):
    """The generated monoid has infinite complement in the naturals (gcd > 1)."""


class NoSingularity(MaxNoetherError):
    """An invariant of a singular point was requested for the full semigroup."""


class EmptySet(MaxNoetherError):
    """Arithmetic was attempted on the empty value set."""


class NotARing(MaxNoetherError):
    """Additive closure was requested for a set that cannot close to a numerical semigroup."""


class NotNested(MaxNoetherError):
    """A quotient dimension was requested for sets that are not nested."""


class NotApplicable(MaxNoetherError):
    """A construction's hypotheses are not met by the given input."""


class HypothesisGap(MaxNoetherError):
    """A certificate needs a section value that the supplied value set does not provide."""


class AmbientMismatch(MaxNoetherError):
    """Vectors of different ambient dimensions were combined."""


class CurveSpecError(MaxNoetherError):
    """A curve description file is malformed."""
