"""Exception types shared across the library."""


class MaxNoetherError(Exception):
    """Base class for all library errors."""


class EmptyGenerators(MaxNoetherError):
    """A semigroup was requested from an empty generating set."""


class NotCofinite(MaxNoetherError):
    """The generated monoid has infinite complement in the naturals (gcd > 1)."""


class ConductorTooLarge(MaxNoetherError):
    """A semigroup's conductor is above the limit the library computes."""


class WeightTooLarge(MaxNoetherError):
    """A weight-n space was requested above the weight the library computes."""


class AmbientTooLarge(MaxNoetherError):
    """A weight-n space was requested on more numerator coefficients than the library computes."""


class GenusTooLarge(MaxNoetherError):
    """A suite was asked for a genus bound above the cap that suite runs to."""


class InvalidBound(MaxNoetherError):
    """A suite bound is not an integer in its range (a genus below 0, a weight below 1)."""


class UnreadBound(MaxNoetherError):
    """A suite was given a bound that it does not read."""


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


class BranchIndexError(MaxNoetherError):
    """A branch was named by an index that is not one of the curve's branches."""


class AmbientMismatch(MaxNoetherError):
    """Vectors of different ambient dimensions were combined."""


class CurveSpecError(MaxNoetherError):
    """A curve description is malformed or names an invalid curve."""


class FrozenInstanceError(AttributeError):
    """A field of an immutable value was assigned or deleted."""
