"""Exception hierarchy for shallowmin.

Every error the library raises derives from ShallowminError so callers (and
the CLI, which maps them to exit code 3) can catch one type.
"""


class ShallowminError(Exception):
    """Base class for all shallowmin errors."""


class DimensionError(ShallowminError):
    """Shapes or regime dimensions are inconsistent with the operation."""


class RankDeficient(ShallowminError):
    """A matrix required to have full column rank does not."""


class NotAProjector(ShallowminError):
    """Input fails the orthogonal-projector invariants beyond tolerance."""


class DegenerateMeans(ShallowminError):
    """Class means are not linearly independent; downstream results assume rank Q."""


class SingularMeans(ShallowminError):
    """Reduced mean matrix is numerically singular in the M = Q regime."""


class SingularGram(ShallowminError):
    """The data Gram matrix X0 N^-1 X0^T is numerically singular."""


class WrongRegime(ShallowminError):
    """Operation requires M = Q but the dataset has M != Q."""


class SingularW1(ShallowminError):
    """First-layer weight matrix must be invertible for truncation."""


class BetaTooSmall(ShallowminError):
    """First-layer bias is too small to keep pre-activations non-negative."""


class BetaTooLarge(ShallowminError):
    """First-layer bias so large that the trainer's pass over the data overflows."""


class NotPositiveSemidefinite(ShallowminError):
    """A matrix that must be PSD has an eigenvalue below -1e-12."""


class Diverged(ShallowminError):
    """Gradient descent cost exceeded 1e6 x its initial value."""


class MissingArtifact(ShallowminError):
    """A report input path does not exist or is not a known artifact."""


class ConsistencyError(ShallowminError):
    """Two algebraically equal computation routes disagreed beyond tolerance."""
