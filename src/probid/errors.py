"""Exception types shared across the package."""


class ProbidError(Exception):
    """Base class for all package-specific errors."""


class SumNotOne(ProbidError):
    """Probability masses do not sum to exactly 1."""


class NonpositiveMass(ProbidError):
    """A probability mass that must be positive is zero or negative."""


class ZeroDenominator(ProbidError):
    """A normalizing sum evaluated to zero."""


class BadSymbol(ProbidError):
    """A symbol outside the declared alphabet was supplied."""


class IndexOutOfRange(ProbidError):
    """A 1-based list index fell outside a finite hypothesis list."""


class BadStart(ProbidError):
    """Chain run requested from a state not in the state space."""


class ZeroMassPrefix(ProbidError):
    """Conditioning on a prefix of measure zero."""


class NotErgodic(ProbidError):
    """Transition matrix is reducible or periodic."""


class SingularSystem(ProbidError):
    """Stationary solve failed; cannot happen for ergodic inputs."""


class InvalidTransitionMatrix(ProbidError):
    """Rows are not an exact row-stochastic matrix."""


class EmptyHistory(ProbidError):
    """Markov prediction needs at least one observed state."""


class UnknownState(ProbidError):
    """History ends in a state the chain does not have."""


class EmptyInput(ProbidError):
    """Aggregate requested over zero records."""


class ConfigInvalid(ProbidError):
    """Experiment configuration rejected; `path` names the offending field,
    or is empty when the fault is the config as a whole."""

    def __init__(self, path, message=""):
        self.path = path
        super().__init__(": ".join(filter(None, (path, message))))


class IoError(ProbidError):
    """Result files could not be written."""
