"""Exception hierarchy shared by all rarehit modules, and the integer
argument check that raises one."""

import operator


class RarehitError(Exception):
    """Base class for every error raised by this package."""


class ResourceCapError(RarehitError):
    """A request needs more than a cap allows: steps, words, symbols or
    draws.  The CLI exits 3 on every subclass."""


class EmptyAlphabetError(RarehitError):
    pass


class NonStochasticError(RarehitError):
    """A probability row does not sum to one or has negative entries."""


class PeriodicOrReducibleError(RarehitError):
    """The Markov chain is not irreducible and aperiodic."""


class SymbolOutOfRangeError(RarehitError):
    pass


class GapNonPositiveError(RarehitError):
    pass


class RankMismatchError(RarehitError):
    """Target sets of different word lengths cannot be combined."""


class AlphabetTooLargeError(ResourceCapError):
    """A source alphabet would exceed the cap on its dense q x q tables."""


class ExpansionTooLargeError(ResourceCapError):
    """Explicit enumeration of a Hamming ball would exceed the cap."""


class HorizonNonPositiveError(RarehitError):
    pass


class DomainError(RarehitError):
    """An argument lies outside the domain where the quantity is defined."""


class HorizonTooShortError(ResourceCapError):
    """The tail distribution does not extend far enough for the request."""


class HorizonTooLongError(ResourceCapError):
    """A tail horizon beyond the step cap was requested."""


class MeasureUnderflowError(ResourceCapError):
    """A positive measure underflows double precision."""


class InvalidTailError(RarehitError):
    """A tail table is not a survival function, or a tail request is malformed."""


class ConsistencyError(RarehitError):
    """A computed result broke an identity or inequality that must hold."""


class HorizonMismatchError(RarehitError):
    """Two tails must share a common horizon to be compared."""


class ZeroMeasureSetError(RarehitError):
    pass


class ZeroTailError(RarehitError):
    """H(s-2n) vanished; the normalizing constant is undefined."""


class EnumerationTooLargeError(ResourceCapError):
    """Brute-force enumeration would exceed the cap."""


class SingularSystemError(RarehitError):
    pass


class RejectionBudgetExceededError(ResourceCapError):
    """Conditional sampling rejected too many proposals."""


class CensorCapTooLargeError(ResourceCapError):
    """A censoring cap does not fit the int64 hit times of a batch."""


class RateExceedsEntropyError(RarehitError):
    """Cardinality growth rate of the target family is not below entropy."""


class GridEmptyError(RarehitError):
    pass


class ConfigInvalidError(RarehitError):
    """CLI configuration could not be parsed or validated."""


def _integer(name: str, value) -> int:
    """``value`` as a Python int: any integer, numpy's included, and
    nothing else (no float, integral or not)."""
    try:
        return operator.index(value)
    except TypeError:
        raise DomainError(f"{name} must be an integer, got {value!r}") from None
