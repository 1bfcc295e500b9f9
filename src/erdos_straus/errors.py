"""Exception taxonomy shared by all modules.

The split matters for the CLI exit-code contract: domain problems are
the caller's fault (exit 2), consistency problems are this package's
fault, and correspondence problems would falsify the characterization
the package implements (exit 5).
"""

from __future__ import annotations

__all__ = [
    "ErdosStrausError",
    "DomainError",
    "InvalidSolutionError",
    "ResourceLimitError",
    "ConsistencyError",
    "CorrespondenceError",
]


class ErdosStrausError(Exception):
    """Base class for every error this package raises."""


class DomainError(ErdosStrausError, ValueError):
    """An argument is outside an operation's documented domain."""


class InvalidSolutionError(DomainError):
    """A claimed solution fails the unit-fraction identity or ordering."""


class ResourceLimitError(DomainError):
    """A request exceeds a configured computational cap."""


class ConsistencyError(ErdosStrausError):
    """A certified witness failed to build an exact solution.

    Construction re-checks divisibility, ordering, and the identity
    instead of trusting its input; this error means the witness was
    broken, and it is never swallowed.
    """


class CorrespondenceError(ErdosStrausError):
    """A genuine solution failed witness recovery.

    Recovery re-derives every property the witness characterization
    promises; a failure here is a counterexample to that
    characterization, not a usage mistake.
    """
