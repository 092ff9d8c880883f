"""Exception types shared across the package."""

from __future__ import annotations


class KernelError(Exception):
    """Base class for all errors raised by this package."""


class PrecisionError(KernelError):
    """An operation needed coefficient data beyond the tracked precision."""


class InvalidParams(KernelError):
    """Parameters passed to a relation, identity, or script generator are
    outside the domain where the object is defined."""


class NoMatch(KernelError):
    """A rewrite step did not match the word it was applied to."""


class InvalidStep(KernelError):
    """A rewrite step is malformed or its algebraic premise fails."""


class NoCertificate(KernelError):
    """The quadratic form attached to a coefficient query is not positive
    definite on the constraint lattice, so finite enumeration of the
    contributing tuples cannot be certified."""


class InfiniteSupport(KernelError):
    """An exact (unbounded-precision) coefficient query was attempted on a
    product whose matching tuple set is not provably finite."""
