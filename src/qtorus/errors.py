"""Exception types shared across the package, and the base of its read-only
records."""

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


class FrozenRecord:
    """Base of the package's read-only value records: assigning to or
    deleting an attribute raises AttributeError.  Each record lists its
    fields in ``__slots__`` in the order its constructor takes them, sets
    them in ``__init__`` through ``object.__setattr__`` and writes out its
    own ``__eq__``, ``__hash__`` and ``__repr__``."""

    __slots__ = ()

    def __reduce__(self) -> tuple:
        # copy and pickle rebuild a record through its constructor, as
        # restoring the slots one by one would assign to them
        return (self.__class__, tuple(getattr(self, name) for name in self.__slots__))

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")
