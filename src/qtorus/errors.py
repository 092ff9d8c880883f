"""Exception types shared across the package, and :class:`Record`, the one
base of its value records."""

from __future__ import annotations


class KernelError(Exception):
    """Base class for all errors raised by this package."""


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


class Record:
    """Base of the package's value records.  Each record lists its fields in
    ``__slots__`` in the order its constructor takes them, and a record that
    writes no ``__init__`` gets one built from that list, whose trailing
    fields default to the values of the class's ``_defaults`` dict; the
    built constructor's signature shows the fields.  Equality (same class
    only, field by field), ``repr`` and copying read the fields in the same
    order, and so does hashing, which fails on a field that holds a dict.
    Every record is read-only: assigning to or deleting an attribute raises
    AttributeError, so a constructor written by hand sets its fields through
    ``object.__setattr__``."""

    __slots__ = ()
    _defaults: dict = {}

    def __init_subclass__(cls) -> None:
        # one fixed template over the slot names, as collections.namedtuple
        # builds __new__, so Python itself binds the arguments; the fields
        # are set through object.__setattr__, which a read-only record allows
        names = cls.__slots__
        if "__init__" in vars(cls) or not names:
            return
        body = "".join(f"\n    _set(self, {name!r}, {name})" for name in names)
        namespace = {"_set": object.__setattr__}
        exec(f"def __init__(self, {', '.join(names)}):{body}", namespace)
        init = namespace["__init__"]
        init.__defaults__ = tuple(cls._defaults[name] for name in names[len(names) - len(cls._defaults):])
        init.__qualname__ = f"{cls.__qualname__}.__init__"
        cls.__init__ = init

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{self.__class__.__name__}({fields})"

    def __reduce__(self) -> tuple:
        # copy and pickle rebuild a record through its constructor, as
        # restoring the slots one by one would assign to a read-only record
        return (self.__class__, self._values())

