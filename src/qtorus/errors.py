"""Exception types shared across the package, and :class:`Record`, the one
base of its value records: each record is a tuple of named fields."""

from __future__ import annotations

from operator import itemgetter


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


class Record(tuple):
    """Base of the package's value records, laid out as namedtuple lays out
    its classes: a record is the tuple of the fields its class names in
    ``_fields``, in constructor order, and holds nothing else, as every
    record class declares an empty ``__slots__``.  A record that writes no
    ``__new__`` gets one built from ``_fields``, whose trailing fields
    default to the values of the class's ``_defaults`` dict.  A record is
    read-only, equals only a record of its own class with equal fields,
    never a plain tuple, and does not order; its hash fails on a field that
    holds a dict."""

    __slots__ = ()
    _fields: tuple
    _defaults: dict = {}

    def __init_subclass__(cls) -> None:
        # one fixed template over the field names, as namedtuple builds
        # __new__, so Python itself binds the arguments
        names = cls._fields
        for i, name in enumerate(names):
            setattr(cls, name, property(itemgetter(i)))
        if "__new__" in vars(cls):
            return
        fields = ", ".join(names)
        new = eval(f"lambda _cls, {fields}: _new(_cls, ({fields},))", {"_new": tuple.__new__})
        new.__defaults__ = tuple(cls._defaults[name] for name in names[len(names) - len(cls._defaults):])
        new.__qualname__ = f"{cls.__qualname__}.__new__"
        cls.__new__ = staticmethod(new)

    # both answer for another class: NotImplemented would fall back to
    # tuple's methods, which ignore the class, so a record would equal its tuple
    def __eq__(self, other: object) -> bool:
        return other.__class__ is self.__class__ and tuple.__eq__(self, other)

    def __ne__(self, other: object) -> bool:
        return other.__class__ is not self.__class__ or tuple.__ne__(self, other)

    __hash__ = tuple.__hash__
    __lt__ = __le__ = __gt__ = __ge__ = None

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={value!r}" for name, value in zip(self._fields, self))
        return f"{self.__class__.__name__}({fields})"

    def __getnewargs__(self) -> tuple:
        # copy and pickle rebuild a record through its constructor
        return tuple(self)
