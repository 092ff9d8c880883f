"""The public names of the package and the README's library example."""

import ast
import copy
import importlib
import inspect
import pickle
import re
import sys
from pathlib import Path

import pytest

import qtorus
from qtorus.algebra import Element
from qtorus.catalog import CatalogItem, Report
from qtorus.errors import InvalidParams, Record
from qtorus.series import FactoredRational, LaurentSeries
from qtorus.verifier import ProductCertificate, TupleCertificate, _ScaledForm
from qtorus.words import (
    DerivationScript,
    ExpLetter,
    Letter,
    Relation,
    ReplayResult,
    S,
    Step,
    comm0,
)

SUBMODULES = ("series", "algebra", "qexp", "verifier", "words", "scripts", "catalog", "cli")


def test_package_names_resolve():
    missing = [name for name in qtorus.__all__ if not hasattr(qtorus, name)]
    assert missing == []


@pytest.mark.parametrize("module", SUBMODULES)
def test_submodule_names_resolve(module):
    mod = importlib.import_module(f"qtorus.{module}")
    missing = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert missing == []


def test_readme_library_example_runs(capsys):
    # every python block of the section, in order, in one namespace
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("## Library use", 1)[1].split("\n## ", 1)[0]
    blocks = re.findall(r"```python\n(.*?)```", section, re.S)
    assert len(blocks) == 4
    namespace: dict = {}
    for code in blocks:
        exec(compile(code, "README.md", "exec"), namespace)
    series_line, fields_line, *window_lines, terms_line = capsys.readouterr().out.splitlines()
    assert series_line.startswith("-2*q^1 - 4*q^3 - 8*q^5 - ")
    assert series_line.endswith(" (mod q^14)")
    # tuple count, the minors of the product's units (E(w1^-1) E(w1) is one
    # unit) and the minimum valuation
    assert fields_line == "6 (2,) 1"
    # the window's 25 targets, the (0, 1) target among them with the series
    assert len(window_lines) == 25
    assert f"(0, 1) walk {series_line}" in window_lines
    assert ast.literal_eval(terms_line) == {(1, 0): {0: 1}, (0, 1): {0: 1}, (1, 1): {-1: -1}}
    assert namespace["failed"].status == "FAIL" and namespace["report"].status == "PASS"


_WORD = (S(1, 1), S(1, -1))
_SWAPPED = (S(1, -1), S(1, 1))

# (class, its fields in order with a value each, another value for each field
# that can change alone, the defaults of the trailing fields, whether its
# values are hashable)
RECORDS = [
    (
        _ScaledForm,
        {"minors": (2,), "lam": 8, "di": (8,), "li_cols": ((),), "centre_map": ((-4,),), "h_terms": ((0, 0, 6),)},
        {"minors": (3,), "lam": 4, "di": (4,), "li_cols": ((), ()), "centre_map": ((4,),), "h_terms": ()},
        {}, True,
    ),
    (
        ProductCertificate,
        {
            "factors": ("E(w1)", "E(w2^-1)"), "precision": 8,
            "gram_restricted": ((2,),), "minors": (2,), "firsts": ((0, 1, 0),), "pairs": (0,),
        },
        {
            "factors": ("E(w1)",), "precision": 9,
            "gram_restricted": (), "minors": (), "firsts": (), "pairs": (),
        },
        {"pairs": ()}, True,
    ),
    (
        TupleCertificate,
        {
            "product": ProductCertificate(("E(w1)",), 8, ((2,),), (2,), ((0, 1, 0),)),
            "exponents": (1,), "reason": "walk", "points": (((1,), 1),), "tuple_count": 1,
            "max_index": 1,
        },
        {
            "product": ProductCertificate(("E(w2)",), 8, ((2,),), (2,), ((0, 1, 0),)),
            "exponents": (2,), "reason": "qmin", "points": (), "tuple_count": 0,
            "max_index": 0,
        },
        {"points": (), "tuple_count": 0, "max_index": 0}, True,
    ),
    (Letter, {"kind": "B", "site": 1, "sign": 0}, {"kind": "C", "site": 2}, {"sign": 0}, True),
    (
        Relation,
        {"rid": "comm0", "bindings": (("n", "1"),), "lhs": _WORD, "rhs": _SWAPPED},
        {"rid": "far", "bindings": (), "lhs": _SWAPPED, "rhs": _WORD},
        {}, True,
    ),
    (
        Step,
        {"position": 2, "relation": comm0(1), "forward": False},
        {"position": 0, "relation": comm0(2), "forward": True},
        {"forward": True}, True,
    ),
    (
        DerivationScript,
        {"name": "swap", "start": _WORD, "steps": (Step(0, comm0(1)),), "end": _SWAPPED},
        {"name": "other", "start": _SWAPPED, "steps": (), "end": _WORD},
        {}, True,
    ),
    (
        ReplayResult,
        {"ok": False, "steps_applied": 1, "final": _SWAPPED, "error": "no"},
        {"ok": True, "steps_applied": 0, "final": _WORD, "error": None},
        {"error": None}, True,
    ),
    (
        Report,
        {
            "schema_version": 1, "identity": "mult1", "params": {"N": 2}, "status": "PASS",
            "per_monomial": [], "certificate_summary": {"mode": "exact"}, "elapsed_ms": 3,
        },
        {
            "schema_version": 2, "identity": "mult2", "params": {}, "status": "FAIL",
            "per_monomial": [{}], "certificate_summary": {}, "elapsed_ms": 4,
        },
        {}, False,
    ),
    (
        CatalogItem,
        {"name": "x", "description": "y", "defaults": {"N": 2}, "plan": len},
        {"name": "z", "description": "w", "defaults": {}, "plan": abs},
        {}, False,
    ),
]


@pytest.mark.parametrize(
    "cls, fields, others, defaults, hashable", RECORDS, ids=[r[0].__name__ for r in RECORDS]
)
def test_record_semantics(cls, fields, others, defaults, hashable):
    values = tuple(fields.values())
    record = cls(*values)
    assert [getattr(record, name) for name in fields] == list(values)
    # by value, by keyword, over every field, and only against the same class
    assert record == cls(*values) == cls(**fields)
    for name, other in others.items():
        assert record != cls(**dict(fields, **{name: other}))
    # a record holds its values in order, but never equals their plain tuple
    assert tuple(record) == values
    assert not record == values and not values == record
    assert record != values and values != record
    # records do not order
    with pytest.raises(TypeError):
        record < record
    assert copy.copy(record) == copy.deepcopy(record) == pickle.loads(pickle.dumps(record)) == record
    assert repr(record) == f"{cls.__name__}(" + ", ".join(f"{k}={v!r}" for k, v in fields.items()) + ")"
    required = values[: len(values) - len(defaults)]
    assert cls(*required) == cls(*required, *defaults.values())
    assert [getattr(cls(*required), name) for name in defaults] == list(defaults.values())
    # the constructor's signature shows the fields in order, with the defaults
    parameters = inspect.signature(cls).parameters
    assert list(parameters) == list(fields) == list(cls._fields)
    assert {k: p.default for k, p in parameters.items() if p.default is not p.empty} == defaults
    if hashable:
        assert hash(record) == hash(cls(*values))
    else:
        with pytest.raises(TypeError):
            hash(record)
    # every record is read-only, and takes no attribute beyond its fields
    first = next(iter(fields))
    with pytest.raises(AttributeError):
        setattr(record, first, values[0])
    with pytest.raises(AttributeError):
        delattr(record, first)
    with pytest.raises(AttributeError):
        record.extra = 1
    assert record == cls(*values)


def test_certificate_properties_are_read_from_the_fields_they_restate():
    # the kernel rank is the units' rank plus one per pair, and the least
    # valuation is that of the points; neither is stored, so neither can
    # disagree with the data, be set or show in the record's repr
    form = ((2, -1), (-1, 2))
    for gram, pairs, rank in (((), (), 0), (form, (), 2), (form, (0,), 3), (((2,),), (0, 2), 3)):
        product = ProductCertificate(("E(w1)",), 8, gram, (), (), pairs)
        assert product.kernel_rank == rank
    product = ProductCertificate(("E(w1)",), 8, ((2,),), (2,), ((0, 1, 0),))
    for points, least in (((), None), ((((1,), 1),), 1), ((((0,), 3), ((2,), -2), ((1,), 0)), -2)):
        cert = TupleCertificate(product, (1,), "walk", points, len(points), 2)
        assert cert.min_valuation == least
    assert TupleCertificate(product, (2,), "qmin").min_valuation is None
    for record, name in ((product, "kernel_rank"), (cert, "min_valuation")):
        assert name not in record._fields and f"{name}=" not in repr(record)
        with pytest.raises(AttributeError):
            setattr(record, name, 0)


def test_records_get_their_constructors_from_their_slots():
    # Letter alone writes a constructor in its module, as it validates its
    # fields; every other record's is built from its fields
    for name in SUBMODULES:
        importlib.import_module(f"qtorus.{name}")
    classes, written = [Record], []
    for cls in classes:
        classes.extend(cls.__subclasses__())
        new = vars(cls).get("__new__")
        if new is not None and new.__func__.__code__.co_filename == sys.modules[cls.__module__].__file__:
            written.append(cls)
    assert {cls for cls, *_ in RECORDS} <= set(classes)
    assert written == [Letter]


def test_record_repr_text():
    assert repr(S(2, 1)) == "Letter(kind='S', site=2, sign=1)"


@pytest.mark.parametrize(
    "value, render, text",
    [
        (Relation("demo", (), (S(1, 1),), (S(1, -1),)), str, "demo: s1+ <-> s1-"),
        (LaurentSeries({0: 1, 2: -3, 5: 1}, 4), repr, "LaurentSeries({0: 1, 2: -3}, precision=4)"),
        (FactoredRational({1: 2}, {1: 1}), repr, "FactoredRational({1: 2}, {1: 1})"),
        (ExpLetter("u", Element.generator(2, 1)), repr, "ExpLetter('u')"),
        (Element.generator(2, 1), repr, "Element(sites=2, terms=1)"),
    ],
    ids=["Relation", "LaurentSeries", "FactoredRational", "ExpLetter", "Element"],
)
def test_value_text_and_foreign_equality(value, render, text):
    # the text of a relation without bindings and the repr of each value
    # class; against an unrelated object each __eq__ returns
    # NotImplemented, so == is False and != is True
    assert render(value) == text
    assert (value == object()) is False
    assert (value != object()) is True


@pytest.mark.parametrize(
    "build",
    [
        lambda: Letter("X", 1),
        lambda: Letter("S", 0, 1),
        lambda: Letter("S", 1),
        lambda: Letter("B", 1, 1),
        lambda: Element.identity(0),
        lambda: Element.generator(2, 3),
    ],
    ids=["kind", "site", "s_sign", "b_sign", "sites", "generator_site"],
)
def test_record_validation(build):
    with pytest.raises(InvalidParams):
        build()
