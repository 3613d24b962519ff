"""Record semantics of the library's value classes.

Every value class is a record: a constructor taking its fields by position
or keyword, equality and hash over its compared fields only, a repr of
``Name(field=value, ...)`` over its shown fields, copies and pickles equal
to it, and, on the frozen ones, no assignment or deletion.  Each record
below names its fields, its defaults, the fields left out of equality, and
one changed value per compared field, and the tests read every class
against that description.
"""

import ast
import copy
import importlib
import os
import pickle
import pkgutil
import subprocess
import sys
from fractions import Fraction
from graphlib import CycleError, TopologicalSorter
from pathlib import Path
from typing import Any, Callable, NamedTuple

import pytest

import maxnoether
from maxnoether.blowup import AlmostGorensteinChecks, BlowupAnalysis
from maxnoether.curves import Branch, NoetherCheck, RationalCurveModel, ResolutionCheck
from maxnoether.frozen import Frozen
from maxnoether.linalg import Subspace
from maxnoether.local import (
    BasisCertificate,
    Columns,
    LocalContext,
    SurjectivityCheck,
    build_certificates,
)
from maxnoether.reports import VerificationReport
from maxnoether.semigroup import NumericalSemigroup, enumerate_semigroups
from maxnoether.suites import SuiteParams
from maxnoether.valueset import ValueSet

S = NumericalSemigroup.from_generators((4, 5, 11))
T = NumericalSemigroup.from_generators((3, 4, 5))
CTX = LocalContext(S)
POWER_STEP = build_certificates(CTX, 3)[-1]
BRANCHES = (Branch(Fraction(0), S), Branch(Fraction(7, 3), T))


class Record(NamedTuple):
    cls: type
    # constructor fields in order, with a sample value each
    values: dict[str, Any]
    # one changed value per compared field; a field missing here cannot be
    # changed alone without breaking the constructor's checks
    changed: dict[str, Any]
    # constructor fields with a default, and the value an omitted one takes
    defaults: dict[str, Any] = {}
    # fields left out of equality and hash, with another value for each
    ignored: dict[str, Any] = {}
    # fields left out of the repr
    hidden: tuple[str, ...] = ()
    frozen: bool = True
    slots: bool = False
    hash_of: Callable[[Any], int] | None = None

    @property
    def compared(self) -> tuple[str, ...]:
        return tuple(f for f in self.values if f not in self.ignored)

    @property
    def fields(self) -> tuple[str, ...]:
        return (*self.values, *(f for f in self.ignored if f not in self.values))

    def make(self, **changes):
        return self.cls(**{**self.values, **changes})


RECORDS = [
    Record(
        BlowupAnalysis,
        dict(semigroup=S),
        dict(semigroup=T),
        # the rest is read from the semigroup
        ignored=dict(
            canonical=ValueSet.naturals(),
            blowup_values=S.values,
            stabilization_index=0,
            eta=0,
            blowup_genus=9,
            powers=(),
        ),
        hidden=(
            "canonical", "blowup_values", "stabilization_index", "eta", "blowup_genus", "powers"
        ),
    ),
    Record(
        AlmostGorensteinChecks,
        dict(almost_gorenstein=True, gap_one=True, square_is_blowup=False, powers_collapse=True),
        dict(almost_gorenstein=False, gap_one=False, square_is_blowup=True, powers_collapse=False),
    ),
    Record(Branch, dict(center=Fraction(7, 3), semigroup=S), dict(center=Fraction(0), semigroup=T)),
    Record(
        RationalCurveModel,
        dict(branches=BRANCHES),
        dict(branches=BRANCHES[:1]),
        ignored=dict(_hash=0),
        hidden=("_hash",),
        hash_of=lambda curve: hash(curve.branches),
    ),
    Record(
        NoetherCheck,
        dict(n=2, holds=False, products_dim=4, sections_dim=5, missing_values=(7,)),
        dict(n=3, holds=True, products_dim=5, sections_dim=4, missing_values=None),
    ),
    Record(
        ResolutionCheck,
        dict(ok=True, n=2, sections_dim=7, products_dim=6, resolved_dim=1, combined_dim=7),
        dict(ok=False, n=3, sections_dim=8, products_dim=5, resolved_dim=2, combined_dim=6),
    ),
    Record(
        Subspace,
        dict(ambient=4, rows=(((0, 1), (3, -2)), ((1, 5),))),
        dict(ambient=5, rows=(((0, 1),),)),
    ),
    Record(
        LocalContext,
        dict(semigroup=S, section_values=CTX.section_values),
        # the semigroup is tied to the section values by the constructor's
        # premise check
        dict(section_values=ValueSet.finite([*CTX.section_values.exceptional, CTX.alpha])),
        # section values omitted are K below alpha
        defaults=dict(section_values=CTX.section_values),
        # the rest is read from the semigroup and the section values
        ignored=dict(
            alpha=0, beta=0, d1=0, d2=0, r=0, p=0, case="ii", section_powers=None, q_pairs=None,
            q_sums=(),
        ),
        hidden=(
            "alpha", "beta", "d1", "d2", "r", "p", "case", "section_powers", "q_pairs", "q_sums"
        ),
    ),
    Record(
        Columns,
        dict(first=1, count=3, least=4),
        dict(first=2, count=2, least=5),
        slots=True,
    ),
    Record(
        BasisCertificate,
        dict(
            name=POWER_STEP.name,
            lo=POWER_STEP.lo,
            hi=POWER_STEP.hi,
            base=POWER_STEP.base,
            mul_label=POWER_STEP.mul_label,
            mul=POWER_STEP.mul,
            exponents=POWER_STEP.exponents,
        ),
        dict(
            name="other",
            lo=POWER_STEP.lo - 1,
            hi=POWER_STEP.hi + 1,
            base=POWER_STEP.base[:-1],
            mul_label="h0",
            mul=POWER_STEP.mul + 1,
            exponents=range(1, 3),
        ),
        defaults=dict(mul_label="", mul=0, exponents=range(1)),
        ignored=dict(_scan=None),
        hidden=("_scan",),
    ),
    Record(
        SurjectivityCheck,
        dict(ok=False, n=3, epsilon=5, uncovered=(17, 18), minimal_epsilon=7),
        dict(ok=True, n=2, epsilon=4, uncovered=(), minimal_epsilon=0),
    ),
    Record(
        VerificationReport,
        dict(
            suite="dims",
            check="sections",
            input={"gens": [3, 4, 5]},
            predicted=3,
            oracle=3,
            passed=True,
            witness=[1],
            elapsed=0.25,
        ),
        dict(
            suite="blowup",
            check="other",
            input=[],
            predicted=4,
            oracle=2,
            passed=False,
            witness=None,
        ),
        defaults=dict(witness=None, elapsed=0.0),
        ignored=dict(elapsed=1.5),
        frozen=False,
        slots=True,
    ),
    Record(
        NumericalSemigroup,
        dict(generators=(4, 5, 11), gaps=(1, 2, 3, 6, 7)),
        dict(generators=(3, 4, 5), gaps=(1, 2)),
        ignored=dict(_hash=0),
        hidden=("_hash",),
    ),
    Record(
        SuiteParams,
        dict(max_genus=5, max_n=3),
        dict(max_genus=4, max_n=2),
        defaults=dict(max_genus=None, max_n=None),
    ),
]

IDS = [record.cls.__name__ for record in RECORDS]


@pytest.mark.parametrize("record", RECORDS, ids=IDS)
def test_positional_and_keyword_construction_agree(record):
    by_keyword = record.make()
    by_position = record.cls(*record.values.values())
    for name, value in record.values.items():
        assert getattr(by_keyword, name) is value
        assert getattr(by_position, name) is value
    assert by_keyword == by_position


@pytest.mark.parametrize("record", RECORDS, ids=IDS)
def test_omitted_fields_take_their_defaults(record):
    required = {k: v for k, v in record.values.items() if k not in record.defaults}
    made = record.cls(**required)
    for name, default in record.defaults.items():
        assert getattr(made, name) == default
    if required:
        with pytest.raises(TypeError):
            record.cls(*list(required.values())[:-1])
    with pytest.raises(TypeError):
        record.cls(*record.values.values(), None)


@pytest.mark.parametrize("record", RECORDS, ids=IDS)
def test_equal_values_give_equal_objects_and_hashes(record):
    a, b = record.make(), record.make()
    assert a is not b and a == b and not a != b
    assert a != tuple(record.values.values())
    assert a.__eq__(tuple(record.values.values())) is NotImplemented
    if not record.frozen:
        # an assignable record is not hashable, as a mutable dataclass is not
        assert type(a).__hash__ is None
        with pytest.raises(TypeError):
            hash(a)
        return
    assert hash(a) == hash(b)
    if record.hash_of is not None:
        assert hash(a) == record.hash_of(a)
    else:
        assert hash(a) == hash(tuple(getattr(a, f) for f in record.compared))


@pytest.mark.parametrize("record", RECORDS, ids=IDS)
def test_each_compared_field_decides_equality(record):
    base = record.make()
    for name, value in record.changed.items():
        assert name in record.compared
        other = record.make(**{name: value})
        assert other != base and base != other, name


@pytest.mark.parametrize("record", RECORDS, ids=IDS)
def test_fields_kept_out_of_comparison_do_not_decide_equality(record):
    base = record.make()
    for name, value in record.ignored.items():
        if name in record.values:
            other = record.make(**{name: value})
        else:
            other = record.make()
            object.__setattr__(other, name, value)
        assert getattr(other, name) == value
        assert other == base, name


@pytest.mark.parametrize("record", RECORDS, ids=IDS)
def test_repr_lists_the_shown_fields(record):
    obj = record.make()
    shown = [f for f in record.fields if f not in record.hidden]
    body = ", ".join(f"{f}={getattr(obj, f)!r}" for f in shown)
    assert repr(obj) == f"{record.cls.__qualname__}({body})"


def test_repr_of_nested_records():
    branch = Branch(Fraction(1, 2), NumericalSemigroup((2, 3), (1,)))
    text = (
        "Branch(center=Fraction(1, 2),"
        " semigroup=NumericalSemigroup(generators=(2, 3), gaps=(1,)))"
    )
    assert repr(branch) == text
    assert repr(RationalCurveModel((branch,))) == f"RationalCurveModel(branches=({text},))"
    assert repr(SuiteParams()) == "SuiteParams(max_genus=None, max_n=None)"
    assert repr(Columns(1, 0, 3)) == "Columns(first=1, count=0, least=3)"


FROZEN = [record for record in RECORDS if record.frozen]


@pytest.mark.parametrize("record", FROZEN, ids=[record.cls.__name__ for record in FROZEN])
def test_frozen_records_refuse_assignment_and_deletion(record):
    obj = record.make()
    for name in record.fields:
        before = getattr(obj, name)
        with pytest.raises(AttributeError, match=f"^cannot assign to field '{name}'$"):
            setattr(obj, name, before)
        with pytest.raises(AttributeError, match=f"^cannot delete field '{name}'$"):
            delattr(obj, name)
        assert getattr(obj, name) is before
    with pytest.raises(AttributeError, match="^cannot assign to field 'extra'$"):
        obj.extra = 1


def test_a_report_stays_assignable():
    record = next(r for r in RECORDS if r.cls is VerificationReport)
    report = record.make()
    report.passed = False
    report.elapsed = 2.0
    assert (report.passed, report.elapsed) == (False, 2.0)
    assert report == record.make(passed=False)
    with pytest.raises(AttributeError):
        report.extra = 1


@pytest.mark.parametrize("record", RECORDS, ids=IDS)
def test_slotted_records_have_no_instance_dict(record):
    obj = record.make()
    if record.slots:
        assert record.cls.__slots__ == record.fields
        assert not hasattr(obj, "__dict__")
    else:
        assert hasattr(obj, "__dict__")


def test_the_package_imports_no_dataclasses_or_inspect():
    # both cost start-up time in every process that imports the package
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    code = (
        "import sys, maxnoether, maxnoether.cli;"
        " print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_the_package_has_no_import_cycle():
    # read from the source, with nothing imported: in a cycle, which of two
    # modules finishes first depends on which one the importer named
    package = Path(__file__).resolve().parent.parent / "src" / "maxnoether"
    graph: dict[str, set[str]] = {}
    for path in package.glob("*.py"):
        imported = graph.setdefault(path.stem, set())
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                if node.module:  # from .x import ...
                    imported.add(node.module.split(".")[0])
                else:  # from . import x
                    imported.update(alias.name for alias in node.names)
    assert {"linalg", "semigroup", "valueset"} <= graph["curves"]
    try:
        TopologicalSorter(graph).prepare()
    except CycleError as exc:
        pytest.fail("import cycle: " + " -> ".join(exc.args[1]))


def test_a_value_set_refuses_assignment_and_deletion():
    # deletion used to reach the assignment hook without a value: a TypeError
    values = ValueSet.finite([0, 2])
    with pytest.raises(AttributeError, match="^cannot assign to field 'threshold'$"):
        values.threshold = 1
    with pytest.raises(AttributeError, match="^cannot delete field 'threshold'$"):
        del values.threshold
    assert values == ValueSet.finite([0, 2])



@pytest.mark.parametrize("record", RECORDS, ids=IDS)
def test_records_survive_copy_and_pickle(record):
    # restoring slot state must not go through the frozen assignment hook
    obj = record.make()
    for twin in (copy.copy(obj), copy.deepcopy(obj), pickle.loads(pickle.dumps(obj))):
        assert type(twin) is record.cls and twin == obj
        # the fields kept out of equality come back too
        for name in record.fields:
            assert type(getattr(twin, name)) is type(getattr(obj, name)), name


def test_value_classes_take_equality_and_hashing_from_frozen():
    # a class naming its fields again in __eq__ or __hash__ can drift from _shown
    for info in pkgutil.iter_modules(maxnoether.__path__):
        importlib.import_module(f"maxnoether.{info.name}")
    classes, todo = {}, [Frozen]
    while todo:
        for cls in todo.pop().__subclasses__():
            classes[cls.__name__] = cls
            todo.append(cls)
    own = {name: sorted({"__eq__", "__hash__"} & set(vars(cls))) for name, cls in classes.items()}
    assert {name: methods for name, methods in own.items() if methods} == {
        "ValueSet": ["__eq__", "__hash__"],
        "NumericalSemigroup": ["__hash__"],
        "RationalCurveModel": ["__hash__"],
    }
    assert {record.cls for record in RECORDS if record.frozen} <= set(classes.values())
    # a semigroup keeps the hash it takes once, and it is the hash of its _shown fields
    for s in enumerate_semigroups(6):
        assert hash(s) == hash(s._shown_values(s))


def test_only_classes_that_derive_or_check_fields_write_a_constructor():
    # a record that stores its fields as given takes Frozen's constructor,
    # and only the classes that had a JSON form keep one
    for info in pkgutil.iter_modules(maxnoether.__path__):
        importlib.import_module(f"maxnoether.{info.name}")
    classes, todo = {}, [Frozen]
    while todo:
        for cls in todo.pop().__subclasses__():
            classes[cls.__name__] = cls
            todo.append(cls)
    assert sorted(name for name, cls in classes.items() if "__init__" in vars(cls)) == [
        "BasisCertificate",
        "BlowupAnalysis",
        "LocalContext",
        "RationalCurveModel",
        "SuiteParams",
        "ValueSet",
    ]
    assert sorted(name for name, cls in classes.items() if hasattr(cls, "to_json")) == [
        "AlmostGorensteinChecks",
        "BlowupAnalysis",
        "NoetherCheck",
        "NumericalSemigroup",
        "RationalCurveModel",
        "ResolutionCheck",
        "SurjectivityCheck",
        "ValueSet",
    ]


@pytest.mark.parametrize(
    "args, kwargs, given",
    [
        # missing
        ((1, 3), {}, "2 by position and ()"),
        ((), {"first": 1}, "0 by position and (first)"),
        # extra
        ((1, 3, 4, 5), {}, "4 by position and ()"),
        # repeated
        ((1, 3), {"first": 2, "least": 4}, "2 by position and (first, least)"),
        # unknown
        ((1, 3, 4), {"last": 6}, "3 by position and (last)"),
        ((1, 3), {"last": 6}, "2 by position and (last)"),
    ],
)
def test_the_shared_constructor_refuses_a_bad_field(args, kwargs, given):
    with pytest.raises(TypeError) as info:
        Columns(*args, **kwargs)
    fields = "(first, count, least)"
    assert str(info.value) == f"Columns() takes the fields {fields}, not {given} by keyword"


def test_the_shared_constructor_takes_keywords_in_any_order():
    made = Columns(least=4, first=1, count=3)
    assert made == Columns(1, 3, 4) == Columns(1, least=4, count=3)
    assert (made.first, made.count, made.least) == (1, 3, 4)
