"""Record semantics: every record is a ``NamedTuple``, and a checked one runs its
constructor's checks on every way in (the constructor, ``_make``, ``_replace``,
pickle and deepcopy)."""

from __future__ import annotations

import copy
import pickle
import re
from fractions import Fraction

import pytest

import ndtbound
from ndtbound.bounds import BoundCurve, CategoryBoundDetail, ConvexEnvelope, NetworkConfig
from ndtbound.cli import RunConfig
from ndtbound.combinatorics import _checked_record
from ndtbound.comparator import CurveRegistry, ReferenceCurve, baseline_interference_free
from ndtbound.demands import DistinctCountDistribution
from ndtbound.oracle import CheckRecord, CheckReport, LpSolution, PlacementProfile

F = Fraction
PROFILE = PlacementProfile((F(1, 2), F(1, 2)))
RECORD = CheckRecord("identity", "all K <= 2", 3)
HULL = ((1, F(2)), (2, F(1)))

# (class, positional arguments, a field, a value of it that the constructor refuses,
# the error it raises)
RECORDS = [
    (NetworkConfig, (3, 3, 3, F(1, 3)), "cache_fraction", 0.5, TypeError),
    (
        BoundCurve, ("peak", 3, 3, 3, ((F(1, 3), F(5, 3)), (F(2, 3), F(7, 6)))),
        "kind", "sideways", ValueError,
    ),
    (DistinctCountDistribution, (3, 3, 9, {3: 2, 2: 6, 1: 1}), "files", True, TypeError),
    (ReferenceCurve, ("baseline", "converse", baseline_interference_free), "kind", "upper",
     ValueError),
    (PlacementProfile, ((F(1, 2), F(1, 2)),), "alphas", (F(1, 2), F(1, 4)), ValueError),
    (LpSolution, (F(1, 3), PROFILE), "profile", PlacementProfile((F(1, 3),) * 3), ValueError),
    (RunConfig, ("peak-sweep", 3, 3, 3, (F(1, 3), F(1))), "limit", 0, ValueError),
    (ConvexEnvelope, (HULL, HULL), "vertices", HULL[:1], ValueError),
    (CategoryBoundDetail, (F(5, 3), 1, (1, 2)), "value", 0.5, TypeError),
    (CheckRecord, ("identity", "all K <= 2", 3), "checked", 1.5, TypeError),
    (CheckReport, ((RECORD,),), "records", ("x",), TypeError),
]


def _ids(case):
    return case[0].__name__


def test_every_public_record_is_checked():
    """The rows name every tuple class in ``ndtbound.__all__``, plus the CLI's
    ``RunConfig``, and each one is a checked record with a value it refuses: one
    ``NamedTuple`` class, with no private twin as a base."""
    public = {
        value for value in map(vars(ndtbound).get, ndtbound.__all__)
        if isinstance(value, type) and issubclass(value, tuple)
    }
    assert {case[0] for case in RECORDS} == public | {RunConfig}
    unchecked = [cls.__name__ for cls, _, field, *_ in RECORDS
                 if field is None or not _is_checked_record(cls)]
    assert unchecked == []
    assert [cls.__name__ for cls, *_ in RECORDS if cls.__bases__ != (tuple,)] == []


def _is_checked_record(cls):
    """Whether ``cls``'s constructor and ``_make`` are the ones ``_checked_record`` sets."""
    made_here = f"{_checked_record.__module__}.{_checked_record.__qualname__}.<locals>."
    return all(
        f"{method.__module__}.{method.__qualname__}".startswith(made_here)
        for method in (cls.__new__, cls._make.__func__)
    )


@pytest.mark.parametrize("case", RECORDS, ids=_ids)
def test_record_builds_positionally_and_by_keyword(case):
    cls, args = case[:2]
    record = cls(*args)
    assert type(record) is cls
    assert record == cls(**dict(zip(cls._fields, args)))
    # records are tuples: equal to the plain tuple of their fields, and they unpack
    fields = tuple(getattr(record, name) for name in cls._fields)
    assert record == fields
    first, *_ = record
    assert first == args[0]


@pytest.mark.parametrize("case", RECORDS, ids=_ids)
def test_record_fields_are_read_only(case):
    cls, args = case[:2]
    record = cls(*args)
    for name in cls._fields:
        with pytest.raises(AttributeError):
            setattr(record, name, getattr(record, name))


@pytest.mark.parametrize("case", RECORDS, ids=_ids)
def test_replace_and_make_run_the_constructor_checks(case):
    cls, args, field, bad, error = case
    record = cls(*args)
    bad_args = [bad if name == field else value for name, value in zip(cls._fields, record)]
    with pytest.raises(error) as refused:
        cls(*bad_args)
    with pytest.raises(error, match=f"^{re.escape(str(refused.value))}$"):
        record._replace(**{field: bad})
    with pytest.raises(error):
        cls._make(bad_args)
    # a good value goes through the same checks and normalization
    assert type(record._replace()) is cls and record._replace() == record
    assert cls._make(record) == record


def test_lp_solution_refuses_inexact_or_mismatched_fields():
    good = LpSolution(F(1, 3), PROFILE)
    for fields, error in (
        ({"optimum": 0.5, "profile": None}, TypeError),
        ({"optimum": 0.5}, TypeError),
        ({"optimum": True}, TypeError),
        ({"profile": None}, TypeError),
        ({"profile": tuple(PROFILE)}, TypeError),  # a plain tuple is not checked
        # a basic solution stores at most two nonzero fractions
        ({"profile": PlacementProfile((F(1, 3),) * 3)}, ValueError),
    ):
        with pytest.raises(error):
            LpSolution(**{**good._asdict(), **fields})
        with pytest.raises(error):
            good._replace(**fields)
    with pytest.raises(ValueError, match="at most two nonzero fractions"):
        LpSolution(F(0), PlacementProfile((F(1, 3),) * 3))
    # an int optimum is kept as a Fraction, and the support is read from the profile
    solution = LpSolution(0, PROFILE)
    assert solution == good._replace(optimum=F(0))
    assert type(solution.optimum) is F
    assert type(solution.support) is frozenset and solution.support == {1, 2}
    assert LpSolution(0, PlacementProfile((F(0), F(1), F(0)))).support == {2}


def test_output_records_check_their_fields():
    for fields, error in (
        ({"name": 1}, TypeError),
        ({"scope": None}, TypeError),
        ({"checked": True}, TypeError),
        ({"checked": -1}, ValueError),
        ({"counterexample": 3}, TypeError),
        ({"counterexample": True}, TypeError),
    ):
        with pytest.raises(error, match=f"^{next(iter(fields))} must be"):
            RECORD._replace(**fields)
    # a counterexample is one of the checked tuples, so none comes from zero tuples
    with pytest.raises(ValueError, match="^a counterexample needs a checked tuple"):
        CheckRecord("a", "b", 0, "boom")
    with pytest.raises(ValueError, match="^a counterexample needs a checked tuple"):
        RECORD._replace(checked=0, counterexample="boom")
    assert CheckRecord("a", "b", 0).to_line() == "PASS a: b (0 tuples)"
    # the verdict is derived from the counterexample, so it cannot be declared
    assert RECORD.passed and not RECORD._replace(counterexample="boom").passed
    with pytest.raises(ValueError, match="unexpected field names"):
        RECORD._replace(passed=False)
    # an old five-argument call is refused
    with pytest.raises(TypeError):
        CheckRecord("a", "b", 1, True, "boom")
    detail = CategoryBoundDetail(F(5, 3), 1, (1, 2))
    for fields, error in (
        ({"value": True}, TypeError),
        ({"best_cut": 0}, ValueError),
        ({"best_cut": 1.0}, TypeError),
        ({"segment": (1,)}, ValueError),
        ({"segment": (0, 2)}, ValueError),
        ({"segment": (1, True)}, TypeError),
    ):
        with pytest.raises(error):
            detail._replace(**fields)
    # an int value is kept as a Fraction, a list segment as a tuple
    assert CategoryBoundDetail(2, None, [1, 3]) == (F(2), None, (1, 3))
    assert type(CategoryBoundDetail(2, None, [1, 3]).value) is F


def test_replace_normalizes_as_the_constructor_does():
    config = NetworkConfig(3, 3, 3, F(1, 3))._replace(cache_fraction="2/3")
    assert config.cache_fraction == F(2, 3) and type(config.cache_fraction) is F
    run = RunConfig("verify")._replace(overlays=[])
    assert run.overlays == () and run.output_format == "text"
    with pytest.raises(ValueError, match="unexpected field names"):
        NetworkConfig(3, 3, 3, F(1, 3))._replace(cache=F(1))


@pytest.mark.parametrize("case", RECORDS, ids=_ids)
def test_repr_names_the_class_and_its_fields(case):
    cls, args = case[:2]
    assert repr(cls(*args)).startswith(f"{cls.__name__}({cls._fields[0]}=")


@pytest.mark.parametrize("case", RECORDS, ids=_ids)
def test_record_round_trips_through_pickle_and_deepcopy(case):
    """A record can cross to a process pool's worker: pickle, at every protocol,
    and deepcopy rebuild it, equal and of the same class."""
    cls, args = case[:2]
    record = cls(*args)
    copies = [pickle.loads(pickle.dumps(record, protocol))
              for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
    for copied in (*copies, copy.deepcopy(record)):
        assert type(copied) is cls and copied == record
        if cls is DistinctCountDistribution:  # its counts keep their order, read-only
            assert list(copied.counts.items()) == list(record.counts.items())
            with pytest.raises(TypeError):
                copied.counts[1] = 0


def test_repr_reads_like_the_constructor_call():
    assert repr(NetworkConfig(3, 3, 3, F(1, 3))) == (
        "NetworkConfig(transmitters=3, receivers=3, files=3, cache_fraction=Fraction(1, 3))"
    )
    assert repr(CategoryBoundDetail(F(5, 3), None, (1, 2))) == (
        "CategoryBoundDetail(value=Fraction(5, 3), best_cut=None, segment=(1, 2))"
    )


def test_distinct_count_distribution_takes_no_new_attributes():
    dist = DistinctCountDistribution(3, 3, 9, {3: 2, 2: 6, 1: 1})
    with pytest.raises(AttributeError):
        dist.note = "x"
    with pytest.raises(AttributeError):
        del dist.files
    # the masses are derived from the counts on every read, and cannot be replaced
    assert dist.masses == {3: F(2, 9), 2: F(2, 3), 1: F(1, 9)}
    with pytest.raises(AttributeError):
        dist.masses = None


def test_no_record_holds_an_instance_dict():
    for cls, args, *_ in RECORDS:
        assert not hasattr(cls(*args), "__dict__")


def test_method_hooks_stay_on_their_classes():
    """The benchmark wraps ``vars(ConvexEnvelope)["of_points"]`` and
    ``vars(CurveRegistry)["evaluate"]``."""
    assert isinstance(vars(ConvexEnvelope)["of_points"], classmethod)
    assert callable(vars(CurveRegistry)["evaluate"])
    a, b = CurveRegistry(), CurveRegistry()
    a.register(ReferenceCurve("baseline", "converse", baseline_interference_free))
    assert a.names() == ("baseline",) and b.names() == ()

