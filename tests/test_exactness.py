"""One exactness contract over ``ndtbound.__all__``: every public callable that
takes an int or a rational refuses ``True`` and a float in its place, and
rejects a value of any size as it rejects a small one of the same kind.  Each
argument, strings included, boxed in a one-item list is refused as the same
one-item tuple is.

``True == 1`` and a float equal to an int hashes alike, so a cache consulted
before the check would answer either from the exact value's entry, and a list
cannot be hashed, so such a cache would raise the interpreter's error in place
of the check; each row makes its valid call first, so that such a cache is warm.
"""

from __future__ import annotations

import contextlib
import re
import sys
from fractions import Fraction

import pytest

import ndtbound
from ndtbound import (
    BoundCurve,
    CategoryBoundDetail,
    CheckRecord,
    CheckReport,
    ConvexEnvelope,
    DistinctCountDistribution,
    LpSolution,
    NetworkConfig,
    PlacementProfile,
    ReferenceCurve,
    binom,
    bound_expression,
    category_bound,
    category_bound_detail,
    check_averaging_identities,
    check_discrete_convexity,
    check_discrete_convexity_full,
    coverage_weight,
    distinct_count,
    distinct_distribution,
    enumerate_demands,
    envelope_for_cut,
    expected_bound_for_distribution,
    full_verification,
    grid_scan_min_placement,
    lp_matches_corner_claim,
    lp_min_placement,
    sample_demands,
    surjection_count,
    sweep,
    to_decimal,
)
from ndtbound.cli import RunConfig

F = Fraction
GRID = (F(1, 3), F(1))
PROFILE = PlacementProfile((F(1, 2), F(1, 2)))


def row(name, call, *args, **kwargs):
    return name, call, args, kwargs


# one valid call per public callable that takes an int or a rational; only its
# int and Fraction arguments, and those items, keys and values of its flat tuple
# and dict arguments, are probed
ROWS = [
    row("BoundCurve", BoundCurve, "peak", 3, 3, 3, ((F(1, 3), F(5, 3)), (F(2, 3), F(7, 6)))),
    row("CategoryBoundDetail", CategoryBoundDetail, F(5, 3), 1, (1, 2)),
    row("CheckRecord", CheckRecord, "identity", "all K <= 2", 3),
    row("ConvexEnvelope", ConvexEnvelope.of_points(((1, F(2)), (2, F(1)))).evaluate, F(3, 2)),
    row("DistinctCountDistribution", DistinctCountDistribution, 3, 3, 9, {3: 2, 2: 6, 1: 1}),
    row("LpSolution", LpSolution, F(1, 3), PROFILE),
    row("NetworkConfig", NetworkConfig, 3, 3, 3, F(1, 3)),
    row("PlacementProfile", PlacementProfile, (0, 1)),
    row("binom", binom, 5, 2),
    row("bound_expression", bound_expression, 3, 3, 2, 2),
    row("category_bound", category_bound, 3, 2, F(3, 2), order="theorem"),
    row("category_bound_detail", category_bound_detail, 3, 2, F(3, 2), order="theorem"),
    row("check_averaging_identities", check_averaging_identities, 1),
    row("check_discrete_convexity", check_discrete_convexity, 3, 2),
    row("check_discrete_convexity_full", check_discrete_convexity_full, 3, 2),
    row("coverage_weight", coverage_weight, 3, 2, 1),
    row("distinct_count", distinct_count, (1, 2, 1)),
    row("distinct_distribution", distinct_distribution, 3, 3),
    row("enumerate_demands", enumerate_demands, 2, 2),
    row("envelope_for_cut", envelope_for_cut, 3, 3, 2),
    row(
        "expected_bound_for_distribution", expected_bound_for_distribution,
        3, distinct_distribution(3, 3), F(3, 2),
    ),
    row("full_verification", full_verification, 1, 1),
    row("grid_scan_min_placement", grid_scan_min_placement, 3, 2, F(3, 2)),
    row("lp_matches_corner_claim", lp_matches_corner_claim, 1),
    row("lp_min_placement", lp_min_placement, 3, 2, F(3, 2)),
    row("sample_demands", sample_demands, 3, 2, 2, 1),
    row("surjection_count", surjection_count, 3, 2),
    row("sweep", sweep, 3, 3, 3, GRID, "peak", order="theorem"),
    row("to_decimal", to_decimal, F(1, 3), 4),
    # RunConfig's int and rational settings, as a config built in code holds them
    row(
        "RunConfig", RunConfig, "expected-sweep",
        transmitters=3, receivers=4, files=5, mu_grid=GRID, samples=2, seed=1, decimal=2,
    ),
    row("RunConfig", RunConfig, "point", mu=F(1, 3)),
    row("RunConfig", RunConfig, "verify", limit=4, max_transmitters=3),
]

# every other public name, and why it has no row
EXEMPT = {
    "CapExceeded": "an exception",
    "InfeasibleLibrary": "an exception",
    "UNAVAILABLE": "the sentinel for a curve value that cannot be computed",
    "Unavailable": "the sentinel's class, which takes no arguments",
    "CheckReport": "takes only CheckRecords",
    "CurveRegistry": "takes no arguments; its methods take names and NetworkConfigs",
    "ReferenceCurve": "takes two strings and a callable",
    "default_registry": "takes no arguments",
    "baseline_interference_free": "takes only a NetworkConfig",
    "bound_distribution": "takes a NetworkConfig and a kind string",
    "peak_ndt_lower_bound": "takes a NetworkConfig and an order string",
    "expected_ndt_lower_bound": "takes a NetworkConfig and an order string",
}


def _probed(item):
    return type(item) in (int, Fraction)


def _substitutions(args, kwargs, stand_ins):
    """Each probed value swapped for each of its ``stand_ins(value)``, a list of
    (name, value) pairs: (label, args, kwargs)."""
    slots = [*enumerate(args), *kwargs.items()]
    for slot, value in slots:
        if type(value) is tuple:
            swaps = [
                (f"{slot}[{i}]={name}", value[:i] + (bad,) + value[i + 1 :])
                for i, item in enumerate(value)
                if _probed(item)
                for name, bad in stand_ins(item)
            ]
        elif type(value) is dict:
            items = list(value.items())
            swaps = [
                (f"{slot}[{i}].{part}={name}", dict(items[:i] + [pair] + items[i + 1 :]))
                for i, (key, count) in enumerate(items)
                for part, item in (("key", key), ("value", count))
                if _probed(item)
                for name, bad in stand_ins(item)
                for pair in [(bad, count) if part == "key" else (key, bad)]
            ]
        elif _probed(value):
            swaps = [(f"{slot}={name}", bad) for name, bad in stand_ins(value)]
        else:
            swaps = []
        for label, bad in swaps:
            yield label, *_swapped(args, kwargs, slot, bad)


def _swapped(args, kwargs, slot, bad):
    """The call's (args, kwargs) with the argument at ``slot``, a position or a
    keyword, replaced by ``bad``."""
    if isinstance(slot, int):
        return (*args[:slot], bad, *args[slot + 1 :]), kwargs
    return args, {**kwargs, slot: bad}


def _inexact(value):
    return [(repr(bad), bad) for bad in (True, float(value))]


def _id(case):
    name, _, args, kwargs = case
    return f"{name}-{args[0]}" if name == "RunConfig" else name


@pytest.mark.parametrize("case", ROWS, ids=_id)
def test_true_and_floats_raise_type_error(case):
    name, call, args, kwargs = case
    call(*args, **kwargs)
    holes = []
    for label, bad_args, bad_kwargs in _substitutions(args, kwargs, _inexact):
        try:
            call(*bad_args, **bad_kwargs)
        except TypeError:
            continue
        except Exception as exc:
            holes.append(f"{label}: {exc!r}")
        else:
            holes.append(f"{label}: accepted")
    assert holes == [], f"{name} does not refuse inexact values: {holes}"


def _sized(value, digits):
    """A probed value's stand-ins with ``digits + 1``-digit parts: for an int, a
    negative int and a Fraction (a positive count could drive a loop that never
    ends, as ``surjection_count(3, 10**5000)`` would); for a Fraction, a large one
    and a small one."""
    big = 10**digits
    if type(value) is int:
        return [("-10**n", -big), ("Fraction(10**n)", Fraction(big))]
    return [("Fraction(10**n)", Fraction(big)), ("Fraction(1, 10**n)", Fraction(1, big))]


def _outcome(call, args, kwargs):
    """The type of the exception that the call raises, or None, and its message."""
    try:
        call(*args, **kwargs)
    except Exception as exc:
        return type(exc), str(exc)
    return None, ""


@contextlib.contextmanager
def _int_digit_limit(limit):
    """The interpreter's int-to-str digit limit, set for the block, then restored;
    None leaves it as it is."""
    if limit is None:
        yield
        return
    if not hasattr(sys, "set_int_max_str_digits"):
        pytest.skip("this interpreter has no int-to-str digit limit")
    default = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(limit)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(default)


# the interpreter's int-to-str limit error, which a rejection echoing a big
# value through str or repr would raise in place of its own
LIMIT_ERROR = "for integer string conversion"


@pytest.mark.parametrize(
    "digits, limit", [(5000, None), (700, 640)], ids=["default-limit", "limit-640"]
)
@pytest.mark.parametrize("case", ROWS, ids=_id)
def test_values_of_any_size_are_rejected_as_small_ones_are(case, digits, limit):
    """Each probed value swapped for a stand-in past the int-to-str limit raises
    what the same stand-in with 10 digits raises, with the row's own message: an
    int slot given a Fraction raises TypeError at any size."""
    name, call, args, kwargs = case
    call(*args, **kwargs)
    holes = []
    big = _substitutions(args, kwargs, lambda value: _sized(value, digits))
    small = _substitutions(args, kwargs, lambda value: _sized(value, 9))
    with _int_digit_limit(limit):
        for (label, *big_call), (_, *small_call) in zip(big, small, strict=True):
            got, message = _outcome(call, *big_call)
            want, _ = _outcome(call, *small_call)
            if got is not want or LIMIT_ERROR in message:
                raised = got and f"{got.__name__}: {message[:60]}"
                holes.append(f"{label}: {raised}, not {want and want.__name__}")
    assert holes == [], f"{name} rejects a large value unlike a small one: {holes}"


@pytest.mark.parametrize("case", ROWS, ids=_id)
def test_a_list_is_refused_as_a_tuple_is(case):
    """Each argument, strings included, boxed in a one-item list raises what the
    same one-item tuple raises, and never with the interpreter's "unhashable
    type": a list cannot be hashed, so a cache or a name table read before the
    checks would raise that TypeError in place of the row's own check."""
    name, call, args, kwargs = case
    call(*args, **kwargs)
    holes = []
    for slot, value in [*enumerate(args), *kwargs.items()]:
        listed, message = _outcome(call, *_swapped(args, kwargs, slot, [value]))
        tupled, _ = _outcome(call, *_swapped(args, kwargs, slot, (value,)))
        if listed is not tupled or "unhashable type" in message:
            raised = listed and f"{listed.__name__}: {message[:60]}"
            holes.append(f"{slot}: {raised}, not {tupled and tupled.__name__}")
    assert holes == [], f"{name} refuses a list unlike a tuple: {holes}"


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: distinct_distribution([3], 3), "files must be an int, got [3]"),
        (lambda: envelope_for_cut(3, 3, [1]), "cut_size must be an int, got [1]"),
    ],
    ids=["distinct_distribution", "envelope_for_cut"],
)
def test_an_uncached_function_checks_a_list_argument(call, message):
    # a cache in front of either hashed the list before the check
    with pytest.raises(TypeError, match=f"^{re.escape(message)}$"):
        call()


def test_out_of_any_size_is_refused_as_a_path():
    for path in (-(10**5000), 10**5000):
        with pytest.raises(TypeError, match=r"^--out must be a str or os.PathLike path, got -?\d+$"):
            RunConfig("verify", output_path=path)


def _echoing_a_container(digits):
    """Calls whose rejection echoes a list, a set, a frozenset or a dict holding
    ``10**digits``, each with the exception it raises and the whole message,
    digits written out."""
    big, text = 10**digits, "1" + "0" * digits
    return [
        (lambda: ConvexEnvelope(((1, F(2)), (2, F(1))), [(1, F(big))]), ValueError,
         f"vertices must be the hull of the points, got [(1, Fraction({text}, 1))]"),
        (lambda: CheckReport(([big],)), TypeError, f"records must be CheckRecords, got [{text}]"),
        (lambda: ReferenceCurve("x", "converse", [big]), TypeError,
         f"evaluator must be callable, got [{text}]"),
        (lambda: ReferenceCurve("x", "converse", {1: big}), TypeError,
         f"evaluator must be callable, got {{1: {text}}}"),
        (lambda: RunConfig("verify", output_path=[big]), TypeError,
         f"--out must be a str or os.PathLike path, got [{text}]"),
        (lambda: ReferenceCurve("x", "converse", {big}), TypeError,
         f"evaluator must be callable, got {{{text}}}"),
        (lambda: ReferenceCurve("x", "converse", frozenset({big})), TypeError,
         f"evaluator must be callable, got frozenset({{{text}}})"),
        (lambda: CheckReport(({big},)), TypeError, f"records must be CheckRecords, got {{{text}}}"),
        (lambda: RunConfig("verify", output_path={big}), TypeError,
         f"--out must be a str or os.PathLike path, got {{{text}}}"),
        (lambda: binom({big}, 1), TypeError, f"n and k must be ints, got {{{text}}} and 1"),
    ]


@pytest.mark.parametrize(
    "digits, limit", [(5000, None), (700, 640)], ids=["default-limit", "limit-640"]
)
def test_lists_and_dicts_of_any_size_are_echoed(digits, limit):
    with _int_digit_limit(limit):
        for call, error, message in _echoing_a_container(digits):
            with pytest.raises(error) as refused:
                call()
            assert str(refused.value) == message


def test_every_public_name_has_a_row_or_an_exemption():
    rows = {name for name, *_ in ROWS}
    assert not rows & EXEMPT.keys()
    # RunConfig is the CLI's, outside __all__
    assert rows | EXEMPT.keys() == {*ndtbound.__all__, "RunConfig"}
