from __future__ import annotations

from fractions import Fraction

import pytest

from ndtbound.bounds import NetworkConfig, peak_ndt_lower_bound
from ndtbound.comparator import (
    UNAVAILABLE,
    CurveRegistry,
    ReferenceCurve,
    Unavailable,
    baseline_interference_free,
    default_registry,
)

F = Fraction


def single_transmitter_worst_case(config: NetworkConfig) -> Fraction:
    """Achievable at KT=1: broadcast the distinct files one per time slot."""
    return F(config.receivers)


def test_baseline_is_always_one():
    for config in (
        NetworkConfig(3, 3, 3, F(1, 2)),
        NetworkConfig(4, 2, 9, F(1, 4)),
        NetworkConfig(5, 20, 100, F(1)),
    ):
        assert baseline_interference_free(config) == 1


def test_default_registry_contents_and_order():
    registry = default_registry()
    assert registry.names() == ("baseline", "mn-scheme", "sengupta-bound")
    assert registry.get("baseline").kind == "converse"
    assert registry.get("mn-scheme").kind == "achievable"
    assert registry.get("sengupta-bound").kind == "converse"


def test_stub_curves_report_unavailable():
    registry = default_registry()
    config = NetworkConfig(3, 3, 3, F(1, 2))
    assert registry.evaluate("mn-scheme", config) is UNAVAILABLE
    assert registry.evaluate("sengupta-bound", config) is UNAVAILABLE
    assert isinstance(registry.evaluate("mn-scheme", config), Unavailable)


def test_unavailable_is_a_singleton_value():
    assert Unavailable() is UNAVAILABLE
    assert repr(UNAVAILABLE) == "Unavailable"


def test_register_returns_handle_and_rejects_duplicates():
    registry = CurveRegistry()
    handle = registry.register(
        ReferenceCurve("baseline", "converse", baseline_interference_free)
    )
    assert handle == "baseline"
    with pytest.raises(ValueError, match=r"^curve 'baseline' is already registered$"):
        registry.register(
            ReferenceCurve("baseline", "converse", baseline_interference_free)
        )


def test_curve_kind_is_validated():
    with pytest.raises(ValueError):
        ReferenceCurve("x", "sideways", baseline_interference_free)


def test_unknown_curve_lookup():
    registry = default_registry()
    with pytest.raises(KeyError):
        registry.get("definitely-not-registered")
    # a list cannot be hashed: it must reach the lookup's own check, not the dict
    config = NetworkConfig(3, 3, 3, F(1, 3))
    with pytest.raises(KeyError, match=r"unknown curve \['baseline'\]"):
        registry.get(["baseline"])
    with pytest.raises(KeyError, match=r"unknown curve \['baseline'\]"):
        registry.evaluate(["baseline"], config)


def test_gap_of_curve_with_itself_is_one():
    registry = default_registry()
    config = NetworkConfig(4, 4, 4, F(1, 2))
    assert registry.gap("baseline", "baseline", config) == 1


def test_gap_propagates_unavailable():
    registry = default_registry()
    config = NetworkConfig(3, 3, 3, F(1, 2))
    assert registry.gap("mn-scheme", "baseline", config) is UNAVAILABLE
    assert registry.gap("baseline", "sengupta-bound", config) is UNAVAILABLE


def test_single_transmitter_worst_case_matches_our_bound():
    registry = default_registry()
    handle = registry.register(
        ReferenceCurve("single-tx-worst-case", "achievable", single_transmitter_worst_case)
    )
    config = NetworkConfig(1, 3, 3, F(1))
    assert registry.evaluate(handle, config) == 3
    ours = peak_ndt_lower_bound(config)
    assert ours == 3
    assert registry.gap(handle, handle, config) == 1
    # the achievable curve must dominate our converse bound
    assert registry.evaluate(handle, config) >= ours


def test_converse_curves_evaluate_at_least_one():
    registry = default_registry()
    for config in (NetworkConfig(2, 2, 2, F(1, 2)), NetworkConfig(6, 4, 8, F(1, 3))):
        for name in registry.names():
            curve = registry.get(name)
            value = curve.evaluator(config)
            if isinstance(value, Unavailable):
                continue
            if curve.kind == "converse":
                assert value >= 1


def test_achievable_curves_dominate_our_converse_when_available():
    registry = default_registry()
    registry.register(
        ReferenceCurve("single-tx-worst-case", "achievable", single_transmitter_worst_case)
    )
    for receivers in (1, 2, 3, 5):
        config = NetworkConfig(1, receivers, receivers, F(1))
        for name in registry.names():
            curve = registry.get(name)
            value = curve.evaluator(config)
            if isinstance(value, Unavailable) or curve.kind != "achievable":
                continue
            assert value >= peak_ndt_lower_bound(config)


def test_reference_curve_rejects_a_non_str_name_and_a_non_callable_evaluator():
    with pytest.raises(TypeError, match="^name must be a str, got 3$"):
        ReferenceCurve(name=3, kind="converse", evaluator=None)
    with pytest.raises(TypeError, match="^evaluator must be callable, got None$"):
        ReferenceCurve(name="x", kind="converse", evaluator=None)
