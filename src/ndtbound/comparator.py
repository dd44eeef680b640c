"""Reference-curve registry for sweep overlays.

A reference curve is either an achievable scheme (upper bound on the NDT)
or another converse bound, evaluated at a network configuration.  Curves
whose closed form has not been transcribed yet report the explicit
:data:`UNAVAILABLE` sentinel instead of raising; downstream code treats it
as a missing value.
"""

from fractions import Fraction
from typing import Callable, NamedTuple, Union

from .bounds import NetworkConfig
from .combinatorics import _checked_record, _echo


class Unavailable:
    """Explicit marker for a curve value that cannot be computed yet."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "Unavailable"


UNAVAILABLE = Unavailable()

CurveValue = Union[Fraction, Unavailable]
CurveEvaluator = Callable[[NetworkConfig], CurveValue]


@_checked_record
class ReferenceCurve(NamedTuple):
    name: str
    kind: str  # "achievable" | "converse"
    evaluator: CurveEvaluator

    def _checked(self):
        if not isinstance(self.name, str):
            raise TypeError(f"name must be a str, got {_echo(self.name, True)}")
        if self.kind not in ("achievable", "converse"):
            raise ValueError(
                f"kind must be 'achievable' or 'converse', got {_echo(self.kind, True)}"
            )
        if not callable(self.evaluator):
            raise TypeError(f"evaluator must be callable, got {_echo(self.evaluator, True)}")
        return self


def baseline_interference_free(config: NetworkConfig) -> Fraction:
    """The interference-free baseline: one unit of normalized delivery time."""
    return Fraction(1)


def mn_scheme(config: NetworkConfig) -> CurveValue:
    """Maddah-Ali/Niesen one-shot delivery scheme, transmitter-side caches.

    Transcription stub: the closed-form achievable NDT is stated in the
    original publication on cache-aided interference channels, not here.
    Until it is transcribed, the curve reports UNAVAILABLE rather than a
    guessed formula.
    """
    return UNAVAILABLE


def sengupta_cutset_bound(config: NetworkConfig) -> CurveValue:
    """Cut-set style peak-NDT lower bound of Sengupta, Tandon and Simeone.

    Transcription stub, same policy as :func:`mn_scheme`: the formula lives
    in the cited authors' publication and must be copied from there before
    this curve can evaluate.
    """
    return UNAVAILABLE


class CurveRegistry:
    """Ordered, name-unique collection of reference curves.

    Built once at startup; registration order fixes overlay column order.
    """

    def __init__(self):
        self._curves: dict[str, ReferenceCurve] = {}

    def register(self, curve: ReferenceCurve) -> str:
        if curve.name in self._curves:
            raise ValueError(f"curve {_echo(curve.name, True)} is already registered")
        self._curves[curve.name] = curve
        return curve.name

    def names(self) -> tuple[str, ...]:
        return tuple(self._curves)

    def get(self, name: str) -> ReferenceCurve:
        if not isinstance(name, str) or name not in self._curves:
            raise KeyError(
                f"unknown curve {_echo(name, True)}; registered: {', '.join(self._curves)}"
            )
        return self._curves[name]

    def evaluate(self, name: str, config: NetworkConfig) -> CurveValue:
        return self.get(name).evaluator(config)

    def gap(self, name_a: str, name_b: str, config: NetworkConfig) -> CurveValue:
        """Multiplicative gap value_a / value_b; UNAVAILABLE propagates."""
        a = self.evaluate(name_a, config)
        b = self.evaluate(name_b, config)
        if isinstance(a, Unavailable) or isinstance(b, Unavailable):
            return UNAVAILABLE
        return a / b


def default_registry() -> CurveRegistry:
    registry = CurveRegistry()
    registry.register(
        ReferenceCurve(
            name="baseline", kind="converse", evaluator=baseline_interference_free
        )
    )
    registry.register(
        ReferenceCurve(name="mn-scheme", kind="achievable", evaluator=mn_scheme)
    )
    registry.register(
        ReferenceCurve(
            name="sengupta-bound", kind="converse", evaluator=sengupta_cutset_bound
        )
    )
    return registry
