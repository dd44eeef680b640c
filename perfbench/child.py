"""Run one ndtbound CLI request inside this interpreter, optionally traced.

Usage: python3 perfbench/child.py <0|1> <ndtbound arguments...>

With 1 the public functions of each ``ndtbound`` module are wrapped so that
every call records its count and self time (its duration minus the time of
the wrapped calls it made).  The first line of standard output is a JSON
report; the rest is the CLI's standard output, byte for byte.  ``run.py``
starts one such process per request, so caches start cold as they do for a
CLI user.
"""

from __future__ import annotations

import io
import json
import sys
import time
from contextlib import redirect_stdout
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# (module, attribute, layer).  ``binom``, ``bound_expression`` and
# ``distinct_count`` are left alone on purpose: they are called hundreds of
# thousands of times and a wrapper would distort the numbers.  Their time
# counts as self time of the wrapped caller.
FUNCTIONS = (
    ("bounds", "category_bound", "bounds.category_bound"),
    ("bounds", "category_bound_detail", "bounds.category_bound_detail"),
    ("bounds", "expected_bound_for_distribution", "bounds.expected_bound_for_distribution"),
    ("bounds", "sweep", "bounds.sweep"),
    ("demands", "distinct_distribution", "demands.distinct_distribution"),
    ("combinatorics", "surjection_count", "combinatorics.surjection_count"),
    ("oracle", "full_verification", "oracle.full_verification"),
    ("oracle", "check_averaging_identities", "oracle.check_averaging_identities"),
    ("oracle", "lp_matches_corner_claim", "oracle.lp_matches_corner_claim"),
    ("oracle", "check_convexity_sweep", "oracle.check_convexity_sweep"),
    ("oracle", "check_lp_against_grid_scan", "oracle.check_lp_against_grid_scan"),
    ("cli", "run", "cli.run"),
)
# (module, class, method, layer, count label)
METHODS = (
    ("bounds", "ConvexEnvelope", "of_points", "bounds.envelope", "built"),
    ("comparator", "CurveRegistry", "evaluate", "comparator.CurveRegistry.evaluate", "calls"),
)
# generator functions, timed per next() so the consumer's work is not counted
GENERATORS = (("demands", "sample_demands", "demands.sample_demands", "vectors"),)
# lru caches whose hit ratio is reported, as (module, attribute, layer)
CACHES = (
    ("bounds", "category_bound", "bounds.category_bound"),
    ("bounds", "envelope_for_cut", "bounds.envelope_for_cut"),
    ("demands", "distinct_distribution", "demands.distinct_distribution"),
)


class Tracer:
    """Span stack that accumulates call counts and self time per layer."""

    def __init__(self):
        self.values: dict[str, float] = {}
        # child time of each open span; the bottom entry is the request itself
        self._child_time = [0.0]

    def add(self, key: str, amount: float):
        self.values[key] = self.values.get(key, 0.0) + amount

    def call(self, layer: str, fn, *args, **kwargs):
        """Run ``fn`` as a span of ``layer`` and charge its self time there."""
        self._child_time.append(0.0)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            duration = time.perf_counter() - start
            children = self._child_time.pop()
            self._child_time[-1] += duration
            self.add(f"{layer}.self_s", duration - children)


def _rebind(original, wrapper):
    """Point every ``ndtbound`` module binding of ``original`` at ``wrapper``.

    ``cli`` and the package itself import names with ``from ... import``, so
    patching the defining module alone would miss their calls.
    """
    for name, module in list(sys.modules.items()):
        if name != "ndtbound" and not name.startswith("ndtbound."):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, wrapper)


def install(tracer: Tracer) -> tuple[dict, list[str]]:
    """Wrap every traced name; return the cached originals and absent layers."""
    absent = []
    modules = {name: sys.modules.get(f"ndtbound.{name}") for name in
               ("bounds", "combinatorics", "comparator", "demands", "oracle", "cli")}

    def lookup(module: str, attr: str):
        return getattr(modules[module], attr, None) if modules[module] else None

    caches = {}
    for module, attr, layer in CACHES:
        original = lookup(module, attr)
        if callable(getattr(original, "cache_info", None)):
            caches[layer] = original
        else:
            absent.append(f"{layer}.hit_ratio")

    def declare(layer, label):
        # a layer that is present but never called reports zeros, not absent
        tracer.values.setdefault(f"{layer}.{label}", 0)
        tracer.values.setdefault(f"{layer}.self_s", 0.0)

    def counted(fn, layer, label):
        declare(layer, label)
        if layer == "oracle.full_verification":
            tracer.values.setdefault("oracle.tuples_checked", 0)

        def traced(*args, **kwargs):
            tracer.add(f"{layer}.{label}", 1)
            result = tracer.call(layer, fn, *args, **kwargs)
            if layer == "oracle.full_verification":
                tracer.add("oracle.tuples_checked", sum(r.checked for r in result.records))
            return result

        return traced

    def counted_per_item(fn, layer, label):
        declare(layer, label)

        def traced(*args, **kwargs):
            stream = fn(*args, **kwargs)
            while True:
                try:
                    item = tracer.call(layer, next, stream)
                except StopIteration:
                    return
                tracer.add(f"{layer}.{label}", 1)
                yield item

        return traced

    for module, attr, layer in FUNCTIONS:
        original = lookup(module, attr)
        if original is None:
            absent.append(layer)
        else:
            _rebind(original, counted(original, layer, "calls"))

    for module, attr, layer, label in GENERATORS:
        original = lookup(module, attr)
        if original is None:
            absent.append(layer)
        else:
            _rebind(original, counted_per_item(original, layer, label))

    for module, cls_name, attr, layer, label in METHODS:
        cls = lookup(module, cls_name)
        raw = vars(cls).get(attr) if cls is not None else None
        if raw is None:
            absent.append(layer)
        elif isinstance(raw, classmethod):
            setattr(cls, attr, classmethod(counted(raw.__func__, layer, label)))
        else:
            setattr(cls, attr, counted(raw, layer, label))
    return caches, absent


def main(argv: list[str]) -> int:
    trace = argv[0] == "1"
    cli_args = argv[1:]
    sys.path.insert(0, str(ROOT / "src"))
    from ndtbound import cli

    tracer = Tracer()
    caches, absent = install(tracer) if trace else ({}, [])
    buffer = io.StringIO()
    start = time.perf_counter()
    with redirect_stdout(buffer):
        code = cli.main(cli_args)
    wall = time.perf_counter() - start
    if trace:
        for layer, cached in caches.items():
            info = cached.cache_info()
            tracer.add(f"{layer}.hits", info.hits)
            tracer.add(f"{layer}.misses", info.misses)
    report = {"code": code, "wall_s": wall, "values": tracer.values, "absent": absent}
    sys.stdout.write(json.dumps(report) + "\n" + buffer.getvalue())
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
