"""Tests of the benchmark itself, at toy request sizes.

Run from the repository root:  python3 -m pytest perfbench
"""

from __future__ import annotations

import json
import subprocess
import sys
import time

import pytest

import run

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
EXPECTED = json.loads(run.EXPECTED_PATH.read_text())


def _bench(*args: str) -> dict:
    proc = subprocess.run(
        [sys.executable, str(run.BENCH / "run.py"), *args],
        cwd=run.ROOT,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def _cli_output(template, seed: int) -> bytes:
    cli = [sys.executable, "-m", "ndtbound.cli"]
    _, output, error = run.run_process(cli + run.request_argv(template, seed), time.monotonic() + 60)
    assert error is None, error
    return output


@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
@pytest.mark.parametrize("trace", ["0", "1"])
def test_toy_run_prints_every_metric_with_its_unit(workload, trace):
    result = _bench(
        "--workload", workload, "--seed", "5", "--seconds", "1", "--trace", trace, "--toy"
    )
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer" if trace == "1" else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in wanted
    }


def test_trace_counts_calls_made_through_from_imports():
    # cli calls category_bound and sample_demands through names it imported
    # itself; 41 grid points with 20 samples each
    metrics = _bench(
        "--workload", "mc-crosscheck", "--seed", "5", "--seconds", "1", "--trace", "1", "--toy"
    )["metrics"]
    assert metrics["demands.sample_demands.vectors"]["value"] == 41 * 20
    assert metrics["bounds.category_bound.calls"]["value"] == 41 * 20 + 41 * 20


def test_corrupted_output_counts_as_failure():
    template = run.WORKLOADS["exact-reference"]["toy"][1]
    key = run.request_key(template)
    output = _cli_output(template, 0)
    corrupted = output.replace(b"1", b"2", 1)
    assert corrupted != output
    tally = run.Tally()
    tally.record(key, run.check_output(key, output, EXPECTED))
    tally.record(key, run.check_output(key, corrupted, EXPECTED))
    assert (tally.attempted, tally.failed) == (2, 1)


def test_monte_carlo_check_ignores_the_seed_but_not_the_values():
    template = run.WORKLOADS["mc-crosscheck"]["full"][0]
    key = run.request_key(template)
    lines = _cli_output(template, 7).decode().splitlines()
    assert run.check_output(key, ("\n".join(lines) + "\n").encode(), EXPECTED) is None

    def with_row(index: int, row: str) -> bytes:
        changed = list(lines)
        changed[index] = row
        return ("\n".join(changed) + "\n").encode()

    mu, value, mc_value = lines[1].split(",")
    wrong_value = f"{float(value) + 0.01:.6f}"
    assert run.check_output(key, with_row(1, f"{mu},{wrong_value},{mc_value}"), EXPECTED)
    far_off = f"{float(mc_value) + 0.5:.6f}"
    assert run.check_output(key, with_row(1, f"{mu},{value},{far_off}"), EXPECTED)
    assert run.check_output(key, with_row(1, f"{mu},{value},nan-ish"), EXPECTED)


def test_missing_public_name_is_reported_absent():
    script = (
        "import sys\n"
        "sys.path[:0] = ['src', 'perfbench']\n"
        "import child, ndtbound.bounds, ndtbound.cli\n"
        "del ndtbound.bounds.category_bound_detail\n"
        "print(child.install(child.Tracer())[1])\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script], cwd=run.ROOT, capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "['bounds.category_bound_detail']"
