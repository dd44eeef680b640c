"""Closed-loop benchmark of the ndtbound command-line interface.

Usage, from the repository root:

    python3 perfbench/run.py --workload sweep-large --seed 1 --seconds 30 --trace 0

One client sends one request at a time and waits for it.  Each request is a
fresh ``python -m ndtbound.cli`` process with ``src`` on the path, so it pays
interpreter start and cold caches as a CLI user does.  The workload's request
list is repeated while ``--seconds`` lasts, and each timing is the median over
the repetitions.  Every output is checked against ``expected.json``.

With ``--trace 1`` every request runs twice through ``child.py`` instead, once
plain and once with the public functions of each module wrapped, and the
per-layer metrics are printed.  The end-to-end metrics come from untraced
runs only.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; metric names and units
come from ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import threading
import time
from fractions import Fraction
from pathlib import Path

import child

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
EXPECTED_PATH = BENCH / "expected.json"

PRESET = "presets/expected_kt5_kr20_n100.cfg"
# Wall time of this request is setup_s: interpreter start, package import,
# argparse and the overlay registry, which every CLI call pays.
SETUP_REQUEST = ("distribution", "--files", "2", "--kr", "2")
# Every request gets this much of the run, so a hung program still ends the
# benchmark inside its 180-second limit.
HARD_LIMIT_S = 165.0
# Per-point false-failure probability of the Monte-Carlo check.  A run makes
# at most a few hundred point checks, so the union bound stays below 1e-6.
HOEFFDING_DELTA = 1e-9


def _sweep_large(kt: str, kr: str, files: str, grid: str) -> tuple[tuple[str, ...], ...]:
    net = ("--kt", kt, "--kr", kr, "--files", files)
    sweep = ("expected-sweep", *net, "--grid", grid, "--overlay", "baseline")
    point = ("point", "--kind", "expected", *net, "--mu", "3/8")
    return (sweep, sweep + ("--envelope-order", "proof"), point)


def _mc_crosscheck(samples: str) -> tuple[tuple[str, ...], ...]:
    return (
        ("expected-sweep", "--config", PRESET, "--samples", samples,
         "--seed", "{seed}", "--decimal", "6"),
    )


# Request templates per workload at full and at toy size ("{seed}" is the
# benchmark's seed).  Why each workload exists:
# - sweep-large: the bounds layer does ~93% of the work, over all three of its
#   paths (theorem order, proof order, category_bound_detail).  Sampling, the
#   pmf and the oracles do almost nothing.
# - mc-crosscheck: Monte-Carlo sampling and accumulation dominate; the bounds
#   layer builds only 90 envelopes but serves ~205k cached category_bound
#   lookups, the hot-cache side of what sweep-large builds cold.
# - exact-reference: the oracle suites and the big-integer surjection_count
#   behind the pmf, plus rendering 1.4 MB of exact fractions.
WORKLOADS = {
    "sweep-large": {
        "full": _sweep_large("20", "200", "1000", "1/20:1:41"),
        "toy": _sweep_large("4", "12", "40", "1/4:1:7"),
    },
    "mc-crosscheck": {"full": _mc_crosscheck("5000"), "toy": _mc_crosscheck("20")},
    "exact-reference": {
        "full": (("verify",), ("distribution", "--files", "2000", "--kr", "500")),
        "toy": (
            ("verify", "--limit", "4", "--kt-max", "3"),
            ("distribution", "--files", "40", "--kr", "12"),
        ),
    },
}

CACHE_LAYERS = tuple(layer for _, _, layer in child.CACHES)


def request_key(template) -> str:
    return " ".join(template)


def request_argv(template, seed: int) -> list[str]:
    return [arg.replace("{seed}", str(seed)) for arg in template]


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def exact_columns(rows: list[list[str]]) -> bytes:
    """The seed-independent mu and value columns of a Monte-Carlo sweep."""
    return "".join(f"{row[0]},{row[1]}\n" for row in rows).encode()


def check_output(key: str, output: bytes, expected: dict) -> str | None:
    """Return why ``output`` is wrong for request ``key``, or None if it is right."""
    want = expected.get(key)
    if want is None:
        return "no expected output recorded"
    if isinstance(want, str):
        return None if sha256(output) == want else "output differs from the recorded digest"
    return _check_monte_carlo(output.decode("utf-8", "replace"), want)


def _check_monte_carlo(text: str, want: dict) -> str | None:
    """Check the exact columns byte for byte and mc_value by Hoeffding's bound.

    Each mc_value is the mean of ``samples`` independent category bounds,
    which lie in [1, peak bound] and have the exact value as their mean.  The
    test does not depend on the sampler's seed.
    """
    rows = [line.split(",") for line in text.splitlines()]
    if not rows or rows[0] != ["mu", "value", "mc_value"]:
        return "unexpected header"
    rows = rows[1:]
    if len(rows) != len(want["peak"]) or any(len(row) != 3 for row in rows):
        return "unexpected table shape"
    if sha256(exact_columns(rows)) != want["value_sha256"]:
        return "exact columns differ from the recorded digest"
    spread = math.sqrt(math.log(2 / HOEFFDING_DELTA) / (2 * want["samples"]))
    for (mu, value, mc_value), peak in zip(rows, want["peak"]):
        try:
            gap = abs(Fraction(mc_value) - Fraction(value))
        except ValueError:
            return f"mc_value {mc_value!r} at mu={mu} is not a number"
        # both columns are rounded to the printed digits
        rounding = 10.0 ** -len(value.partition(".")[2])
        tolerance = float(Fraction(peak) - 1) * spread + rounding
        if gap > tolerance:
            return f"mc_value {mc_value} at mu={mu} is {float(gap):.6g} from {value}"
    return None


class Tally:
    """Requests attempted and failed; failures are reported on stderr."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def record(self, key: str, error: str | None):
        self.attempted += 1
        if error is not None:
            self.failed += 1
            print(f"FAILED {key}: {error}", file=sys.stderr)


def run_process(argv: list[str], deadline: float) -> tuple[float, bytes, str | None]:
    """Run one process to completion: (wall seconds, stdout, error or None)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, (str(ROOT / "src"), env.get("PYTHONPATH")))
    )
    start = time.perf_counter()
    try:
        proc = subprocess.run(
            argv,
            cwd=ROOT,
            env=env,
            capture_output=True,
            timeout=max(1.0, deadline - time.monotonic()),
        )
    except subprocess.TimeoutExpired:
        return time.perf_counter() - start, b"", "timed out"
    wall = time.perf_counter() - start
    if proc.returncode != 0:
        tail = proc.stderr.decode("utf-8", "replace").strip()[-400:]
        return wall, proc.stdout, f"exit status {proc.returncode}: {tail}"
    return wall, proc.stdout, None


def _keep_going(start: float, seconds: float, deadline: float, durations: list[float]) -> bool:
    """Closed loop: start another pass only if it should end within the budget."""
    if not durations:
        return True
    now = time.monotonic()
    return now - start + durations[-1] <= seconds and now + durations[-1] < deadline


def reference_loop() -> float:
    """CPU seconds this thread spends on a fixed exact-arithmetic loop."""
    start = time.thread_time()
    total = Fraction(0)
    for i in range(1, 1500):
        total += Fraction(i % 97, 1 + i % 89)
    return time.thread_time() - start


class ReferenceClock:
    """Times ``reference_loop`` every 0.1 s on a background thread.

    The host this benchmark was tuned on (a 2-vCPU Xeon VM on a shared
    machine) switches between two speeds about 1.6x apart every few seconds.
    Dividing a request's time by the mean loop time sampled while it ran
    removes most of that: raw CPU time of one request spread 31% (IQR over
    median) there, the ratio 5%.  The loop uses about 5% of one CPU, and
    measuring it in thread CPU time keeps it immune to being descheduled.
    """

    INTERVAL_S = 0.1

    def __init__(self):
        self.samples: list[float] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._sample, daemon=True)

    def _sample(self):
        while not self._stop.wait(self.INTERVAL_S):
            self.samples.append(reference_loop())

    def __enter__(self) -> "ReferenceClock":
        self._thread.start()
        return self

    def __exit__(self, *exc_info):
        self._stop.set()
        self._thread.join()

    def mean_since(self, index: int) -> float:
        recent = self.samples[index:] or [reference_loop()]
        return statistics.fmean(recent)


def measure(templates, seed: int, seconds: float, expected: dict, tally: Tally) -> tuple[dict, dict]:
    """Untraced run: end-to-end metrics plus raw timings for the summary line."""
    deadline = time.monotonic() + HARD_LIMIT_S
    cli = [sys.executable, "-m", "ndtbound.cli"]
    setup_key = request_key(SETUP_REQUEST)

    def setup_call() -> float:
        wall, output, error = run_process(cli + list(SETUP_REQUEST), deadline)
        tally.record(setup_key, error or check_output(setup_key, output, expected))
        return wall

    # The reference loop must time the CPU the requests run on: the two
    # CPUs of a shared VM can run at different speeds at the same moment.
    # Threads and child processes inherit this affinity.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    # one untimed call first, so bytecode caches exist before anything is timed
    setup_call()
    setup: list[float] = []
    passes: list[tuple[float, float, float, float]] = []  # wall, cpu, wall_ref, cpu_ref
    per_request: dict[str, list[float]] = {request_key(t): [] for t in templates}
    start = time.monotonic()
    with ReferenceClock() as clock:
        while _keep_going(start, seconds, deadline, [p[0] for p in passes]):
            rows = []
            for template in templates:
                # spread over the run, so the median does not hang on the
                # host's speed at one moment
                setup.append(setup_call())
                key = request_key(template)
                first_sample = len(clock.samples)
                before = resource.getrusage(resource.RUSAGE_CHILDREN)
                wall, output, error = run_process(cli + request_argv(template, seed), deadline)
                after = resource.getrusage(resource.RUSAGE_CHILDREN)
                reference = clock.mean_since(first_sample)
                tally.record(key, error or check_output(key, output, expected))
                cpu = (after.ru_utime - before.ru_utime) + (after.ru_stime - before.ru_stime)
                per_request[key].append(wall)
                rows.append((wall, cpu, wall / reference, cpu / reference))
            passes.append(tuple(map(sum, zip(*rows))))
    wall_s, cpu_s, wall_ref, cpu_ref = (statistics.median(col) for col in zip(*passes))
    # ru_maxrss of RUSAGE_CHILDREN is the largest child's, in KiB on Linux
    peak_rss_kib = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    metrics = {
        "wall_ref": wall_ref,
        "cpu_ref": cpu_ref,
        "setup_s": statistics.median(setup),
        "peak_rss_mb": peak_rss_kib / 1024,
    }
    summary = {
        "passes": len(passes),
        "wall_s": wall_s,
        "cpu_s": cpu_s,
        "request_wall_s": {key: statistics.median(v) for key, v in per_request.items()},
    }
    return metrics, summary


def measure_traced(templates, seed: int, seconds: float, expected: dict, tally: Tally) -> tuple[dict, dict]:
    """Traced run: per-layer metrics, medians over passes of the request list."""
    deadline = time.monotonic() + HARD_LIMIT_S
    child_cmd = [sys.executable, str(BENCH / "child.py")]
    passes: list[dict] = []
    durations: list[float] = []
    absent: set[str] = set()
    start = time.monotonic()
    while _keep_going(start, seconds, deadline, durations):
        pass_start = time.monotonic()
        values: dict[str, float] = {"cli.bytes_out": 0, "trace.overhead_s": 0.0}
        for template in templates:
            key = request_key(template)
            reports = {}
            for mode in ("0", "1"):
                _, raw, error = run_process(child_cmd + [mode] + request_argv(template, seed), deadline)
                line, _, output = raw.partition(b"\n")
                report = json.loads(line) if error is None else None
                if report is not None and report["code"] != 0:
                    error = f"CLI exit status {report['code']}"
                error = error or check_output(key, output, expected)
                if mode == "1" and error is None and "0" in reports and output != reports["0"][1]:
                    error = "traced output differs from untraced output"
                tally.record(f"{key} (trace {mode})", error)
                if error is None:
                    reports[mode] = (report, output)
            if len(reports) < 2:
                continue
            (plain, output), (traced, _) = reports["0"], reports["1"]
            absent.update(traced["absent"])
            values["cli.bytes_out"] += len(output)
            values["trace.overhead_s"] += traced["wall_s"] - plain["wall_s"]
            for name, amount in traced["values"].items():
                values[name] = values.get(name, 0) + amount
        for layer in CACHE_LAYERS:
            if f"{layer}.hits" in values:
                lookups = values[f"{layer}.hits"] + values[f"{layer}.misses"]
                # a cache that saw no lookup reports 0
                values[f"{layer}.hit_ratio"] = values[f"{layer}.hits"] / lookups if lookups else 0.0
        passes.append(values)
        durations.append(time.monotonic() - pass_start)
    names = set.intersection(*(set(p) for p in passes))
    # median_low keeps counts whole; they repeat exactly between passes anyway
    metrics = {name: statistics.median_low(p[name] for p in passes) for name in names}
    return metrics, {"passes": len(passes), "absent_layers": sorted(absent)}


def _commit() -> str:
    """Commit of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "commit": _commit(),
        # compare machines by ratios to this, not by raw seconds
        "clock_ref_s": statistics.median(reference_loop() for _ in range(9)),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--toy", action="store_true", help="tiny request sizes, for the benchmark's own tests"
    )
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "ndtbound" / "cli.py").is_file():
        print(f"error: no ndtbound sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        expected = json.loads(EXPECTED_PATH.read_text())
    except (OSError, ValueError) as exc:
        print(f"error: cannot read the benchmark definition: {exc}", file=sys.stderr)
        return 2

    templates = WORKLOADS[args.workload]["toy" if args.toy else "full"]
    # before measuring, which pins this process to one CPU
    env = environment()
    tally = Tally()
    if args.trace:
        measured, summary = measure_traced(templates, args.seed, args.seconds, expected, tally)
        wanted = spec["per_layer"]
    else:
        measured, summary = measure(templates, args.seed, args.seconds, expected, tally)
        wanted = spec["end_to_end"]
    summary["failed_frac"] = tally.failed / tally.attempted
    metrics = {}
    for metric in wanted:
        if metric["name"] in measured:
            metrics[metric["name"]] = {"value": measured[metric["name"]], "unit": metric["unit"]}
        else:
            print(f"absent: {metric['name']}", file=sys.stderr)
    print("environment " + json.dumps(env))
    print(f"summary {args.workload} " + json.dumps(summary))
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
