from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import random
import re
import shlex
import subprocess
import sys
import tracemalloc
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import ndtbound
from ndtbound import bounds, cli
from ndtbound.bounds import (
    ENVELOPE_ORDERS,
    NetworkConfig,
    category_bound,
    category_bound_detail,
    expected_ndt_lower_bound,
    peak_ndt_lower_bound,
)
from ndtbound.cli import (
    _COMMANDS,
    CliError,
    RunConfig,
    build_parser,
    main,
    parse_grid,
    parse_rational,
    parse_run_config,
)
from ndtbound.demands import distinct_count, distinct_distribution

F = Fraction
PRESETS = Path(__file__).resolve().parent.parent / "presets"


def run_cli(capsys, *args):
    status = main(list(args))
    captured = capsys.readouterr()
    return status, captured.out, captured.err


def test_parse_rational_accepts_fractions_and_decimals():
    assert parse_rational("1/3") == F(1, 3)
    assert parse_rational("0.4") == F(2, 5)  # exact fraction of the digits
    assert parse_rational(" 2 ") == 2
    assert parse_rational("1e-4000") == F(1, 10**4000)

def test_parse_grid_colon_and_list_forms():
    assert parse_grid("1/3:1:3") == (F(1, 3), F(2, 3), F(1))
    assert parse_grid("1:1:1") == (F(1),)
    assert parse_grid("1/4,1/2,1") == (F(1, 4), F(1, 2), F(1))


def test_peak_sweep_example(capsys):
    status, out, _ = run_cli(
        capsys, "peak-sweep", "--kt", "3", "--kr", "3", "--files", "3", "--grid", "1/3:1:3"
    )
    assert status == 0
    assert out == "mu,value\n1/3,5/3\n2/3,7/6\n1,1\n"


def test_distribution_example(capsys):
    status, out, _ = run_cli(capsys, "distribution", "--files", "2", "--kr", "2")
    assert status == 0
    assert out == "s,mass\n1,1/2\n2,1/2\n"


def test_verify_passes(capsys):
    status, out, _ = run_cli(capsys, "verify", "--limit", "8")
    assert status == 0
    lines = out.strip().splitlines()
    assert lines and all(line.startswith("PASS") for line in lines)


def test_verify_json_lines(capsys):
    status, out, _ = run_cli(capsys, "verify", "--limit", "4", "--format", "json")
    assert status == 0
    for line in out.strip().splitlines():
        record = json.loads(line)
        assert record["passed"] is True


# verify --format json at the default sizes, byte for byte, with its JSON written out
VERIFY_JSON = "".join(
    f'{{"name": "{name}", "scope": "{scope}", "checked": {checked}, "passed": true, '
    '"counterexample": null}\n'
    for name, scope, checked in (
        ("complement-subset-symmetry", "all K <= 16, 0 <= n,l <= K", 1784),
        ("receiver-averaging-count", "all 1 <= cut <= s <= 16", 136),
        ("cut-avoidance-probability",
         "subset enumeration for all K <= 8, cut and marked set sizes <= K", 204),
        ("lp-corner-integer-replication", "all KT <= 6, cut sizes, integer replication", 91),
        ("lp-envelope-fractional-replication",
         "all KT <= 6, cut sizes, quarter-step replication", 301),
        ("discrete-convexity-claimed-region", "all KT <= 8, all cut sizes", 36),
        ("discrete-convexity-full-range", "all KT <= 8, all cut sizes", 36),
        ("lp-vertex-vs-grid-scan", "all KT <= 5, quarter-step replication, 1/64 scan", 175),
    )
)


def test_verify_json_bytes(capsys):
    status, out, err = run_cli(capsys, "verify", "--format", "json")
    assert (status, out, err) == (0, VERIFY_JSON, "")


@pytest.mark.parametrize(
    "output_format, digest",
    [
        ("text", "0cfaeb20bbc0ff4134065ad1b62e59b23042f61b0928c63b8903d694891e5c63"),
        ("json", "fecf3dde1a29db5babaf1e543dc620851e74c9721a0b1599f08fa212b8427b2c"),
    ],
)
def test_largest_verify_bytes(output_format, digest, capsys):
    # verify --limit 16 --kt-max 10, the largest request the CLI accepts, by SHA-256
    status, out, err = run_cli(
        capsys, "verify", "--limit", "16", "--kt-max", "10", "--format", output_format
    )
    assert (status, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize(
    "request_args",
    [
        ["peak-sweep", "--grid", "1/5:1:3"],
        ["expected-sweep", "--grid", "1/5:1:3"],
        ["distribution", "--files", "2", "--kr", "2"],
        ["verify", "--limit", "1", "--kt-max", "1"],
        ["point", "--mu", "1/2"],
    ],
    ids=lambda args: args[0],
)
def test_requests_import_neither_dataclasses_nor_inspect(request_args):
    """Each import costs every request start-up time (``inspect`` pulls in ``ast``,
    ``dis`` and ``tokenize``).  Checked in a fresh interpreter, because pytest and
    hypothesis import both modules into this one."""
    src = str(Path(cli.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    result = subprocess.run(
        [sys.executable, "-X", "importtime", "-m", "ndtbound.cli", *request_args],
        capture_output=True, text=True, timeout=60, env=os.environ | {"PYTHONPATH": path},
    )
    assert result.returncode == 0, result.stderr
    # -X importtime writes "import time: self | cumulative | module" lines to stderr
    modules = {
        line.rsplit("|", 1)[-1].strip()
        for line in result.stderr.splitlines()
        if line.startswith("import time:")
    }
    assert "ndtbound.bounds" in modules
    assert not modules & {"dataclasses", "inspect"}


def test_peak_sweep_infeasible_exit_2(capsys):
    status, _, err = run_cli(
        capsys, "peak-sweep", "--kt", "3", "--kr", "5", "--files", "3", "--grid", "1/3:1:3"
    )
    assert status == 2
    assert "at least as many files as receivers" in err


def test_bad_grid_exit_1(capsys):
    status, _, err = run_cli(
        capsys, "peak-sweep", "--kt", "3", "--kr", "3", "--files", "3", "--grid", "1/8:1:3"
    )
    assert status == 1
    assert "error:" in err


def test_missing_grid_exit_1(capsys):
    status, _, err = run_cli(capsys, "peak-sweep", "--kt", "3")
    assert status == 1
    assert "missing required options: --grid" in err


def test_network_defaults(capsys):
    # kt/kr/files default to the 5-transmitter, 20-receiver, 100-file setup
    status, out, _ = run_cli(capsys, "expected-sweep", "--grid", "1/5:1:2")
    assert status == 0
    assert out.splitlines()[0] == "mu,value"
    status, out, _ = run_cli(capsys, "distribution", "--files", "2")
    assert status == 0
    assert out.splitlines()[0] == "s,mass"
    assert len(out.splitlines()) == 3  # support is {1, 2} with 20 receivers


def test_samples_rejected_outside_expected_sweep(capsys):
    status, _, err = run_cli(
        capsys,
        "peak-sweep",
        "--kt", "3", "--kr", "3", "--files", "3",
        "--grid", "1/3:1:3", "--samples", "10",
    )
    assert status == 1


def test_decimal_rendering(capsys):
    status, out, _ = run_cli(
        capsys,
        "peak-sweep",
        "--kt", "3", "--kr", "3", "--files", "3",
        "--grid", "1/3:1:3", "--decimal", "6",
    )
    assert status == 0
    assert out.splitlines()[1] == "0.333333,1.666667"


def test_json_output_schema(capsys):
    status, out, _ = run_cli(
        capsys,
        "expected-sweep",
        "--kt", "2", "--kr", "2", "--files", "2",
        "--grid", "1/2:1:2", "--format", "json",
    )
    assert status == 0
    payload = json.loads(out)
    assert payload["metadata"]["command"] == "expected-sweep"
    assert payload["metadata"]["kt"] == 2
    assert payload["metadata"]["version"]
    assert payload["rows"] == [
        {"mu": "1/2", "value": "5/4"},
        {"mu": "1", "value": "1"},
    ]


def test_expected_sweep_monte_carlo_column(capsys):
    status, out, _ = run_cli(
        capsys,
        "expected-sweep",
        "--kt", "2", "--kr", "2", "--files", "2",
        "--grid", "1/2:1:2", "--samples", "200", "--seed", "5",
    )
    assert status == 0
    lines = out.splitlines()
    assert lines[0] == "mu,value,mc_value"
    # at full cache every category bound is 1, so the sample mean is exact
    assert lines[2] == "1,1,1"
    mc = F(lines[1].split(",")[2])
    assert 1 <= mc <= F(3, 2)


def test_monte_carlo_column_is_the_mean_over_the_randint_stream(capsys, monkeypatch):
    monkeypatch.chdir(PRESETS.parent)
    status, out, err = run_cli(
        capsys, "expected-sweep", "--config", "presets/expected_kt5_kr20_n100.cfg",
        "--samples", "200", "--seed", "7",
    )
    assert (status, err) == (0, "")
    lines = out.splitlines()
    assert lines[0] == "mu,value,mc_value"
    rows = [line.split(",") for line in lines[1:]]
    grid = parse_grid("1/5:1:41")
    assert [F(mu) for mu, _, _ in rows] == list(grid)
    # the column recomputed from the contract: one randint(1, 100) per receiver,
    # each point on its own sub-seed
    for index, (mu, (_, _, mc_value)) in enumerate(zip(grid, rows)):
        rng = random.Random(7 * cli.SUB_SEED_STRIDE + index)
        total = sum(
            category_bound(5, distinct_count([rng.randint(1, 100) for _ in range(20)]), 5 * mu)
            for _ in range(200)
        )
        assert F(mc_value) == total / 200


def test_sampled_sweep_hashes_no_fraction(capsys, monkeypatch):
    """Every cache on the sampled path, hit or miss, is keyed by ints, so the
    per-sample ``category_bound`` hits hash no ``Fraction`` replication."""
    monkeypatch.chdir(PRESETS.parent)
    args = (
        "expected-sweep", "--config", "presets/expected_kt5_kr20_n100.cfg",
        "--samples", "200", "--seed", "7",
    )

    def unhashable(self):
        raise AssertionError("a Fraction was hashed")

    for cached in (category_bound, bounds._cut_slopes, distinct_distribution):
        cached.cache_clear()
    with monkeypatch.context() as patched:
        patched.setattr(Fraction, "__hash__", unhashable)
        hashless = run_cli(capsys, *args)
    assert hashless[0] == 0
    assert hashless == run_cli(capsys, *args)


def _count_column_work(monkeypatch):
    """Wrap cli's own bindings of ``sample_demands`` and ``category_bound``.
    ``drawn`` gets one entry per point, the demands its stream has yielded so
    far; ``calls`` one entry per bound call, its point and the demands that
    point's stream had yielded by then."""
    drawn, calls = [], []
    real_sample, real_bound = cli.sample_demands, cli.category_bound

    def sample_demands(*args):
        drawn.append(0)
        for demand in real_sample(*args):
            drawn[-1] += 1
            yield demand

    def category_bound(*args):
        calls.append((len(drawn) - 1, drawn[-1]))
        return real_bound(*args)

    monkeypatch.setattr(cli, "sample_demands", sample_demands)
    monkeypatch.setattr(cli, "category_bound", category_bound)
    return drawn, calls


TOY_MC_REQUEST = (
    "expected-sweep", "--config", "presets/expected_kt5_kr20_n100.cfg",
    "--samples", "20", "--seed", "5", "--decimal", "6",
)


def test_monte_carlo_column_makes_one_bound_call_per_sample(capsys, monkeypatch):
    """The tier-1 twin of the benchmark's trace pin (perfbench's
    ``test_trace_counts_calls_made_through_from_imports``): on the toy
    mc-crosscheck request the column draws 41 x 20 demands and makes one
    ``category_bound`` call per demand, through the names cli imported."""
    monkeypatch.chdir(PRESETS.parent)
    drawn, calls = _count_column_work(monkeypatch)
    status, _, err = run_cli(capsys, *TOY_MC_REQUEST)
    assert (status, err) == (0, "")
    assert drawn == [20] * 41
    assert len(calls) == 41 * 20
    assert [point for point, _ in calls] == [point for point in range(41) for _ in range(20)]


def test_monte_carlo_column_holds_its_tally_not_its_samples():
    """The column tallies each point's distinct counts as the stream yields them:
    at one point with 100,000 samples its tracemalloc peak stays under 256 KB,
    where a list of the 100,000 counts alone takes 800 KB."""
    config = RunConfig("expected-sweep", mu_grid=(F(1, 2),), samples=100_000, seed=7)
    tracemalloc.start()
    try:
        cli._mc_column(config, config.mu_grid)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 256 * 1024, peak


# 100 and 255 files are drawn from each word's top byte, 256 from whole words
@pytest.mark.parametrize("order", ["theorem", "proof"])
@pytest.mark.parametrize("files", [100, 255, 256])
def test_monte_carlo_column_is_the_running_fraction_sum(capsys, files, order):
    # 1/5:1:9 puts every other point on an integer replication t = 5*mu, and
    # --kr 1 groups each demand from the stream by a zip over one iterator
    for receivers, grid_text in [(20, "1/5:1:11"), (20, "1/5:1:9"), (1, "1/5:1:9")]:
        status, out, err = run_cli(
            capsys, "expected-sweep", "--kt", "5", "--kr", str(receivers),
            "--files", str(files), "--grid", grid_text, "--samples", "150", "--seed", "3",
            "--envelope-order", order,
        )
        assert (status, err) == (0, "")
        rows = [line.split(",") for line in out.splitlines()[1:]]
        grid = parse_grid(grid_text)
        assert [F(mu) for mu, _, _ in rows] == list(grid)
        # the reference: one randint(1, files) per receiver and one Fraction
        # addition per sample, each point on its own sub-seed
        for index, (mu, (_, _, mc_value)) in enumerate(zip(grid, rows)):
            rng = random.Random(3 * cli.SUB_SEED_STRIDE + index)
            total = Fraction(0)
            for _ in range(150):
                demand = [rng.randint(1, files) for _ in range(receivers)]
                total += category_bound(5, distinct_count(demand), 5 * mu, order)
            assert F(mc_value) == total / 150, (receivers, grid_text, mu)


def buffered_table(config, columns) -> str:
    """The buffered writer, kept as the oracle of the streamed one: every row
    rendered, then the whole table joined (CSV) or dumped (JSON) as one string."""
    header = list(columns)
    rows = [[str(cli._render(config, value)) for value in row] for row in zip(*columns.values())]
    if config.output_format == "csv":
        lines = [",".join(header)]
        lines.extend(",".join(row) for row in rows)
        return "\n".join(lines) + "\n"
    metadata = {"command": config.command} | {
        key.replace("-", "_"): getattr(config, cli._OPTIONS[key].field)
        for key in _COMMANDS[config.command].options
        if cli._OPTIONS[key].echoed
    }
    records = [dict(zip(header, row)) for row in rows]
    payload = {"metadata": metadata | {"version": ndtbound.__version__}, "rows": records}
    return json.dumps(payload, indent=2) + "\n"


def buffered_point(fields: dict, output_format: str) -> str:
    """The buffered writer of ``point``'s rendered fields."""
    if output_format == "json":
        return json.dumps(fields, indent=2) + "\n"
    text = [f"{key} = {item}" for key, item in fields.items() if key != "categories"]
    text += [
        "category s={s}: mass={mass} bound={bound} argmax_cut={argmax_cut} "
        "segment={segment}".format(**entry)
        for entry in fields.get("categories", [])
    ]
    return "\n".join(text) + "\n"


def buffered_output(args: list[str], monkeypatch) -> str:
    """The request's whole output as the buffered writer builds it, from the
    values each command hands its writer; nothing is written."""
    config = parse_run_config(args)
    texts, full_verification = [], cli.full_verification

    def verification(*settings):
        report = full_verification(*settings)
        json_lines = config.output_format == "json"
        texts.append((report.to_json_lines() if json_lines else report.to_text()) + "\n")
        return report

    with monkeypatch.context() as patch:
        patch.setattr(cli, "_emit", lambda config, chunks: None)
        patch.setattr(cli, "_emit_table", lambda config, columns: texts.append(
            buffered_table(config, columns)
        ))
        # point's fields reach its writer only as the JSON payload, which the
        # text form prints too; they are rendered here as the encoder renders them
        def point_json(run_config, fields):
            def rendered(entry):
                return {key: cli._render(run_config, item) for key, item in entry.items()}

            fields = rendered(fields)
            if "categories" in fields:
                fields["categories"] = [rendered(entry) for entry in fields["categories"]]
            texts.append(buffered_point(fields, config.output_format))

        patch.setattr(cli, "_json", point_json)
        patch.setattr(cli, "full_verification", verification)
        cli.run(config._replace(output_format="json") if config.command == "point" else config)
    (text,) = texts
    return text


# every command in each of its formats: a one-row table, --decimal, 'unavailable'
# overlay cells, a Monte-Carlo column, point peak and expected in both orders
BUFFERED = [
    "expected-sweep --kt 3 --kr 4 --files 5 --grid 1/3:1:5 --samples 100 --seed 9 "
    "--overlay baseline --overlay sengupta-bound",
    "expected-sweep --kt 3 --kr 4 --files 5 --grid 1/3:1:5 --samples 100 --seed 9 "
    "--overlay baseline --overlay sengupta-bound --format json",
    "peak-sweep --kt 2 --kr 3 --files 3 --grid 1/2:1/2:1",
    "peak-sweep --kt 2 --kr 3 --files 3 --grid 1/2:1/2:1 --format json",
    "peak-sweep --config presets/peak_kt5_kr5.cfg --overlay mn-scheme --decimal 4",
    "peak-sweep --config presets/peak_kt5_kr5.cfg --overlay mn-scheme --decimal 4 --format json",
    "distribution --files 7 --kr 3 --decimal 4",
    "distribution --files 7 --kr 3 --format json",
    "distribution --files 1 --kr 1",
    # denominators of up to 4,399 digits, past the int-to-str limit, rendered in the encoder
    "distribution --files 100 --kr 2200 --format json",
    "verify --limit 3 --kt-max 2",
    "verify --limit 3 --kt-max 2 --format json",
] + [
    f"point --kt 3 --kr 4 --files {files} --mu 1/2 --kind {kind} --envelope-order {order}{form}"
    for files, kind in [(4, "peak"), (3, "expected")]
    for order in ENVELOPE_ORDERS
    for form in ("", " --format json", " --decimal 3")
]


def test_outputs_are_byte_identical(tmp_path, capsys, monkeypatch):
    # stdout and the --out file carry the buffered writer's bytes, run after run
    monkeypatch.chdir(PRESETS.parent)
    for request_line in BUFFERED:
        args = request_line.split()
        want = buffered_output(args, monkeypatch)
        assert run_cli(capsys, *args) == (0, want, ""), request_line
        for name in ("a", "b"):
            assert run_cli(capsys, *args, "--out", str(tmp_path / name)) == (0, "", "")
            assert (tmp_path / name).read_bytes() == want.encode("utf-8"), request_line


@pytest.mark.parametrize("output_format, ratio", [("csv", 1), ("json", 1.2)])
def test_tables_are_written_as_they_are_rendered(output_format, ratio, tmp_path):
    """The 600 x 600 pmf's traced peak stays below its file's size for CSV
    (a buffered writer holds the rows and their join, about four times it) and
    below 1.2 times it for JSON, whose records hold the unrendered masses, each
    rendered as the encoder writes it (rendered records took about 1.4 times it)."""
    path = tmp_path / f"pmf.{output_format}"
    args = ["distribution", "--files", "600", "--kr", "600", "--format", output_format]
    distinct_distribution.cache_clear()  # the pmf is built under the trace
    tracemalloc.start()
    try:
        assert main([*args, "--out", str(path)]) == 0
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < ratio * path.stat().st_size, (peak, path.stat().st_size)


@pytest.mark.parametrize("output_format", ["text", "json"])
def test_point_is_written_as_it_is_rendered(output_format, tmp_path):
    """An expected point holds its categories unrendered, since its value needs
    every one first, and renders each value as its line or JSON chunk is
    written: the traced peak stays below 1.2 times the output's size (a
    rendered copy of the categories took about twice it)."""
    path = tmp_path / f"point.{output_format}"
    args = ["point", "--kind", "expected", "--kt", "300", "--kr", "600", "--files", "600",
            "--mu", "1/2", "--format", output_format]
    distinct_distribution.cache_clear()  # the pmf is built under the trace
    tracemalloc.start()
    try:
        assert main([*args, "--out", str(path)]) == 0
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1.2 * path.stat().st_size, (peak, path.stat().st_size)


@pytest.mark.parametrize(
    "request_args",
    [
        ["distribution", "--files", "3", "--kr", "2"],
        ["verify", "--limit", "2", "--kt-max", "1"],
        ["point", "--kt", "3", "--kr", "3", "--files", "3", "--mu", "1/2"],
    ],
)
@pytest.mark.parametrize("target", [".", "missing/x.csv"])
def test_unwritable_out_is_an_error_line(capsys, tmp_path, request_args, target):
    # a directory, then a path under a directory that does not exist
    path = str(tmp_path / target)
    status, out, err = run_cli(capsys, *request_args, "--out", path)
    assert (status, out) == (1, "")
    assert err.startswith(f"error: cannot write {path!r}: ")
    assert err.count("\n") == 1


def test_overlay_columns_follow_registration_order(capsys):
    status, out, _ = run_cli(
        capsys,
        "peak-sweep",
        "--kt", "3", "--kr", "3", "--files", "3", "--grid", "1/3:1:3",
        "--overlay", "mn-scheme", "--overlay", "baseline",
    )
    assert status == 0
    lines = out.splitlines()
    # baseline registered before mn-scheme, request order does not matter
    assert lines[0] == "mu,value,baseline,mn-scheme"
    assert lines[1] == "1/3,5/3,1,unavailable"


def test_unknown_overlay_exit_1(capsys):
    status, _, err = run_cli(
        capsys,
        "peak-sweep",
        "--kt", "3", "--kr", "3", "--files", "3", "--grid", "1/3:1:3",
        "--overlay", "nope",
    )
    assert status == 1
    assert "unknown overlay" in err


def test_point_command_text(capsys):
    status, out, _ = run_cli(
        capsys, "point", "--kt", "3", "--kr", "3", "--files", "3", "--mu", "1/2"
    )
    assert status == 0
    entries = dict(
        line.split(" = ", 1) for line in out.strip().splitlines() if " = " in line
    )
    assert entries["kind"] == "peak"
    assert entries["t"] == "3/2"
    assert entries["value"] == "4/3"
    assert entries["argmax_cut"] == "1"
    assert entries["segment"] == "[1, 2]"


def test_point_command_expected_breakdown(capsys):
    status, out, _ = run_cli(
        capsys,
        "point",
        "--kt", "2", "--kr", "2", "--files", "2",
        "--mu", "1/2", "--kind", "expected",
    )
    assert status == 0
    assert "value = 5/4" in out
    assert "category s=1: mass=1/2 bound=1" in out
    assert "category s=2: mass=1/2 bound=3/2" in out


def test_point_command_json(capsys):
    status, out, _ = run_cli(
        capsys,
        "point",
        "--kt", "3", "--kr", "3", "--files", "3",
        "--mu", "2/3", "--format", "json",
    )
    assert status == 0
    payload = json.loads(out)
    assert payload["value"] == "7/6"
    assert payload["argmax_cut"] == 2


def test_point_peak_infeasible_exit_2(capsys):
    status, _, err = run_cli(
        capsys, "point", "--kt", "3", "--kr", "5", "--files", "3", "--mu", "1/2"
    )
    assert status == 2


def test_envelope_order_flag(capsys):
    base = ["point", "--kt", "3", "--kr", "3", "--files", "3", "--mu", "1/2"]
    _, theorem_out, _ = run_cli(capsys, *base)
    _, proof_out, _ = run_cli(capsys, *base, "--envelope-order", "proof")
    assert "value = 4/3" in theorem_out
    assert "value = 17/12" in proof_out
    assert "argmax_cut = None" in proof_out


def test_config_file_and_flag_override(tmp_path, capsys):
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text(
        "# three-transmitter preset\n"
        "kt = 3\n"
        "kr = 3\n"
        "files = 3\n"
        "grid = 1/3:1:3\n"
    )
    status, out, _ = run_cli(capsys, "peak-sweep", "--config", str(cfg))
    assert status == 0
    assert out.splitlines()[1] == "1/3,5/3"
    # flags override the file
    status, out, _ = run_cli(
        capsys, "peak-sweep", "--config", str(cfg), "--grid", "1:1:1"
    )
    assert status == 0
    assert out.splitlines()[1:] == ["1,1"]


def test_overlays_enabled_via_config_file(tmp_path, capsys):
    cfg = tmp_path / "overlay.cfg"
    cfg.write_text("overlay = baseline, mn-scheme\n")
    status, out, _ = run_cli(
        capsys,
        "peak-sweep",
        "--config", str(cfg),
        "--kt", "3", "--kr", "3", "--files", "3", "--grid", "1:1:1",
    )
    assert status == 0
    assert out.splitlines()[0] == "mu,value,baseline,mn-scheme"


def test_config_file_errors(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("kt 3\n")
    status, _, err = run_cli(capsys, "peak-sweep", "--config", str(cfg))
    assert status == 1
    assert "expected key=value" in err
    status, _, err = run_cli(capsys, "peak-sweep", "--config", str(tmp_path / "none.cfg"))
    assert status == 1


def test_config_and_out_files_are_utf8_in_any_locale(tmp_path):
    """A config file is read, and ``--out`` written, as UTF-8: under the C locale
    a non-ASCII comment parses, and no open falls back to the locale's encoding."""
    cfg = tmp_path / "sweep.cfg"
    cfg.write_bytes("# \u00b5 grid\nkt = 3\nkr = 3\nfiles = 3\ngrid = 1/3:1:3\n".encode())
    out = tmp_path / "out.csv"
    src = str(Path(cli.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    env = os.environ | {"PYTHONPATH": path}

    def request(*args, **extra_env):
        return subprocess.run(
            [sys.executable, "-X", "warn_default_encoding", "-W", "error::EncodingWarning",
             "-m", "ndtbound", "peak-sweep", "--config", str(cfg), *args],
            capture_output=True, timeout=60, env=env | extra_env,
        )

    plain = request()
    assert (plain.returncode, plain.stderr) == (0, b"")
    c_locale = request("--out", str(out), LC_ALL="C", PYTHONUTF8="0", PYTHONCOERCECLOCALE="0")
    assert (c_locale.returncode, c_locale.stdout, c_locale.stderr) == (0, b"", b"")
    assert out.read_bytes() == plain.stdout


def test_a_config_file_may_start_with_a_byte_order_mark(tmp_path, capsys):
    """Editors that save UTF-8 with a BOM write it before the first key."""
    preset = PRESETS / "peak_kt3_kr3.cfg"
    cfg = tmp_path / "bom.cfg"
    cfg.write_bytes("\ufeff".encode() + preset.read_bytes())
    plain = run_cli(capsys, "peak-sweep", "--config", str(preset))
    assert plain[0] == 0
    assert run_cli(capsys, "peak-sweep", "--config", str(cfg)) == plain


def _cli_child(*args, **popen) -> subprocess.Popen:
    """``python -m ndtbound`` in a fresh interpreter, importing this package."""
    src = str(Path(cli.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    env = os.environ | {"PYTHONPATH": path}
    return subprocess.Popen([sys.executable, "-m", "ndtbound", *args], env=env, **popen)


def test_a_closed_pipe_ends_the_request_quietly():
    """A reader that closes stdout early, as ``| head -c 100`` does, ends the request
    with exit 1 and nothing on stderr: no traceback, and no ``Exception ignored``
    line when the interpreter flushes stdout at exit."""
    child = _cli_child("distribution", "--files", "2000", "--kr", "2000",
                       stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    assert len(child.stdout.read(100)) == 100
    child.stdout.close()
    _, err = child.communicate(timeout=120)
    assert (child.returncode, err) == (1, b"")


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
def test_a_failed_stdout_write_is_an_error_line():
    """Stdout's write errors take --out's path: one error line and exit 1, also
    when the interpreter flushes stdout again at exit."""
    with open("/dev/full", "w") as full:
        child = _cli_child("distribution", "--files", "200", "--kr", "200",
                           stdout=full, stderr=subprocess.PIPE, text=True)
        _, err = child.communicate(timeout=60)
    assert child.returncode == 1
    assert err.startswith("error: cannot write 'standard output': ")
    assert err.count("\n") == 1


def test_undecodable_config_file_is_a_read_error(tmp_path, capsys):
    cfg = tmp_path / "latin1.cfg"
    cfg.write_bytes(b"kt = 3  # \xb5\n")
    status, out, err = run_cli(capsys, "peak-sweep", "--config", str(cfg))
    assert (status, out) == (1, "")
    assert err.startswith(f"error: cannot read config file {str(cfg)!r}: 'utf-8' codec")


def test_mu_outside_validity_region_exit_1(capsys):
    status, _, err = run_cli(
        capsys, "point", "--kt", "4", "--kr", "4", "--files", "4", "--mu", "1/8"
    )
    assert status == 1
    assert "cache_fraction" in err


# each preset's settings spelled as flags, independently of the file parser
PRESET_FLAGS = {
    "expected_kt5_kr20_n100.cfg": "--kt 5 --kr 20 --files 100 --grid 1/5:1:41 --seed 0",
    "peak_kt10_kr10.cfg": "--kt 10 --kr 10 --files 10 --grid 1/10:1:41 --overlay baseline",
    "peak_kt3_kr3.cfg": "--kt 3 --kr 3 --files 3 --grid 1/3:1:41 --overlay baseline",
    "peak_kt5_kr5.cfg": "--kt 5 --kr 5 --files 5 --grid 1/5:1:41 --overlay baseline",
}


@pytest.mark.parametrize("preset", sorted(PRESETS.glob("*.cfg")), ids=lambda path: path.name)
def test_preset_run_line_matches_flags(preset, capsys, monkeypatch):
    (run_line,) = [
        line for line in preset.read_text().splitlines() if line.startswith("# Run: ")
    ]
    program, *args = shlex.split(run_line[len("# Run: "):])
    assert program == "ndtbound"
    monkeypatch.chdir(PRESETS.parent)
    status, from_file, err = run_cli(capsys, *args)
    assert (status, err) == (0, "")
    command = args[0]
    status, from_flags, _ = run_cli(capsys, command, *PRESET_FLAGS[preset.name].split())
    assert status == 0
    assert from_file == from_flags


@pytest.mark.parametrize(
    "key, value, message",
    [
        ("kt", "abc", "invalid int value: 'abc'"),
        ("format", "xml", "invalid choice: 'xml'"),
        ("envelope-order", "sideways", "invalid choice: 'sideways'"),
        ("grid", "1/3:1:x", "grid count must be an integer"),
        ("grid", "1:2", "colon grid form must be start:stop:count, got '1:2'"),
        ("grid", "1/5:1:0", "grid count must be positive, got 0"),
        ("grid", "1/5:1:1", "grid of one point needs start == stop"),
    ],
)
def test_bad_file_value_fails_like_the_flag(key, value, message, tmp_path, capsys):
    base = ["peak-sweep", "--kt", "3", "--kr", "3", "--files", "3", "--grid", "1:1:1"]
    status, _, flag_err = run_cli(capsys, *base, f"--{key}", value)
    assert status == 1 and message in flag_err
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(f"{key} = {value}\n")
    status, out, err = run_cli(capsys, "peak-sweep", "--config", str(cfg))
    assert (status, out) == (1, "")
    assert err.startswith(f"error: {cfg}: ") and message in err


def test_flags_replace_file_values_overlay_included(tmp_path):
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text("kt = 3\nkr = 3\nfiles = 3\ngrid = 1/3:1:3\noverlay = baseline, mn-scheme\n")
    config = parse_run_config(
        ["peak-sweep", "--config", str(cfg), "--kt", "4", "--overlay", "sengupta-bound"]
    )
    assert config.transmitters == 4 and config.receivers == 3
    assert config.mu_grid == (F(1, 3), F(2, 3), F(1))
    assert config.overlays == ("sengupta-bound",)
    assert parse_run_config(["peak-sweep", "--config", str(cfg)]).overlays == (
        "baseline",
        "mn-scheme",
    )


@pytest.mark.parametrize("key", ["envelope_order", "help", "config", "kt-ma"])
def test_unknown_file_key_exit_1(key, tmp_path, capsys):
    cfg = tmp_path / "typo.cfg"
    cfg.write_text(f"kt = 3\nkr = 3\nfiles = 3\n{key} = proof\n")
    status, out, err = run_cli(
        capsys, "point", "--config", str(cfg), "--mu", "1/2"
    )
    assert (status, out) == (1, "")
    assert f"{cfg}:4:" in err and repr(key) in err


def test_keys_of_other_commands_are_ignored(capsys):
    preset = str(PRESETS / "expected_kt5_kr20_n100.cfg")
    status, out, _ = run_cli(capsys, "point", "--config", preset, "--mu", "2/5")
    assert status == 0 and "value = " in out
    # kt is not read as an abbreviation of verify's --kt-max
    assert parse_run_config(["verify", "--config", preset]) == RunConfig("verify")
    dist = parse_run_config(["distribution", "--config", str(PRESETS / "peak_kt3_kr3.cfg")])
    assert (dist.receivers, dist.files, dist.mu_grid, dist.overlays) == (3, 3, None, ())


@pytest.mark.parametrize(
    "field, value",
    [
        ("command", "sideways-sweep"),
        ("command", ["verify"]),  # unhashable: it must reach the check, not the command table
        ("output_format", "xml"),
        ("output_format", "csv"),  # a table format; point prints a text or JSON report
        ("envelope_order", "sideways"),
        ("kind", "sideways"),
    ],
)
def test_run_config_rejects_unknown_choices(field, value):
    with pytest.raises(ValueError, match=field):
        RunConfig(**{"command": "point", "mu": F(1, 2), field: value})


# each command's flags before the command table, with their types, choices or
# actions; the one change since is point's formats, text|json in place of csv|json
ACCEPTED = {
    "peak-sweep": {
        "--config": None, "--kt": int, "--kr": int, "--files": int, "--grid": "grid",
        "--decimal": int, "--format": ("csv", "json"), "--out": None, "--overlay": "append",
        "--envelope-order": ("theorem", "proof"),
    },
    "expected-sweep": {
        "--config": None, "--kt": int, "--kr": int, "--files": int, "--grid": "grid",
        "--samples": int, "--seed": int, "--decimal": int, "--format": ("csv", "json"),
        "--out": None, "--overlay": "append", "--envelope-order": ("theorem", "proof"),
    },
    "distribution": {
        "--config": None, "--decimal": int, "--format": ("csv", "json"), "--out": None,
        "--kr": int, "--files": int,
    },
    "verify": {
        "--config": None, "--format": ("text", "json"), "--out": None, "--limit": int,
        "--kt-max": int,
    },
    "point": {
        "--config": None, "--kt": int, "--kr": int, "--files": int, "--mu": "rational",
        "--decimal": int, "--format": ("text", "json"), "--out": None,
        "--kind": ("peak", "expected"), "--envelope-order": ("theorem", "proof"),
    },
}


def _accepted(action):
    if action.choices is not None:
        return tuple(action.choices)
    if isinstance(action, argparse._AppendAction):
        return "append"
    # --grid parses as parse_grid does, but keeps a colon grid unbuilt
    return {cli._lazy_grid: "grid", parse_rational: "rational"}.get(action.type, action.type)


def test_command_table_contract():
    # every RunConfig setting but the three every command has comes from one option
    fields = list(RunConfig._fields)
    fields = sorted(set(fields) - {"command", "output_format", "output_path"})
    assert sorted(option.field for option in cli._OPTIONS.values()) == fields
    # every option is read by some command, and every command reads only options
    assert {key for row in _COMMANDS.values() for key in row.options} == set(cli._OPTIONS)
    parser = build_parser()
    (subparsers,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    actions = {
        name: [action for action in command._actions if action.dest != "help"]
        for name, command in subparsers.choices.items()
    }
    assert {
        name: {action.option_strings[-1]: _accepted(action) for action in command}
        for name, command in actions.items()
    } == ACCEPTED
    # argparse defaults stay None: RunConfig holds every default
    assert {action.default for command in actions.values() for action in command} == {None}


@pytest.mark.parametrize(
    "kind, order",
    [
        pytest.param("expected", "theorem", id="theorem"),
        pytest.param("expected", "proof", id="proof"),
        pytest.param("peak", "theorem", id="peak-theorem"),
        pytest.param("peak", "proof", id="peak-proof"),
    ],
)
def test_point_expected_value_is_the_category_average(kind, order, capsys):
    status, out, _ = run_cli(
        capsys, "point", "--kind", kind, "--envelope-order", order,
        "--kt", "5", "--kr", "20", "--files", "100", "--mu", "2/5", "--format", "json",
    )
    assert status == 0
    payload = json.loads(out)
    net = NetworkConfig(5, 20, 100, F(2, 5))
    if kind == "peak":
        # the peak bound is the average over the one category s = kr
        assert F(payload["value"]) == peak_ndt_lower_bound(net, order)
        detail = category_bound_detail(5, 20, F(2), order)
        assert F(payload["value"]) == detail.value
        assert (payload["argmax_cut"], payload["segment"]) == (
            detail.best_cut, list(detail.segment)
        )
        assert "categories" not in payload
    else:
        expected = expected_ndt_lower_bound(net, order)
        assert F(payload["value"]) == expected
        categories = payload["categories"]
        assert sum(F(c["mass"]) * F(c["bound"]) for c in categories) == expected


@pytest.mark.parametrize(
    "args, message",
    [
        (["verify", "--kt", "3"], "unrecognized arguments: --kt 3"),  # not --kt-max
        (["point", "--mu", "1/2", "--env", "proof"], "unrecognized arguments: --env proof"),
        # verify prints no rationals, so it takes no --decimal
        (["verify", "--decimal", "3"], "unrecognized arguments: --decimal 3"),
    ],
)
def test_abbreviated_flags_exit_1(args, message, capsys):
    status, out, err = run_cli(capsys, *args)
    assert (status, out) == (1, "")
    assert message in err


SWEEP = ["--kt", "3", "--kr", "3", "--files", "3", "--grid", "1/3:1:3"]


@pytest.mark.parametrize(
    "args, message",
    [
        (["peak-sweep", "--kt", "3"], "missing required options: --grid"),
        (["point", "--kt", "3"], "missing required options: --mu"),
        (["expected-sweep", *SWEEP, "--samples", "0"], "--samples must be positive, got 0"),
        (["expected-sweep", *SWEEP, "--samples", "5", "--seed", "-1"],
         "--seed must be nonnegative, got -1"),
        (["expected-sweep", *SWEEP, "--decimal", "-1"], "--decimal must be nonnegative, got -1"),
        (["distribution", "--decimal", "-1"], "--decimal must be nonnegative, got -1"),
        (["point", "--mu", "1/2", "--decimal", "-1"], "--decimal must be nonnegative, got -1"),
        (["peak-sweep", *SWEEP, "--overlay", "nope"], "unknown overlay 'nope'; registered: "),
        (["verify", "--limit", "0"], "--limit must lie in [1, 16], got 0"),
        (["verify", "--kt-max", "11"], "--kt-max must lie in [1, 10], got 11"),
        # refused while parsing --grid, before any of its points is built
        (["peak-sweep", "--kt", "3", "--grid", "1/3:1:1000003"],
         "a grid may have at most 1000000 points, got 1000003"),
        # verify and point print a text report, not CSV
        (["verify", "--format", "csv"], "argument --format: invalid choice: 'csv'"),
        (["point", "--mu", "1/2", "--format", "csv"], "argument --format: invalid choice: 'csv'"),
        # to_decimal would build 10**4301: the cap bounds its work
        (["peak-sweep", *SWEEP, "--decimal", "4301"], "--decimal may be at most 4300, got 4301"),
        (["expected-sweep", "--grid", "1/5:1:41", "--samples", "1000000"],
         "Monte-Carlo sampling needs --samples * grid points * --kr = 820000000 draws, over "
         "the cap of 100000000"),
        (["peak-sweep", "--kt", "2001", "--grid", "1/2:1:2"], "--kt may be at most 2000, got 2001"),
        (["point", "--kt", "2001", "--mu", "1/2"], "--kt may be at most 2000, got 2001"),
        # refused from the text, before 10**100000000 is built
        (["point", "--mu", "1e-100000000"], "cannot parse '1e-100000000' as an exact rational"),
        (["peak-sweep", "--grid", "1e-3000000:1:3"],
         "cannot parse '1e-3000000' as an exact rational"),
        (["expected-sweep", "--kt", "20", "--kr", "200", "--files", "1000",
          "--grid", "1/20:1:1000000"],
         "the sweep needs grid points * min(--files, --kr) = 200000000 category bounds, over "
         "the cap of 1000000"),
    ],
)
def test_bad_settings_exit_1_before_any_work(args, message, capsys, monkeypatch):
    def no_work(*_args, **_kwargs):
        raise AssertionError("computed before the settings were checked")

    for name in (
        "sweep", "sample_demands", "distinct_distribution", "full_verification",
        "category_bound_detail", "to_decimal",
    ):
        monkeypatch.setattr(cli, name, no_work)
    status, out, err = run_cli(capsys, *args)
    assert (status, out) == (1, "")
    assert err.startswith(f"error: {message}")


def test_zero_transmitters_exit_1_with_a_message(capsys):
    status, out, err = run_cli(capsys, "peak-sweep", "--kt", "0", "--grid", "1/2:1:2")
    assert (status, out, err) == (1, "", "error: transmitters must be a positive integer, got 0\n")


def test_bad_settings_fail_from_files_and_direct_construction(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("grid = 1/3:1:3\noverlay = baseline, nope\n")
    status, out, err = run_cli(capsys, "peak-sweep", "--config", str(cfg))
    assert (status, out) == (1, "") and "unknown overlay 'nope'" in err
    with pytest.raises(ValueError, match="missing required options: --grid"):
        RunConfig("expected-sweep")
    with pytest.raises(ValueError, match="--seed must be nonnegative"):
        RunConfig("distribution", seed=-1)
    cfg.write_text("format = csv\n")
    for request in (["verify"], ["point", "--mu", "1/2"]):
        status, out, err = run_cli(capsys, *request, "--config", str(cfg))
        assert (status, out) == (1, "")
        assert err.startswith(f"error: {cfg}: argument --format: invalid choice: 'csv'")
    with pytest.raises(ValueError, match="output_format must be one of"):
        RunConfig("verify", output_format="csv")
    assert RunConfig("verify").output_format == "text"
    assert RunConfig("point", mu=F(1, 2)).output_format == "text"


@pytest.mark.parametrize(
    "args, cells",
    [
        (["distribution", "--files", "3000", "--kr", "3000"], 3000 * 3000),
        (["distribution", "--files", "2000", "--kr", "2001"], 2001 * 2000),
        (["expected-sweep", "--kr", "4001", "--files", "1000", "--grid", "1/5:1:3"], 4001 * 1000),
        (["point", "--kind", "expected", "--kr", "2001", "--files", "9000", "--mu", "1/2"],
         2001 * 2001),
    ],
)
def test_pmf_cost_is_capped_before_any_work(args, cells, capsys, monkeypatch):
    def no_work(*_args, **_kwargs):
        raise AssertionError("computed before the settings were checked")

    for name in ("sweep", "distinct_distribution", "bound_distribution", "category_bound_detail"):
        monkeypatch.setattr(cli, name, no_work)
    status, out, err = run_cli(capsys, *args)
    assert (status, out) == (1, "")
    assert err.startswith(
        f"error: the pmf needs --kr * min(--files, --kr) = {cells} steps, over the cap of "
        f"{cli.MAX_PMF_CELLS}"
    )


def test_cap_messages_print_products_past_the_digit_limit(capsys):
    # the products have more than 4300 digits, which str() of an int refuses
    nines, big = "9" * 4299, "1" * 4299
    for args, message in (
        (["expected-sweep", "--grid", "1/5:1:41", "--kr", "2000", "--samples", nines],
         "Monte-Carlo sampling needs --samples * grid points * --kr = "
         f"{Decimal(41 * int(nines) * 2000)} draws, over the cap of {cli.MAX_DRAWS}"),
        (["distribution", "--files", big, "--kr", big],
         f"the pmf needs --kr * min(--files, --kr) = {Decimal(int(big) ** 2)} steps, over the "
         f"cap of {cli.MAX_PMF_CELLS}"),
    ):
        assert run_cli(capsys, *args) == (1, "", f"error: {message}\n")


def test_settings_past_the_digit_limit_echo_their_own_row():
    # a config built in code may hold an int that str() refuses: a valid one builds,
    # and an invalid one raises its row's message, with the int in full
    huge, grid = 10**5000, (F(1, 5), F(1))
    assert RunConfig("expected-sweep", mu_grid=grid, seed=huge).seed == huge
    assert RunConfig("expected-sweep", mu_grid=grid).samples is None
    for field, value, message in (
        ("samples", -huge, f"--samples must be positive, got {Decimal(-huge)}"),
        ("transmitters", huge, f"--kt may be at most {cli.MAX_TRANSMITTERS}, got {Decimal(huge)}"),
    ):
        with pytest.raises(ValueError) as raised:
            RunConfig("expected-sweep", mu_grid=grid, **{field: value})
        assert str(raised.value) == message


def test_help_names_every_option_of_each_command(capsys):
    # argparse %-formats help text, so a stray % in a help string would crash here
    with pytest.raises(SystemExit) as exit_info:
        main(["--help"])
    assert exit_info.value.code == 0
    out = capsys.readouterr().out
    assert all(command in out for command in _COMMANDS)
    for command, row in _COMMANDS.items():
        with pytest.raises(SystemExit) as exit_info:
            main([command, "--help"])
        assert exit_info.value.code == 0
        out = capsys.readouterr().out
        for flag in ("--config", "--format", "--out", *(f"--{key}" for key in row.options)):
            assert re.search(rf"{flag}\b(?!-)", out), (command, flag)


def test_pmf_cap_spares_runs_without_a_pmf():
    assert cli.MAX_PMF_CELLS == 4 * 10**6
    big = dict(receivers=3000, files=3000)
    # on the cap itself, and bounds that build no pmf, are accepted
    RunConfig("distribution", receivers=2000, files=2000)
    RunConfig("distribution", receivers=4000, files=1000)
    RunConfig("point", mu=F(1, 2), kind="peak", **big)
    RunConfig("peak-sweep", mu_grid=(F(1),), **big)
    with pytest.raises(ValueError, match="the pmf needs"):
        RunConfig("point", mu=F(1, 2), kind="expected", **big)


def test_decimal_and_sampling_caps_admit_their_limits():
    assert (cli.MAX_DECIMAL, cli.MAX_DRAWS, cli.MAX_CATEGORY_BOUNDS) == (4300, 10**8, 10**6)
    RunConfig("distribution", decimal=cli.MAX_DECIMAL)
    assert cli.MAX_TRANSMITTERS == 2000
    RunConfig("point", transmitters=cli.MAX_TRANSMITTERS, mu=F(1, 2))
    # a command that reads no --kt is refused for the cap first, as for --decimal
    with pytest.raises(ValueError, match="^--kt may be at most 2000, got 2001$"):
        RunConfig("distribution", transmitters=cli.MAX_TRANSMITTERS + 1)
    # the README's example: 100,000 samples on 41 points with 20 receivers
    RunConfig("expected-sweep", mu_grid=parse_grid("1/5:1:41"), samples=100_000)
    one_point = dict(receivers=1, files=1, mu_grid=(F(1),))
    RunConfig("expected-sweep", samples=cli.MAX_DRAWS, **one_point)
    with pytest.raises(ValueError, match="Monte-Carlo sampling needs"):
        RunConfig("expected-sweep", samples=cli.MAX_DRAWS + 1, **one_point)
    # a command that reads no --samples is refused for reading it, not for its draws
    with pytest.raises(ValueError, match="^peak-sweep does not read --samples$"):
        RunConfig("peak-sweep", samples=cli.MAX_DRAWS + 1, **one_point)
    # 1000 points * 1000 categories sit on the category-bound cap
    on_cap = dict(receivers=1000, files=2000, mu_grid=parse_grid("1/5:1:1000"))
    RunConfig("expected-sweep", **on_cap)
    # categories are min(--files, --kr), and a peak sweep has one per point
    RunConfig("expected-sweep", **on_cap | dict(receivers=2000, files=1000))
    RunConfig("peak-sweep", **on_cap | dict(receivers=2000))
    with pytest.raises(ValueError, match="= 1001000 category bounds, over the cap of 1000000$"):
        RunConfig("expected-sweep", **on_cap | dict(mu_grid=parse_grid("1/5:1:1001")))
    # the benchmark's largest sweep, kt20/kr200/N1000 on 41 points, is far inside
    RunConfig("expected-sweep", transmitters=20, receivers=200, files=1000,
              mu_grid=parse_grid("1/20:1:41"))


def test_decimal_cap_renders_in_full(capsys):
    status, out, _ = run_cli(capsys, "peak-sweep", *SWEEP, "--decimal", str(cli.MAX_DECIMAL))
    assert status == 0
    lines = out.splitlines()
    assert lines[0] == "mu,value"
    assert lines[1] == f"0.{'3' * 4300},1.{'6' * 4299}7"
    assert lines[3] == f"1.{'0' * 4300},1.{'0' * 4300}"


@contextlib.contextmanager
def int_digit_limit(limit: int):
    """The interpreter's int-to-str digit limit, set for the block, then restored."""
    if not hasattr(sys, "set_int_max_str_digits"):
        pytest.skip("this interpreter has no int-to-str digit limit")
    default = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(limit)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(default)


def test_exact_values_print_past_the_int_digit_limit(capsys):
    # the masses of 2200 receivers over 100 files have denominators of up to 4399 digits
    with int_digit_limit(4300):
        status, out, err = run_cli(capsys, "distribution", "--files", "100", "--kr", "2200")
    assert (status, err) == (0, "")
    masses = distinct_distribution(100, 2200).masses
    with int_digit_limit(0):  # to parse the output back
        rows = [line.split(",") for line in out.splitlines()[1:]]
        assert {int(s): F(mass) for s, mass in rows} == masses
    assert [int(s) for s, _ in rows] == list(masses)


@settings(max_examples=100, deadline=None)
@given(st.builds(F, st.integers(-(10**1500), 10**1500), st.integers(1, 10**1500)))
@example(F(10**700))
@example(F(-3 * 10**700, 7))
@example(F(7, 10**700))
def test_exact_rendering_is_str_at_any_size(value):
    # 640 is the lowest limit the interpreter takes: longer parts cannot pass str()
    with int_digit_limit(640):
        text = cli._render(RunConfig("distribution"), value)
    with int_digit_limit(0):
        assert text == str(value)


# a valid setting away from its default, for every option
AWAY_FROM_DEFAULT = {
    "kt": 3, "kr": 3, "files": 3, "grid": (F(1),), "mu": F(1, 2), "samples": 5, "seed": 3,
    "decimal": 2, "overlay": ("baseline",), "envelope-order": "proof", "kind": "expected",
    "limit": 4, "kt-max": 3,
}
REQUIRED = {"peak-sweep": {"mu_grid": (F(1),)}, "expected-sweep": {"mu_grid": (F(1),)},
            "point": {"mu": F(1, 2)}}


@pytest.mark.parametrize("command", sorted(_COMMANDS))
def test_run_config_refuses_settings_its_command_does_not_read(command):
    required = REQUIRED.get(command, {})
    for key, value in AWAY_FROM_DEFAULT.items():
        field = cli._OPTIONS[key].field
        setting = required | {field: value}
        if key in _COMMANDS[command].options:
            RunConfig(command, **setting)
        else:
            with pytest.raises(ValueError, match=f"^{command} does not read --{key}$"):
                RunConfig(command, **setting)
        # a setting left at its default is not a request
        if field not in required:
            RunConfig(command, **required | {field: RunConfig._field_defaults[field]})


INT_FLAGS = ("kt", "kr", "files", "samples", "seed", "decimal", "limit", "kt-max")


@pytest.mark.parametrize("key", INT_FLAGS)
def test_run_config_refuses_bool_and_float_int_settings(key):
    # a config built in code skips argparse's type=int: seed=True ran as seed 1
    assert {k for k, option in cli._OPTIONS.items() if option.keywords.get("type") is int} == (
        set(INT_FLAGS)
    )
    command = "verify" if key in ("limit", "kt-max") else "expected-sweep"
    required = REQUIRED.get(command, {})
    field, value = cli._OPTIONS[key].field, AWAY_FROM_DEFAULT[key]
    RunConfig(command, **required | {field: value})
    for bad in (True, float(value)):
        with pytest.raises(TypeError, match=re.escape(f"--{key} must be an int, got {bad!r}")):
            RunConfig(command, **required | {field: bad})


@pytest.mark.parametrize("key", [key for key in INT_FLAGS if key not in ("samples", "decimal")])
def test_run_config_refuses_none_for_numeric_int_settings(key):
    # None means "unset" only for --samples and --decimal, whose default it is;
    # elsewhere it failed as a bare comparison, or passed where no row compared it
    field = cli._OPTIONS[key].field
    assert RunConfig._field_defaults[field] is not None
    for command in ("peak-sweep", "verify"):
        with pytest.raises(TypeError, match=re.escape(f"--{key} must be an int, got None")):
            RunConfig(command, **REQUIRED.get(command, {}) | {field: None})


def test_run_config_names_the_setting_of_an_inexact_rational():
    # floats and bools are refused as _as_fraction refuses them, under the flag's name
    for bad in (0.5, True):
        with pytest.raises(TypeError, match=re.escape(
            f"--mu must be an exact rational (int, Fraction or string), got {bad!r}"
        )):
            RunConfig("point", mu=bad)
        with pytest.raises(TypeError, match=re.escape(
            f"--grid must be an exact rational (int, Fraction or string), got {bad!r}"
        )):
            RunConfig("peak-sweep", mu_grid=(F(1, 2), bad))


def test_run_config_refuses_an_output_path_that_is_not_a_path(tmp_path, capsys):
    # open() takes an int or a bool as a file descriptor, and would write the table to
    # it and close it (True and 1 are stdout, 2 is stderr); a float would fail only
    # inside open(), with a message that names no setting
    for bad in (True, 1, 2, 3.5, b"out.csv"):
        with pytest.raises(TypeError, match=re.escape(
            f"--out must be a str or os.PathLike path, got {bad!r}"
        )):
            RunConfig("distribution", files=2, receivers=2, output_path=bad)
    path = tmp_path / "out.csv"
    assert cli.run(RunConfig("distribution", files=2, receivers=2, output_path=path)) == 0
    _, out, _ = run_cli(capsys, "distribution", "--files", "2", "--kr", "2")
    assert path.read_text(encoding="utf-8") == out


def test_an_empty_out_is_refused_not_read_as_stdout(tmp_path, capsys):
    message = "--out must name a file, got an empty path"
    with pytest.raises(ValueError, match=f"^{message}$"):
        RunConfig("distribution", files=2, receivers=2, output_path="")
    cfg = tmp_path / "empty.cfg"
    cfg.write_text("out =\n")
    for source in (["--out", ""], ["--config", str(cfg)]):
        status, out, err = run_cli(capsys, "distribution", "--files", "2", "--kr", "2", *source)
        assert (status, out, err) == (1, "", f"error: {message}\n")


def test_unread_settings_are_refused_last():
    with pytest.raises(ValueError, match="peak-sweep does not read --samples"):
        cli.run(RunConfig(
            "peak-sweep", transmitters=2, receivers=2, files=2, mu_grid=(F(1),), samples=5,
            seed=3, limit=4, kind="expected",
        ))
    # a setting's own check speaks first
    with pytest.raises(ValueError, match="--seed must be nonnegative"):
        RunConfig("distribution", seed=-1)
    with pytest.raises(ValueError, match="--limit must lie in"):
        RunConfig("distribution", limit=0)


def test_sampled_grid_must_be_shorter_than_the_seed_stride(capsys, monkeypatch):
    monkeypatch.setattr(cli, "SUB_SEED_STRIDE", 3)
    status, out, err = run_cli(capsys, "expected-sweep", *SWEEP, "--samples", "5")
    assert (status, out) == (1, "")
    assert "a sampled grid must have fewer than 3 points, got 3" in err
    # two points fit below the stride, and an unsampled grid has no sub-seeds
    assert run_cli(capsys, "expected-sweep", *SWEEP[:-1], "1/3:1:2", "--samples", "5")[0] == 0
    assert run_cli(capsys, "expected-sweep", *SWEEP)[0] == 0


def test_grid_size_is_capped_in_both_forms(monkeypatch):
    monkeypatch.setattr(cli, "MAX_GRID_POINTS", 2)
    for text in ("1/3:1:3", "1/3,2/3,1"):
        with pytest.raises(CliError, match="a grid may have at most 2 points, got 3"):
            parse_grid(text)
    assert parse_grid("1/2:1:2") == parse_grid("1/2,1") == (F(1, 2), F(1))


def test_an_over_cap_comma_grid_is_refused_before_it_is_split(monkeypatch):
    # 100,000 points in 0.4 MB of text: split into parts, they took 6 MB to refuse
    monkeypatch.setattr(cli, "MAX_GRID_POINTS", 1000)
    text = ",".join(["1/2"] * 100_000)
    tracemalloc.start()
    try:
        with pytest.raises(CliError, match="a grid may have at most 1000 points, got 100000"):
            parse_grid(text)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < len(text), peak


def test_run_config_caps_a_grid_built_in_code(monkeypatch):
    # the parser's cap holds for a RunConfig built in code, read from the module
    # when the record is checked, and before any grid point is built
    def no_points(_grid):
        raise AssertionError("grid points built before the grid size was checked")

    monkeypatch.setattr(cli, "MAX_GRID_POINTS", 3)
    accepted = RunConfig("peak-sweep", mu_grid=cli._Spaced(F(1, 5), F(1), 3))
    assert accepted.mu_grid == (F(1, 5), F(3, 5), F(1))
    monkeypatch.setattr(cli._Spaced, "__iter__", no_points)
    with pytest.raises(ValueError, match="^a grid may have at most 3 points, got 4$"):
        RunConfig("peak-sweep", mu_grid=cli._Spaced(F(1, 5), F(1), 4))


def test_a_rejected_request_never_builds_its_grid(capsys, monkeypatch):
    # a colon grid at the cap stays start:stop:count until every setting has passed
    def no_points(_grid):
        raise AssertionError("grid points built before the settings were checked")

    monkeypatch.setattr(cli, "MAX_GRID_POINTS", 3)
    monkeypatch.setattr(cli._Spaced, "__iter__", no_points)
    status, out, err = run_cli(
        capsys, "expected-sweep", "--grid", "1/5:1:3", "--samples", "5", "--decimal", "-1"
    )
    assert (status, out) == (1, "")
    assert err.startswith("error: --decimal must be nonnegative, got -1")
    monkeypatch.undo()
    grid = parse_run_config(["peak-sweep", "--grid", "1/3:1:3"]).mu_grid
    assert type(grid) is tuple and grid == (F(1, 3), F(2, 3), F(1))


# full standard output of small requests, byte for byte: point (peak and
# expected, text and JSON, both orders), --decimal, 'unavailable' overlay
# cells, a Monte-Carlo column, and the JSON metadata of each table command,
# which echoes only the settings that command reads
RENDERED = [
    (
        "point --kt 3 --kr 4 --files 4 --mu 1/2",
        """\
command = point
kind = peak
kt = 3
kr = 4
files = 4
mu = 1/2
t = 3/2
envelope_order = theorem
value = 3/2
argmax_cut = 1
segment = [1, 2]
""",
    ),
    (
        "point --kt 3 --kr 4 --files 4 --mu 1/2 --format json",
        """\
{
  "command": "point",
  "kind": "peak",
  "kt": 3,
  "kr": 4,
  "files": 4,
  "mu": "1/2",
  "t": "3/2",
  "envelope_order": "theorem",
  "value": "3/2",
  "argmax_cut": 1,
  "segment": [
    1,
    2
  ]
}
""",
    ),
    (
        "point --kt 3 --kr 4 --files 3 --mu 1/2 --kind expected --decimal 3",
        """\
command = point
kind = expected
kt = 3
kr = 4
files = 3
mu = 0.500
t = 1.500
envelope_order = theorem
value = 1.235
category s=1: mass=0.037 bound=1.000 argmax_cut=1 segment=[1, 3]
category s=2: mass=0.519 bound=1.167 argmax_cut=1 segment=[1, 2]
category s=3: mass=0.444 bound=1.333 argmax_cut=1 segment=[1, 2]
""",
    ),
    (
        "point --kt 3 --kr 4 --files 3 --mu 1/2 --kind expected --envelope-order proof",
        """\
command = point
kind = expected
kt = 3
kr = 4
files = 3
mu = 1/2
t = 3/2
envelope_order = proof
value = 103/81
category s=1: mass=1/27 bound=1 argmax_cut=None segment=[1, 3]
category s=2: mass=14/27 bound=7/6 argmax_cut=None segment=[1, 2]
category s=3: mass=4/9 bound=17/12 argmax_cut=None segment=[1, 2]
""",
    ),
    (
        "distribution --files 7 --kr 3 --decimal 4",
        """\
s,mass
1,0.0204
2,0.3673
3,0.6122
""",
    ),
    (
        "distribution --files 7 --kr 3 --format json",
        """\
{
  "metadata": {
    "command": "distribution",
    "kr": 3,
    "files": 7,
    "version": "0.1.0"
  },
  "rows": [
    {
      "s": "1",
      "mass": "1/49"
    },
    {
      "s": "2",
      "mass": "18/49"
    },
    {
      "s": "3",
      "mass": "30/49"
    }
  ]
}
""",
    ),
    (
        "peak-sweep --config presets/peak_kt5_kr5.cfg --overlay mn-scheme --decimal 4",
        """\
mu,value,mn-scheme
0.2000,1.8000,unavailable
0.2200,1.7200,unavailable
0.2400,1.6400,unavailable
0.2600,1.5600,unavailable
0.2800,1.4800,unavailable
0.3000,1.4000,unavailable
0.3200,1.3300,unavailable
0.3400,1.2850,unavailable
0.3600,1.2400,unavailable
0.3800,1.2200,unavailable
0.4000,1.2000,unavailable
0.4200,1.1867,unavailable
0.4400,1.1733,unavailable
0.4600,1.1600,unavailable
0.4800,1.1467,unavailable
0.5000,1.1333,unavailable
0.5200,1.1200,unavailable
0.5400,1.1150,unavailable
0.5600,1.1100,unavailable
0.5800,1.1050,unavailable
0.6000,1.1000,unavailable
0.6200,1.0950,unavailable
0.6400,1.0900,unavailable
0.6600,1.0850,unavailable
0.6800,1.0800,unavailable
0.7000,1.0750,unavailable
0.7200,1.0700,unavailable
0.7400,1.0650,unavailable
0.7600,1.0600,unavailable
0.7800,1.0550,unavailable
0.8000,1.0500,unavailable
0.8200,1.0450,unavailable
0.8400,1.0400,unavailable
0.8600,1.0350,unavailable
0.8800,1.0300,unavailable
0.9000,1.0250,unavailable
0.9200,1.0200,unavailable
0.9400,1.0150,unavailable
0.9600,1.0100,unavailable
0.9800,1.0050,unavailable
1.0000,1.0000,unavailable
""",
    ),
    (
        "peak-sweep --kt 2 --kr 3 --grid 1/2,1 --format json --decimal 2 --overlay baseline",
        """\
{
  "metadata": {
    "command": "peak-sweep",
    "kt": 2,
    "kr": 3,
    "files": 100,
    "envelope_order": "theorem",
    "version": "0.1.0"
  },
  "rows": [
    {
      "mu": "0.50",
      "value": "2.00",
      "baseline": "1.00"
    },
    {
      "mu": "1.00",
      "value": "1.50",
      "baseline": "1.00"
    }
  ]
}
""",
    ),
    (
        "expected-sweep --kt 2 --kr 3 --files 3 --grid 1/2:1:2 --samples 4 --seed 1 --format json",
        """\
{
  "metadata": {
    "command": "expected-sweep",
    "kt": 2,
    "kr": 3,
    "files": 3,
    "samples": 4,
    "seed": 1,
    "envelope_order": "theorem",
    "version": "0.1.0"
  },
  "rows": [
    {
      "mu": "1/2",
      "value": "14/9",
      "mc_value": "13/8"
    },
    {
      "mu": "1",
      "value": "10/9",
      "mc_value": "1"
    }
  ]
}
""",
    ),
]


@pytest.mark.parametrize("request_line, stdout", RENDERED, ids=[r for r, _ in RENDERED])
def test_rendered_output_is_byte_identical(request_line, stdout, capsys, monkeypatch):
    monkeypatch.chdir(PRESETS.parent)
    assert run_cli(capsys, *request_line.split()) == (0, stdout, "")
