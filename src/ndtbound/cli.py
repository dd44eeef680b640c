"""Command-line front end: bound sweeps, pmf dumps, oracle suites, point probes.

Commands
--------
peak-sweep / expected-sweep
    Evaluate one bound over a cache-size grid, optionally with overlay
    curves and (expected only) a Monte-Carlo cross-check column.
distribution
    Dump the exact distinct-count pmf.
verify
    Run every oracle suite and report one line per check family.
point
    Evaluate a single bound value with the maximizing cut size and the
    active envelope segment, read from the integer chords behind the value
    (no hull is built).

Exit codes: 0 ok, 1 bad configuration or a failed write, 2 infeasible (peak
bound with fewer files than receivers).  Output is byte-identical for
identical inputs, including the seed.
"""

import argparse
import json
import os
import sys
from collections import Counter
from contextlib import nullcontext
from fractions import Fraction
from itertools import chain, repeat
from typing import Callable, Iterable, NamedTuple

from . import __version__
from .bounds import (
    BOUND_KINDS,
    ENVELOPE_ORDERS,
    InfeasibleLibrary,
    NetworkConfig,
    bound_distribution,
    category_bound,
    category_bound_detail,
    sweep,
)
from .combinatorics import (
    MAX_LITERAL_DIGITS, _as_fraction, _check_int, _checked_record, _digits, _echo, to_decimal,
)
from .comparator import Unavailable, default_registry
from .demands import DistinctCountDistribution, distinct_distribution, sample_demands
from .oracle import MAX_LIMIT, MAX_LP_TRANSMITTERS, full_verification

# fixed stride mixing the user seed with the grid index for per-point
# Monte-Carlo sub-streams
SUB_SEED_STRIDE = 1_000_003

# larger grids are refused before any point is built (a preset's grid has 41; at
# the cap a comma-separated grid parses in 3.8 s, and a kt-3 peak sweep over it
# takes 21 s with a peak RSS of 470 MB, as a subprocess on a shared 2-CPU host)
MAX_GRID_POINTS = 10**6

# a larger pmf, receivers * min(files, receivers) Stirling-row steps, is refused
# before it is built (7 s at the cap, 2000 receivers and files; it counts steps, not digits)
MAX_PMF_CELLS = 4 * 10**6

# an expected sweep past grid points * min(files, receivers) category bounds is
# refused (at the cap, 500 points at 2000 receivers and files, the whole request
# takes 7-8 s at kt = 20 and 98 s at kt = 2000 in the theorem order, which averages
# that many category bounds, and 5.3 s and 71 s in the proof order, which sums each
# point's terms over as many counts, on a shared 2-CPU host)
MAX_CATEGORY_BOUNDS = 10**6

# Monte-Carlo columns past samples * grid points * receivers draws are refused
# (the README's 100,000-sample, 41-point, 20-receiver example draws 8.2 * 10**7)
MAX_DRAWS = 10**8

# a larger --kt is refused before any bound is computed (at the cap a 41-point
# peak sweep computes its bounds in about 16 ms, 1 ms at --kt 20, and the request
# takes 0.14 s with interpreter start, 0.12 s at --kt 20)
MAX_TRANSMITTERS = 2000

# --decimal's cap: to_decimal builds 10**digits, so the cap bounds its work (it
# prints any number of digits); the same number as the library's limit on literals
MAX_DECIMAL = MAX_LITERAL_DIGITS


class CliError(Exception):
    """Invalid configuration; maps to exit status 1."""


@_checked_record
class RunConfig(NamedTuple):
    """One CLI run; the field defaults (``_field_defaults``) are the CLI defaults."""

    command: str
    transmitters: int = 5
    receivers: int = 20
    files: int = 100
    mu_grid: tuple[Fraction, ...] | None = None
    mu: Fraction | None = None
    samples: int | None = None
    seed: int = 0
    decimal: int | None = None
    output_format: str | None = None  # None: the command's first format
    output_path: str | os.PathLike | None = None
    overlays: tuple[str, ...] = ()
    envelope_order: str = "theorem"
    kind: str = "peak"
    limit: int = 16
    max_transmitters: int = 6

    def _checked(self):
        if not isinstance(self.command, str) or self.command not in _COMMANDS:
            raise ValueError(
                f"command must be one of {tuple(_COMMANDS)}, got {_echo(self.command, True)}"
            )
        row = _COMMANDS[self.command]
        # checked as normalized, on a record built past the constructor, since
        # _replace would run these checks again
        self = tuple.__new__(RunConfig, {
            **self._asdict(),
            "output_format": row.formats[0] if self.output_format is None else self.output_format,
            "overlays": tuple(self.overlays),
            "mu": None if self.mu is None else _as_fraction(self.mu, "--mu"),
        }.values())
        choices = [(option.field, option.keywords["choices"])
                   for option in _OPTIONS.values() if "choices" in option.keywords]
        for name, allowed in [("output_format", row.formats), *choices]:
            value = getattr(self, name)
            if value not in allowed:
                raise ValueError(f"{name} must be one of {allowed}, got {_echo(value, True)}")
        # flags and config files parse ints; a config built in code may hold a bool, a
        # float, or a None that means "unset" only where it is the default
        for key, option in _OPTIONS.items():
            value = getattr(self, option.field)
            unset = value is None and RunConfig._field_defaults[option.field] is None
            if option.keywords.get("type") is int and not unset:
                _check_int(f"--{key}", value)
        # open() would take an int, or a bool, as a file descriptor to write to and close
        if not isinstance(self.output_path, (str, os.PathLike, type(None))):
            raise TypeError(
                f"--out must be a str or os.PathLike path, got {_echo(self.output_path, True)}"
            )
        known = default_registry().names()
        unknown = next((name for name in self.overlays if name not in known), None)
        points = 0 if self.mu_grid is None else len(self.mu_grid)
        sampled = points if self.samples else 0
        # the commands that build the exact pmf; point --kind peak needs no pmf
        pmf = self.command in ("distribution", "expected-sweep") or (
            (self.command, self.kind) == ("point", "expected")
        )
        cells = self.receivers * min(self.files, self.receivers) if pmf else 0
        # an expected sweep bounds every category at every point; a peak sweep
        # bounds one category per point, which the grid-size row below bounds
        categories = (
            points * min(self.files, self.receivers) if self.command == "expected-sweep" else 0
        )
        # Monte-Carlo draws, counted for the commands that read --samples; sampled
        # is 0 when --samples is unset, and testing it keeps None out of the product
        draws = (
            sampled * self.samples * self.receivers if sampled and "samples" in row.options else 0
        )
        read = {_OPTIONS[key].field for key in row.options}
        unread = next((
            key for key, option in _OPTIONS.items()
            if option.field not in read
            and getattr(self, option.field) != RunConfig._field_defaults[option.field]
        ), None)
        # the other settings, one row each, all checked before any bound is computed;
        # a row is (bad, template, *values), and only the row that fires is formatted,
        # its values through _echo, so that a setting of any size is echoed
        for bad, template, *values in (
            ("grid" in row.options and self.mu_grid is None, "missing required options: --grid"),
            ("mu" in row.options and self.mu is None, "missing required options: --mu"),
            # the parser's check, also for a grid built in code; len builds no point
            (points > MAX_GRID_POINTS,
             "a grid may have at most {} points, got {}", MAX_GRID_POINTS, points),
            (self.samples is not None and self.samples < 1,
             "--samples must be positive, got {}", self.samples),
            # random.Random seeds with |seed|, so seed -1 would replay seed 1
            (self.seed < 0, "--seed must be nonnegative, got {}", self.seed),
            # from the stride on, per-point sub-seeds reach the next seed's streams
            (sampled >= SUB_SEED_STRIDE,
             "a sampled grid must have fewer than {} points, got {}", SUB_SEED_STRIDE, sampled),
            (draws > MAX_DRAWS,
             "Monte-Carlo sampling needs --samples * grid points * --kr = {} draws, over the "
             "cap of {}", draws, MAX_DRAWS),
            (unknown is not None,
             "unknown overlay {}; registered: {}", _echo(unknown, True), ", ".join(known)),
            # an empty path would silently write to stdout
            (self.output_path == "", "--out must name a file, got an empty path"),
            (self.decimal is not None and self.decimal < 0,
             "--decimal must be nonnegative, got {}", self.decimal),
            (self.decimal is not None and self.decimal > MAX_DECIMAL,
             "--decimal may be at most {}, got {}", MAX_DECIMAL, self.decimal),
            (self.transmitters > MAX_TRANSMITTERS,
             "--kt may be at most {}, got {}", MAX_TRANSMITTERS, self.transmitters),
            (not 1 <= self.limit <= MAX_LIMIT,
             "--limit must lie in [1, {}], got {}", MAX_LIMIT, self.limit),
            (not 1 <= self.max_transmitters <= MAX_LP_TRANSMITTERS,
             "--kt-max must lie in [1, {}], got {}", MAX_LP_TRANSMITTERS, self.max_transmitters),
            (cells > MAX_PMF_CELLS,
             "the pmf needs --kr * min(--files, --kr) = {} steps, over the cap of {}",
             cells, MAX_PMF_CELLS),
            (categories > MAX_CATEGORY_BOUNDS,
             "the sweep needs grid points * min(--files, --kr) = {} category bounds, over the "
             "cap of {}", categories, MAX_CATEGORY_BOUNDS),
            # last, so that a setting's own check speaks first
            (unread is not None, "{} does not read --{}", self.command, unread),
        ):
            if bad:
                raise ValueError(template.format(*map(_echo, values)))
        # a colon grid's points, built once every check passed, and each one exact
        if self.mu_grid is None:
            return self
        return {
            **self._asdict(), "mu_grid": tuple(_as_fraction(mu, "--grid") for mu in self.mu_grid)
        }.values()


def parse_rational(text: str) -> Fraction:
    """Parse 'p/q', an integer, or a decimal literal to the exact fraction, with
    the library's one rational parser and its limit on digits."""
    try:
        return _as_fraction(text.strip())
    except ValueError:
        raise CliError(f"cannot parse {text!r} as an exact rational") from None


class _Spaced:
    """The colon grid form, whose exact points are built only when iterated."""

    def __init__(self, start: Fraction, stop: Fraction, count: int):
        self.start, self.step, self.count = start, (stop - start) / max(count - 1, 1), count

    def __len__(self):
        return self.count

    def __iter__(self):
        return (self.start + i * self.step for i in range(self.count))


def parse_grid(text: str) -> tuple[Fraction, ...]:
    """Parse 'start:stop:count' or a comma-separated list of rationals.

    The colon form yields count points linearly spaced from start to stop,
    endpoints inclusive, all exact.
    """
    return tuple(_lazy_grid(text))


def _lazy_grid(text: str) -> _Spaced | tuple[Fraction, ...]:
    """parse_grid with every check, but the colon form's points left unbuilt."""
    text = text.strip()
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise CliError(f"colon grid form must be start:stop:count, got {text!r}")
        start, stop = parse_rational(parts[0]), parse_rational(parts[1])
        try:
            count = int(parts[2])
        except ValueError:
            raise CliError(f"grid count must be an integer, got {parts[2]!r}") from None
        if count < 1:
            raise CliError(f"grid count must be positive, got {count}")
        _check_grid_size(count)
        if count == 1 and start != stop:
            raise CliError("grid of one point needs start == stop")
        return _Spaced(start, stop, count)
    _check_grid_size(text.count(",") + 1)  # counted before the split builds any part
    return tuple(parse_rational(part) for part in text.split(","))


def _check_grid_size(count: int):
    if count > MAX_GRID_POINTS:
        raise CliError(f"a grid may have at most {MAX_GRID_POINTS} points, got {count}")


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise CliError(message)


def build_parser() -> _Parser:
    # argparse defaults stay None: RunConfig holds them, and None marks "not given";
    # no parser takes abbreviations, so "verify --kt 3" is not read as --kt-max
    parser = _Parser(prog="ndtbound", description=__doc__.splitlines()[0], allow_abbrev=False)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, row in _COMMANDS.items():
        command = sub.add_parser(name, help=row.help, allow_abbrev=False)
        command.add_argument("--config", help="flat key=value config file; flags override it")
        for key in row.options:
            field, text, keywords = _OPTIONS[key][:3]
            default = RunConfig._field_defaults[field]
            text += "" if default in (None, ()) else f" (default {default})"
            metavar = None if "choices" in keywords else key.upper().replace("-", "_")
            command.add_argument(f"--{key}", dest=field, metavar=metavar, help=text, **keywords)
        text = f"output format (default {row.formats[0]})"
        command.add_argument("--format", dest="output_format", choices=row.formats, help=text)
        command.add_argument(
            "--out", dest="output_path", metavar="OUT", help="output path (default standard output)"
        )
    return parser


def _file_tokens(command: str, path: str) -> list[str]:
    """The flat key=value file as ``--key=value`` flags of ``command``; '#' starts
    a comment.  A command's keys are its long flag names without dashes.  Keys
    that only other commands take are skipped, keys that no command takes are
    errors, and no key is read as an abbreviation."""
    try:
        with open(path, encoding="utf-8-sig") as file:
            lines = file.read().splitlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise CliError(f"cannot read config file {path!r}: {exc}") from None
    # every command takes --format and --out, and some command takes each option
    taken = {"format", "out", *_COMMANDS[command].options}
    known = taken | _OPTIONS.keys()
    tokens = []
    for lineno, raw in enumerate(lines, 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, eq, value = (part.strip() for part in line.partition("="))
        if not eq:
            raise CliError(f"{path}:{lineno}: expected key=value, got {raw!r}")
        if key not in known:
            raise CliError(f"{path}:{lineno}: no command takes the key {key!r}")
        if key in taken:
            if key == "overlay":  # the one repeatable option takes a comma list
                names = (name.strip() for name in value.split(","))
                tokens.extend(f"--overlay={name}" for name in names if name)
            else:
                tokens.append(f"--{key}={value}")
    return tokens


def parse_run_config(argv=None) -> RunConfig:
    """Flags, else values of the ``--config`` file parsed like flags, else the
    RunConfig defaults."""
    parser = build_parser()
    args = parser.parse_args(argv)
    from_file = argparse.Namespace()
    if args.config is not None:
        tokens = _file_tokens(args.command, args.config)
        try:
            from_file = parser.parse_args([args.command, *tokens])
        except CliError as exc:
            raise CliError(f"{args.config}: {exc}") from None
    fields = {
        dest: value
        for namespace in (from_file, args)  # flags last, so they win
        for dest, value in vars(namespace).items()
        if value is not None and dest != "config"
    }
    return RunConfig(**fields)


def _render(config: RunConfig, value):
    """One output value as printed: a rational as p/q or to ``--decimal`` places, a
    missing overlay value as 'unavailable'; counts and evidence pass through."""
    if isinstance(value, Unavailable):
        return "unavailable"
    if not isinstance(value, Fraction):
        return value
    if config.decimal is not None:
        return to_decimal(value, config.decimal)
    return _echo(value)


def _emit(config: RunConfig, chunks: Iterable[str]):
    """The one output sink: each chunk is written as it is rendered, to stdout or to --out."""
    path = config.output_path
    try:
        with open(path, "w", encoding="utf-8") if path else nullcontext(sys.stdout) as out:
            out.writelines(chunks)
            out.flush()
    except OSError as exc:
        if not path:  # stdout keeps the bytes it could not write: flush them at exit to devnull
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        raise CliError(f"cannot write {path or 'standard output'!r}: {exc}") from exc


def _json(config: RunConfig, payload) -> Iterable[str]:
    """``json.dumps(payload, indent=2) + "\\n"``, chunk by chunk as it is encoded; the
    encoder hands ``_render`` each value it cannot encode (a rational, ``Unavailable``)."""
    encoder = json.JSONEncoder(indent=2, default=lambda value: _render(config, value))
    return chain(encoder.iterencode(payload), ["\n"])


def _emit_table(config: RunConfig, columns: dict[str, Iterable]):
    header, rows = list(columns), zip(*columns.values())
    if config.output_format == "csv":
        cells = ([_render(config, value) for value in row] for row in rows)
        _emit(config, (",".join(row) + "\n" for row in chain([header], cells)))
    else:
        # the command, its echoed settings under their flag names, and the tool version
        metadata = {"command": config.command} | {
            key.replace("-", "_"): getattr(config, _OPTIONS[key].field)
            for key in _COMMANDS[config.command].options
            if _OPTIONS[key].echoed
        }
        records = [dict(zip(header, row)) for row in rows]
        payload = {"metadata": metadata | {"version": __version__}, "rows": records}
        _emit(config, _json(config, payload))


def _mc_column(config: RunConfig, grid: tuple[Fraction, ...]) -> list[Fraction]:
    """Per-point sample mean of the per-demand category bound.

    Each point's distinct counts ``len(set(demand))`` over its ``--samples``
    demands are tallied in one ``Counter``: a sampled ``DistinctCountDistribution``
    that ``weighted_sum`` averages the category bounds over, as the exact sweep
    averages them over the exact pmf.  The column holds only the tally, at most
    ``min(files, receivers)`` counts, however many samples are drawn.
    ``tally.elements()`` replays one ``category_bound`` call per sample (an
    int-keyed cache hit after each count's first), as the benchmark pins.
    """
    kt, order = config.transmitters, config.envelope_order
    means = []
    for index, mu in enumerate(grid):
        sub_seed = config.seed * SUB_SEED_STRIDE + index
        demands = sample_demands(config.files, config.receivers, config.samples, sub_seed)
        t, tally = kt * mu, Counter(map(len, map(set, demands)))
        bound_of = dict(zip(tally.elements(), map(
            category_bound, repeat(kt), tally.elements(), repeat(t), repeat(order)
        )))
        sampled = DistinctCountDistribution(config.files, config.receivers, config.samples, tally)
        means.append(sampled.weighted_sum([bound_of[s] for s in sampled.counts]))
    return means


def _run_sweep(config: RunConfig) -> int:
    kind = "peak" if config.command == "peak-sweep" else "expected"
    network = (config.transmitters, config.receivers, config.files)
    grid = config.mu_grid
    curve = sweep(*network, grid, kind, config.envelope_order)
    columns = {"mu": grid, "value": curve.values()}
    if config.samples:
        columns["mc_value"] = _mc_column(config, grid)
    registry = default_registry()
    for name in registry.names():  # overlay columns follow registration order, not request order
        if name in config.overlays:
            columns[name] = [registry.evaluate(name, NetworkConfig(*network, mu)) for mu in grid]
    _emit_table(config, columns)
    return 0


def _run_distribution(config: RunConfig) -> int:
    dist = distinct_distribution(config.files, config.receivers)
    support = dist.support()
    _emit_table(config, {"s": map(_digits, support), "mass": map(dist.mass, support)})
    return 0


def _run_verify(config: RunConfig) -> int:
    report = full_verification(config.limit, config.max_transmitters)
    text = report.to_json_lines() if config.output_format == "json" else report.to_text()
    _emit(config, (text, "\n"))
    return 0 if report.passed else 1


def _run_point(config: RunConfig) -> int:
    net = NetworkConfig(config.transmitters, config.receivers, config.files, config.mu)
    fields = {
        "command": "point",
        "kind": config.kind,
        "kt": config.transmitters,
        "kr": config.receivers,
        "files": config.files,
        "mu": net.cache_fraction,
        "t": net.replication,
        "envelope_order": config.envelope_order,
    }
    dist = bound_distribution(net, config.kind)
    categories = []
    for s in dist.counts:
        detail = category_bound_detail(net.transmitters, s, net.replication, config.envelope_order)
        evidence = {"argmax_cut": detail.best_cut, "segment": list(detail.segment)}
        categories.append({"s": s, "mass": dist.mass(s), "bound": detail.value} | evidence)
    fields["value"] = dist.weighted_sum([entry["bound"] for entry in categories])
    if config.kind == "peak":  # the one category, s = kr: its evidence is the point's
        fields, categories = fields | evidence, []  # and it prints no category line
    elif config.output_format == "json":
        fields["categories"] = categories
    # each value is rendered as its line, or its JSON chunk, is written
    lines = chain(
        (f"{key} = {_render(config, item)}\n" for key, item in fields.items()),
        ("category s={}: mass={} bound={} argmax_cut={} segment={}\n".format(
            *(_render(config, item) for item in entry.values())
        ) for entry in categories),
    )
    _emit(config, _json(config, fields) if config.output_format == "json" else lines)
    return 0


class _Option(NamedTuple):
    field: str  # the RunConfig field the flag sets
    help: str  # build_parser appends the field's default
    keywords: dict  # for argparse's add_argument
    echoed: bool = False  # a table's JSON metadata echoes it: it shapes values it does not show


# every flag but --config, --format and --out, which every command takes;
# a flag's long name without dashes is also its config-file key
_OPTIONS = {
    "kt": _Option("transmitters", "number of transmitters", dict(type=int), echoed=True),
    "kr": _Option("receivers", "number of receivers", dict(type=int), echoed=True),
    "files": _Option("files", "library size", dict(type=int), echoed=True),
    "grid": _Option(
        "mu_grid", "cache-size grid: start:stop:count or a comma list", dict(type=_lazy_grid)
    ),
    "mu": _Option("mu", "normalized cache size (exact rational)", dict(type=parse_rational)),
    "samples": _Option("samples", "Monte-Carlo samples per mu", dict(type=int), echoed=True),
    "seed": _Option("seed", "sampler seed", dict(type=int), echoed=True),
    "decimal": _Option("decimal", "render rationals with this many decimals", dict(type=int)),
    "overlay": _Option("overlays", "reference curve to overlay", dict(action="append")),
    "envelope-order": _Option(
        "envelope_order", "theorem: envelope, then max over cuts; proof: the reverse",
        dict(choices=ENVELOPE_ORDERS), echoed=True,
    ),
    "kind": _Option("kind", "bound to evaluate", dict(choices=BOUND_KINDS)),
    "limit": _Option("limit", "identity-suite range", dict(type=int)),
    "kt-max": _Option(
        "max_transmitters", "largest transmitter count for the LP suites", dict(type=int)
    ),
}


class _Command(NamedTuple):
    handler: Callable[[RunConfig], int]
    help: str
    formats: tuple[str, ...]  # the first is the default; verify and point print no table
    options: tuple[str, ...]  # the _OPTIONS it reads, in --help order


_COMMANDS = {
    "peak-sweep": _Command(
        _run_sweep, "worst-case bound over a cache-size grid", ("csv", "json"),
        ("kt", "kr", "files", "grid", "decimal", "overlay", "envelope-order"),
    ),
    "expected-sweep": _Command(
        _run_sweep, "expected-demand bound over a cache-size grid", ("csv", "json"),
        ("kt", "kr", "files", "grid", "samples", "seed", "decimal", "overlay", "envelope-order"),
    ),
    "distribution": _Command(
        _run_distribution, "exact distinct-count pmf", ("csv", "json"), ("kr", "files", "decimal")
    ),
    "verify": _Command(
        _run_verify, "run every oracle suite", ("text", "json"), ("limit", "kt-max")
    ),
    "point": _Command(
        _run_point, "one bound value with its evidence", ("text", "json"),
        ("kt", "kr", "files", "mu", "decimal", "kind", "envelope-order"),
    ),
}


def run(config: RunConfig) -> int:
    return _COMMANDS[config.command].handler(config)


def main(argv=None) -> int:
    try:
        return run(parse_run_config(argv))
    except (InfeasibleLibrary, CliError, ValueError) as exc:
        if not isinstance(exc.__cause__, BrokenPipeError):  # the reader closed the pipe early
            print(f"error: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, InfeasibleLibrary) else 1


if __name__ == "__main__":
    sys.exit(main())
