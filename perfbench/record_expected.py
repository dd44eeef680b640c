"""Record the expected outputs that ``run.py`` checks every request against.

Usage, from the repository root:

    python3 perfbench/record_expected.py

Runs each request of each workload once, at full and at toy size, and writes
the SHA-256 of its output to ``perfbench/expected.json``.  For the Monte-Carlo
sweep it records the digest of the seed-independent columns and the exact
peak bound at each grid point, the range that the statistical check of the
``mc_value`` column needs.  Run it only on a commit whose outputs are known
to be right: later commits must reproduce them byte for byte.
"""

from __future__ import annotations

import json
import sys
import time

import run

RECORD_SEED = 0
PEAK_REQUEST = ("peak-sweep", "--config", run.PRESET)


def _output(template) -> bytes:
    cli = [sys.executable, "-m", "ndtbound.cli"]
    _, output, error = run.run_process(cli + run.request_argv(template, RECORD_SEED), time.monotonic() + 600)
    if error is not None:
        raise SystemExit(f"{run.request_key(template)}: {error}")
    return output


def main() -> int:
    peak_rows = [line.split(",") for line in _output(PEAK_REQUEST).decode().splitlines()]
    assert peak_rows[0] == ["mu", "value"], peak_rows[0]
    peaks = [value for _, value in peak_rows[1:]]
    expected = {run.request_key(run.SETUP_REQUEST): run.sha256(_output(run.SETUP_REQUEST))}
    for sizes in run.WORKLOADS.values():
        for template in sizes["full"] + sizes["toy"]:
            output = _output(template)
            if "{seed}" not in template:
                expected[run.request_key(template)] = run.sha256(output)
                continue
            rows = [line.split(",") for line in output.decode().splitlines()[1:]]
            expected[run.request_key(template)] = {
                "value_sha256": run.sha256(run.exact_columns(rows)),
                "samples": int(template[template.index("--samples") + 1]),
                "peak": peaks,
            }
    run.EXPECTED_PATH.write_text(json.dumps(expected, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
