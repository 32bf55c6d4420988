"""The README's command lines, run through the CLI and compared with recorded outputs.

Each `bec1d ...` line of the README's command block writes a CSV and its
`.meta.json` sidecar; `tests/golden/` holds both as recorded, the sidecar without
`wall_time_seconds` and `config.out`, which depend on the run. A run must give
the same header, the same integer and analytic columns and the same sidecar,
exactly, and Monte Carlo columns (`mc_mean`, `mc_std` and the columns derived
from them) within 1e-12 of the row's |mc_mean|, which leaves room only for a
changed summation order.

A change that moves a CSV on purpose re-records the files with
`PYTHONPATH=src python tests/test_readme_golden.py`.
"""

from __future__ import annotations

import json
import re
import shlex
from pathlib import Path

import pytest

import bec1d.cli as cli

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden"
#: Monte Carlo columns and the columns derived from them; every other column is exact
MC_COLUMNS = {"mc_mean", "mc_std", "rel_deviation", "median_fraction"}
MC_RELATIVE = 1e-12
#: sidecar entries that depend on the run, not on its results
RUN_KEYS = ("wall_time_seconds",)


def readme_commands() -> dict[str, list[str]]:
    """The argv (without `bec1d`) of each README command line, keyed by its --out name."""
    block = re.search(r"## Command line\n\n```sh\n(.*?)```", (ROOT / "README.md").read_text(),
                      re.S)
    commands = {}
    for line in block.group(1).splitlines():
        argv = shlex.split(line)
        assert argv[0] == "bec1d", line
        commands[argv[argv.index("--out") + 1]] = argv[1:]
    return commands


def run_command(argv: list[str], out: Path) -> tuple[str, dict]:
    """Run one command line with its --out moved to `out`: the CSV text and the sidecar
    without its run-dependent entries."""
    argv = list(argv)
    argv[argv.index("--out") + 1] = str(out)
    assert cli.main(argv) == 0, argv
    meta = json.loads(Path(f"{out}.meta.json").read_text())
    for key in RUN_KEYS:
        del meta[key]
    del meta["config"]["out"]
    return out.read_text(), meta


def read_rows(text: str) -> tuple[list[str], list[list[str]]]:
    header, *rows = text.rstrip("\n").split("\n")
    return header.split(","), [row.split(",") for row in rows]


def test_every_readme_line_has_a_golden_file():
    assert sorted(readme_commands()) == sorted(p.name for p in GOLDEN.glob("*.csv"))


@pytest.mark.parametrize("name", sorted(p.name for p in GOLDEN.glob("*.csv")))
def test_readme_line_reproduces_its_golden_file(name, tmp_path):
    commands = readme_commands()
    assert name in commands, f"no README command line writes {name}"
    text, meta = run_command(commands[name], tmp_path / name)
    golden_text = (GOLDEN / name).read_text()
    assert meta == json.loads((GOLDEN / f"{name}.meta.json").read_text())
    header, rows = read_rows(text)
    golden_header, golden_rows = read_rows(golden_text)
    assert header == golden_header
    assert len(rows) == len(golden_rows)
    for row, golden in zip(rows, golden_rows):
        assert len(row) == len(golden) == len(header)
        mean = golden[header.index("mc_mean")] if "mc_mean" in header else ""
        scale = MC_RELATIVE * abs(float(mean or "nan"))  # nan: no mismatch passes
        for column, value, expected in zip(header, row, golden):
            if value != expected:
                assert column in MC_COLUMNS and value and expected, (column, value, expected)
                assert abs(float(value) - float(expected)) <= scale, (column, value, expected)


def record(directory: Path = GOLDEN):
    """Write every README command line's outputs into `directory` as the golden files."""
    directory.mkdir(exist_ok=True)
    for name, argv in readme_commands().items():
        _, meta = run_command(argv, directory / name)
        (directory / f"{name}.meta.json").write_text(json.dumps(meta, indent=2, sort_keys=True)
                                                     + "\n")


if __name__ == "__main__":
    record()
