"""The slice of the CLI byte-identity harness (tools/cli_matrix.py) that runs
in Tier-1: a few commands, run twice on the working tree in fresh
directories, give the same bytes and keep the exit-code contract."""

import argparse
import runpy
import threading
from pathlib import Path
from types import SimpleNamespace

from shallowmin import cli

TOOL = Path(__file__).resolve().parents[1] / "tools" / "cli_matrix.py"
cli_matrix = SimpleNamespace(**runpy.run_path(str(TOOL)))


def test_slice_reruns_byte_identical_within_the_exit_contract(tmp_path):
    src = TOOL.parents[1] / "src"
    runs = [None, None]

    def run(i):
        workdir = tmp_path / f"run{i}"
        workdir.mkdir()
        runs[i] = cli_matrix.run_commands(src, workdir, cli_matrix.SLICE)

    threads = [threading.Thread(target=run, args=(i,)) for i in range(2)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    (first, first_files), (second, second_files) = runs
    assert first == second
    assert first_files == second_files and list(first_files) == ["s.json"]
    assert [p for r in first for p in cli_matrix.problems(r)] == []
    assert {r.code for r in first} <= {0, 1, 2, 3} and {0, 2, 3} <= {r.code for r in first}


def test_contract_flags_breaches():
    result = cli_matrix.Result
    assert cli_matrix.problems(result("a", 1, "ok\n", "")) == ["a: exit 1 without a FAIL line"]
    assert cli_matrix.problems(result("b", 3, "", "error: boom\n")) \
        == ["b: exit 3 without a typed error"]
    assert cli_matrix.problems(result("c", 1, "", "Traceback (most recent call last):\n")) \
        == ["c: traceback", "c: exit 1 without a FAIL line"]
    assert cli_matrix.problems(result("d", 0, "", "x.py:1: RuntimeWarning: overflow\n")) \
        == ["d: RuntimeWarning"]
    assert cli_matrix.problems(result("e", 2, "", "usage: shallowmin ...\n")) == []


def test_matrix_covers_every_command_and_format_with_and_without_out():
    """Static, no process: the full matrix runs every subcommand of the CLI
    parser and every --format choice of each (the default counts), both to
    stdout and with --out."""
    parser = cli.build_parser()
    subparsers = next(a for a in parser._actions
                      if isinstance(a, argparse._SubParsersAction)).choices
    wanted = set()
    for name, sub in subparsers.items():
        options = {a.dest: a for a in sub._actions}
        formats = options["format"].choices if "format" in options else [None]
        outs = (False, True) if "out" in options else (False,)
        wanted |= {(name, fmt, out) for fmt in formats for out in outs}
    covered = set()
    for command in cli_matrix.matrix()[0]:
        try:
            args = parser.parse_args(command.split())
        except SystemExit:  # the usage-error edge commands
            continue
        covered.add((args.command, getattr(args, "format", None),
                     getattr(args, "out", None) is not None))
    assert sorted(wanted - covered, key=str) == []
