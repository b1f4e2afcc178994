"""Byte-identity check of the shallowmin CLI between a git revision and the
working tree.

    python tools/cli_matrix.py REV        # REV: HEAD, HEAD~1, a commit hash, ...

The command matrix is data: DATASETS (gen flags) times COMMANDS (templates
filled in per dataset), plus EDGE_COMMANDS on synthesized, hand-written or
missing inputs.
It covers every command and output format, each to stdout and with --out
(tests/test_cli_matrix.py checks this against the CLI parser), at M = Q and
M > Q, Q = 1, the scale probe --mean-scale 1e4 --noise 500, non-finite
settings and a --beta1-margin so large that the trainer overflows.

The tool extracts REV with `git archive` into a temporary directory (the
repository gains no worktree or any other state), then runs the matrix once
against each tree's `src/`, each tree in an empty directory of its own, one
`python -m shallowmin.cli` process per command, both trees at the same time.
It compares, command by command, stdout, stderr and the exit code, and then
every file the commands wrote, prints each command or file that differs, and
exits 1 if any does. The tree's own path is replaced by `<src>` in the
output, so tracebacks compare too. Floating-point digests depend on the BLAS
build, so both trees are compared on one machine, in one environment.

SLICE is a short part of the matrix that tests/test_cli_matrix.py runs twice
on the working tree alone, checking the exit-code contract (`problems`).
"""

from __future__ import annotations

import argparse
import json
import os
import re
import subprocess
import sys
import tarfile
import tempfile
import threading
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# name -> gen flags of one dataset file, <name>.json
DATASETS = {
    "sq": ["--m", "4", "--q", "4", "--sizes", "12,9,11,10", "--seed", "1"],
    "sq8": ["--m", "8", "--q", "8", "--sizes", ",".join(["30"] * 8), "--seed", "7"],
    "wide": ["--m", "6", "--q", "3", "--sizes", "10,12,8", "--seed", "2"],
    "q1": ["--m", "1", "--q", "1", "--sizes", "9", "--seed", "3"],
    "scale": ["--m", "4", "--q", "4", "--mean-scale", "1e4", "--noise", "500", "--seed", "1"],
    "zero": ["--m", "3", "--q", "3", "--noise", "0", "--seed", "4"],
}

# Templates run for every dataset, in order: {d} is the dataset name, {gen}
# its gen flags. Every output file name starts with {d}.
COMMANDS = [
    "gen {gen} --out {d}.json",
    "gen {gen}",
    "train --data {d}.json --out {d}.pg.json",
    "train --data {d}.json --variant exact --out {d}.pe.json",
    "train --data {d}.json --variant exact",
    "train --data {d}.json --beta1-margin 0 --out {d}.pz.json",
    "train {gen} --variant exact --out {d}.ps.json",
    *(f"eval --data {{d}}.json --params {{d}}.{p}.json --format {fmt}"
      for p in ("pg", "pe") for fmt in ("json", "csv", "table")),
    "eval --data {d}.json --params {d}.pe.json --matrices --out {d}.ev.pe.json",
    "eval --data {d}.json --params {d}.pg.json --format csv --out {d}.ev.pg.csv",
    "eval --data {d}.json --params {d}.pz.json --format table --out {d}.ev.pz.json",
    "eval --data {d}.json --params {d}.pg.json --out {d}.ev.pg.json",
    "classify --data {d}.json --params {d}.pg.json --inputs {d}.pts.csv",
    "classify --data {d}.json --params {d}.pe.json --inputs {d}.pts.csv --out {d}.cl.csv",
    "classify {gen} --params {d}.pg.json --inputs {d}.pts.csv --out {d}.cl_synth.csv",
    "classify --data {d}.json --params {d}.ps.json --inputs {d}.pts.csv",
    "classify --data {d}.json --params {d}.pg.json --inputs {d}.pts_quoted.csv --inputs-header"
    " --out {d}.cl_quoted.csv",
    "classify --data {d}.json --params {d}.pg.json --inputs {d}.pts_multiline.csv",
    "truncation-sweep --data {d}.json --grid {d}.grid.json",
    "truncation-sweep --data {d}.json --grid {d}.grid.json --matrices --out {d}.sweep.jsonl",
    *(f"verify {suite} --data {{d}}.json --seed 1"
      for suite in ("bounds", "exact-min", "degeneracy", "invariance", "metric", "truncation")),
    "verify all {gen}",
    "compare --data {d}.json --steps 200 --holdout 0.25 --out {d}.cmp.json"
    " --trace-out {d}.trace.csv",
    "compare --data {d}.json --steps 50 --record-every 7",
    "report --inputs {d}.pg.json {d}.ev.pe.json {d}.cmp.json {d}.sweep.jsonl",
    "report --inputs {d}.pe.json {d}.cmp.json --format json --out {d}.report.json",
    "report --inputs {d}.pe.json {d}.cmp.json --format json",
    "report --inputs {d}.pg.json {d}.ev.pe.json --format table --out {d}.report_table.json",
    # Artifacts that every dataset writes, M > Q included.
    "report --inputs {d}.pg.json {d}.ev.pg.json",
]

# Inputs the commands above read besides the datasets: classification points
# and a truncation grid per dataset, written alike into both directories. The
# points come three times: plain numeric text, which classify parses with
# numpy's reader; with a header row and one quoted cell, which take the csv
# walk; and with a quoted cell over lines 1-2 and a bad cell on line 3, whose
# error message names line 3.
def _inputs(name: str, m: int) -> dict[str, str]:
    rows = [[repr(0.1 * ((3 * i + 5 * j) % 7) - 0.2) for j in range(m)] for i in range(5)]
    quoted = [[f"x{j}" for j in range(m)], [f'"{rows[0][0]}"', *rows[0][1:]], *rows[1:]]
    multiline = [[f'"{rows[0][0]}\n"', *rows[0][1:]], ["x", *rows[1][1:]]]
    grid = [{"w1": [[float(i == j) for j in range(m)] for i in range(m)], "b1": [b] * m}
            for b in (3.0, 0.5, -0.2, -50.0)]
    return {f"{name}.pts.csv": "".join(",".join(r) + "\n" for r in rows),
            f"{name}.pts_quoted.csv": "".join(",".join(r) + "\n" for r in quoted),
            f"{name}.pts_multiline.csv": "".join(",".join(r) + "\n" for r in multiline),
            f"{name}.grid.json": json.dumps(grid)}


# Dataset files in forms that gen never writes, for the commands that read
# JSON: keys in reverse order and indented (a valid dataset), the same
# document followed by more data, and one with a ragged class.
def _edge_inputs() -> dict[str, str]:
    classes = [[[2.0 * (i == j) + 0.05 * ((7 * k + 3 * i) % 5 - 2) for i in range(3)]
                for k in range(4)] for j in range(3)]
    doc = {"y": [[float(i == j) for j in range(3)] for i in range(3)],
           "classes": classes, "q": 3, "m": 3}
    ragged = {"m": 3, "q": 3, "classes": [classes[0], [*classes[1], [1.0, 2.0]], classes[2]]}
    return {"reordered.json": json.dumps(doc, indent=1),
            "trailing.json": json.dumps(doc, indent=1) + "\n{}\n",
            "ragged.json": json.dumps(ragged)}


EDGE_COMMANDS = [
    "train --data reordered.json --out reordered.p.json",
    "eval --data reordered.json --params reordered.p.json",
    "verify bounds --data reordered.json --seed 1",
    *(f"{c} --data {d}.json" + (" --params reordered.p.json" if c == "eval" else "")
      for d in ("trailing", "ragged") for c in ("train", "eval", "verify bounds")),
    "gen --m 3 --q 3 --noise nan --out nan.json",
    "gen --m 3 --q 3 --mean-scale inf",
    "gen --m 0 --q 0 --out q0.json",
    "gen --m 2 --q 3",
    "gen --m 2 --q 2 --mean-scale 0",
    "train --m 3 --q 2 --beta1-margin nan",
    "train --m 3 --q 2 --beta1-margin inf",
    "train --m 3 --q 2 --beta1-margin -1",
    "train --m 3 --q 2 --beta1-margin 1e200",
    "train --m 3 --q 2 --beta1-margin 1e308",
    "train --m 3 --q 2 --bogus",
    "compare --m 3 --q 3 --lr nan",
    "compare --m 3 --q 3 --init-scale inf",
    "compare --m 3 --q 3 --steps 5 --lr 1e300",
    "compare --m 4 --q 4 --mean-scale 1e4 --noise 500 --steps 200",
    "verify degeneracy --m 4 --q 4 --mean-scale 1e4 --noise 500 --seed 1",
    "verify exact-min --m 6 --q 3",
    # Trend octaves from t0 = 2^-5 (lambda_max(D2) = 2.79), and on deviations of 1e-10.
    "verify exact-min --m 8 --q 8 --sizes " + ",".join(["300"] * 8) + " --seed 2",
    "verify exact-min --m 3 --q 3 --noise 1e-10 --seed 1",
    "verify all --m 1 --q 1",
    "verify all --m 0 --q 0",
    # Sweep point 19 has lambda_max(D2) = 1.8e6 and an eigenvalue of -3.2e-11 by
    # eigh; it errored under an absolute PSD floor and is now solved through I + D2.
    "gen --m 8 --q 8 --sizes " + ",".join(["300"] * 8) + " --seed 1183364968 --out npsd.json",
    "verify truncation --data npsd.json --seed 1183364968",
    "eval --m 3 --q 3 --params missing.json",
    "classify --m 3 --q 3 --params missing.json --inputs missing.csv",
    "report --inputs missing.json",
    "report --inputs sq.json",
]

# Run twice by the Tier-1 test: exits 0 (the Q = 1 truncation suite among
# them), 2 and 3, stdout and a written file.
SLICE = [
    "train --m 3 --q 3 --sizes 6,5,7 --seed 1 --variant exact --out s.json",
    "verify truncation --m 1 --q 1 --sizes 3",
    "train --m 3 --q 2 --beta1-margin nan",
    "gen --m 0 --q 0 --out q0.json",
]


def matrix() -> tuple[list[str], dict[str, str]]:
    """The full command list, in run order, and the input files it reads."""
    commands, files = [], _edge_inputs()
    for name, flags in DATASETS.items():
        m = int(flags[flags.index("--m") + 1])
        files.update(_inputs(name, m))
        commands += [c.format(d=name, gen=" ".join(flags)) for c in COMMANDS]
    return commands + EDGE_COMMANDS, files


@dataclass
class Result:
    command: str
    code: int
    stdout: str
    stderr: str


def run_commands(src: Path, workdir: Path, commands: list[str],
                 files: dict[str, str] | None = None) -> tuple[list[Result], dict[str, bytes]]:
    """Write files into workdir, run each command there against src, and
    return the results and every file in workdir afterwards."""
    for name, text in (files or {}).items():
        (workdir / name).write_text(text)
    env = {**os.environ, "PYTHONPATH": str(src)}
    results = []
    for command in commands:
        done = subprocess.run([sys.executable, "-m", "shallowmin.cli", *command.split()],
                              cwd=workdir, env=env, capture_output=True, text=True,
                              timeout=600)
        results.append(Result(command, done.returncode, done.stdout.replace(str(src), "<src>"),
                              done.stderr.replace(str(src), "<src>")))
    written = {p.name: p.read_bytes() for p in sorted(workdir.iterdir()) if p.is_file()}
    return results, written


def problems(result: Result) -> list[str]:
    """Breaches of the exit-code contract: 0, 1 with a FAIL line, 2 with a
    usage message, 3 with a typed error; never a traceback or a
    RuntimeWarning."""
    out = []
    if "Traceback" in result.stderr:
        out.append("traceback")
    if "RuntimeWarning" in result.stderr:
        out.append("RuntimeWarning")
    if result.code == 1 and "[FAIL]" not in result.stdout:
        out.append("exit 1 without a FAIL line")
    elif result.code == 2 and not re.match(r"(usage|error): ", result.stderr):
        out.append("exit 2 without a usage message")
    elif result.code == 3 and not re.match(r"error: [A-Za-z]+: ", result.stderr):
        out.append("exit 3 without a typed error")
    elif result.code not in (0, 1, 2, 3):
        out.append(f"exit {result.code}")
    return [f"{result.command}: {p}" for p in out]


def _extract(rev: str, dest: Path) -> Path:
    """The tree of rev, extracted under dest with git archive."""
    archive = dest / "rev.tar"
    subprocess.run(["git", "archive", "--format=tar", "-o", str(archive), rev],
                   cwd=ROOT, check=True)
    with tarfile.open(archive) as tar:
        # The "data" filter exists from Python 3.12 and in patch releases before.
        tar.extractall(dest / "tree", **({"filter": "data"} if hasattr(tarfile, "data_filter")
                                         else {}))
    return dest / "tree"


def _first_difference(a: str, b: str) -> str:
    for i, (x, y) in enumerate(zip(a.splitlines(), b.splitlines())):
        if x != y:
            return f"line {i + 1}: {x[:120]!r} != {y[:120]!r}"
    return f"{len(a.splitlines())} != {len(b.splitlines())} lines"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("rev", help="git revision to compare the working tree with")
    args = parser.parse_args(argv)
    commands, files = matrix()
    with tempfile.TemporaryDirectory(prefix="cli-matrix-") as tmp:
        tmp = Path(tmp)
        trees = {args.rev: _extract(args.rev, tmp) / "src", "working tree": ROOT / "src"}
        runs = {}

        def run(i, label, src):
            workdir = tmp / f"run-{i}"
            workdir.mkdir()
            runs[label] = run_commands(src, workdir, commands, files)

        threads = [threading.Thread(target=run, args=(i, *item))
                   for i, item in enumerate(trees.items())]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
    (old, old_files), (new, new_files) = runs[args.rev], runs["working tree"]
    differ = 0
    for a, b in zip(old, new):
        diffs = [f"exit {a.code} != {b.code}"] if a.code != b.code else []
        diffs += [f"{name} {_first_difference(x, y)}"
                  for name, x, y in (("stdout", a.stdout, b.stdout),
                                     ("stderr", a.stderr, b.stderr)) if x != y]
        if diffs:
            differ += 1
            print(f"DIFF {a.command}\n     " + "\n     ".join(diffs))
    file_diffs = sorted(n for n in old_files.keys() | new_files.keys()
                        if old_files.get(n) != new_files.get(n))
    for name in file_diffs:
        print(f"DIFF file {name}: " + ("missing in one tree" if name not in old_files
                                        or name not in new_files else "bytes differ"))
    codes = {c: sum(r.code == c for r in new) for c in sorted({r.code for r in new})}
    print(f"{len(commands) - differ}/{len(commands)} commands identical "
          f"(exit codes on the working tree: {codes}); "
          f"{len(new_files) - len(file_diffs)}/{len(old_files.keys() | new_files.keys())} "
          f"files identical")
    return 1 if differ or file_diffs else 0


if __name__ == "__main__":
    sys.exit(main())
