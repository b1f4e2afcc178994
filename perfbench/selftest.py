"""Self-test of the benchmark at tiny sizes, in a few seconds.

    python3 perfbench/selftest.py

Checks that every workload, untraced and traced, prints each metric that
BENCHMARK.json names with its unit, both as a metric line and in the result
line; that a second seed passes the correctness gate too; that a corrupted
output is counted as failed; and that the runner exits non-zero without a
result where the library source is missing. Exits 1 on the first failure.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys
import tempfile

import run

SECONDS = 0.3


def fail(message: str) -> None:
    sys.exit(f"selftest FAILED: {message}")


def execute(wl, seed: int, trace: bool, corrupt=None) -> tuple[list[str], dict]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        run.execute(wl, seed, SECONDS, trace, corrupt=corrupt)
    lines = out.getvalue().splitlines()
    return lines, json.loads(lines[-1])


def check_metrics(label: str, lines: list[str], result: dict, declared: list[dict]) -> None:
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"{label}: result keys {sorted(result)}")
    if not result["correct"] or result["failed"] or result["attempted"] < 1:
        fail(f"{label}: gate failed on clean outputs: {result}")
    names = [m["name"] for m in declared]
    if list(result["metrics"]) != names:
        fail(f"{label}: metrics {list(result['metrics'])} != BENCHMARK.json {names}")
    printed = {line.split()[0]: line.split() for line in lines[:-1] if line.split()}
    for m in declared:
        got = result["metrics"][m["name"]]
        if got["unit"] != m["unit"] or not isinstance(got["value"], (int, float)):
            fail(f"{label}: {m['name']} = {got}, declared unit {m['unit']}")
        words = printed.get(m["name"])
        if words is None or words[2] != m["unit"]:
            fail(f"{label}: no metric line '{m['name']} <value> {m['unit']}'")
    if "error_rate" not in printed:
        fail(f"{label}: no error_rate line")


def main() -> int:
    run.load_library()
    from workloads import Analysis, ClassifyCli, FitGeneral

    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    if [(m["name"], m["unit"]) for m in bench["end_to_end"]] != run.END_TO_END:
        fail("BENCHMARK.json end_to_end differs from run.END_TO_END")
    from tracer import PER_LAYER

    if [(m["name"], m["unit"]) for m in bench["per_layer"]] != PER_LAYER:
        fail("BENCHMARK.json per_layer differs from tracer.PER_LAYER")

    def flip_winner(r):
        winners = r["winners"].copy()
        winners[0] = (winners[0] + 1) % r["scores"].shape[1]
        return {**r, "winners": winners}

    def perturb_compare(r):
        doc = json.loads(json.dumps(r["compare"]))
        doc["constructive"]["cost_weighted"] *= 1 + 1e-6
        return {**r, "compare": doc}

    cases = [  # tiny workload, one corrupted output for the gate to catch
        (lambda: FitGeneral(m=6, q=3, per_class=40),
         lambda r: {**r, "cost_l2": r["cost_l2"] * (1 + 1e-6)}),
        (lambda: ClassifyCli(m=5, q=3, per_class=40, points=25), flip_winner),
        (lambda: Analysis(m=3, per_class=40, steps=50), perturb_compare),
    ]
    for make, corrupt in cases:
        name = make().name
        for trace, declared in ((False, bench["end_to_end"]), (True, bench["per_layer"])):
            lines, result = execute(make(), 1, trace)
            check_metrics(f"{name} trace={int(trace)}", lines, result, declared)
        _, second = execute(make(), 2, False)
        if not second["correct"]:
            fail(f"{name}: seed 2 failed the gate: {second}")
        with contextlib.redirect_stderr(io.StringIO()):
            _, bad = execute(make(), 1, False, corrupt=corrupt)
        if bad["correct"] or bad["failed"] != bad["attempted"]:
            fail(f"{name}: corrupted outputs not all counted as failed: {bad}")
        print(f"ok {name}: metrics and units, seed 2, corrupted output counted "
              f"({bad['failed']}/{bad['attempted']} failed)")

    bare = tempfile.mkdtemp(prefix="bare-", dir=run.ROOT / ".perfbench")
    try:
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        for path in bench["paths"]:
            shutil.copytree(run.ROOT / path, f"{bare}/{path}",
                            ignore=shutil.ignore_patterns("__pycache__"))
        done = subprocess.run(
            [*bench["command"], "--workload", "fit-general", "--seed", "1", "--seconds", "1",
             "--trace", "0"], cwd=bare, capture_output=True, text=True, timeout=180)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if done.returncode == 0 or '"correct"' in done.stdout:
        fail(f"runner without library source: exit {done.returncode}, stdout {done.stdout!r}")
    print(f"ok bare directory: exit {done.returncode}, no result ({done.stderr.strip()})")
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
