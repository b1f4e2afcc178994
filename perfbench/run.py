"""shallowmin benchmark runner.

    python3 perfbench/run.py --workload fit-general --seed 1 --seconds 25 --trace 0

Runs one workload (see workloads.py and BENCHMARK.json) in this process
against the library in ../src. The run sets the workload up several times
(inputs from --seed plus one warm-up job each), then runs jobs one at a time
for --seconds and checks every job's outputs. It prints the environment, one
line per metric with its unit, and as the last line a JSON object with
`correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics with
--trace 0, or the per-layer metrics of a separate traced run with --trace 1,
whose spans are written to .perfbench/trace-<workload>-seed<seed>.jsonl.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SETUPS = 3
DEFAULT_SEED = 1

END_TO_END = [  # (name, unit)
    ("setup_s", "s"),
    ("job_p50_s", "s"),
    ("job_tail_s", "s"),
    ("samples_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
]


def load_library():
    """Import shallowmin from this checkout's src/, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "shallowmin" / "__init__.py").is_file():
        sys.exit(f"error: no library source at {src / 'shallowmin'}")
    sys.path.insert(0, str(src))
    import shallowmin

    if Path(shallowmin.__file__).resolve().parent != (src / "shallowmin").resolve():
        sys.exit(f"error: shallowmin imported from {shallowmin.__file__}, not {src}")
    return shallowmin


def _blas_threads():
    """OpenBLAS's own thread count, read from the loaded library, or None."""
    with open("/proc/self/maps") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line and ".so" in line}
    for lib in sorted(libs):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                          capture_output=True, text=True, timeout=30)
    return done.stdout.strip() or "unknown"


def _loadavg() -> str:
    try:
        return Path("/proc/loadavg").read_text().strip()
    except OSError:
        return "unavailable"


def environment(seed: int) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "blas_thread_env": {k: os.environ[k] for k in
                            ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
                            if k in os.environ},
        "nproc": len(os.sched_getaffinity(0)),
        "commit": _git_commit(),
        "seed": seed,
        "loadavg_start": _loadavg(),
    }


# The tail is a fixed percentile so that two commits compare the same one. A
# run makes 5 to 25 jobs, too few for the highest percentile with ten jobs
# beyond it: that percentile moves with the job count and falls to the
# fastest job at eleven jobs.
TAIL_PCT = 90


def tail(times: list[float]) -> float:
    """Job time at TAIL_PCT, interpolated between the jobs around it."""
    if len(times) == 1:
        return times[0]
    return statistics.quantiles(times, n=100, method="inclusive")[TAIL_PCT - 1]


def run_workload(wl, seed: int, seconds: float, trace: bool, workdir: Path, corrupt=None) -> dict:
    """Set `wl` up SETUPS times, then run and check jobs for `seconds`.

    `corrupt`, if given, is applied to every collected output before its check;
    the self-test uses it to prove that the gate counts bad outputs.
    """
    from tracer import Tracer

    attempted = failed = 0

    def checked(state, out) -> None:
        nonlocal failed
        result = wl.collect(state, out)
        problems = wl.check(state, corrupt(result) if corrupt else result)
        if problems:
            failed += 1
            print(f"check failed ({wl.name}): " + "; ".join(problems), file=sys.stderr)

    setup_times = []
    for _ in range(SETUPS):
        start = time.perf_counter()
        state = wl.setup(seed, workdir)
        out = wl.job(state)
        setup_times.append(time.perf_counter() - start)
        attempted += 1
        checked(state, out)

    # A traced run makes one memory job under tracemalloc, then alternates
    # traced timing jobs with untraced jobs, the reference for the overhead.
    tracer = Tracer(skip=wl.probes) if trace else None
    if tracer:
        tracer.install()
    job_times = []
    deadline = time.perf_counter() + seconds
    try:
        while len(job_times) < (3 if tracer else 1) or time.perf_counter() < deadline:
            attempted += 1
            traced = tracer is not None and len(job_times) % 2 == 0
            start = time.perf_counter()
            try:
                if traced:
                    out = tracer.run_job(attempted, not job_times, wl.job, state)
                else:
                    out = wl.job(state)
            except Exception:
                out = None
                failed += 1
                traceback.print_exc()
            job_times.append(time.perf_counter() - start)
            if out is not None:
                checked(state, out)
                if traced:
                    wl.probe(state, tracer)
    finally:
        if tracer:
            tracer.uninstall()

    return {
        "attempted": attempted,
        "failed": failed,
        "jobs": len(job_times),
        "busy": sum(job_times),
        "samples": wl.samples(state),
        "setup_s": statistics.median(setup_times),
        "job_p50_s": statistics.median(job_times),
        "job_tail_s": tail(job_times),
        "samples_per_s": wl.samples(state) * len(job_times) / sum(job_times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "untraced": job_times[1::2] if tracer else [],
        "tracer": tracer,
    }


def report(wl, res: dict, trace: bool) -> dict:
    """Print one line per metric with its unit; return the metrics for the JSON line."""
    from tracer import PER_LAYER

    n, error_rate = res["jobs"], res["failed"] / res["attempted"]
    notes = {
        "setup_s": f"median of {SETUPS} set-ups, each with one warm-up job",
        "job_p50_s": f"n={n} jobs",
        "job_tail_s": f"p{TAIL_PCT} of n={n} jobs",
        "samples_per_s": f"N={res['samples']} training samples x jobs / busy time",
        "peak_rss_mb": "ru_maxrss of this process",
    }
    if trace:
        untraced = res["untraced"]
        untraced_p50 = statistics.median(untraced)
        metrics = res["tracer"].metrics(n - len(untraced), untraced_p50)
        units = dict(PER_LAYER)
        print(f"traced run: {n} jobs, 1 under tracemalloc, {len(untraced)} untraced "
              f"with p50 {untraced_p50:.6f} s")
    else:
        metrics = {name: res[name] for name, _ in END_TO_END}
        units = dict(END_TO_END)
    for name, value in metrics.items():
        note = notes.get(name, "")
        print(f"{name:<40} {value:>16.6g} {units[name]:<6} {note}")
    if not trace and hasattr(wl, "points"):
        print(f"{'points_per_s':<40} {wl.points * n / res['busy']:>16.6g} {'1/s':<6} "
              f"{wl.points} input points x jobs / busy time")
    print(f"{'error_rate':<40} {error_rate:>16.6g} {'ratio':<6} "
          f"{res['failed']} failed of {res['attempted']} jobs checked")
    return {name: {"value": value, "unit": units[name]} for name, value in metrics.items()}


def execute(wl, seed: int, seconds: float, trace: bool, corrupt=None) -> None:
    """Run one workload and print its metric lines, then the result as JSON."""
    env = environment(seed)
    out_dir = ROOT / ".perfbench"
    out_dir.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="work-", dir=out_dir))
    try:
        res = run_workload(wl, seed, seconds, trace, workdir, corrupt)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    env["loadavg_end"] = _loadavg()
    print(f"workload={wl.name} seed={seed} seconds={seconds:g} trace={int(trace)}")
    print("env " + json.dumps(env))
    metrics = report(wl, res, trace)
    if trace:
        path = out_dir / f"trace-{wl.name}-seed{seed}.jsonl"
        res["tracer"].write(path, {"workload": wl.name, "env": env})
        print(f"spans written to {path.relative_to(ROOT)}")
    print(json.dumps({
        "correct": res["failed"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": metrics,
    }))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    load_library()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    execute(WORKLOADS[args.workload](), args.seed, args.seconds, bool(args.trace))
    return 0


if __name__ == "__main__":
    sys.exit(main())
