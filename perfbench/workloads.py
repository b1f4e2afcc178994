"""The benchmark's workloads. Each one is closed-loop: one job at a time in one
process, the next job starting when the previous one has finished.

A workload builds its inputs from the seed in `setup`, runs one job in `job`
(the timed part), reads the job's outputs back in `collect`, and lists what is
wrong with them in `check`. The library receives only the generated data or
files; every reference value a check compares against is computed here.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# Library functions are looked up through their modules at call time, so
# that the traced run's wrappers see the benchmark's own calls.
from shallowmin import cli, constructive, cost, network
from shallowmin import dataset as data


def _rel_close(a: float, b: float, rtol: float) -> bool:
    return abs(a - b) <= rtol * (1.0 + max(abs(a), abs(b)))


def _cli(argv: list[str]) -> tuple[int, str]:
    """Run one CLI command in-process; returns (exit code, captured stdout)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()


@dataclass
class FitGeneral:
    """Library pipeline in the general Q < M regime: stats, train, evaluate."""

    m: int = 100
    q: int = 50
    per_class: int = 2000
    noise: float = 0.05
    name = "fit-general"
    probes = ("network.forward",)

    def __post_init__(self):
        self.first_report = None

    def setup(self, seed: int, workdir: Path) -> dict:
        ds = data.synthesize(self.m, self.q, [self.per_class] * self.q, noise=self.noise, seed=seed)
        return {"ds": ds}

    def samples(self, state) -> int:
        return state["ds"].n

    def job(self, state) -> dict:
        ds = state["ds"]
        stats, pack = data.dataset_stats(ds)
        params = constructive.train_general(ds, stats, pack)
        state["params"] = params
        return cost.evaluate(params, ds, stats, pack).to_dict()

    def collect(self, state, out) -> dict:
        return out

    def check(self, state, report: dict) -> list[str]:
        problems = []
        values = {k: v for k, v in report.items() if k != "exact_min_weighted"}
        if report.get("exact_min_weighted") is not None:
            problems.append("exact_min_weighted set outside the M = Q regime")
        if not all(isinstance(v, float) and math.isfinite(v) for v in values.values()):
            problems.append(f"non-finite report field: {values}")
            return problems
        if not report["cost_l2"] <= report["bound_l2"] * (1 + 1e-10):
            problems.append(f"cost_l2 {report['cost_l2']!r} > bound_l2 {report['bound_l2']!r}")
        if not report["bound_l2"] <= report["bound_deltap"] * (1 + 1e-12):
            problems.append(f"bound_l2 {report['bound_l2']!r} > bound_deltap "
                            f"{report['bound_deltap']!r}")
        if self.first_report is None:
            self.first_report = dict(report)
        elif report != self.first_report:
            problems.append(f"report {report} differs from the first job's {self.first_report}")
        return problems

    def probe(self, state, tracer) -> None:
        tracer.probe("network.forward", network.forward, state["params"], state["ds"].x0)


@dataclass
class ClassifyCli:
    """CLI `classify` of points drawn as class mean plus noise."""

    m: int = 20
    q: int = 10
    per_class: int = 1000
    points: int = 2000
    noise: float = 0.05
    name = "classify-cli"
    probes = ("dataset.class_means",)

    def setup(self, seed: int, workdir: Path) -> dict:
        data_file, params = workdir / "data.json", workdir / "params.json"
        inputs, out = workdir / "inputs.csv", workdir / "classified.csv"
        sizes = ",".join([str(self.per_class)] * self.q)
        for argv in (["gen", "--m", str(self.m), "--q", str(self.q), "--sizes", sizes,
                      "--noise", str(self.noise), "--seed", str(seed), "--out", str(data_file)],
                     ["train", "--data", str(data_file), "--out", str(params)]):
            code, _ = _cli(argv)
            if code != 0:
                raise RuntimeError(f"set-up command {argv[0]} exited {code}")

        # Reference: nearest class mean under |w2_tilde P (x - mean_j)|, from
        # the dataset file alone.
        doc = json.loads(data_file.read_text())
        means = np.stack([np.mean(np.asarray(c, dtype=float), axis=0) for c in doc["classes"]],
                         axis=1)
        y = np.asarray(doc["y"], dtype=float)
        pinv = np.linalg.pinv(means)
        metric = y @ pinv @ (means @ pinv)  # w2_tilde P
        rng = np.random.default_rng([seed, 1])
        labels = rng.integers(self.q, size=self.points)
        x = means[:, labels] + self.noise * rng.uniform(-1.0, 1.0, size=(self.m, self.points))
        diff = x[:, :, None] - means[:, None, :]  # M x K x Q
        scores = np.linalg.norm(np.einsum("am,mkj->akj", metric, diff), axis=0)
        with open(inputs, "w", newline="") as fh:
            csv.writer(fh).writerows([[repr(v) for v in col] for col in x.T.tolist()])
        return {
            "argv": ["classify", "--data", str(data_file), "--params", str(params),
                     "--inputs", str(inputs), "--out", str(out)],
            "out": out,
            "ref_scores": scores,
            "ref_winners": np.argmin(scores, axis=1),
            "ds": data.load_dataset(data_file),
        }

    def samples(self, state) -> int:
        return state["ds"].n

    def job(self, state) -> int:
        return _cli(state["argv"])[0]

    def collect(self, state, code: int) -> dict:
        out: Path = state["out"]
        rows = []
        if out.exists():
            with open(out, newline="") as fh:
                rows = list(csv.reader(fh))[1:]
            out.unlink()
        return {
            "code": code,
            "index": [int(r[0]) for r in rows],
            "winners": np.array([int(r[1]) for r in rows], dtype=int),
            "scores": np.array([[float(v) for v in r[2:]] for r in rows], dtype=float),
        }

    def check(self, state, result: dict) -> list[str]:
        if result["code"] != 0:
            return [f"classify exited {result['code']}"]
        ref, ref_winners = state["ref_scores"], state["ref_winners"]
        if result["index"] != list(range(len(ref))) or result["scores"].shape != ref.shape:
            return [f"expected {ref.shape[0]} rows of {ref.shape[1]} scores"]
        problems = []
        wrong = np.flatnonzero(result["winners"] != ref_winners)
        if wrong.size:
            problems.append(f"{wrong.size} winners differ from the reference, first at row {wrong[0]}")
        off = np.abs(result["scores"] - ref) > 1e-9 * (1.0 + np.abs(ref))
        if off.any():
            problems.append(f"{int(off.sum())} scores differ from the reference by more than 1e-9")
        return problems

    def probe(self, state, tracer) -> None:
        tracer.probe("dataset.class_means", data.class_means, state["ds"])


@dataclass
class Analysis:
    """Square-regime analysis through the CLI: verify, then compare.

    Two operations the square regime offers are left out of the job, because
    they fail on some seeds at this size through known library defects:
    - the `exact-min` verify suite: its two slope checks fail on about a
      quarter of the seeds, where the drawn class means are ill-conditioned
      enough that delta_p lies outside the asymptotic regime the checks assume;
    - the `truncation-sweep` command on `default_truncation_grid`: on about 2%
      of the seeds one partial-clipping point reports NotPositiveSemidefinite,
      an eigenvalue near -1e-11 against an absolute tolerance of 1e-12.
    The `truncation` suite still sweeps that grid, and `compare` still runs
    `train_exact_meq` and `exact_min_weighted` with its N x N cross-check.
    """

    m: int = 8
    per_class: int = 300
    holdout: float = 0.25
    steps: int = 2000
    name = "analysis"
    suites = ("bounds", "degeneracy", "invariance", "metric", "truncation")
    probes = ()

    def setup(self, seed: int, workdir: Path) -> dict:
        data_file, compare = workdir / "data.json", workdir / "compare.json"
        sizes = ",".join([str(self.per_class)] * self.m)
        # The CLI's default noise is kept.
        code, _ = _cli(["gen", "--m", str(self.m), "--q", str(self.m), "--sizes", sizes,
                        "--seed", str(seed), "--out", str(data_file)])
        if code != 0:
            raise RuntimeError(f"set-up command gen exited {code}")
        return {
            "n": data.load_dataset(data_file).n,
            "compare": compare,
            "commands": [
                *(["verify", suite, "--data", str(data_file), "--seed", str(seed)]
                  for suite in self.suites),
                ["compare", "--data", str(data_file), "--holdout", str(self.holdout),
                 "--steps", str(self.steps), "--seed", str(seed), "--out", str(compare)],
            ],
        }

    def samples(self, state) -> int:
        return state["n"]

    def job(self, state) -> list[tuple[int, str]]:
        return [_cli(argv) for argv in state["commands"]]

    def collect(self, state, outs) -> dict:
        path: Path = state["compare"]
        doc = None
        if path.exists():
            doc = json.loads(path.read_text())
            path.unlink()
        return {"codes": [code for code, _ in outs],
                "verify": [stdout.splitlines() for _, stdout in outs[:len(self.suites)]],
                "compare": doc}

    def check(self, state, result: dict) -> list[str]:
        problems = [f"{' '.join(argv[:2])} exited {code}"
                    for argv, code in zip(state["commands"], result["codes"]) if code != 0]
        for suite, lines in zip(self.suites, result["verify"]):
            checks = [line for line in lines if line.startswith("[")]
            failing = [line for line in checks if not line.startswith("[PASS]")]
            if not checks or failing:
                problems.append(f"verify {suite}: {len(failing)} of {len(checks)} checks not "
                                "PASS: " + ", ".join(line.split()[1] for line in failing))
            if not lines or lines[-1] != f"{len(checks)}/{len(checks)} checks passed":
                problems.append(f"verify {suite}: summary line missing or not all passed")
        doc = result["compare"]
        if doc is None:
            problems.append("compare wrote no output")
        elif not _rel_close(doc["constructive"]["cost_weighted"], doc["exact_min_weighted"], 1e-9):
            problems.append(f"compare: constructive cost_weighted "
                            f"{doc['constructive']['cost_weighted']!r} != exact_min_weighted "
                            f"{doc['exact_min_weighted']!r}")
        return problems

    def probe(self, state, tracer) -> None:
        pass


WORKLOADS = {w.name: w for w in (FitGeneral, ClassifyCli, Analysis)}
