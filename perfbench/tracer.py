"""Spans around the public functions of the shallowmin modules, for the traced run.

Tracer.install replaces each target function by a wrapper in every loaded
shallowmin module namespace that holds it, so calls the library makes to
itself (``from .dataset import class_means``) are recorded as well as the
benchmark's own calls. Each span keeps its name, start, end, parent span and
job id; spans stay in memory until the run writes them out.

tracemalloc slows every allocation, several-fold in the per-point Python
loops, so it runs only during memory jobs. Peaks come from those jobs and
times from the others. Outside a traced job the wrappers only pass calls on,
so untraced jobs can run in the same process as a reference for the overhead.
"""

from __future__ import annotations

import dataclasses
import json
import statistics
import sys
import time
import tracemalloc

import numpy as np

# Public functions wrapped in spans: (module, attribute, span name).
TARGETS = [
    ("dataset", "dataset_stats", "dataset.dataset_stats"),
    ("dataset", "class_means", "dataset.class_means"),
    ("dataset", "compute_stats", "dataset.compute_stats"),
    ("dataset", "load_dataset", "dataset.load_dataset"),
    ("linalg", "projector_pack", "linalg.projector_pack"),
    ("network", "forward", "network.forward"),
    ("network", "load_params", "network.load_params"),
    ("constructive", "train_general", "constructive.train_general"),
    ("constructive", "w2_tilde", "constructive.w2_tilde"),
    ("constructive", "train_exact_meq", "constructive.train_exact_meq"),
    ("cost", "cost_l2", "cost.cost_l2"),
    ("cost", "bound_general", "cost.bound_general"),
    ("cost", "evaluate", "cost.evaluate"),
    ("cost", "exact_min_weighted", "cost.exact_min_weighted"),
    ("cost", "data_projector", "cost.data_projector"),
    ("classify", "classify", "classify.classify"),
    ("truncation", "sweep_fixed_point_region", "truncation.sweep_fixed_point_region"),
    ("truncation", "min_over_output_layer", "truncation.min_over_output_layer"),
    ("gd", "train_gd", "gd.train_gd"),
    ("verify", "suite_bounds", "verify.suite_bounds"),
    ("verify", "suite_degeneracy", "verify.suite_degeneracy"),
    ("verify", "suite_invariance", "verify.suite_invariance"),
    ("verify", "suite_metric", "verify.suite_metric"),
    ("verify", "suite_truncation", "verify.suite_truncation"),
    ("cli", "cmd_classify", "cli.classify"),
    ("cli", "cmd_verify", "cli.verify"),
    ("cli", "cmd_compare", "cli.compare"),
]


def _retained_bytes(stats) -> int:
    return sum(
        v.nbytes
        for v in (getattr(stats, f.name) for f in dataclasses.fields(stats))
        if isinstance(v, np.ndarray)
    )


# Values taken from a span's return value, for the ratio and size metrics.
EXTRAS = {
    "dataset.compute_stats": _retained_bytes,
    "classify.classify": lambda outcome: outcome.agreement,
    "gd.train_gd": lambda result: result[1][-1][0],  # last recorded step = steps run
}

# Per-layer metrics as (name, unit). Names are <module>.<function>.<stat>:
# `s` is the median self time per call, `peak_mb` the median tracemalloc peak
# above the memory in use at span start, `calls` the calls per job. A function
# the workload never calls reports 0.
PER_LAYER = [
    # fit-general
    ("dataset.dataset_stats.s", "s"),
    ("dataset.class_means.s", "s"),
    ("linalg.projector_pack.s", "s"),
    ("dataset.compute_stats.s", "s"),
    ("dataset.compute_stats.peak_mb", "MB"),
    ("dataset.stats_retained_mb", "MB"),
    ("constructive.train_general.s", "s"),
    ("constructive.train_general.peak_mb", "MB"),
    ("network.forward.s", "s"),
    ("cost.cost_l2.s", "s"),
    ("cost.bound_general.s", "s"),
    ("cost.evaluate.s", "s"),
    ("cost.evaluate.peak_mb", "MB"),
    # classify-cli
    ("cli.classify.s", "s"),
    ("dataset.load_dataset.s", "s"),
    ("network.load_params.s", "s"),
    ("constructive.w2_tilde.s", "s"),
    ("classify.classify.s", "s"),
    ("classify.classify.calls", "count"),
    ("classify.agreement_ratio", "ratio"),
    # analysis
    ("cli.verify.s", "s"),
    ("cli.compare.s", "s"),
    ("verify.suite_bounds.s", "s"),
    ("verify.suite_degeneracy.s", "s"),
    ("verify.suite_invariance.s", "s"),
    ("verify.suite_metric.s", "s"),
    ("verify.suite_truncation.s", "s"),
    ("cost.exact_min_weighted.s", "s"),
    ("cost.data_projector.s", "s"),
    ("cost.data_projector.peak_mb", "MB"),
    ("constructive.train_exact_meq.s", "s"),
    ("truncation.sweep_fixed_point_region.s", "s"),
    ("truncation.min_over_output_layer.s", "s"),
    ("gd.train_gd.s", "s"),
    ("gd.steps_per_s", "1/s"),
    # p50 of the traced timing jobs over p50 of the untraced jobs between them
    ("trace.job_p50_ratio", "ratio"),
]


@dataclasses.dataclass
class Span:
    id: int
    parent: int | None
    job: int
    name: str
    probe: bool
    memory: bool  # recorded under tracemalloc
    start: float = 0.0
    end: float = 0.0
    mem_start: int = 0
    peak: int = 0  # highest traced memory seen while open, in bytes
    extra: object = None


class Tracer:
    def __init__(self, skip=()):
        """skip: span names timed by probes on this workload, left unwrapped."""
        self.skip = set(skip)
        self.spans: list[Span] = []
        self.job = 0
        self.memory = False
        self.active = False
        self._open: list[Span] = []
        self._patched: list[tuple[object, str, object]] = []

    def _enter(self, name: str, probe: bool) -> Span:
        parent = self._open[-1] if self._open else None
        span = Span(id=len(self.spans), parent=parent.id if parent else None, job=self.job,
                    name=name, probe=probe, memory=self.memory)
        if self.memory:
            current, peak = tracemalloc.get_traced_memory()
            if parent is not None:
                parent.peak = max(parent.peak, peak)
            tracemalloc.reset_peak()
            span.mem_start = span.peak = current
        self.spans.append(span)
        self._open.append(span)
        span.start = time.perf_counter()
        return span

    def _exit(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._open.pop()
        if self.memory:
            span.peak = max(span.peak, tracemalloc.get_traced_memory()[1])
            if self._open:
                self._open[-1].peak = max(self._open[-1].peak, span.peak)

    def run_job(self, job: int, memory: bool, fn, *args):
        """Run one job in a span named "job"; under tracemalloc if `memory`."""
        self.job, self.memory, self.active = job, memory, True
        if memory:
            tracemalloc.start()
        try:
            return self.call("job", fn, *args)
        finally:
            if memory:
                tracemalloc.stop()
            self.memory = self.active = False

    def call(self, name: str, fn, *args, probe: bool = False, **kwargs):
        if not (self.active or probe):
            return fn(*args, **kwargs)
        span = self._enter(name, probe)
        try:
            result = fn(*args, **kwargs)
        finally:
            self._exit(span)
        if name in EXTRAS:
            span.extra = EXTRAS[name](result)
        return result

    def probe(self, name: str, fn, *args, **kwargs):
        """Time a sub-step the job does not call directly, labelled as a probe."""
        return self.call(name, fn, *args, probe=True, **kwargs)

    def install(self) -> None:
        modules = [m for key, m in list(sys.modules.items())
                   if key == "shallowmin" or key.startswith("shallowmin.")]
        for mod, attr, name in TARGETS:
            if name in self.skip:
                continue
            original = getattr(sys.modules[f"shallowmin.{mod}"], attr)

            def traced(*args, _fn=original, _name=name, **kwargs):
                return self.call(_name, _fn, *args, **kwargs)

            for module in modules:
                for key in [k for k, v in vars(module).items() if v is original]:
                    setattr(module, key, traced)
                    self._patched.append((module, key, original))

    def uninstall(self) -> None:
        for module, key, original in reversed(self._patched):
            setattr(module, key, original)
        self._patched.clear()

    def job_times(self) -> list[float]:
        """Wall time of each job run without tracemalloc."""
        return [s.end - s.start for s in self.spans if s.name == "job" and not s.memory]

    def metrics(self, n_jobs: int, untraced_p50: float) -> dict[str, float]:
        """Per-layer metrics over the traced jobs; n_jobs counts them all."""
        child_time = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent is not None:
                child_time[s.parent] += s.end - s.start
        by_name: dict[str, list[Span]] = {}
        for s in self.spans:
            by_name.setdefault(s.name, []).append(s)

        def median(values):
            return statistics.median(values) if values else 0.0

        def timed(name):
            return [s for s in by_name.get(name, []) if not s.memory]

        def self_times(name):
            return [s.end - s.start - child_time[s.id] for s in timed(name)]

        out = {}
        for metric, _unit in PER_LAYER:
            base, _, stat = metric.rpartition(".")
            spans = by_name.get(base, [])
            if metric == "dataset.stats_retained_mb":
                value = median([s.extra for s in by_name.get("dataset.compute_stats", [])]) / 1e6
            elif metric == "classify.agreement_ratio":
                flags = [s.extra for s in by_name.get("classify.classify", [])]
                value = sum(flags) / len(flags) if flags else 0.0
            elif metric == "gd.steps_per_s":
                value = median([s.extra / t for s, t in zip(timed("gd.train_gd"),
                                                          self_times("gd.train_gd"))])
            elif metric == "trace.job_p50_ratio":
                value = median(self.job_times()) / untraced_p50
            elif stat == "s":
                value = median(self_times(base))
            elif stat == "peak_mb":
                value = median([s.peak - s.mem_start for s in spans if s.memory]) / 1e6
            elif stat == "calls":
                value = sum(not s.probe for s in spans) / n_jobs
            else:
                raise ValueError(f"no rule for per-layer metric {metric}")
            out[metric] = float(value)
        return out

    def write(self, path, header: dict) -> None:
        with open(path, "w") as fh:
            fh.write(json.dumps(header) + "\n")
            for s in self.spans:
                fh.write(json.dumps({
                    "id": s.id, "parent": s.parent, "job": s.job, "name": s.name,
                    "probe": s.probe, "start": s.start, "end": s.end,
                    "peak_mb": (s.peak - s.mem_start) / 1e6 if s.memory else None,
                }) + "\n")
