"""Command-line interface wiring all modules together.

Commands: gen, train, eval, classify, truncation-sweep, verify, compare,
report. Every command is deterministic given (inputs, seed, flags); JSON
output serializes floats via repr, which round-trips full double precision,
so reruns are byte-identical, whatever the input path and BLAS thread count,
on one machine and BLAS build. Exit codes: 0 success, 1 verification failure,
2 usage error, 3 numeric/rank error.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import json
import sys
from pathlib import Path

import numpy as np

from .classify import score_batch
from . import dataset as dataset_mod
from .constructive import ConstructiveConfig, Variant, pipeline, provenance
from .cost import evaluate
from .dataset import (
    checked_targets,
    csv_rows,
    dataset_stats,
    json_field,
    load_dataset,
    synthesize,
)
from .errors import DimensionError, MissingArtifact, ShallowminError
from .gd import GdConfig, compare as gd_compare, train_gd
from .network import ShallowParams, load_params, params_to_dict, provenance_of
from .truncation import sweep_fixed_point_region
from .verify import SUITES, run_suite

EXIT_OK = 0
EXIT_VERIFY_FAIL = 1
EXIT_USAGE = 2
EXIT_NUMERIC = 3


def _add_dataset_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--data", type=Path, default=None, help="dataset file (.json or .csv)")
    p.add_argument("--has-header", action="store_true", help="CSV dataset has a header row")
    p.add_argument("--m", type=int, default=3, help="input dimension for synthesis")
    p.add_argument("--q", type=int, default=3, help="class count for synthesis")
    p.add_argument("--sizes", type=str, default=None,
                   help="comma-separated class sizes (default: 8 per class)")
    p.add_argument("--noise", type=float, default=0.05, help="uniform box noise amplitude")
    p.add_argument("--mean-scale", type=float, default=1.0, help="class-mean scale")
    p.add_argument("--seed", type=int, default=0, help="PRNG seed (numpy PCG64)")


def _dataset_from_args(args) -> dataset_mod.ClassifiedDataset:
    if args.data is not None:
        return load_dataset(args.data, has_header=getattr(args, "has_header", False))
    sizes = ([int(s) for s in args.sizes.split(",")] if args.sizes
             else [8] * args.q)
    return synthesize(args.m, args.q, sizes, mean_scale=args.mean_scale,
                      noise=args.noise, seed=args.seed)


def _output(out: Path | None):
    """Stdout or the file out (newline="", as csv wants), as a context manager.
    Compute the output before calling this, so that a failure leaves no file."""
    return contextlib.nullcontext(sys.stdout) if out is None else open(out, "w", newline="")


def _write_json(doc, out: Path | None) -> None:
    text = json.dumps(doc) + "\n"
    with _output(out) as fh:
        fh.write(text)


def _render_table(rows: list[dict], keys: list[str]) -> str:
    widths = {k: max(len(k), *(len(_fmt(r.get(k))) for r in rows)) if rows else len(k)
              for k in keys}
    header = "  ".join(k.ljust(widths[k]) for k in keys)
    lines = [header, "-" * len(header)]
    for r in rows:
        lines.append("  ".join(_fmt(r.get(k)).ljust(widths[k]) for k in keys))
    return "\n".join(lines)


def _fmt(v) -> str:
    if v is None:
        return "-"
    if isinstance(v, bool):
        return str(v)
    if isinstance(v, float):
        return f"{v:.6e}"
    return str(v)


def cmd_gen(args) -> int:
    ds = _dataset_from_args(args)
    with _output(args.out) as fh:
        dataset_mod.save_json(ds, fh)
    return EXIT_OK


def cmd_train(args) -> int:
    """Params plus provenance. The provenance ends in the targets y and, for a
    JSON --data file, the SHA-256 of the bytes parsed (else null), which lets
    classify skip parsing that file again."""
    sha256 = None
    if args.data is not None and dataset_mod.reads_as_json(args.data):
        import hashlib  # loads OpenSSL (~4 MB of RSS), so only where a digest is taken

        sha256 = hashlib.sha256()
        ds = dataset_mod.load_json(args.data, sha256)
    else:
        ds = _dataset_from_args(args)
    pl = pipeline(ds, ConstructiveConfig(beta1_margin=args.beta1_margin))
    variant = Variant(args.variant)
    trained = pl.square if variant is Variant.EXACT else pl.general
    prov = {**provenance(variant, trained, pl), "y": ds.y.tolist(),
            "data_sha256": None if sha256 is None else sha256.hexdigest()}
    _write_json({**params_to_dict(trained.params), "provenance": prov}, args.out)
    return EXIT_OK


def cmd_eval(args) -> int:
    pl = pipeline(_dataset_from_args(args))
    params, _ = load_params(args.params)
    report = evaluate(params, pl.ds, pl.stats, pl.pack, include_matrices=args.matrices)
    doc = report.to_dict(include_matrices=args.matrices)
    scalar_keys = [k for k in doc if not isinstance(doc[k], list)]
    if args.format == "table":
        print(_render_table([doc], scalar_keys))
        if args.out is not None:
            _write_json(doc, args.out)
    elif args.format == "csv":
        with _output(args.out) as fh:
            writer = csv.writer(fh)
            writer.writerow(scalar_keys)
            writer.writerow(["" if doc[k] is None else repr(doc[k]) for k in scalar_keys])
    else:
        _write_json(doc, args.out)
    return EXIT_OK


def _classify_model(args) -> tuple[ShallowParams, np.ndarray, tuple[int, int]]:
    """The params of args.params, the Q x Q targets to score against, and the
    (M, Q) of the data they were taken from.

    When --data is a JSON file whose SHA-256 equals the data_sha256 that train
    recorded in the params' provenance, the targets are the provenance y and
    the file is not parsed (nor hashed when no digest is recorded). Otherwise
    the dataset is loaded as every command loads it, dataset_stats checks the
    rank of its class means, and its y is used.
    """
    params = prov = load_error = None
    try:
        params, prov = load_params(args.params)
    except (OSError, ValueError, ShallowminError) as exc:
        load_error = exc  # raised below, after the dataset's own errors
    recorded = (prov or {}).get("data_sha256")
    json_data = args.data is not None and dataset_mod.reads_as_json(args.data)
    if recorded is not None and json_data and recorded == dataset_mod.file_sha256(args.data):
        y = checked_targets(json_field(prov, "y", "params provenance"), params.q)
        return params, y, (params.m, params.q)
    ds = _dataset_from_args(args)
    dataset_stats(ds)
    if load_error is not None:
        raise load_error
    return params, ds.y, (ds.m, ds.q)


def cmd_classify(args) -> int:
    params, y, data_shape = _classify_model(args)
    inputs, _ = csv_rows(args.inputs, args.inputs_header,
                         lambda k, line: f"input row {k} (line {line})", params.m)
    if data_shape != (params.m, params.q):
        raise DimensionError(f"means shape {data_shape} != ({params.m}, {params.q})")
    scores = score_batch(params, y, inputs.T)
    # csv.writer's bytes: no cell (an int or a float's repr) needs quoting.
    header = ",".join(["index", "winner"] + [f"score_{j}" for j in range(params.q)])
    text = "".join([f"{header}\r\n"] + [
        f"{i},{winner},{','.join(map(repr, row))}\r\n"
        for i, (winner, row) in enumerate(zip(np.argmin(scores, axis=1).tolist(),
                                              scores.tolist()))])
    with _output(args.out) as fh:
        fh.write(text)
    return EXIT_OK


def cmd_truncation_sweep(args) -> int:
    ds = _dataset_from_args(args)
    raw = json.loads(args.grid.read_text())
    if not isinstance(raw, list):
        raise DimensionError(f"truncation grid must be a JSON list, got {type(raw).__name__}")
    grid = [tuple(json_field(g, key, f"truncation grid entry {i}") for key in ("w1", "b1"))
            for i, g in enumerate(raw)]
    # One line per point as the sweep yields it: without --matrices no
    # point's arrays outlive its line.
    lines = [json.dumps(pt.to_dict(include_matrices=args.matrices))
             for pt in sweep_fixed_point_region(ds, grid)]
    text = "".join(line + "\n" for line in lines)  # an empty grid writes nothing
    with _output(args.out) as fh:
        fh.write(text)
    return EXIT_OK


def cmd_verify(args) -> int:
    ds = _dataset_from_args(args)
    checks = run_suite(args.suite, ds, seed=args.seed)
    n_fail = 0
    for c in checks:
        status = "PASS" if c.passed else "FAIL"
        n_fail += 0 if c.passed else 1
        print(f"[{status}] {c.name:<34} measured={c.measured:.3e}  tol={c.tolerance:.3e}"
              + (f"  {c.detail}" if c.detail else ""))
    print(f"{len(checks) - n_fail}/{len(checks)} checks passed")
    if n_fail:
        first = next(c for c in checks if not c.passed)
        print(f"first failing property: {first.name}", file=sys.stderr)
        return EXIT_VERIFY_FAIL
    return EXIT_OK


def cmd_compare(args) -> int:
    ds = _dataset_from_args(args)
    held_x = None
    if args.holdout is not None:
        ds, held_x, held_labels = dataset_mod.holdout_split(ds, args.holdout, seed=args.seed)
    pl = pipeline(ds, ConstructiveConfig(beta1_margin=args.beta1_margin))
    variant = Variant.EXACT if ds.m == ds.q else Variant.GENERAL
    trained = pl.square if variant is Variant.EXACT else pl.general
    gd_cfg = GdConfig(learning_rate=args.lr, steps=args.steps, seed=args.gd_seed,
                      init_scale=args.init_scale, record_every=args.record_every)
    gd_params, trace = train_gd(ds, gd_cfg)
    doc = gd_compare(pl, gd_params, trained)
    doc["variant"] = variant.value
    if held_x is not None and held_x.shape[1]:
        for key, params in (("gd", gd_params), ("constructive", trained.params)):
            winners = np.argmin(score_batch(params, ds.y, held_x), axis=1)
            hits = int(np.count_nonzero(winners == np.asarray(held_labels)))
            doc[key]["holdout_accuracy"] = hits / len(held_labels)
    if args.trace_out is not None:
        with _output(args.trace_out) as fh:
            writer = csv.writer(fh)
            writer.writerow(["step", "cost_l2"])
            for step, cost in trace:
                writer.writerow([step, repr(cost)])
    rows = [
        {"trainer": "gd", **doc["gd"]},
        {"trainer": "constructive", **doc["constructive"]},
    ]
    keys = ["trainer", "cost_l2", "cost_weighted", "in_fixed_point_region"]
    if any("holdout_accuracy" in r for r in rows):
        keys.append("holdout_accuracy")
    print(_render_table(rows, keys))
    print(f"bound_l2={_fmt(doc['bound_l2'])}  bound_deltap={_fmt(doc['bound_deltap'])}  "
          f"exact_min_weighted={_fmt(doc['exact_min_weighted'])}")
    if args.out is not None:
        _write_json(doc, args.out)
    return EXIT_OK


def _load_artifact(path: Path) -> list[dict]:
    if not path.exists():
        raise MissingArtifact(f"no such artifact: {path}")
    text = path.read_text().strip()
    if not text:
        raise MissingArtifact(f"empty artifact: {path}")
    if path.suffix == ".jsonl" or "\n" in text and text.lstrip().startswith("{"):
        try:
            return _objects([json.loads(line) for line in text.splitlines() if line.strip()],
                            path)
        except json.JSONDecodeError:
            pass
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise MissingArtifact(f"not a JSON artifact: {path}: {exc}") from exc
    return _objects(doc if isinstance(doc, list) else [doc], path)


def _objects(docs: list, path: Path) -> list[dict]:
    """docs, after checking that each entry is a JSON object (DimensionError
    naming the first that is not)."""
    for i, doc in enumerate(docs):
        if not isinstance(doc, dict):
            raise DimensionError(f"artifact {path} entry {i} must be a JSON object, "
                                 f"got {type(doc).__name__}")
    return docs


def cmd_report(args) -> int:
    rows = []
    for path in args.inputs:
        for doc in _load_artifact(Path(path)):
            if "provenance" in doc:
                prov = provenance_of(doc, f"artifact {path}") or {}
                rows.append({"kind": "train", "source": str(path), **prov})
            elif "cost_l2" in doc:
                rows.append({"kind": "eval", "source": str(path), **doc})
            elif "min_cost_weighted" in doc or "error" in doc:
                rows.append({"kind": "truncation", "source": str(path), **doc})
            elif "gd" in doc and "constructive" in doc:
                flat = {k: v for k, v in doc.items() if not isinstance(v, dict)}
                flat["cost_l2"] = doc["constructive"].get("cost_l2")
                flat["cost_weighted"] = doc["constructive"].get("cost_weighted")
                rows.append({"kind": "compare", "source": str(path), **flat})
            else:
                rows.append({"kind": "unknown", "source": str(path), **doc})
    merged = {"artifacts": rows}
    if args.format == "table":
        keys = ["kind", "source", "variant", "cost_l2", "cost_weighted", "bound_l2",
                "bound_deltap", "exact_min_weighted", "min_cost_weighted",
                "delta", "delta_p", "rho", "beta1", "in_fixed_point_region", "error"]
        used = [k for k in keys if any(k in r for r in rows)] or ["kind", "source"]
        print(_render_table(rows, used))
    if args.format == "json" or args.out is not None:
        _write_json(merged, args.out)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="shallowmin",
        description="Closed-form training and cost analysis for shallow ReLU classifiers",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="synthesize a dataset and write it as JSON")
    _add_dataset_args(p)
    p.add_argument("--out", type=Path, default=None)
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("train", help="build constructive parameters")
    _add_dataset_args(p)
    p.add_argument("--variant", choices=[v.value for v in Variant], default="general")
    p.add_argument("--beta1-margin", type=float, default=None)
    p.add_argument("--out", type=Path, default=None)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="evaluate costs and bounds for saved parameters")
    _add_dataset_args(p)
    p.add_argument("--params", type=Path, required=True)
    p.add_argument("--matrices", action="store_true", help="include deviation matrices")
    p.add_argument("--format", choices=["json", "csv", "table"], default="json")
    p.add_argument("--out", type=Path, default=None)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("classify", help="classify CSV input rows")
    _add_dataset_args(p)
    p.add_argument("--params", type=Path, required=True)
    p.add_argument("--inputs", type=Path, required=True, help="CSV of test inputs, one per row")
    p.add_argument("--inputs-header", action="store_true")
    p.add_argument("--out", type=Path, default=None)
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("truncation-sweep", help="evaluate a (w1, b1) grid")
    _add_dataset_args(p)
    p.add_argument("--grid", type=Path, required=True,
                   help='JSON list of {"w1": [[...]], "b1": [...]}')
    p.add_argument("--matrices", action="store_true")
    p.add_argument("--out", type=Path, default=None, help="JSON-lines output")
    p.set_defaults(func=cmd_truncation_sweep)

    p = sub.add_parser("verify", help="run a numerical verification suite")
    p.add_argument("suite", choices=list(SUITES) + ["all"])
    _add_dataset_args(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("compare", help="gradient descent vs the constructive trainer")
    _add_dataset_args(p)
    p.add_argument("--lr", type=float, default=GdConfig.learning_rate)
    p.add_argument("--steps", type=int, default=GdConfig.steps)
    p.add_argument("--gd-seed", type=int, default=0)
    p.add_argument("--init-scale", type=float, default=GdConfig.init_scale)
    p.add_argument("--record-every", type=int, default=GdConfig.record_every)
    p.add_argument("--beta1-margin", type=float, default=None)
    p.add_argument("--holdout", type=float, default=None,
                   help="train on a seeded per-class split and report held-out accuracy")
    p.add_argument("--trace-out", type=Path, default=None, help="CSV (step, cost)")
    p.add_argument("--out", type=Path, default=None)
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("report", help="merge run artifacts into one report")
    p.add_argument("--inputs", type=Path, nargs="*", default=[])
    p.add_argument("--format", choices=["json", "table"], default="table")
    p.add_argument("--out", type=Path, default=None)
    p.set_defaults(func=cmd_report)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (MissingArtifact, OSError, json.JSONDecodeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ShallowminError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
