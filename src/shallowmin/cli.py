"""Command-line interface wiring all modules together.

Commands: gen, train, eval, classify, truncation-sweep, verify, compare,
report. Every command is deterministic given (inputs, seed, flags); JSON
output serializes floats via repr, which round-trips full double precision,
so reruns are byte-identical. Exit codes: 0 success, 1 verification failure,
2 usage error, 3 numeric/rank error.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from pathlib import Path

import numpy as np

from .classify import classify_batch
from . import dataset as dataset_mod
from .constructive import (
    ConstructiveConfig,
    Variant,
    provenance,
    train,
    w2_tilde,
)
from .cost import evaluate
from .dataset import dataset_stats, load_dataset, save_json, synthesize
from .errors import DimensionError, MissingArtifact, ShallowminError
from .gd import GdConfig, compare as gd_compare, train_gd
from .network import load_params, params_to_dict
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


def _write_json(doc, out: Path | None) -> None:
    text = json.dumps(doc) + "\n"
    if out is None:
        sys.stdout.write(text)
    else:
        out.write_text(text)


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
    if args.out is None:
        _write_json(dataset_mod.to_json_dict(ds), None)
    else:
        save_json(ds, args.out)
    return EXIT_OK


def cmd_train(args) -> int:
    ds = _dataset_from_args(args)
    stats, pack = dataset_stats(ds)
    cfg = ConstructiveConfig(beta1_margin=args.beta1_margin)
    variant = Variant(args.variant)
    params = train(ds, stats, pack, variant, cfg)
    prov = provenance(variant, ds, stats, pack, cfg)
    _write_json({**params_to_dict(params), "provenance": prov}, args.out)
    return EXIT_OK


def cmd_eval(args) -> int:
    ds = _dataset_from_args(args)
    stats, pack = dataset_stats(ds)
    params, _ = load_params(args.params)
    report = evaluate(params, ds, stats, pack, include_matrices=args.matrices)
    doc = report.to_dict(include_matrices=args.matrices)
    scalar_keys = [k for k in doc if not isinstance(doc[k], list)]
    if args.format == "table":
        print(_render_table([doc], scalar_keys))
        if args.out is not None:
            _write_json(doc, args.out)
    elif args.format == "csv":
        out_fh = open(args.out, "w", newline="") if args.out else sys.stdout
        try:
            writer = csv.writer(out_fh)
            writer.writerow(scalar_keys)
            writer.writerow(["" if doc[k] is None else repr(doc[k]) for k in scalar_keys])
        finally:
            if args.out:
                out_fh.close()
    else:
        _write_json(doc, args.out)
    return EXIT_OK


def _read_input_block(path: Path, has_header: bool, m: int) -> np.ndarray:
    """K x M block of the non-empty data rows of a CSV file; a row whose width
    is not M or with a non-numeric cell raises DimensionError naming it by its
    output index."""
    rows = []
    with open(path, newline="") as fh:
        for i, row in enumerate(csv.reader(fh)):
            if i == 0 and has_header:
                continue
            if row:
                if len(row) != m:
                    raise DimensionError(
                        f"input row {len(rows)} (line {i + 1}) has {len(row)} values, "
                        f"expected M={m}")
                try:
                    rows.append([float(v) for v in row])
                except ValueError as exc:
                    raise DimensionError(
                        f"input row {len(rows)} (line {i + 1}): {exc}") from exc
    return np.array(rows, dtype=float).reshape(len(rows), m)


def cmd_classify(args) -> int:
    ds = _dataset_from_args(args)
    stats, pack = dataset_stats(ds)
    params, _ = load_params(args.params)
    w2t = w2_tilde(ds, stats)
    inputs = _read_input_block(args.inputs, args.inputs_header, params.m)
    # metric scores and agreement are computed but not written
    outcome = classify_batch(params, w2t, pack.p, stats.means, ds.y, inputs.T)
    out_fh = open(args.out, "w", newline="") if args.out else sys.stdout
    try:
        writer = csv.writer(out_fh)
        writer.writerow(["index", "winner"] + [f"score_{j}" for j in range(ds.q)])
        for i, (winner, scores) in enumerate(zip(outcome.winners.tolist(),
                                                 outcome.scores.tolist())):
            writer.writerow([i, winner] + [repr(s) for s in scores])
    finally:
        if args.out:
            out_fh.close()
    return EXIT_OK


def cmd_truncation_sweep(args) -> int:
    ds = _dataset_from_args(args)
    with open(args.grid) as fh:
        raw = json.load(fh)
    grid = [(np.array(g["w1"], dtype=float), np.array(g["b1"], dtype=float)) for g in raw]
    points = sweep_fixed_point_region(ds, grid)
    lines = [json.dumps(pt.to_dict(include_matrices=args.matrices)) for pt in points]
    text = "\n".join(lines) + "\n"
    if args.out is None:
        sys.stdout.write(text)
    else:
        args.out.write_text(text)
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
    full_ds = _dataset_from_args(args)
    held_x = None
    if args.holdout is not None:
        ds, held_x, held_labels = dataset_mod.holdout_split(
            full_ds, args.holdout, seed=args.seed)
    else:
        ds = full_ds
    stats, pack = dataset_stats(ds)
    cfg = ConstructiveConfig(beta1_margin=args.beta1_margin)
    variant = Variant.EXACT if ds.m == ds.q else Variant.GENERAL
    constructive_params = train(ds, stats, pack, variant, cfg)
    gd_cfg = GdConfig(learning_rate=args.lr, steps=args.steps, seed=args.gd_seed,
                      init_scale=args.init_scale, record_every=args.record_every)
    gd_params, trace = train_gd(ds, gd_cfg)
    doc = gd_compare(ds, stats, pack, gd_params, constructive_params)
    doc["variant"] = variant.value
    if held_x is not None and held_x.shape[1]:
        w2t = w2_tilde(ds, stats)
        for key, params in (("gd", gd_params), ("constructive", constructive_params)):
            winners = classify_batch(params, w2t, pack.p, stats.means, ds.y, held_x).winners
            hits = int(np.count_nonzero(winners == np.asarray(held_labels)))
            doc[key]["holdout_accuracy"] = hits / len(held_labels)
    if args.trace_out is not None:
        with open(args.trace_out, "w", newline="") as fh:
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
            return [json.loads(line) for line in text.splitlines() if line.strip()]
        except json.JSONDecodeError:
            pass
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise MissingArtifact(f"not a JSON artifact: {path}: {exc}") from exc
    return doc if isinstance(doc, list) else [doc]


def cmd_report(args) -> int:
    rows = []
    for path in args.inputs:
        for doc in _load_artifact(Path(path)):
            if "provenance" in doc:
                rows.append({"kind": "train", "source": str(path), **doc["provenance"]})
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
    if args.format == "table" or args.out is None:
        keys = ["kind", "source", "variant", "cost_l2", "cost_weighted", "bound_l2",
                "bound_deltap", "exact_min_weighted", "min_cost_weighted",
                "delta", "delta_p", "rho", "beta1", "in_fixed_point_region", "error"]
        used = [k for k in keys if any(k in r for r in rows)] or ["kind", "source"]
        print(_render_table(rows, used))
    if args.out is not None:
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
    except MissingArtifact as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (OSError, json.JSONDecodeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ShallowminError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
