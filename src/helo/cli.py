"""Command-line driver: generate, train, evaluate, ablate, gradcheck, report.

Exit codes: 0 success, 1 usage error, 2 validation/configuration error,
3 numerical divergence.
"""

from __future__ import annotations

import argparse
import json
import logging
import math
import os
import sys

from . import training as tr
from .config import TrainConfig
from .data import (
    SCHEMAS,
    DatasetSchema,
    generate_synthetic,
    load_dataset,
    load_json_object,
    load_schema,
    save_dataset,
    schema_by_name,
    split_loso,
    split_subject_dependent,
)
from .errors import HeloError, NumericalError, ValidationError
from .metrics import METRIC_NAMES, average_rank, render_rank_csv, render_rank_text
from .model import Model, ablation_grid
from .transport import write_violation_csv
from .verify import full_pipeline_gradcheck

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VALIDATION = 2
EXIT_NUMERICAL = 3


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise _UsageError(message)


def _resolve_schema(value: str) -> DatasetSchema:
    if value in SCHEMAS:
        return schema_by_name(value)
    if os.path.exists(value):
        return load_schema(value)
    raise ValidationError(f"--schema must name a built-in schema or a file: {value!r}")


def _infer_schema(path) -> DatasetSchema:
    with open(path, "r", encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                doc = json.loads(line)
                shape = {k: len(v) for k, v in doc.get("features", {}).items()}
            except (ValueError, AttributeError, TypeError) as exc:
                raise ValidationError(
                    f"{path} line {line_no}: not a dataset record ({exc})"
                ) from None
            for schema in SCHEMAS.values():
                if shape == {m.name: m.dim for m in schema.modalities}:
                    return schema
            raise ValidationError(
                f"no built-in schema matches modalities {sorted(shape)}"
            )
    raise ValidationError(f"cannot infer a schema from the empty file {path!r}")


def _load_config(args) -> TrainConfig:
    doc = {}
    if getattr(args, "config", None):
        doc = load_json_object(args.config, "config")
    config = TrainConfig.from_dict(doc)
    overrides = {}
    for flag in ("epochs", "batch_size", "learning_rate", "lambda_cc", "seed"):
        value = getattr(args, flag, None)
        if value is not None:
            overrides[flag] = value
    for item in getattr(args, "set", None) or []:
        key, sep, raw = item.partition("=")
        if not sep:
            raise ValidationError(f"--set expects key=value, got {item!r}")
        if key not in TrainConfig.__dataclass_fields__:
            raise ValidationError(f"unknown config key {key!r}")
        try:
            overrides[key] = json.loads(raw)
        except ValueError:
            raise ValidationError(f"--set {key}: {raw!r} is not a JSON value") from None
    return config.with_overrides(**overrides) if overrides else config


def _write_evaluation_csv(path, method: str, metrics, config_hash: str, seed: int):
    lines = [
        tr.provenance_line(config_hash, seed),
        "method," + ",".join(METRIC_NAMES),
        method + "," + ",".join(repr(x) for x in metrics.as_tuple()),
    ]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def _print_metrics(metrics) -> None:
    for name, value in zip(METRIC_NAMES, metrics.as_tuple()):
        print(f"{name:13s} {value:.6f}")


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def _cmd_generate(args) -> int:
    schema = _resolve_schema(args.schema)
    samples = generate_synthetic(schema, args.subjects, args.trials, args.seed)
    save_dataset(samples, args.out)
    print(f"wrote {len(samples)} samples to {args.out}")
    return EXIT_OK


def _train_one_fold(model, samples, train_idx, test_idx, out_dir, split_info):
    os.makedirs(out_dir, exist_ok=True)
    history, state = tr.train(model, samples, train_idx, test_idx)
    cfg_hash = model.config.hash()
    seed = model.config.seed
    tr.write_history_csv(history, os.path.join(out_dir, "history.csv"), cfg_hash, seed)
    tr.save_checkpoint(
        model, state, os.path.join(out_dir, "checkpoint.json"), split_info
    )
    if model.use_lcdca:
        tr.write_label_correlation_csv(
            model, os.path.join(out_dir, "label_correlation.csv"), cfg_hash, seed
        )
    return history


def _cmd_train(args) -> int:
    config = _load_config(args)
    schema = _resolve_schema(args.schema) if args.schema else _infer_schema(args.data)
    samples = load_dataset(args.data, schema)
    split_mode = args.split.replace("-", "_")
    if split_mode == "subject_dependent":
        train_idx, test_idx = split_subject_dependent(samples, seed=config.seed)
        model = Model(schema, config)
        split_info = {"mode": "subject_dependent", "ratio": 0.8, "seed": config.seed}
        history = _train_one_fold(
            model, samples, train_idx, test_idx, args.out_dir, split_info
        )
        final = history[-1].test_metrics if history else None
        if final is not None:
            _print_metrics(final)
        return EXIT_OK
    folds = split_loso(samples)
    selected = range(len(folds)) if args.fold is None else [args.fold]
    summary = [
        tr.provenance_line(config.hash(), config.seed),
        "fold," + ",".join(METRIC_NAMES),
    ]
    for k in selected:
        if not 0 <= k < len(folds):
            raise ValidationError(f"fold {k} out of range (have {len(folds)})")
        train_idx, test_idx = folds[k]
        model = Model(schema, config)
        split_info = {"mode": "loso", "fold": k}
        history = _train_one_fold(
            model,
            samples,
            train_idx,
            test_idx,
            os.path.join(args.out_dir, f"fold_{k:02d}"),
            split_info,
        )
        if history:
            summary.append(
                f"{k}," + ",".join(repr(x) for x in history[-1].test_metrics.as_tuple())
            )
    with open(os.path.join(args.out_dir, "summary.csv"), "w", encoding="utf-8") as fh:
        fh.write("\n".join(summary) + "\n")
    print(f"trained {len(list(selected))} fold(s); summary in {args.out_dir}")
    return EXIT_OK


def _cmd_evaluate(args) -> int:
    model, _, split_info = tr.load_checkpoint(args.checkpoint)
    samples = load_dataset(args.data, model.schema)
    mode = split_info.get("mode")
    try:
        if mode == "subject_dependent":
            _, test_idx = split_subject_dependent(
                samples, ratio=split_info.get("ratio", 0.8), seed=split_info["seed"]
            )
        elif mode == "loso":
            test_idx = split_loso(samples)[split_info["fold"]][1]
        elif split_info:
            raise ValidationError(
                f"checkpoint {args.checkpoint} has a split record of unknown "
                f"mode {mode!r}"
            )
        else:  # no split recorded: evaluate on every sample
            test_idx = tuple(range(len(samples)))
    except (KeyError, IndexError, TypeError, ValueError) as exc:
        raise ValidationError(
            f"checkpoint {args.checkpoint} has a bad split record: {exc!r}"
        ) from None
    metrics = tr.evaluate_model(model, samples, test_idx)
    _print_metrics(metrics)
    if args.out:
        _write_evaluation_csv(
            args.out,
            args.method or model.ablation.label(),
            metrics,
            model.config.hash(),
            model.config.seed,
        )
    return EXIT_OK


def _cmd_ablate(args) -> int:
    config = _load_config(args)
    schema = _resolve_schema(args.schema) if args.schema else _infer_schema(args.data)
    samples = load_dataset(args.data, schema)
    train_idx, test_idx = split_subject_dependent(samples, seed=config.seed)
    rows = [
        tr.provenance_line(config.hash(), config.seed),
        "variant,cheb,clark,canb,kl,cos,inter",
    ]
    for spec in ablation_grid(schema):
        model = Model(schema, config, spec)
        history, _ = tr.train(model, samples, train_idx, test_idx)
        metrics = (
            history[-1].test_metrics
            if history
            else tr.evaluate_model(model, samples, test_idx)
        )
        rows.append(spec.label() + "," + ",".join(repr(x) for x in metrics.as_tuple()))
        print(f"{spec.label():12s} done")
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write("\n".join(rows) + "\n")
    return EXIT_OK


def _cmd_gradcheck(args) -> int:
    err, _, plans = full_pipeline_gradcheck(seed=args.seed, eps=args.eps)
    if args.sinkhorn_csv:
        write_violation_csv(plans.plan(0), args.sinkhorn_csv)
    print(f"max relative gradient error: {err:.3e}")
    return EXIT_OK


def _cmd_report(args) -> int:
    scores: dict[str, dict[str, float]] = {}
    for path in args.inputs:
        with open(path, "r", encoding="utf-8") as fh:
            lines = [l.strip() for l in fh if l.strip() and not l.startswith("#")]
        header = lines[0].split(",") if lines else []
        if header[:1] != ["method"] or set(header[1:]) != set(METRIC_NAMES):
            raise ValidationError(f"{path}: not an evaluation CSV")
        for line in lines[1:]:
            cells = line.split(",")
            try:
                row = {name: float(value) for name, value in zip(header[1:], cells[1:])}
            except ValueError as exc:
                raise ValidationError(f"{path}: {exc}") from None
            for name, value in row.items():
                if not math.isfinite(value):
                    raise ValidationError(
                        f"{path}: {cells[0]} {name} is {value!r}, not a finite score"
                    )
            scores[cells[0]] = row
    table = average_rank(scores)
    text = render_rank_text(table)
    print(text, end="")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(render_rank_csv(table))
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="helo", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="write a synthetic JSONL dataset")
    p.add_argument("--schema", required=True, help="dmer | wesad | schema file")
    p.add_argument("--subjects", type=int, required=True)
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_generate)

    def add_config_flags(p):
        p.add_argument("--config", help="JSON config file; flags win")
        p.add_argument("--epochs", type=int)
        p.add_argument("--batch-size", dest="batch_size", type=int)
        p.add_argument("--learning-rate", dest="learning_rate", type=float)
        p.add_argument("--lambda-cc", dest="lambda_cc", type=float)
        p.add_argument("--seed", type=int)
        p.add_argument(
            "--set",
            action="append",
            metavar="KEY=VALUE",
            help="override any config field (JSON-encoded value)",
        )

    p = sub.add_parser("train", help="train on a dataset file")
    p.add_argument("--data", required=True)
    p.add_argument("--schema", help="dmer | wesad | schema file (default: infer)")
    p.add_argument(
        "--split",
        choices=["subject-dependent", "loso"],
        default="subject-dependent",
    )
    p.add_argument("--fold", type=int, help="train a single LOSO fold")
    p.add_argument("--out-dir", dest="out_dir", required=True)
    add_config_flags(p)
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("evaluate", help="evaluate a checkpoint on a dataset")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--out", help="write an evaluation CSV for `report`")
    p.add_argument("--method", help="method name used in the evaluation CSV")
    p.set_defaults(func=_cmd_evaluate)

    p = sub.add_parser("ablate", help="run the component/modality ablation grid")
    p.add_argument("--data", required=True)
    p.add_argument("--schema", help="dmer | wesad | schema file (default: infer)")
    p.add_argument("--out", required=True)
    add_config_flags(p)
    p.set_defaults(func=_cmd_ablate)

    p = sub.add_parser("gradcheck", help="finite-difference check of the pipeline")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--eps", type=float, default=3e-5)
    p.add_argument(
        "--sinkhorn-csv",
        dest="sinkhorn_csv",
        help="dump per-iteration marginal violations of one solved plan",
    )
    p.set_defaults(func=_cmd_gradcheck)

    p = sub.add_parser("report", help="rank methods from evaluation CSVs")
    p.add_argument("inputs", nargs="+", help="evaluation CSV files")
    p.add_argument("--out", help="write the rank table as CSV")
    p.set_defaults(func=_cmd_report)

    return parser


def run(argv) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(list(argv))
    except _UsageError:
        return EXIT_USAGE
    try:
        return args.func(args)
    except NumericalError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except HeloError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


def main() -> None:
    logging.basicConfig(format="%(levelname)s: %(message)s")
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
