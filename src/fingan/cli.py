"""Command-line entry points for the balancing pipeline."""

import argparse
import json
import sys

import numpy as np

from . import __version__
from .ctgan import CtganModel, train_ctgan
from .data_model import Schema, fit_preprocess, load_csv
from .errors import FinganError
from .fixtures import table_to_csv, write_fixture_files
from .gan import CTGAN, VANILLA, GanConfig, GeneratorModel, train_gan
from .ocsvm import KERNEL_KINDS, undersample_majority
from .pipeline import ExperimentConfig, render_report_text, run_experiment


def load_model_file(path):
    with open(path, encoding="utf-8") as f:
        d = json.load(f)
    fmt = d.get("format")
    for model_class in (GeneratorModel, CtganModel):
        if fmt == model_class.FORMAT:
            return model_class.from_dict(d)
    raise FinganError(f"unrecognized model format {fmt!r}")


def _emit(args, payload, human):
    if getattr(args, "json", False):
        print(json.dumps(payload, sort_keys=True))
    else:
        print(human)


def cmd_preprocess(args):
    schema = Schema.from_json(args.schema)
    table = load_csv(args.csv, schema)
    params = fit_preprocess(table)
    out = {
        "means": {schema.columns[j].name: mu for j, mu in params.means.items()},
        "stds": {schema.columns[j].name: s for j, s in params.stds.items()},
        "constant_columns": [schema.columns[j].name for j in params.constant_columns],
        "rows": table.n_rows,
        "positives": table.n_positive,
    }
    with open(args.out, "w", encoding="utf-8") as f:
        json.dump(out, f, indent=2, sort_keys=True)
    _emit(args, out, f"wrote preprocessing params for {table.n_rows} rows to {args.out}")
    return 0


def cmd_train_gan(args):
    mode = VANILLA if args.gan == "gan" else args.gan
    default_epochs = 300 if mode == CTGAN else 3000
    config = GanConfig(mode=mode, epochs=default_epochs if args.epochs is None else args.epochs,
                       batch_size=args.batch_size, latent_dim=args.latent_dim, seed=args.seed)
    minority = load_csv(args.csv, Schema.from_json(args.schema)).positives()
    model = (train_ctgan if mode == CTGAN else train_gan)(minority, config)
    with open(args.out, "w", encoding="utf-8") as f:
        json.dump(model.to_dict(), f)
    _emit(args, {"model": args.out, "minority_rows": minority.n_rows},
          f"trained {args.gan} on {minority.n_rows} minority rows; model at {args.out}")
    return 0


def cmd_sample(args):
    model = load_model_file(args.model)
    if args.condition:
        if not isinstance(model, CtganModel):
            raise FinganError(f"--condition needs a conditional (CTGAN) model; "
                              f"{args.model} is {model.FORMAT}")
        col, sep, val = args.condition.partition("=")
        if not sep:
            raise FinganError(f"--condition must be column=category, got {args.condition!r}")
        table = model.sample(args.n, args.seed, condition=(col, val))
    else:
        table = model.sample(args.n, args.seed)
    table_to_csv(table, args.out)
    _emit(args, {"rows": table.n_rows, "out": args.out},
          f"wrote {table.n_rows} synthetic rows to {args.out}")
    return 0


def cmd_undersample(args):
    schema = Schema.from_json(args.schema)
    table = load_csv(args.csv, schema)
    kept, model = undersample_majority(table, args.nu, args.kernel, args.gamma, args.coef0)
    table_to_csv(kept, args.out)
    if args.model_out:
        with open(args.model_out, "w", encoding="utf-8") as f:
            json.dump(model.to_dict(), f)
    _emit(args, {"kept": kept.n_rows, "of": table.n_negative, "out": args.out},
          f"kept {kept.n_rows} of {table.n_negative} majority rows "
          f"(support vectors) in {args.out}")
    return 0


def cmd_run(args):
    config = ExperimentConfig.from_json(args.config)
    report = run_experiment(config)
    _emit(args, {"output_dir": config.output_dir, "mode": report["mode"]},
          f"experiment complete; reports in {config.output_dir}")
    return 0


def cmd_report(args):
    with open(args.report, encoding="utf-8") as f:
        report = json.load(f)
    if args.json:
        print(json.dumps(report, sort_keys=True))
    else:
        print(render_report_text(report))
    return 0


def cmd_fixtures(args):
    written = write_fixture_files(args.out)
    _emit(args, {"files": written}, "\n".join(written))
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="fingan",
        description="Rebalance skewed binary tabular datasets with GAN "
                    "oversampling and one-class-SVM undersampling.",
    )
    parser.add_argument("--version", action="version", version=f"fingan {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("preprocess", help="fit standardization params on a CSV")
    p.add_argument("--csv", required=True)
    p.add_argument("--schema", required=True, help="schema JSON path")
    p.add_argument("--out", required=True, help="params JSON output path")
    p.add_argument("--json", action="store_true", help="machine output on stdout")
    p.set_defaults(func=cmd_preprocess)

    p = sub.add_parser("train-gan", help="train an oversampler on minority rows")
    p.add_argument("--csv", required=True)
    p.add_argument("--schema", required=True)
    p.add_argument("--gan", choices=["gan", "wgan", "ctgan"], default="gan")
    p.add_argument("--epochs", type=int, default=None,
                   help="training epochs (default: 300 for ctgan, 3000 otherwise)")
    p.add_argument("--batch-size", type=int, default=64)
    p.add_argument("--latent-dim", type=int, default=64)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="model JSON output path")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_train_gan)

    p = sub.add_parser("sample", help="draw synthetic minority rows from a model")
    p.add_argument("--model", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="CSV output path")
    p.add_argument("--condition", help="col=value, conditional models only")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("undersample", help="keep majority support vectors only")
    p.add_argument("--csv", required=True)
    p.add_argument("--schema", required=True)
    p.add_argument("--nu", type=float, default=0.5)
    p.add_argument("--kernel", choices=KERNEL_KINDS, default="sigmoid")
    p.add_argument("--gamma", default="auto")
    p.add_argument("--coef0", type=float, default=0.0)
    p.add_argument("--out", required=True, help="CSV of retained majority rows")
    p.add_argument("--model-out", help="optional model JSON path")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_undersample)

    p = sub.add_parser("run", help="run a full experiment from a config JSON")
    p.add_argument("--config", required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("report", help="render a report.json as text")
    p.add_argument("--report", required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_report)

    p = sub.add_parser("fixtures", help="emit the toy datasets used in tests")
    p.add_argument("--out", default="fixtures")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_fixtures)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (FinganError, OSError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
