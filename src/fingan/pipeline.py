"""Experiment orchestration: split, balance, train classifiers, report.

Two balancing shapes are supported: oversampling only (synthetic minority
rows merged with the full majority), and the hybrid where the majority is
first reduced to its one-class-SVM support vectors. Preprocessing and
balancing are always fit on the training side of a split only.
"""

import json
import os
import time
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from . import __version__
from .classifiers import (
    ForestParams,
    MlpClfParams,
    TreeParams,
    fit_forest,
    fit_logistic,
    fit_mlp_classifier,
    fit_svm_linear,
    fit_tree,
)
from .ctgan import CtganConfig, train_ctgan
from .data_model import (
    Schema,
    Table,
    concat_tables,
    fit_preprocess,
    load_csv,
    stratified_holdout,
    stratified_kfold,
)
from .errors import AuditMismatch
from .evaluation import T_CRITICAL, confusion, extract_rules, metrics, t_test_auc
from .gan import (
    VANILLA,
    WGAN,
    GanConfig,
    balance_by_oversampling,
    synthetic_count,
    train_gan,
)
from .nn_core import AdamConfig
from .ocsvm import KERNEL_KINDS, encode_for_kernel, undersample_majority

OVERSAMPLERS = ("none", "gan", "wgan", "ctgan")
SPLIT_MODES = ("holdout", "kfold")
ENCODED_KINDS = ("logistic", "mlp", "svm")  # need standardized one-hot inputs


@dataclass
class OcsvmSettings:
    enabled: bool = False
    nu: float = 0.5
    kernel: str = "sigmoid"
    gamma: object = "auto"  # "auto" -> 1/d
    coef0: float = 0.0

    def __post_init__(self):
        if not 0 < self.nu <= 1:
            raise ValueError(f"ocsvm nu must lie in (0, 1], got {self.nu!r}")
        if self.kernel not in KERNEL_KINDS:
            raise ValueError(f"unknown ocsvm kernel {self.kernel!r}")
        if self.gamma != "auto":
            try:
                positive = float(self.gamma) > 0
            except (TypeError, ValueError):
                positive = False
            if not positive:
                raise ValueError(
                    f"ocsvm gamma must be \"auto\" or positive, got {self.gamma!r}")


@dataclass
class BalancerSettings:
    oversampler: str = "none"
    target: object = "parity"  # "parity" or an integer count
    epochs: int = 300
    batch_size: int = 64
    latent_dim: int = 64
    learning_rate: float = 2e-4
    max_modes: int = 10
    ocsvm: OcsvmSettings = field(default_factory=OcsvmSettings)

    def __post_init__(self):
        if self.oversampler not in OVERSAMPLERS:
            raise ValueError(f"unknown oversampler {self.oversampler!r}")
        for name in ("epochs", "batch_size", "latent_dim", "max_modes"):
            if getattr(self, name) < 1:
                raise ValueError(
                    f"{name} must be at least 1, got {getattr(self, name)!r}")
        if not self.learning_rate > 0:
            raise ValueError(f"learning_rate must be positive, got {self.learning_rate!r}")
        if self.target != "parity" and not (
                type(self.target) is int and self.target >= 0):
            raise ValueError(
                f"target must be \"parity\" or an integer >= 0, got {self.target!r}")


@dataclass
class SplitSettings:
    mode: str = "holdout"  # "holdout" or "kfold"
    train_fraction: float = 0.8
    k: int = 10

    def __post_init__(self):
        if self.mode not in SPLIT_MODES:
            raise ValueError(f"unknown split mode {self.mode!r}")
        if self.mode == "holdout" and not 0 < self.train_fraction < 1:
            raise ValueError(
                f"train_fraction must lie in (0, 1), got {self.train_fraction!r}")
        if self.mode == "kfold" and self.k < 2:
            raise ValueError(f"k must be at least 2, got {self.k!r}")


def _check_keys(section, d, allowed):
    unknown = sorted(set(d) - set(allowed))
    if unknown:
        raise ValueError(f"unknown {section} setting(s): {', '.join(map(repr, unknown))}")


def _settings(cls, section, d):
    """cls(**d), rejecting keys that are not fields of cls by name."""
    _check_keys(section, d, {f.name for f in fields(cls)})
    return cls(**d)


@dataclass
class ExperimentConfig:
    csv_path: str
    schema_path: str
    split: SplitSettings = field(default_factory=SplitSettings)
    balancer: BalancerSettings = field(default_factory=BalancerSettings)
    classifiers: list = field(default_factory=lambda: [{"kind": "forest"}])
    seed: int = 0
    output_dir: str = "fingan-out"

    @classmethod
    def from_dict(cls, d):
        _check_keys("top-level", d, ("dataset", "split", "balancer", "classifiers",
                                     "seed", "output_dir"))
        _check_keys("dataset", d["dataset"], ("csv", "schema"))
        bal = dict(d.get("balancer", {}))
        bal["ocsvm"] = _settings(OcsvmSettings, "balancer.ocsvm", bal.get("ocsvm", {}))
        config = cls(
            csv_path=d["dataset"]["csv"],
            schema_path=d["dataset"]["schema"],
            split=_settings(SplitSettings, "split", d.get("split", {})),
            balancer=_settings(BalancerSettings, "balancer", bal),
            classifiers=list(d.get("classifiers", [{"kind": "forest"}])),
            seed=int(d.get("seed", 0)),
            output_dir=d.get("output_dir", "fingan-out"),
        )
        env_seed = os.environ.get("FINGAN_SEED")
        if env_seed is not None:
            config.seed = int(env_seed)
        if not config.classifiers:
            raise ValueError("at least one classifier is required")
        for spec in config.classifiers:
            _fit_call(spec, config.seed)  # checks the kind and the option values
            _check_keys(f"{spec['kind']} classifier", spec,
                        ("kind", "name", *CLASSIFIER_OPTIONS[spec["kind"]]))
        return config

    @classmethod
    def from_json(cls, path):
        with open(path, encoding="utf-8") as f:
            return cls.from_dict(json.load(f))

    def to_dict(self):
        """Fully materialized (defaults included) for self-describing reports."""
        return {
            "dataset": {"csv": self.csv_path, "schema": self.schema_path},
            "split": asdict(self.split),
            "balancer": asdict(self.balancer),
            "classifiers": self.classifiers,
            "seed": self.seed,
            "output_dir": self.output_dir,
        }


def train_oversampler(minority, balancer, seed):
    adam = AdamConfig(learning_rate=balancer.learning_rate)
    if balancer.oversampler in ("gan", WGAN):
        mode = VANILLA if balancer.oversampler == "gan" else WGAN
        config = GanConfig(mode=mode, epochs=balancer.epochs,
                           batch_size=balancer.batch_size,
                           latent_dim=balancer.latent_dim, adam=adam, seed=seed)
        return train_gan(minority, config)
    if balancer.oversampler == "ctgan":
        config = CtganConfig(epochs=balancer.epochs,
                             batch_size=balancer.batch_size,
                             latent_dim=balancer.latent_dim,
                             max_modes=balancer.max_modes, adam=adam, seed=seed)
        return train_ctgan(minority, config)
    raise ValueError(f"no oversampler for {balancer.oversampler!r}")


def balance(train, balancer, seed, preprocess_params=None):
    """Apply the configured balancing to a training split.

    Returns (balanced table, audit dict, oversampler model or None). The
    audit reconciles exactly:
    majority_kept + minority_original + synthetic = balanced rows.
    """
    audit = {
        "majority_before": train.n_negative,
        "minority_before": train.n_positive,
    }
    if balancer.ocsvm.enabled:
        spec = balancer.ocsvm
        majority_kept, ocsvm_model = undersample_majority(
            train, spec.nu, spec.kernel, spec.gamma, spec.coef0, preprocess_params)
        kernel = ocsvm_model.kernel
        audit["ocsvm"] = {"nu": spec.nu, "kernel": kernel.kind,
                          "gamma": kernel.gamma, "coef0": kernel.coef0,
                          "support_vectors": majority_kept.n_rows,
                          "stalled": ocsvm_model.stalled}
        base = concat_tables([majority_kept, train.positives()])
    else:
        base = train
    audit["majority_kept"] = base.n_negative

    synthetic = 0
    if balancer.oversampler != "none":
        model = train_oversampler(train.positives(), balancer, seed)
        balanced = balance_by_oversampling(base, model, balancer.target, seed=seed)
        synthetic = synthetic_count(base, balancer.target)
    else:
        model = None
        balanced = base
    audit["synthetic"] = synthetic
    audit["balanced_size"] = balanced.n_rows
    # Per class: every majority row kept, every minority row plus the
    # synthetic rows requested, nothing else.
    if (balanced.n_negative != audit["majority_kept"]
            or balanced.n_positive != audit["minority_before"] + synthetic):
        raise AuditMismatch(
            f"balanced table has {balanced.n_negative} majority and "
            f"{balanced.n_positive} minority rows; the audit expects "
            f"{audit['majority_kept']} and "
            f"{audit['minority_before']} + {synthetic} synthetic")
    return balanced, audit, model


def _classifier_name(spec):
    return spec.get("name", spec["kind"])


def _features(spec, table, preprocess_params):
    if spec["kind"] in ENCODED_KINDS:
        return encode_for_kernel(table, preprocess_params)
    return table.X


TREE_OPTIONS = {"max_depth": 10, "min_samples_leaf": 10, "min_samples_split": 10,
                "max_features": "log2"}
# The spec keys each classifier kind reads, with their defaults; every kind
# also accepts "kind" and "name", and rejects any other key.
CLASSIFIER_OPTIONS = {
    "logistic": {"l2": 1e-4},
    "tree": TREE_OPTIONS,
    "forest": {**TREE_OPTIONS, "n_estimators": 100, "bootstrap": True},
    "mlp": {"epochs": 100, "batch_size": 32},
    "svm": {"C": 1.0, "epochs": 2000},
}


def _fit_call(spec, seed):
    """The fit function for spec's kind and its keyword arguments, defaults
    filled in."""
    kind = spec.get("kind")
    if kind not in CLASSIFIER_OPTIONS:
        raise ValueError(f"unknown classifier kind {kind!r}")
    o = {**CLASSIFIER_OPTIONS[kind], **spec}
    if kind == "logistic":
        return fit_logistic, {"l2": o["l2"]}
    if kind == "mlp":
        return fit_mlp_classifier, {"params": MlpClfParams(
            epochs=o["epochs"], batch_size=o["batch_size"], seed=seed)}
    if kind == "svm":
        return fit_svm_linear, {"C": o["C"], "epochs": o["epochs"]}
    tree = TreeParams(**{k: o[k] for k in TREE_OPTIONS})
    if kind == "tree":
        return fit_tree, {"params": tree, "seed": seed}
    return fit_forest, {"params": ForestParams(
        n_estimators=o["n_estimators"], tree=tree, bootstrap=o["bootstrap"], seed=seed)}


def fit_classifier(spec, balanced, preprocess_params, seed):
    fit, kwargs = _fit_call(spec, seed)
    return fit(_features(spec, balanced, preprocess_params), balanced.y, **kwargs)


def predict_labels(spec, model, table, preprocess_params):
    return model.predict(_features(spec, table, preprocess_params))


def run_experiment(config):
    """Execute the configured pipeline and write report files.

    Holdout is a run over one split and k-fold a run over k; both go
    through the same loop and differ only in how the results are reported.
    Returns the report dict. report.json is byte-stable across reruns with
    the same config (the "timings" key aside).
    """
    t_start = time.time()
    schema = Schema.from_json(config.schema_path)
    table = load_csv(config.csv_path, schema)
    holdout = config.split.mode == "holdout"
    report = {
        "config": config.to_dict(),
        "library_version": __version__,
        "seeds": {"root": config.seed},
        "mode": config.split.mode,
    }
    timings = {"balance_s": 0.0}

    if holdout:
        splits = [stratified_holdout(table, config.split.train_fraction, config.seed)]
    else:
        splits = stratified_kfold(table, config.split.k, config.seed)
    params, balanced, audits = [], [], []
    for f, (train, _) in enumerate(splits):
        params.append(fit_preprocess(train))
        t0 = time.time()
        table_f, audit, _ = balance(train, config.balancer, config.seed + f, params[f])
        timings["balance_s"] += time.time() - t0
        balanced.append(table_f)
        audits.append(audit)

    results = {}
    fold_aucs = {}
    rules = None
    for spec in config.classifiers:
        name = _classifier_name(spec)
        t0 = time.time()
        counts, per_fold = [], []
        for f, (_, valid) in enumerate(splits):
            model = fit_classifier(spec, balanced[f], params[f], config.seed + f)
            preds = predict_labels(spec, model, valid, params[f])
            counts.append(confusion(valid.y, preds))
            per_fold.append(metrics(counts[f]))
            if spec["kind"] == "tree" and rules is None:
                rules = extract_rules(model)
        timings[f"classifier_{name}_s"] = time.time() - t0
        if holdout:
            c = counts[0]
            results[name] = {
                "confusion": {"tp": c.tp, "tn": c.tn, "fp": c.fp, "fn": c.fn},
                "metrics": per_fold[0].to_dict(),
            }
            continue
        fold_aucs[name] = [m.auc for m in per_fold]
        rows = [m.to_dict() for m in per_fold]
        results[name] = {
            "folds": rows,
            "mean": {k: float(np.mean([r[k] for r in rows])) for k in rows[0]},
            "std": {k: float(np.std([r[k] for r in rows], ddof=1)) for k in rows[0]},
        }
    report["audit"] = audits[0] if holdout else audits
    report["results"] = results

    if holdout:
        report["t_tests"] = None  # needs per-fold scores; run kfold mode
    else:
        best = max(results, key=lambda n: results[n]["mean"]["auc"])
        t_tests = {}
        for name in results:
            t, sig = t_test_auc(fold_aucs[best], fold_aucs[name])
            t_tests[name] = {"vs": best, "t": t, "significant": sig}
        report["t_tests"] = t_tests

    if rules is not None:
        report["rules"] = [
            {"antecedents": [[int(f), op, float(t)] for f, op, t in r.antecedents],
             "label": r.label, "support": r.support, "confidence": r.confidence}
            for r in rules
        ]
    timings["total_s"] = time.time() - t_start
    report["timings"] = timings

    os.makedirs(config.output_dir, exist_ok=True)
    with open(os.path.join(config.output_dir, "report.json"), "w",
              encoding="utf-8") as f:
        json.dump(report, f, indent=2, sort_keys=True)
    with open(os.path.join(config.output_dir, "report.txt"), "w",
              encoding="utf-8") as f:
        f.write(render_report_text(report))
    with open(os.path.join(config.output_dir, "audit.json"), "w",
              encoding="utf-8") as f:
        json.dump(report["audit"], f, indent=2, sort_keys=True)
    if rules is not None:
        with open(os.path.join(config.output_dir, "rules.txt"), "w",
                  encoding="utf-8") as f:
            f.write(render_rules_text(rules, schema))
    return report


def render_report_text(report):
    """Aligned classifier x (Spec, Sen, AUC, t) table."""
    lines = [f"fingan {report['library_version']}  mode={report['mode']}", ""]
    header = f"{'Classifier':<12} {'Spec':>8} {'Sen':>8} {'AUC':>8} {'t-test':>10}"
    lines.append(header)
    lines.append("-" * len(header))
    for name, res in sorted(report["results"].items()):
        m = res["metrics"] if "metrics" in res else res["mean"]
        if report.get("t_tests"):
            entry = report["t_tests"][name]
            t_txt = f"{entry['t']:.3f}" + ("*" if entry["significant"] else "")
        else:
            t_txt = "-"
        lines.append(f"{name:<12} {m['specificity']:>8.3f} {m['sensitivity']:>8.3f} "
                     f"{m['auc']:>8.3f} {t_txt:>10}")
    if report.get("t_tests"):
        best = next(iter(report["t_tests"].values()))["vs"]
        df = 2 * len(report["results"][best]["folds"]) - 2
        lines.append("")
        lines.append(f"t statistics compare each classifier's fold AUCs against "
                     f"{best!r} ({df} df); * marks |t| > {T_CRITICAL}.")
        lines.append(f"Note: {T_CRITICAL} is the paper's two-tailed 1% critical value "
                     f"for k = 10 (18 df; exact 2.878) and is used at every k.")
    lines.append("")
    return "\n".join(lines)


def render_rules_text(rules, schema):
    names = schema.names
    classes = {0: schema.negative_label, 1: schema.positive_label}
    lines = [f"{len(rules)} rules extracted from the decision tree", ""]
    for i, r in enumerate(rules, 1):
        lines.append(f"{i}. {r.format(names, classes)}  "
                     f"[support={r.support}, confidence={r.confidence:.3f}]")
    lines.append("")
    return "\n".join(lines)
