"""Experiment orchestration: split, balance, train classifiers, report.

Two balancing shapes are supported: oversampling only (synthetic minority
rows merged with the full majority), and the hybrid where the majority is
first reduced to its one-class-SVM support vectors. Preprocessing and
balancing are always fit on the training side of a split only.
"""

import json
import os
import time
from dataclasses import asdict, dataclass, field, fields, is_dataclass
from typing import get_args

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
from .ctgan import train_ctgan
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
    CTGAN,
    VANILLA,
    WGAN,
    GanConfig,
    balance_by_oversampling,
    synthetic_count,
    train_gan,
)
from .nn_core import AdamConfig
from .ocsvm import KernelSpec, encode_for_kernel, undersample_majority

OVERSAMPLERS = ("none", "gan", "wgan", "ctgan")
SPLIT_MODES = ("holdout", "kfold")
ENCODED_KINDS = ("logistic", "mlp", "svm")  # need standardized one-hot inputs


# the JSON types a setting takes, by its declared type
JSON_TYPES = {bool: ((bool,), "true or false"), int: ((int,), "an integer"),
              float: ((int, float), "a number"), str: ((str,), "a string"),
              dict: ((dict,), "an object"), list: ((list,), "a list")}


def _check_type(where, key, value, declared):
    """Reject value unless it has a JSON type of declared, a type or a union
    of types such as float | str."""
    wanted = [JSON_TYPES[t] for t in get_args(declared) or (declared,)]
    if not any(type(value) in types for types, _ in wanted):
        raise ValueError(f"{where}: {key} must be "
                         f"{' or '.join(name for _, name in wanted)}, got {value!r}")


def _check_fields(settings, section):
    """Type-check each field of a settings dataclass by its annotation; a
    nested settings field checks its own."""
    for f in fields(settings):
        if not is_dataclass(f.type):
            _check_type(section, f.name, getattr(settings, f.name), f.type)


@dataclass
class OcsvmSettings:
    enabled: bool = False
    nu: float = 0.5
    kernel: str = "sigmoid"
    gamma: float | str = "auto"  # "auto" -> 1/d, else positive, also as a numeric string
    coef0: float = 0.0

    def __post_init__(self):
        _check_fields(self, "balancer.ocsvm")
        if not 0 < self.nu <= 1:
            raise ValueError(f"balancer.ocsvm: nu must lie in (0, 1], got {self.nu!r}")
        try:  # KernelSpec checks the kernel kind and gamma ("auto" is 1/d, positive)
            KernelSpec(self.kernel, 1.0 if self.gamma == "auto" else float(self.gamma))
        except ValueError as exc:
            raise ValueError(f"balancer.ocsvm: kernel {self.kernel!r}, gamma "
                             f"{self.gamma!r}: {exc}") from None


@dataclass
class BalancerSettings:
    oversampler: str = "none"
    target: int | str = "parity"  # "parity" or a count
    epochs: int = 300
    batch_size: int = 64
    latent_dim: int = 64
    learning_rate: float = 2e-4
    max_modes: int = 10
    ocsvm: OcsvmSettings = field(default_factory=OcsvmSettings)

    def __post_init__(self):
        _check_fields(self, "balancer")
        if self.oversampler not in OVERSAMPLERS:
            raise ValueError(f"unknown oversampler {self.oversampler!r}")
        if self.target != "parity" and not (
                isinstance(self.target, int) and self.target >= 0):
            raise ValueError(
                f"balancer: target must be \"parity\" or an integer >= 0, got {self.target!r}")
        try:
            self.gan_config(seed=0)  # GanConfig and AdamConfig range-check the rest
        except ValueError as exc:
            raise ValueError(f"balancer: {exc}") from None

    def gan_config(self, seed):
        """The GanConfig that trains this balancer's oversampler ("gan", and
        "none" when checked, as vanilla)."""
        return GanConfig(
            mode=self.oversampler if self.oversampler in (WGAN, CTGAN) else VANILLA,
            epochs=self.epochs, batch_size=self.batch_size, latent_dim=self.latent_dim,
            max_modes=self.max_modes, adam=AdamConfig(learning_rate=self.learning_rate),
            seed=seed)


@dataclass
class SplitSettings:
    mode: str = "holdout"  # "holdout" or "kfold"
    train_fraction: float = 0.8
    k: int = 10

    def __post_init__(self):
        _check_fields(self, "split")
        if self.mode not in SPLIT_MODES:
            raise ValueError(f"unknown split mode {self.mode!r}")
        if self.mode == "holdout" and not 0 < self.train_fraction < 1:
            raise ValueError(
                f"train_fraction must lie in (0, 1), got {self.train_fraction!r}")
        if self.mode == "kfold" and self.k < 2:
            raise ValueError(f"k must be at least 2, got {self.k!r}")


def _check_keys(section, d, allowed):
    """Reject a section that is not an object or has a key outside allowed."""
    if not isinstance(d, dict):
        raise ValueError(f"{section} must be an object, got {d!r}")
    unknown = sorted(set(d) - set(allowed))
    if unknown:
        raise ValueError(f"unknown {section} setting(s): {', '.join(map(repr, unknown))}")


def _check_section(section, d, declared):
    """Reject a section unless it is an object whose keys are declared's and
    whose values have their declared types."""
    _check_keys(section, d, declared)
    for key, value in d.items():
        _check_type(section, key, value, declared[key])


def _settings(cls, section, d):
    """cls(**d), rejecting keys that are not fields of cls by name; a field
    typed by a settings class is built the same way from its own object."""
    _check_keys(section, d, {f.name for f in fields(cls)})
    nested = {f.name: _settings(f.type, f"{section}.{f.name}", d[f.name])
              for f in fields(cls) if is_dataclass(f.type) and f.name in d}
    return cls(**{**d, **nested})


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
        _check_section("top-level", d, {"dataset": dict, "split": dict, "balancer": dict,
                                        "classifiers": list, "seed": int, "output_dir": str})
        dataset = {"csv": None, "schema": None, **d.get("dataset", {})}  # both required
        _check_section("dataset", dataset, {"csv": str, "schema": str})
        if d.get("seed", 0) < 0:
            raise ValueError(f"top-level: seed must be >= 0, got {d['seed']!r}")
        env_seed = os.environ.get("FINGAN_SEED")  # overrides the config's seed
        if env_seed is not None and not env_seed.strip().isdecimal():
            raise ValueError(f"FINGAN_SEED must be an integer >= 0, got {env_seed!r}")
        classifiers = d.get("classifiers", [{"kind": "forest"}])
        if not classifiers:
            raise ValueError("at least one classifier is required")
        for spec in classifiers:
            _check_classifier(spec)
        names = [_classifier_name(spec) for spec in classifiers]
        for name in names:
            if names.count(name) > 1:
                raise ValueError(f"two classifiers are named {name!r}; give each its own \"name\"")
        return cls(
            csv_path=dataset["csv"],
            schema_path=dataset["schema"],
            split=_settings(SplitSettings, "split", d.get("split", {})),
            balancer=_settings(BalancerSettings, "balancer", d.get("balancer", {})),
            classifiers=list(classifiers),
            seed=d.get("seed", 0) if env_seed is None else int(env_seed),
            output_dir=d.get("output_dir", "fingan-out"),
        )

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
    config = balancer.gan_config(seed)
    train = train_ctgan if config.mode == CTGAN else train_gan
    return train(minority, config)


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


def _check_classifier(spec):
    """Reject a classifier spec that is not an object of a known kind and
    known keys, each value of its default's type and in range."""
    if not isinstance(spec, dict):
        raise ValueError(f"classifier {spec!r} must be an object with a \"kind\" key")
    kind = spec.get("kind")
    if not isinstance(kind, str) or kind not in CLASSIFIER_OPTIONS:
        raise ValueError(f"unknown classifier kind {kind!r}")
    options = CLASSIFIER_OPTIONS[kind]
    _check_keys(f"{kind} classifier", spec, ("kind", "name", *options))
    label = _classifier_name(spec)
    for key, default in {"name": "", **options}.items():
        if key in spec:
            _check_type(f"classifier {label!r}", key, spec[key], type(default))
    try:
        _fit_call(spec, seed=0)  # the option values' own checks
    except ValueError as exc:
        raise ValueError(f"classifier {label!r}: {exc}") from None


def _fit_call(spec, seed):
    """The fit function for spec's kind and its keyword arguments, defaults
    filled in."""
    kind = spec["kind"]
    o = {**CLASSIFIER_OPTIONS[kind], **spec}
    if kind == "logistic":
        if not o["l2"] >= 0:
            raise ValueError(f"l2 must be >= 0, got {o['l2']!r}")
        return fit_logistic, {"l2": o["l2"]}
    if kind == "mlp":
        return fit_mlp_classifier, {"params": MlpClfParams(
            epochs=o["epochs"], batch_size=o["batch_size"], seed=seed)}
    if kind == "svm":
        if not o["C"] > 0:
            raise ValueError(f"C must be positive, got {o['C']!r}")
        if o["epochs"] < 1:
            raise ValueError(f"epochs must be at least 1, got {o['epochs']!r}")
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
