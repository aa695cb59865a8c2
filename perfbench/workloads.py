"""Seeded workload generators: synthetic CSV + schema + experiment config.

Each workload is a table shape, an experiment config and the reference
quality the benchmark checks against. The program only ever sees the files
written here; nothing else of the benchmark reaches it.
"""

import json
import os
from dataclasses import dataclass

import numpy as np

from fingan.data_model import CATEGORICAL, NUMERIC, ColumnSpec, Schema, Table
from fingan.fixtures import table_to_csv


def _bimodal(rng, n, lo, hi, spread, weight_hi):
    """Two Gaussian modes at lo and hi; weight_hi is the per-row share of hi."""
    pick_hi = rng.random(n) < weight_hi
    centers = np.where(pick_hi, hi, lo)
    return rng.normal(centers, spread)


def _order(rng, X, y):
    perm = rng.permutation(len(y))
    return X[perm], y[perm]


def loan_table(seed, n_rows=2000, positive_share=0.08):
    """Loan-shaped mixed table: 6 bimodal numerics, 2 categoricals (3 and 4
    levels). Defaulters shift the mode weights and the category mix."""
    rng = np.random.default_rng(seed)
    n_pos = int(round(n_rows * positive_share))
    y = np.zeros(n_rows, dtype=int)
    y[:n_pos] = 1
    numerics = (
        # name, low mode, high mode, spread, hi-mode share (neg, pos)
        ("income", 30.0, 90.0, 8.0, (0.7, 0.2)),
        ("loan_amount", 5.0, 25.0, 3.0, (0.25, 0.75)),
        ("credit_score", 580.0, 740.0, 25.0, (0.8, 0.25)),
        ("debt_ratio", 0.15, 0.45, 0.05, (0.25, 0.75)),
        ("age", 28.0, 52.0, 5.0, (0.5, 0.4)),
        ("employment_years", 2.0, 12.0, 1.5, (0.6, 0.3)),
    )
    cols = []
    for name, lo, hi, spread, (w_neg, w_pos) in numerics:
        cols.append(_bimodal(rng, n_rows, lo, hi, spread, np.where(y == 1, w_pos, w_neg)))
    categoricals = (
        ("home_ownership", ("rent", "own", "mortgage"),
         ((0.35, 0.25, 0.40), (0.60, 0.10, 0.30))),
        ("purpose", ("car", "home", "education", "business"),
         ((0.35, 0.30, 0.20, 0.15), (0.15, 0.20, 0.25, 0.40))),
    )
    for _, levels, (p_neg, p_pos) in categoricals:
        cum_neg, cum_pos = np.cumsum(p_neg), np.cumsum(p_pos)
        u = rng.random(n_rows)
        cum = np.where(y[:, None] == 1, cum_pos[None, :], cum_neg[None, :])
        cols.append(np.minimum((u[:, None] > cum).sum(axis=1), len(levels) - 1).astype(float))
    schema = Schema(
        tuple(ColumnSpec(name, NUMERIC) for name, *_ in numerics)
        + tuple(ColumnSpec(name, CATEGORICAL, levels) for name, levels, _ in categoricals),
        label="default", positive_label="yes", label_levels=("no", "yes"),
    )
    X, y = _order(rng, np.column_stack(cols), y)
    return Table(schema, X, y)


def churn_table(seed, n_rows=2500, n_features=30, positive_share=0.20):
    """Churn-shaped all-numeric table. The first third of the columns are
    informative; values are rounded to cents so thresholds repeat as in real
    billing data."""
    rng = np.random.default_rng(seed)
    n_pos = int(round(n_rows * positive_share))
    y = np.zeros(n_rows, dtype=int)
    y[:n_pos] = 1
    shift = np.zeros(n_features)
    shift[: n_features // 3] = np.linspace(1.2, 0.4, n_features // 3)
    X = rng.normal(0.0, 1.0, (n_rows, n_features)) + y[:, None] * shift[None, :]
    X = np.round(X * 20.0 + 50.0, 2)
    schema = Schema(
        tuple(ColumnSpec(f"f{j:02d}", NUMERIC) for j in range(n_features)),
        label="churn", positive_label="yes", label_levels=("no", "yes"),
    )
    X, y = _order(rng, X, y)
    return Table(schema, X, y)


def fraud_table(seed, n_rows=9000, positive_share=0.10):
    """Card-transaction-shaped table: 8 numerics + 1 categorical channel."""
    rng = np.random.default_rng(seed)
    n_pos = int(round(n_rows * positive_share))
    y = np.zeros(n_rows, dtype=int)
    y[:n_pos] = 1
    shift = np.array([1.6, -1.2, 0.9, 0.0, 1.2, -0.6, 0.0, 0.4])
    X = rng.normal(0.0, 1.0, (n_rows, len(shift))) + y[:, None] * shift[None, :]
    channels = ("pos", "online", "atm")
    p = np.where(y[:, None] == 1, np.array([0.3, 0.6, 0.1])[None, :],
                 np.array([0.6, 0.3, 0.1])[None, :])
    channel = np.minimum((rng.random(n_rows)[:, None] > np.cumsum(p, axis=1)).sum(axis=1), 2)
    schema = Schema(
        tuple(ColumnSpec(f"v{j}", NUMERIC) for j in range(len(shift)))
        + (ColumnSpec("channel", CATEGORICAL, channels),),
        label="fraud", positive_label="yes", label_levels=("no", "yes"),
    )
    X, y = _order(rng, np.column_stack([X, channel.astype(float)]), y)
    return Table(schema, X, y)


@dataclass(frozen=True)
class Workload:
    name: str
    make_table: object  # seed -> Table
    config: dict  # experiment config without dataset, seed and output_dir
    # auc_mean is exact for a seed but varies between seeds. The reference
    # is its median over seeds 1-40 and the tolerance 3.5 standard
    # deviations of those 40 values, rounded up to 0.01: a math change
    # that moves balanced accuracy by more fails the check.
    auc_reference: float
    auc_tolerance: float


WORKLOADS = {
    w.name: w for w in (
        Workload(
            "hybrid_ctgan_kfold", loan_table,
            {"split": {"mode": "kfold", "k": 5},
             "balancer": {"oversampler": "ctgan", "epochs": 20, "max_modes": 5,
                          "ocsvm": {"enabled": True, "nu": 0.5, "kernel": "sigmoid"}},
             "classifiers": [{"kind": "tree"}, {"kind": "logistic"}]},
            auc_reference=0.776, auc_tolerance=0.09),
        Workload(
            "forest_kfold", churn_table,
            {"split": {"mode": "kfold", "k": 5},
             "balancer": {"oversampler": "none"},
             "classifiers": [{"kind": "forest", "n_estimators": 8}, {"kind": "tree"}]},
            auc_reference=0.733, auc_tolerance=0.05),
        Workload(
            "ocsvm_wgan_holdout", fraud_table,
            {"split": {"mode": "holdout", "train_fraction": 0.8},
             "balancer": {"oversampler": "wgan", "epochs": 10, "batch_size": 128,
                          "ocsvm": {"enabled": True, "nu": 0.5, "kernel": "rbf",
                                    "gamma": 0.1}},
             "classifiers": [{"kind": "mlp", "epochs": 10}, {"kind": "logistic"}]},
            auc_reference=0.870, auc_tolerance=0.06),
    )
}


def write_inputs(workload, seed, directory, table=None):
    """Write <name>.csv, <name>.schema.json and <name>.config.json into
    directory; returns the config path. The config's output_dir is
    directory/out."""
    os.makedirs(directory, exist_ok=True)
    table = workload.make_table(seed) if table is None else table
    csv_path = os.path.join(directory, f"{workload.name}.csv")
    schema_path = os.path.join(directory, f"{workload.name}.schema.json")
    config_path = os.path.join(directory, f"{workload.name}.config.json")
    table_to_csv(table, csv_path)
    with open(schema_path, "w", encoding="utf-8") as f:
        json.dump(table.schema.to_dict(), f, indent=2)
    config = dict(workload.config,
                  dataset={"csv": csv_path, "schema": schema_path},
                  seed=seed, output_dir=os.path.join(directory, "out"))
    with open(config_path, "w", encoding="utf-8") as f:
        json.dump(config, f, indent=2, sort_keys=True)
    return config_path
