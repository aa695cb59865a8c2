"""Typed tabular data: schema, CSV ingestion, preprocessing, stratified splits.

A Table stores all cells in a single float matrix: numeric columns hold their
values, categorical columns hold integer level indices. The binary label is
kept separately as 0/1 with 1 = the minority/positive class.
"""

import csv
import json
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import (
    ConstantColumnWarning,
    DegenerateClass,
    EmptyFile,
    MissingColumn,
    SchemaMismatch,
    ShortRow,
    TooFewSamples,
    UnknownCategory,
    UnparseableNumeric,
)

NUMERIC = "numeric"
CATEGORICAL = "categorical"


@dataclass(frozen=True)
class ColumnSpec:
    name: str
    kind: str  # NUMERIC or CATEGORICAL
    categories: tuple = ()  # ordered distinct levels, categorical only

    def __post_init__(self):
        if self.kind not in (NUMERIC, CATEGORICAL):
            raise ValueError(f"unknown column kind {self.kind!r}")
        if self.kind == CATEGORICAL:
            if not self.categories:
                raise ValueError(f"categorical column {self.name!r} needs levels")
            if len(set(self.categories)) != len(self.categories):
                raise ValueError(f"duplicate levels in column {self.name!r}")
        elif self.categories:
            raise ValueError(f"numeric column {self.name!r} must not list levels")


@dataclass(frozen=True)
class Schema:
    columns: tuple  # of ColumnSpec, feature columns only
    label: str
    positive_label: str
    label_levels: tuple  # the two observed label strings (negative, positive)

    def __post_init__(self):
        names = [c.name for c in self.columns]
        if len(set(names)) != len(names):
            raise ValueError("duplicate column names")
        if len(self.label_levels) != 2:
            raise ValueError("label must have exactly 2 levels")
        if self.positive_label not in self.label_levels:
            raise ValueError("positive_label not among label levels")

    @property
    def names(self):
        return [c.name for c in self.columns]

    def column(self, name):
        for c in self.columns:
            if c.name == name:
                return c
        raise KeyError(name)

    @property
    def numeric_indices(self):
        return [j for j, c in enumerate(self.columns) if c.kind == NUMERIC]

    @property
    def categorical_indices(self):
        return [j for j, c in enumerate(self.columns) if c.kind == CATEGORICAL]

    @property
    def negative_label(self):
        a, b = self.label_levels
        return b if a == self.positive_label else a

    def to_dict(self):
        return {
            "columns": [
                {"name": c.name, "kind": c.kind, "categories": list(c.categories)}
                for c in self.columns
            ],
            "label": self.label,
            "positive_label": self.positive_label,
            "label_levels": list(self.label_levels),
        }

    @classmethod
    def from_dict(cls, d):
        cols = tuple(
            ColumnSpec(c["name"], c["kind"], tuple(c.get("categories", ())))
            for c in d["columns"]
        )
        return cls(cols, d["label"], d["positive_label"], tuple(d["label_levels"]))

    @classmethod
    def from_json(cls, path):
        with open(path, encoding="utf-8") as f:
            return cls.from_dict(json.load(f))


@dataclass(frozen=True)
class Table:
    schema: Schema
    X: np.ndarray  # (n, d) float64; categorical cells are level indices
    y: np.ndarray  # (n,) int, 1 = positive/minority

    def __post_init__(self):
        if self.X.shape[0] != self.y.shape[0]:
            raise ValueError("row count differs from label count")
        for j in self.schema.categorical_indices:
            levels = len(self.schema.columns[j].categories)
            col = self.X[:, j]
            if col.size and (np.any(col < 0) or np.any(col >= levels) or np.any(col != np.round(col))):
                raise ValueError(f"invalid category index in column {j}")

    @property
    def n_rows(self):
        return self.X.shape[0]

    @property
    def n_positive(self):
        return int(self.y.sum())

    @property
    def n_negative(self):
        return int(self.n_rows - self.y.sum())

    def subset(self, idx):
        idx = np.asarray(idx)
        return Table(self.schema, self.X[idx], self.y[idx])

    def positives(self):
        return self.subset(np.flatnonzero(self.y == 1))

    def negatives(self):
        return self.subset(np.flatnonzero(self.y == 0))


def concat_tables(tables):
    schemas = {id(t.schema) for t in tables}
    first = tables[0].schema
    if len(schemas) > 1 and any(t.schema.to_dict() != first.to_dict() for t in tables):
        raise SchemaMismatch("cannot concatenate tables with different schemas")
    X = np.concatenate([t.X for t in tables], axis=0)
    y = np.concatenate([t.y for t in tables], axis=0)
    return Table(first, X, y)


def load_csv(path, schema):
    """Parse a CSV file against a schema; header order need not match."""
    with open(path, newline="", encoding="utf-8") as f:
        reader = csv.reader(f)
        try:
            header = next(reader)
        except StopIteration:
            raise EmptyFile(f"{path}: no header row") from None
        header = [h.strip() for h in header]
        wanted = schema.names + [schema.label]
        for name in wanted:
            if name not in header:
                raise MissingColumn(name)
        positions = [header.index(name) for name in wanted]

        rows = []
        labels = []
        cat_maps = {
            c.name: {lvl: i for i, lvl in enumerate(c.categories)}
            for c in schema.columns
            if c.kind == CATEGORICAL
        }
        blank = []  # record numbers of blank lines, ascending
        for r, record in enumerate(reader):
            if not record:
                blank.append(r)
                continue
            if len(record) < len(header):
                raise ShortRow(r, len(header), len(record))
            cells = np.empty(len(schema.columns))
            for j, col in enumerate(schema.columns):
                raw = record[positions[j]].strip()
                if col.kind == NUMERIC:
                    try:
                        cells[j] = float(raw)
                    except ValueError:
                        raise UnparseableNumeric(r, col.name, raw) from None
                else:
                    try:
                        cells[j] = cat_maps[col.name][raw]
                    except KeyError:
                        raise UnknownCategory(r, col.name, raw) from None
            raw_label = record[positions[-1]].strip()
            if raw_label not in schema.label_levels:
                raise UnknownCategory(r, schema.label, raw_label)
            rows.append(cells)
            labels.append(1 if raw_label == schema.positive_label else 0)

    if not rows:
        raise EmptyFile(f"{path}: header only, no data rows")
    X = np.vstack(rows)
    bad = np.argwhere(~np.isfinite(X))  # float() takes "nan" and "inf"
    if len(bad):
        i, j = (int(v) for v in bad[0])
        r = i  # data row i is record r once the blank lines before it count
        for b in blank:
            if b > r:
                break
            r += 1
        raise UnparseableNumeric(r, schema.columns[j].name, str(X[i, j]))
    return Table(schema, X, np.array(labels, dtype=int))


@dataclass(frozen=True)
class PreprocessParams:
    schema: Schema
    means: dict  # column index -> mean
    stds: dict  # column index -> population std (absent for constant columns)
    constant_columns: tuple = ()


def fit_preprocess(table):
    """Per-numeric-column mean/std (population formula); constant columns flagged."""
    if table.n_rows == 0:
        raise ValueError("cannot fit preprocessing on an empty table")
    means, stds, constant = {}, {}, []
    for j in table.schema.numeric_indices:
        col = table.X[:, j]
        mu = float(col.mean())
        sigma = float(col.std())  # divide by n
        means[j] = mu
        if sigma == 0.0:
            constant.append(j)
            warnings.warn(
                f"numeric column {table.schema.columns[j].name!r} is constant; "
                "passing through unscaled",
                ConstantColumnWarning,
            )
        else:
            stds[j] = sigma
    return PreprocessParams(table.schema, means, stds, tuple(constant))


def apply_preprocess(table, params, direction="forward"):
    """Standardize (forward) or unstandardize (inverse) numeric columns."""
    if direction not in ("forward", "inverse"):
        raise ValueError(f"unknown direction {direction!r}")
    if params.schema.to_dict() != table.schema.to_dict():
        raise SchemaMismatch("params fitted on a different schema")
    X = table.X.copy()
    for j, sigma in params.stds.items():
        mu = params.means[j]
        if direction == "forward":
            X[:, j] = (X[:, j] - mu) / sigma
        else:
            X[:, j] = X[:, j] * sigma + mu
    return Table(table.schema, X, table.y.copy())


def _class_indices(table):
    return np.flatnonzero(table.y == 0), np.flatnonzero(table.y == 1)


def stratified_holdout(table, train_fraction, seed):
    """Deterministic stratified split.

    The positive-class train count rounds half up; the total train count is
    floor(n * fraction) and the negative class absorbs the remainder. This
    keeps both per-class and overall train sizes at the expected fractions.
    """
    if not 0 < train_fraction < 1:
        raise ValueError("train_fraction must lie in (0, 1)")
    neg_idx, pos_idx = _class_indices(table)
    if len(neg_idx) < 2 or len(pos_idx) < 2:
        raise DegenerateClass("both classes need at least 2 rows")

    n_pos_train = int(np.floor(len(pos_idx) * train_fraction + 0.5))
    n_train = int(np.floor(table.n_rows * train_fraction))
    n_neg_train = n_train - n_pos_train
    if n_pos_train in (0, len(pos_idx)) or n_neg_train in (0, len(neg_idx)):
        raise DegenerateClass("a class would receive 0 rows in one split")

    rng = np.random.default_rng(seed)
    pos_perm = rng.permutation(pos_idx)
    neg_perm = rng.permutation(neg_idx)
    train_idx = np.sort(np.concatenate([pos_perm[:n_pos_train], neg_perm[:n_neg_train]]))
    test_idx = np.sort(np.concatenate([pos_perm[n_pos_train:], neg_perm[n_neg_train:]]))
    return table.subset(train_idx), table.subset(test_idx)


def stratified_kfold(table, k, seed):
    """k stratified folds; per-class fold sizes differ by at most one."""
    if k < 2:
        raise ValueError("k must be at least 2")
    neg_idx, pos_idx = _class_indices(table)
    for label, idx in ((1, pos_idx), (0, neg_idx)):
        if len(idx) < k:
            raise TooFewSamples(label, len(idx), k)

    rng = np.random.default_rng(seed)
    fold_members = [[] for _ in range(k)]
    for idx in (pos_idx, neg_idx):
        perm = rng.permutation(idx)
        for f, chunk in enumerate(np.array_split(perm, k)):
            fold_members[f].append(chunk)

    folds = []
    for f in range(k):
        valid_idx = np.sort(np.concatenate(fold_members[f]))
        train_idx = np.sort(
            np.concatenate([c for g in range(k) if g != f for c in fold_members[g]])
        )
        folds.append((table.subset(train_idx), table.subset(valid_idx)))
    return folds
