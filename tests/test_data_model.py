import numpy as np
import pytest

from fingan.data_model import (
    CATEGORICAL,
    NUMERIC,
    ColumnSpec,
    Schema,
    Table,
    apply_preprocess,
    concat_tables,
    fit_preprocess,
    load_csv,
    stratified_holdout,
    stratified_kfold,
)
from fingan.errors import (
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
from fingan.fixtures import mixed_imbalanced, table_to_csv


def simple_schema():
    return Schema(
        (ColumnSpec("a", NUMERIC), ColumnSpec("c", CATEGORICAL, ("x", "y", "z"))),
        label="t", positive_label="p", label_levels=("n", "p"),
    )


def make_table(n_neg, n_pos, seed=0):
    rng = np.random.default_rng(seed)
    n = n_neg + n_pos
    X = np.column_stack([rng.normal(size=n), rng.integers(0, 3, n).astype(float)])
    y = np.concatenate([np.zeros(n_neg, dtype=int), np.ones(n_pos, dtype=int)])
    return Table(simple_schema(), X, y)


class TestLoadCsv:
    def test_round_trip(self, tmp_path):
        table = mixed_imbalanced(50, 10, seed=3)
        path = tmp_path / "d.csv"
        table_to_csv(table, path)
        loaded = load_csv(path, table.schema)
        assert loaded.n_rows == 60
        assert loaded.n_positive == 10
        np.testing.assert_allclose(loaded.X, table.X)
        np.testing.assert_array_equal(loaded.y, table.y)

    def test_header_order_insensitive(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("t,c,a\np,x,1.5\nn,z,2.5\n")
        table = load_csv(path, simple_schema())
        assert table.X[0, 0] == 1.5
        assert table.X[1, 1] == 2.0  # z -> index 2
        assert list(table.y) == [1, 0]

    def test_missing_column(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("a,t\n1,p\n")
        with pytest.raises(MissingColumn):
            load_csv(path, simple_schema())

    def test_empty_file(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("a,c,t\n")
        with pytest.raises(EmptyFile):
            load_csv(path, simple_schema())

    def test_unparseable_numeric(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("a,c,t\nabc,x,p\n")
        with pytest.raises(UnparseableNumeric) as exc:
            load_csv(path, simple_schema())
        assert exc.value.row == 0
        assert exc.value.col == "a"

    @pytest.mark.parametrize("cell", ["nan", "inf", "-Infinity", "1e999"])
    def test_non_finite_numeric_rejected(self, tmp_path, cell):
        # float() parses these; the record number counts the blank line
        path = tmp_path / "d.csv"
        path.write_text(f"a,c,t\n1.5,x,p\n\n2.5,y,n\n{cell},z,p\n")
        with pytest.raises(UnparseableNumeric) as exc:
            load_csv(path, simple_schema())
        assert (exc.value.row, exc.value.col) == (3, "a")

    def test_first_non_finite_cell_reported(self, tmp_path):
        table = mixed_imbalanced(50, 10, seed=3)
        table.X[[7, 40], 1] = np.nan
        path = tmp_path / "d.csv"
        table_to_csv(table, path)
        with pytest.raises(UnparseableNumeric) as exc:
            load_csv(path, table.schema)
        assert (exc.value.row, exc.value.col) == (7, table.schema.columns[1].name)

    def test_unknown_category(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("a,c,t\n1,w,p\n")
        with pytest.raises(UnknownCategory):
            load_csv(path, simple_schema())

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("a,c,t\n1.5,x,p\n\n2.5,z,n\n\n")
        table = load_csv(path, simple_schema())
        np.testing.assert_array_equal(table.X, [[1.5, 0.0], [2.5, 2.0]])
        assert list(table.y) == [1, 0]

    def test_short_row(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("a,c,t\n1.5,x,p\n2.5,z\n")
        with pytest.raises(ShortRow) as exc:
            load_csv(path, simple_schema())
        assert (exc.value.row, exc.value.expected, exc.value.actual) == (1, 3, 2)
        assert "row 1" in str(exc.value)


class TestPreprocess:
    def test_mean_std_population(self):
        schema = Schema((ColumnSpec("a", NUMERIC),), "t", "p", ("n", "p"))
        table = Table(schema, np.array([[2.0], [4.0]]), np.array([1, 0]))
        params = fit_preprocess(table)
        assert params.means[0] == 3.0
        assert params.stds[0] == 1.0  # divide by n

    def test_constant_column_flagged(self):
        schema = Schema((ColumnSpec("a", NUMERIC),), "t", "p", ("n", "p"))
        table = Table(schema, np.full((3, 1), 5.0), np.array([1, 0, 1]))
        with pytest.warns(ConstantColumnWarning):
            params = fit_preprocess(table)
        assert params.constant_columns == (0,)
        out = apply_preprocess(table, params, "forward")
        np.testing.assert_array_equal(out.X, table.X)

    def test_categorical_map_size(self):
        table = make_table(5, 5)
        params = fit_preprocess(table)
        assert len(table.schema.columns[1].categories) == 3
        # categoricals are untouched by standardization
        out = apply_preprocess(table, params, "forward")
        np.testing.assert_array_equal(out.X[:, 1], table.X[:, 1])

    def test_center_maps_to_zero(self):
        schema = Schema((ColumnSpec("a", NUMERIC),), "t", "p", ("n", "p"))
        table = Table(schema, np.array([[2.0], [3.0], [4.0]]), np.array([1, 0, 1]))
        params = fit_preprocess(table)
        out = apply_preprocess(table, params, "forward")
        assert out.X[1, 0] == 0.0

    def test_round_trip(self):
        table = make_table(30, 10, seed=4)
        params = fit_preprocess(table)
        back = apply_preprocess(apply_preprocess(table, params, "forward"),
                                params, "inverse")
        np.testing.assert_allclose(back.X, table.X, rtol=1e-9)

    def test_schema_mismatch(self):
        table = make_table(5, 5)
        other = mixed_imbalanced(10, 5)
        params = fit_preprocess(other)
        with pytest.raises(SchemaMismatch):
            apply_preprocess(table, params, "forward")


class TestStratifiedHoldout:
    def test_churn_scale_counts(self):
        table = make_table(13812, 1002, seed=1)
        train, test = stratified_holdout(table, 0.8, seed=7)
        assert (train.n_positive, train.n_negative) == (802, 11049)
        assert (test.n_positive, test.n_negative) == (200, 2763)

    def test_loan_scale_counts(self):
        table = make_table(39922, 5289, seed=1)
        train, test = stratified_holdout(table, 0.8, seed=7)
        assert (train.n_positive, train.n_negative) == (4231, 31937)
        assert (test.n_positive, test.n_negative) == (1058, 7985)

    def test_tiny_even_split(self):
        table = make_table(2, 2)
        train, test = stratified_holdout(table, 0.5, seed=0)
        assert (train.n_positive, train.n_negative) == (1, 1)
        assert (test.n_positive, test.n_negative) == (1, 1)

    def test_conservation_and_determinism(self):
        table = make_table(80, 20, seed=2)
        t1, v1 = stratified_holdout(table, 0.7, seed=5)
        t2, v2 = stratified_holdout(table, 0.7, seed=5)
        np.testing.assert_array_equal(t1.X, t2.X)
        np.testing.assert_array_equal(v1.y, v2.y)
        merged = np.vstack([t1.X, v1.X])
        assert sorted(map(tuple, merged)) == sorted(map(tuple, table.X))

    def test_stratification_bound(self):
        table = make_table(90, 10, seed=3)
        train, test = stratified_holdout(table, 0.8, seed=1)
        full_frac = table.n_positive / table.n_rows
        frac = train.n_positive / train.n_rows
        assert abs(frac - full_frac) <= 1.0 / min(train.n_rows, test.n_rows)

    def test_degenerate(self):
        table = make_table(50, 2)
        with pytest.raises(DegenerateClass):
            stratified_holdout(table, 0.05, seed=0)


class TestStratifiedKfold:
    def test_divisible_case(self):
        table = make_table(90, 10)
        folds = stratified_kfold(table, 10, seed=0)
        for _, valid in folds:
            assert valid.n_positive == 1
            assert valid.n_negative == 9

    def test_pigeonhole_1002(self):
        table = make_table(10, 1002, seed=2)
        folds = stratified_kfold(table, 10, seed=3)
        sizes = sorted(valid.n_positive for _, valid in folds)
        assert sum(sizes) == 1002
        assert max(sizes) - min(sizes) <= 1

    def test_too_few(self):
        table = make_table(50, 1)
        with pytest.raises(TooFewSamples):
            stratified_kfold(table, 2, seed=0)

    def test_partition_and_determinism(self):
        table = make_table(37, 13, seed=9)
        folds = stratified_kfold(table, 5, seed=11)
        folds2 = stratified_kfold(table, 5, seed=11)
        all_valid = np.vstack([v.X for _, v in folds])
        assert sorted(map(tuple, all_valid)) == sorted(map(tuple, table.X))
        for (_, v1), (_, v2) in zip(folds, folds2):
            np.testing.assert_array_equal(v1.X, v2.X)
        for train, valid in folds:
            assert train.n_rows + valid.n_rows == table.n_rows


def test_concat_tables():
    a = make_table(5, 3, seed=0)
    b = make_table(2, 4, seed=1)
    merged = concat_tables([a, b])
    assert merged.n_rows == 14
    assert merged.n_positive == 7
