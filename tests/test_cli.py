import json

import numpy as np
import pytest

from fingan.cli import main
from fingan.data_model import Schema, load_csv
from fingan.fixtures import mixed_imbalanced, table_to_csv


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("cli-data")
    table = mixed_imbalanced(80, 20, seed=0)
    csv_path = tmp / "data.csv"
    schema_path = tmp / "data.schema.json"
    table_to_csv(table, csv_path)
    schema_path.write_text(json.dumps(table.schema.to_dict()))
    return str(csv_path), str(schema_path), table


def test_version(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("fingan ")


def test_unknown_subcommand_exit_2():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


def test_missing_file_exit_1(tmp_path, capsys):
    code = main(["preprocess", "--csv", "nope.csv",
                 "--schema", "nope.json", "--out", str(tmp_path / "p.json")])
    assert code == 1
    assert "error:" in capsys.readouterr().err


def test_preprocess(dataset, tmp_path, capsys):
    csv_path, schema_path, table = dataset
    out = tmp_path / "params.json"
    code = main(["preprocess", "--csv", csv_path, "--schema", schema_path,
                 "--out", str(out), "--json"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["rows"] == 100
    assert payload["positives"] == 20
    saved = json.loads(out.read_text())
    assert saved["means"]["amount"] == pytest.approx(table.X[:, 0].mean())


def test_train_sample_round_trip(dataset, tmp_path):
    csv_path, schema_path, _ = dataset
    model_path = tmp_path / "model.json"
    code = main(["train-gan", "--csv", csv_path, "--schema", schema_path,
                 "--gan", "gan", "--epochs", "3", "--batch-size", "8",
                 "--out", str(model_path)])
    assert code == 0

    out_csv = tmp_path / "synth.csv"
    code = main(["sample", "--model", str(model_path), "--n", "1500",
                 "--seed", "1", "--out", str(out_csv)])
    assert code == 0
    schema = Schema.from_json(schema_path)
    synth = load_csv(out_csv, schema)
    assert synth.n_rows == 1500
    assert np.all(synth.y == 1)


def test_undersample(dataset, tmp_path, capsys):
    csv_path, schema_path, table = dataset
    out_csv = tmp_path / "kept.csv"
    code = main(["undersample", "--csv", csv_path, "--schema", schema_path,
                 "--nu", "0.5", "--kernel", "rbf", "--gamma", "0.3",
                 "--out", str(out_csv), "--json"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["of"] == 80
    kept = load_csv(out_csv, Schema.from_json(schema_path))
    assert 0 < kept.n_rows <= 80
    assert np.all(kept.y == 0)


def test_undersample_has_no_seed(dataset, tmp_path):
    csv_path, schema_path, _ = dataset
    with pytest.raises(SystemExit):
        main(["undersample", "--csv", csv_path, "--schema", schema_path,
              "--seed", "1", "--out", str(tmp_path / "kept.csv")])


def test_run_and_report(dataset, tmp_path, capsys):
    csv_path, schema_path, _ = dataset
    out_dir = tmp_path / "out"
    config = {
        "dataset": {"csv": csv_path, "schema": schema_path},
        "split": {"mode": "holdout", "train_fraction": 0.8},
        "balancer": {"oversampler": "gan", "epochs": 3, "batch_size": 8},
        "classifiers": [{"kind": "tree"}],
        "output_dir": str(out_dir),
    }
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config))
    assert main(["run", "--config", str(config_path)]) == 0
    assert (out_dir / "report.json").exists()
    capsys.readouterr()

    assert main(["report", "--report", str(out_dir / "report.json")]) == 0
    text = capsys.readouterr().out
    assert "Classifier" in text
    assert "tree" in text


def test_run_unknown_key_exit_1(dataset, tmp_path, capsys):
    csv_path, schema_path, _ = dataset
    config = {"dataset": {"csv": csv_path, "schema": schema_path},
              "balancer": {"oversampler": "gan", "epoch": 3},
              "output_dir": str(tmp_path / "out")}
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config))
    assert main(["run", "--config", str(config_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "'epoch'" in err and "balancer" in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("key, spec", [
    ("balancr", {"balancr": {"oversampler": "gan"}}),
    ("lr", {"classifiers": [{"kind": "logistic", "lr": 0.5}]}),
])
def test_run_unknown_section_or_classifier_key_exit_1(dataset, tmp_path, capsys, key, spec):
    csv_path, schema_path, _ = dataset
    config = {"dataset": {"csv": csv_path, "schema": schema_path},
              "output_dir": str(tmp_path / "out"), **spec}
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config))
    assert main(["run", "--config", str(config_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and f"'{key}'" in err
    assert not (tmp_path / "out").exists()


def test_sample_condition_needs_conditional_model(dataset, tmp_path, capsys):
    csv_path, schema_path, _ = dataset
    model_path = tmp_path / "model.json"
    assert main(["train-gan", "--csv", csv_path, "--schema", schema_path,
                 "--gan", "wgan", "--epochs", "1", "--batch-size", "8",
                 "--out", str(model_path)]) == 0
    capsys.readouterr()
    assert main(["sample", "--model", str(model_path), "--n", "5",
                 "--condition", "segment=basic", "--out", str(tmp_path / "s.csv")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "conditional" in err
    assert not (tmp_path / "s.csv").exists()


def test_fixtures(tmp_path, capsys):
    out_dir = tmp_path / "fixtures"
    assert main(["fixtures", "--out", str(out_dir), "--json"]) == 0
    files = json.loads(capsys.readouterr().out)["files"]
    assert len(files) == 8
    # every emitted pair must load back cleanly
    for csv_path, schema_path in zip(files[::2], files[1::2]):
        table = load_csv(csv_path, Schema.from_json(schema_path))
        assert table.n_rows > 0


@pytest.mark.parametrize("gan, argv, epochs", [
    ("ctgan", [], 300),
    ("wgan", [], 3000),
    ("gan", [], 3000),
    ("ctgan", ["--epochs", "7"], 7),
])
def test_train_gan_epoch_defaults(dataset, tmp_path, monkeypatch, gan, argv, epochs):
    import fingan.cli as cli

    class Model:
        def to_dict(self):
            return {}

    seen = []

    def record(minority, config):
        seen.append(config)
        return Model()

    monkeypatch.setattr(cli, "train_ctgan", record)
    monkeypatch.setattr(cli, "train_gan", record)
    csv_path, schema_path, _ = dataset
    assert main(["train-gan", "--csv", csv_path, "--schema", schema_path,
                 "--gan", gan, "--out", str(tmp_path / "m.json"), *argv]) == 0
    assert [c.epochs for c in seen] == [epochs]
