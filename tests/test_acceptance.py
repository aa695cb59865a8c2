"""Acceptance suite: one test (and one printed pass/fail line) per criterion.

Run with `pytest tests/test_acceptance.py -v -s`. The dataset-conditional
reproduction tests skip unless FINGAN_DATA_DIR points at a directory holding
the public CSV + schema JSON pairs (loan.csv, churn.csv, fraud.csv).
"""

import json
import math
import os

import numpy as np
import pytest

from conftest import GAN_SEEDS, encode_samples, encoded_moments
from fingan import nn_core
from fingan.classifiers import (
    ForestParams,
    LogisticParams,
    SvmParams,
    TreeParams,
    best_split,
    fit_forest,
    fit_logistic,
    fit_svm_linear,
    fit_tree,
    gini,
    logistic_objective,
    svm_objective,
)
import fingan.pipeline as pipeline
from fingan.ctgan import fit_mode_normalizer
from fingan.data_model import (NUMERIC, ColumnSpec, Schema, load_csv, stratified_holdout,
                               stratified_kfold)
from fingan.evaluation import (
    ConfusionCounts,
    apply_rules,
    confusion,
    extract_rules,
    metrics,
    t_test_auc,
)
from fingan.fixtures import blobs_imbalanced, mixed_imbalanced, table_to_csv
from fingan.gan import (CTGAN, DiscreteStats, decode_rows, draw_conditions,
                        encode_continuous_batch, sample_synthetic)
from fingan.ocsvm import KernelSpec, fit_ocsvm, kernel_matrix
from fingan.pipeline import (
    BalancerSettings,
    DatasetSettings,
    ExperimentConfig,
    OcsvmSettings,
    SplitSettings,
    balance,
    run_experiment,
)


def report(name, ok, detail=""):
    tag = "PASS" if ok else "FAIL"
    suffix = f"  ({detail})" if detail else ""
    print(f"ACCEPTANCE {tag}: {name}{suffix}")
    assert ok, f"{name}{suffix}"


# --- 1a. nn_core gradient checks ----------------------------------------

def numeric_grad(state, batch, upstream_fn, eps=1e-6):
    grads = []
    for W in state.weights:
        g = np.zeros_like(W)
        it = np.nditer(W, flags=["multi_index"])
        for _ in it:
            idx = it.multi_index
            orig = W[idx]
            W[idx] = orig + eps
            hi = upstream_fn(nn_core.forward(state, batch)[-1])
            W[idx] = orig - eps
            lo = upstream_fn(nn_core.forward(state, batch)[-1])
            W[idx] = orig
            g[idx] = (hi - lo) / (2 * eps)
        grads.append(g)
    return grads


def test_nn_core_gradient_checks():
    loss = lambda out: 0.5 * float((out**2).sum())
    acts = [nn_core.RELU, nn_core.LEAKY_RELU, nn_core.SIGMOID,
            nn_core.TANH, nn_core.SOFTMAX, nn_core.IDENTITY]
    worst = 0.0
    rng = np.random.default_rng(0)
    for topo_seed in range(3):
        trng = np.random.default_rng(topo_seed)
        layers = [nn_core.Layer(int(trng.integers(2, 5)),
                                acts[int(trng.integers(0, len(acts)))])
                  for _ in range(3)]
        layers.append(nn_core.Layer(3, acts[topo_seed % len(acts)]))
        spec = nn_core.NetworkSpec(4, tuple(layers))
        state = nn_core.init_network(spec, seed=topo_seed)
        batch = rng.normal(size=(5, 4))
        out = nn_core.forward(state, batch)
        grad, _ = nn_core.backward(state, out, out[-1])
        gw, _ = nn_core.unflatten(spec, grad)
        num = numeric_grad(state, batch, loss)
        for a, n in zip(gw, num):
            scale = max(np.abs(n).max(), 1e-8)
            worst = max(worst, float(np.abs(a - n).max() / scale))
    report("nn_core gradient checks <= 1e-4 relative (all activations, "
           "3 random topologies)", worst <= 1e-4, f"worst rel err {worst:.2e}")


# --- 1b. GAN toy-fixture criterion --------------------------------------

def _moments_ok(name, table, sampler):
    gaps_mean, gaps_std, modes = [], [], []
    for seed in GAN_SEEDS:
        enc = encode_samples(table, sampler(seed))
        gm, gs, mode = encoded_moments(table, enc)
        gaps_mean.append(gm)
        gaps_std.append(gs)
        modes.append(mode)
    gm, gs, mode = (float(np.median(v)) for v in (gaps_mean, gaps_std, modes))
    report(f"{name} bimodal fixture: moments within 0.1, both modes >= 20% "
           "(median of 3 seeds)", gm <= 0.1 and gs <= 0.1 and mode >= 0.2,
           f"mean gap {gm:.3f}, std gap {gs:.3f}, small mode {mode:.2f}")


def test_gan_vanilla_bimodal(vanilla_models, bimodal_table):
    _moments_ok("vanilla GAN", bimodal_table,
                lambda s: sample_synthetic(vanilla_models[s], 2000, seed=100 + s))


def test_gan_wgan_bimodal(wgan_models, bimodal_table):
    _moments_ok("WGAN", bimodal_table,
                lambda s: sample_synthetic(wgan_models[s], 2000, seed=100 + s))


def test_gan_ctgan_bimodal(ctgan_models, bimodal_table):
    _moments_ok("CTGAN", bimodal_table,
                lambda s: sample_synthetic(ctgan_models[s], 2000, seed=100 + s))


# --- 1c. CTGAN normalizer -----------------------------------------------

def test_ctgan_normalizer():
    rng = np.random.default_rng(0)
    values = np.concatenate([rng.normal(0, 0.1, 500), rng.normal(10, 0.1, 500)])
    norm = fit_mode_normalizer(values, max_modes=10, seed=0)
    report("CTGAN normalizer: 2-mode recovery on the separated mixture",
           norm.n_modes == 2, f"{norm.n_modes} modes")

    alphas, onehots = encode_continuous_batch(values, norm, np.random.default_rng(1))
    schema = Schema((ColumnSpec("x", NUMERIC),), "t", "p", ("n", "p"))
    decoded = decode_rows(np.column_stack([alphas, onehots]), schema, CTGAN, {0: norm}).X[:, 0]
    worst = 0.0
    for v, d, oh in zip(values, decoded, onehots):
        k = int(np.argmax(oh))
        if abs(v - norm.means[k]) <= 4.0 * norm.stds[k]:
            worst = max(worst, abs(d - v))
    report("CTGAN normalizer: encode/decode round trip <= 1e-6",
           worst <= 1e-6, f"worst abs err {worst:.2e}")

    stats = DiscreteStats([0], [np.array([999.0, 1.0])])
    expected = math.log(2) / (math.log(2) + math.log(1000))
    rng = np.random.default_rng(7)
    hits = sum(draw_conditions(stats, 1, rng)[1][0] == 1
               for _ in range(100_000))
    got = hits / 100_000
    report("CTGAN condvec: log-frequency Monte Carlo within +/-0.01 at 100k draws",
           abs(got - expected) <= 0.01, f"got {got:.4f}, expected {expected:.4f}")


# --- 1d. OCSVM ----------------------------------------------------------

def _project(a, C):
    lo, hi = a.min() - C - 1.0, a.max() + 1.0
    for _ in range(60):
        mid = (lo + hi) / 2
        if np.clip(a - mid, 0.0, C).sum() > 1.0:
            lo = mid
        else:
            hi = mid
    return np.clip(a - (lo + hi) / 2, 0.0, C)


def test_ocsvm():
    X = np.random.default_rng(2).normal(size=(40, 4))
    nu = 0.5
    model = fit_ocsvm(X, nu, KernelSpec("rbf", 0.25))
    C = 1.0 / (nu * 40)
    feasible = (abs(model.alpha.sum() - 1.0) < 1e-9
                and model.alpha.min() >= 0.0
                and model.alpha.max() <= C + 1e-15)
    report("OCSVM dual feasibility exact", feasible,
           f"sum {model.alpha.sum():.12f}, box [0, {C:.4f}]")

    X12 = np.random.default_rng(12).normal(size=(12, 2))
    kernel = KernelSpec("rbf", 1.0)
    model = fit_ocsvm(X12, 0.4, kernel)
    K = kernel_matrix(kernel, X12)
    a = _project(np.full(12, 1 / 12), 1.0 / (0.4 * 12))
    lr = 1.0 / np.abs(np.linalg.eigvalsh(K)).max()
    for _ in range(20_000):
        a = _project(a - lr * (K @ a), 1.0 / (0.4 * 12))
    ours = 0.5 * model.alpha @ K @ model.alpha
    ref = 0.5 * a @ K @ a
    report("OCSVM brute-force objective match on n <= 12 within 1e-4",
           ours <= ref + 1e-4, f"solver {ours:.8f} vs oracle {ref:.8f}")

    full = fit_ocsvm(X, 1.0, KernelSpec("rbf", 0.25))
    report("OCSVM nu=1 gives the full support set",
           len(full.support_indices) == 40,
           f"{len(full.support_indices)}/40 support vectors")

    Xout = np.vstack([np.random.default_rng(1).normal(size=(20, 2)),
                      [[100.0, 100.0]]])
    out = fit_ocsvm(Xout, 0.1, KernelSpec("rbf", 0.5))
    report("OCSVM far outlier is a support vector",
           20 in out.support_indices)


# --- 1e. Classifier oracles ---------------------------------------------

def test_classifier_oracles():
    rng = np.random.default_rng(3)
    X = rng.integers(0, 5, size=(12, 3)).astype(float)
    y = rng.integers(0, 2, size=12)
    y[0] = 1 - y[0] if y.min() == y.max() else y[0]
    got = best_split(X.T, y, np.arange(12), range(3), min_samples_leaf=2)
    oracle = None
    for f in range(3):
        vals = np.unique(X[:, f])
        for a, b in zip(vals[:-1], vals[1:]):
            t = (a + b) / 2
            m = X[:, f] <= t
            if min(m.sum(), 12 - m.sum()) < 2:
                continue
            s = (m.sum() * gini(y[m]) + (12 - m.sum()) * gini(y[~m])) / 12
            if oracle is None or s < oracle[0] - 1e-15:
                oracle = (s, f, t)
    report("tree split equals the exhaustive-Gini oracle",
           got is not None and got[0] == oracle[1]
           and abs(got[1] - oracle[2]) < 1e-12
           and abs(got[2] - oracle[0]) < 1e-12)

    from scipy.optimize import minimize

    Xs = np.vstack([rng.normal(0, 0.6, (20, 2)), rng.normal(1.5, 0.6, (20, 2))])
    ys = np.repeat([0, 1], 20)
    l2 = 0.5
    lg = fit_logistic(Xs, ys, LogisticParams(l2))
    ref = minimize(lambda th: logistic_objective(th[:-1], th[-1], Xs, ys, l2),
                   np.zeros(3), method="BFGS")
    coef_err = max(np.abs(lg.params["w"] - ref.x[:-1]).max(),
                   abs(lg.params["b"] - ref.x[-1]))
    report("logistic coefficients within 1e-3 of a brute-force optimizer",
           coef_err <= 1e-3, f"max coef err {coef_err:.2e}")

    y_pm = np.where(ys == 1, 1.0, -1.0)
    sv = fit_svm_linear(Xs, ys, SvmParams(C=1.0))
    ref = minimize(lambda th: svm_objective(th[:-1], th[-1], Xs, y_pm, 1.0),
                   np.zeros(3), method="Powell",
                   options={"xtol": 1e-10, "ftol": 1e-12, "maxiter": 20000})
    ours = svm_objective(sv.params["w"], sv.params["b"], Xs, y_pm, 1.0)
    report("SVM objective within 1% of a brute-force optimizer",
           ours <= ref.fun * 1.01 + 1e-9,
           f"solver {ours:.6f} vs oracle {ref.fun:.6f}")

    Xf = rng.normal(size=(120, 2))
    yf = (Xf[:, 0] + Xf[:, 1] > 0).astype(int)
    forest = fit_forest(Xf, yf, ForestParams(max_features="all", n_estimators=1,
                                             bootstrap=False), seed=4)
    tree = fit_tree(Xf, yf, TreeParams(max_features="all"), seed=4 * 1_000_003 + 1)
    same = np.array_equal(forest.predict_proba(Xf), tree.predict_proba(Xf))
    report("forest(n=1, no bootstrap) is identical to a single tree", same)


# --- 1f. Evaluation -----------------------------------------------------

def test_evaluation(tmp_path, monkeypatch):
    m = metrics(ConfusionCounts(tp=8, tn=9, fp=1, fn=2))
    identities = (m.sensitivity == 0.8 and m.specificity == 0.9
                  and m.accuracy == 0.85
                  and m.auc == (m.sensitivity + m.specificity) / 2)
    report("metric identities exact", identities)

    rng = np.random.default_rng(5)
    fidelity = True
    for seed in range(3):
        X = rng.normal(size=(300, 3))
        y = (X[:, 0] * X[:, 1] > 0).astype(int)
        tree = fit_tree(X, y, TreeParams(max_features="all"), seed=seed)
        probe = rng.normal(size=(400, 3))
        fidelity &= np.array_equal(apply_rules(extract_rules(tree), probe),
                                   tree.predict(probe))
    report("rule fidelity 100% on random tables", fidelity)

    a = rng.uniform(0.7, 0.9, 10)
    b = rng.uniform(0.6, 0.8, 10)
    t, _ = t_test_auc(a, b)
    sp2 = (9 * a.var(ddof=1) + 9 * b.var(ddof=1)) / 18
    expected = (a.mean() - b.mean()) / math.sqrt(sp2 * 0.2)
    report("t-test matches the formula oracle to 1e-10",
           abs(t - expected) <= 1e-10, f"diff {abs(t - expected):.2e}")

    table = mixed_imbalanced(90, 30, seed=4)
    csv_path, schema_path = tmp_path / "cv.csv", tmp_path / "cv.schema.json"
    table_to_csv(table, csv_path)
    schema_path.write_text(json.dumps(table.schema.to_dict()))
    trained = []
    original = pipeline.fit_classifier

    def spy(spec, balanced, params, seed):
        trained.append(set(map(tuple, balanced.X)))
        return original(spec, balanced, params, seed)

    monkeypatch.setattr(pipeline, "fit_classifier", spy)
    run_experiment(ExperimentConfig(DatasetSettings(str(csv_path), str(schema_path)),
                                    split=SplitSettings(mode="kfold", k=3),
                                    classifiers=[{"kind": "tree"}],
                                    output_dir=str(tmp_path / "cv-out")))
    folds = stratified_kfold(load_csv(str(csv_path), table.schema), 3, 0)
    clean = len(trained) == 3 and all(
        not rows & set(map(tuple, valid.X)) for rows, (_, valid) in zip(trained, folds))
    report("CV purity sentinel: no validation row reaches training", clean)


# --- 1g. Pipeline -------------------------------------------------------

def test_pipeline_audit_and_determinism(tmp_path):
    table = mixed_imbalanced(90, 10, seed=1)
    settings = BalancerSettings(
        oversampler="gan", epochs=3, batch_size=8,
        ocsvm=OcsvmSettings(enabled=True, nu=0.5, kernel="rbf", gamma=0.3))
    balanced, audit, _ = balance(table, settings, seed=0)
    reconciles = (audit["majority_kept"] + audit["minority_before"]
                  + audit["synthetic"] == balanced.n_rows)
    report("audit reconciliation holds", reconciles, str(audit))

    from fingan.fixtures import table_to_csv

    csv_path = tmp_path / "d.csv"
    schema_path = tmp_path / "d.schema.json"
    table_to_csv(mixed_imbalanced(100, 25, seed=1), csv_path)
    schema_path.write_text(json.dumps(table.schema.to_dict()))
    blobs = []
    for run in range(2):
        config = ExperimentConfig.from_dict({
            "dataset": {"csv": str(csv_path), "schema": str(schema_path)},
            "balancer": {"oversampler": "gan", "epochs": 3, "batch_size": 8},
            "classifiers": [{"kind": "tree"}],
            "output_dir": str(tmp_path / f"out{run}"),
        })
        run_experiment(config)
        d = json.loads((tmp_path / f"out{run}" / "report.json").read_text())
        d.pop("timings")
        d["config"].pop("output_dir")
        blobs.append(json.dumps(d, sort_keys=True))
    report("reports byte-identical across reruns (timings aside)",
           blobs[0] == blobs[1])


def test_pipeline_toy_uplift():
    uplifts = []
    for seed in GAN_SEEDS:
        table = blobs_imbalanced(950, 50, seed=seed)
        train, test = stratified_holdout(table, 0.8, seed)
        aucs = {}
        for name, settings in (("none", BalancerSettings()),
                               ("gan", BalancerSettings(oversampler="gan",
                                                        epochs=60))):
            bal, _, _ = balance(train, settings, seed=seed)
            forest = fit_forest(bal.X, bal.y, ForestParams(n_estimators=50), seed=seed)
            aucs[name] = metrics(confusion(test.y, forest.predict(test.X))).auc
        uplifts.append(aucs["gan"] - aucs["none"])
    med = float(np.median(uplifts))
    report("toy end-to-end uplift >= 0.05 AUC (median of 3 seeds, gan vs none)",
           med >= 0.05, f"uplifts {[round(u, 3) for u in uplifts]}, median {med:.3f}")


# --- 2. dataset-conditional reproduction --------------------------------

DATA_DIR = os.environ.get("FINGAN_DATA_DIR")


def _public_paths(stem):
    if not DATA_DIR:
        pytest.skip("FINGAN_DATA_DIR not set; user-supplied data required")
    csv_path = os.path.join(DATA_DIR, f"{stem}.csv")
    schema_path = os.path.join(DATA_DIR, f"{stem}.schema.json")
    if not (os.path.exists(csv_path) and os.path.exists(schema_path)):
        pytest.skip(f"{stem}.csv / {stem}.schema.json not found in FINGAN_DATA_DIR")
    return csv_path, schema_path


def _load_public(stem):
    csv_path, schema_path = _public_paths(stem)
    return load_csv(csv_path, Schema.from_json(schema_path))


def _kfold_auc(stem, classifier_kind, oversampler, ocsvm_enabled, out_dir):
    """Mean 10-fold AUC of one classifier from a seed-0 run_experiment."""
    csv_path, schema_path = _public_paths(stem)
    config = ExperimentConfig(
        DatasetSettings(csv_path, schema_path), split=SplitSettings(mode="kfold", k=10),
        balancer=BalancerSettings(oversampler=oversampler, epochs=300,
                                  ocsvm=OcsvmSettings(enabled=ocsvm_enabled, nu=0.5)),
        classifiers=[{"kind": classifier_kind}], seed=0, output_dir=str(out_dir))
    return run_experiment(config)["results"][classifier_kind]["mean"]["auc"]


def test_loan_default_reproduction(tmp_path):
    auc = _kfold_auc("loan", "forest", "ctgan", False, tmp_path)
    report("loan default: CTGAN + forest 10-fold AUC >= 0.80",
           auc >= 0.80, f"AUC {auc:.3f} (target band 0.849 +/- 0.05)")


def test_churn_reproduction(tmp_path):
    auc = _kfold_auc("churn", "tree", "ctgan", False, tmp_path)
    report("churn: CTGAN + tree 10-fold AUC >= 0.82", auc >= 0.82,
           f"AUC {auc:.3f}")
    train, _ = stratified_holdout(_load_public("churn"), 0.8, 0)
    settings = BalancerSettings(oversampler="ctgan", epochs=300)
    from fingan.data_model import fit_preprocess
    params = fit_preprocess(train)
    bal, _, _ = balance(train, settings, 0, params)
    tree = fit_tree(bal.X, bal.y, TreeParams(), seed=0)
    n_rules = len(extract_rules(tree))
    report("churn: extracted tree rule count <= 15", n_rules <= 15,
           f"{n_rules} rules")


def test_fraud_reproduction(tmp_path):
    auc = _kfold_auc("fraud", "forest", "ctgan", False, tmp_path)
    report("insurance fraud: CTGAN + forest 10-fold AUC >= 0.71",
           auc >= 0.71, f"AUC {auc:.3f}")


@pytest.mark.parametrize("stem,kind", [("loan", "forest"), ("churn", "tree"),
                                       ("fraud", "forest")])
def test_hybrid_variant_no_degradation(stem, kind, tmp_path):
    plain = _kfold_auc(stem, kind, "gan", False, tmp_path / "plain")
    hybrid = _kfold_auc(stem, kind, "gan", True, tmp_path / "hybrid")
    report(f"{stem}: GAN+OCSVM within 0.03 AUC of GAN-only",
           hybrid >= plain - 0.03, f"hybrid {hybrid:.3f} vs plain {plain:.3f}")
