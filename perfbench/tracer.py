"""Outside-in tracer: spans around the calls into each fingan layer.

The tracer rebinds public names in the module namespaces where callers look
them up (for example ``fingan.pipeline.load_csv``), records one span per call
and puts every original back on exit. The program's own code is unchanged.

A span is (name, start, end, parent). Its layer is the first dotted part of
its name, which is the fingan module the wrapped code belongs to; nn_core
spans carry the calling module as their last part (``nn_core.forward.gan``).
"""

import time

import fingan
import fingan.classifiers
import fingan.ctgan
import fingan.gan
import fingan.ocsvm
import fingan.pipeline

LAYERS = ("pipeline", "data_model", "ocsvm", "gan", "ctgan", "nn_core",
          "classifiers", "evaluation")
NN_CALLERS = ("gan", "ctgan", "classifiers")
NN_FUNCTIONS = ("forward", "backward", "adam_step")
FIT_FUNCTIONS = {"tree": "fit_tree", "forest": "fit_forest",
                 "logistic": "fit_logistic", "mlp": "fit_mlp_classifier"}

# (namespace, attribute, span name) for every rebound name
REBINDS = (
    [(fingan, "run_experiment", "pipeline.run_experiment")]
    + [(fingan.pipeline, attr, f"pipeline.{attr}")
       for attr in ("balance", "fit_classifier", "predict_labels")]
    + [(fingan.pipeline, attr, f"data_model.{attr}")
       for attr in ("load_csv", "fit_preprocess", "stratified_kfold",
                    "stratified_holdout")]
    + [(fingan.pipeline, "undersample_majority", "ocsvm.undersample_majority"),
       (fingan.ocsvm, "fit_ocsvm", "ocsvm.fit_ocsvm"),
       (fingan.ocsvm, "kernel_matrix", "ocsvm.kernel_matrix"),
       (fingan.pipeline, "train_gan", "gan.train_gan"),
       (fingan.pipeline, "balance_by_oversampling", "gan.balance_by_oversampling"),
       (fingan.gan, "generator_backward_step", "gan.generator_step"),
       (fingan.pipeline, "train_ctgan", "ctgan.train_ctgan"),
       (fingan.ctgan, "fit_mode_normalizer", "ctgan.fit_mode_normalizer"),
       (fingan.ctgan, "generator_backward_step", "ctgan.generator_step"),
       (fingan.classifiers, "best_split", "classifiers.best_split"),
       (fingan.classifiers, "predict_proba", "classifiers.predict_proba")]
    + [(fingan.pipeline, fn, f"classifiers.fit.{kind}")
       for kind, fn in FIT_FUNCTIONS.items()]
    + [(fingan.pipeline, attr, f"evaluation.{attr}")
       for attr in ("confusion", "metrics", "t_test_auc", "extract_rules")]
    + [(getattr(fingan, caller), fn, f"nn_core.{fn}.{caller}")
       for caller in NN_CALLERS for fn in NN_FUNCTIONS]
)


def _tree_nodes(node):
    if node is None:
        return 0
    return 1 + _tree_nodes(node.left) + _tree_nodes(node.right)


def _count_tree_nodes(model):
    if model.kind == "forest":
        return sum(_tree_nodes(t.params["root"]) for t in model.params["trees"])
    return _tree_nodes(model.params["root"])


class Tracer:
    """Context manager: rebinds REBINDS on entry, restores them on exit.

    Spans and counters accumulate until reset(); one tracer serves one
    thread.
    """

    def __init__(self):
        self._saved = []
        self.reset()

    def reset(self):
        self.names, self.starts, self.ends, self.parents = [], [], [], []
        self._stack = [-1]
        self.counters = {"ocsvm.sweeps": 0, "ocsvm.stalled": 0,
                         "ocsvm.kernel_mb": 0.0, "gan.rows_synthesized": 0,
                         "classifiers.tree_nodes": 0}

    def __enter__(self):
        observers = self._observers()
        for module, attr, name in REBINDS:
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(original, name, observers.get(name)))
        return self

    def __exit__(self, *exc):
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)
        return False

    def _wrap(self, original, name, observe):
        if name == "classifiers.predict_proba":
            def name_of(args):
                return f"classifiers.predict.{args[0].kind}"
        else:
            def name_of(args):
                return name

        def traced(*args, **kwargs):
            idx = len(self.names)
            self.names.append(name_of(args))
            self.parents.append(self._stack[-1])
            self.ends.append(None)
            self._stack.append(idx)
            self.starts.append(time.perf_counter())
            try:
                result = original(*args, **kwargs)
            finally:
                self.ends[idx] = time.perf_counter()
                self._stack.pop()
            if observe is not None:
                observe(args, result)
            return result

        return traced

    def _observers(self):
        def ocsvm_fit(args, model):
            c = self.counters
            n = model.X.shape[0]
            c["ocsvm.sweeps"] += len(model.objective_history) - 1
            c["ocsvm.stalled"] += int(model.stalled)
            # computed, not measured: the dense n x n float64 kernel
            c["ocsvm.kernel_mb"] = max(c["ocsvm.kernel_mb"], n * n * 8 / 2**20)

        def oversample(args, balanced):
            self.counters["gan.rows_synthesized"] += balanced.n_rows - args[0].n_rows

        def tree_fit(args, model):
            self.counters["classifiers.tree_nodes"] += _count_tree_nodes(model)

        return {"ocsvm.fit_ocsvm": ocsvm_fit,
                "gan.balance_by_oversampling": oversample,
                "classifiers.fit.tree": tree_fit,
                "classifiers.fit.forest": tree_fit}

    def spans(self):
        """Recorded spans as a JSON-ready dict of parallel lists."""
        return {"name": self.names, "start": self.starts, "end": self.ends,
                "parent": self.parents}


def self_times(starts, ends, parents):
    """Per span: its duration minus the part of it that child spans cover."""
    children = [[] for _ in starts]
    for i, p in enumerate(parents):
        if p >= 0:
            children[p].append(i)
    out = []
    for i, kids in enumerate(children):
        covered, reach = 0.0, starts[i]
        for k in sorted(kids, key=lambda k: starts[k]):
            lo, hi = max(starts[k], reach), min(ends[k], ends[i])
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(ends[i] - starts[i] - covered)
    return out


def layer_metrics(spans, counters):
    """Per-layer metrics of one traced run_experiment, as name -> (value, unit)."""
    names, starts, ends = spans["name"], spans["start"], spans["end"]
    own = self_times(starts, ends, spans["parent"])
    total, self_s, calls = {}, {}, {}
    layer_self = dict.fromkeys(LAYERS, 0.0)
    for name, start, end, s in zip(names, starts, ends, own):
        total[name] = total.get(name, 0.0) + (end - start)
        self_s[name] = self_s.get(name, 0.0) + s
        calls[name] = calls.get(name, 0) + 1
        layer_self[name.split(".")[0]] += s

    def tot(*span_names):
        return sum(total.get(n, 0.0) for n in span_names)

    def n_calls(*span_names):
        return sum(calls.get(n, 0) for n in span_names)

    m = {}
    for attr in ("balance", "fit_classifier", "predict_labels"):
        m[f"pipeline.{attr}.s"] = (tot(f"pipeline.{attr}"), "s")
    m["pipeline.self_s"] = (layer_self["pipeline"], "s")

    m["data_model.load_csv.s"] = (tot("data_model.load_csv"), "s")
    m["data_model.fit_preprocess.s"] = (tot("data_model.fit_preprocess"), "s")
    m["data_model.split.s"] = (tot("data_model.stratified_kfold",
                                   "data_model.stratified_holdout"), "s")

    m["ocsvm.undersample_majority.s"] = (tot("ocsvm.undersample_majority"), "s")
    m["ocsvm.kernel_matrix.s"] = (tot("ocsvm.kernel_matrix"), "s")
    m["ocsvm.solver_s"] = (self_s.get("ocsvm.fit_ocsvm", 0.0), "s")
    m["ocsvm.sweeps"] = (counters["ocsvm.sweeps"], "count")
    m["ocsvm.kernel_mb"] = (counters["ocsvm.kernel_mb"], "MB_computed")
    m["ocsvm.stalled"] = (counters["ocsvm.stalled"], "count")

    ctgan_steps = calls.get("ctgan.generator_step", 0)
    ctgan_loop_s = tot("ctgan.train_ctgan") - tot("ctgan.fit_mode_normalizer")
    m["ctgan.train_ctgan.s"] = (tot("ctgan.train_ctgan"), "s")
    m["ctgan.fit_mode_normalizer.s"] = (tot("ctgan.fit_mode_normalizer"), "s")
    m["ctgan.train_self_s"] = (self_s.get("ctgan.train_ctgan", 0.0), "s")
    m["ctgan.steps"] = (ctgan_steps, "count")
    m["ctgan.step_ms"] = (1e3 * ctgan_loop_s / ctgan_steps if ctgan_steps else 0.0, "ms")

    gan_steps = calls.get("gan.generator_step", 0)
    m["gan.train_gan.s"] = (tot("gan.train_gan"), "s")
    m["gan.steps"] = (gan_steps, "count")
    m["gan.step_ms"] = (1e3 * tot("gan.train_gan") / gan_steps if gan_steps else 0.0, "ms")
    m["gan.balance_by_oversampling.s"] = (tot("gan.balance_by_oversampling"), "s")
    m["gan.rows_synthesized"] = (counters["gan.rows_synthesized"], "count")

    for fn in NN_FUNCTIONS:
        per_caller = [f"nn_core.{fn}.{caller}" for caller in NN_CALLERS]
        m[f"nn_core.{fn}.calls"] = (n_calls(*per_caller), "count")
        m[f"nn_core.{fn}.s"] = (tot(*per_caller), "s")
        for caller, span in zip(NN_CALLERS, per_caller):
            m[f"nn_core.{fn}.{caller}.calls"] = (n_calls(span), "count")
            m[f"nn_core.{fn}.{caller}.s"] = (tot(span), "s")

    for kind in FIT_FUNCTIONS:
        m[f"classifiers.fit.{kind}.s"] = (tot(f"classifiers.fit.{kind}"), "s")
        m[f"classifiers.predict.{kind}.s"] = (tot(f"classifiers.predict.{kind}"), "s")
    m["classifiers.best_split.calls"] = (calls.get("classifiers.best_split", 0), "count")
    m["classifiers.best_split.s"] = (tot("classifiers.best_split"), "s")
    m["classifiers.tree_nodes"] = (counters["classifiers.tree_nodes"], "count")

    m["evaluation.s"] = (tot("evaluation.confusion", "evaluation.metrics",
                             "evaluation.t_test_auc", "evaluation.extract_rules"), "s")

    whole = tot("pipeline.run_experiment")
    for layer in LAYERS:
        m[f"share.{layer}"] = (100.0 * layer_self[layer] / whole if whole else 0.0, "%")
    return m


# Counts that must repeat exactly for one seed.
EXACT_COUNTERS = tuple(
    ["ocsvm.sweeps", "ocsvm.stalled", "ctgan.steps", "gan.steps",
     "gan.rows_synthesized", "classifiers.best_split.calls",
     "classifiers.tree_nodes"]
    + [f"nn_core.{fn}.calls" for fn in NN_FUNCTIONS]
    + [f"nn_core.{fn}.{caller}.calls" for fn in NN_FUNCTIONS for caller in NN_CALLERS]
)
