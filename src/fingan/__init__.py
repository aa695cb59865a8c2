"""Rebalancing skewed binary tabular datasets with GAN oversampling and
one-class-SVM undersampling, plus a classifier evaluation harness."""

__version__ = "0.1.0"

from .data_model import (  # noqa: F401
    CATEGORICAL,
    NUMERIC,
    ColumnSpec,
    PreprocessParams,
    Schema,
    Table,
    apply_preprocess,
    concat_tables,
    fit_preprocess,
    load_csv,
    stratified_holdout,
    stratified_kfold,
)
from .evaluation import (  # noqa: F401
    ConfusionCounts,
    MetricSet,
    Rule,
    confusion,
    extract_rules,
    metrics,
    roc_auc,
    t_test_auc,
)
from .gan import (  # noqa: F401
    GanConfig,
    GeneratorModel,
    ModeNormalizer,
    balance_by_oversampling,
    encode_for_gan,
    sample_synthetic,
    train_gan,
)
from .ctgan import fit_mode_normalizer, train_ctgan  # noqa: F401
from .ocsvm import (  # noqa: F401
    KernelSpec,
    OcsvmModel,
    decision_function,
    fit_ocsvm,
    undersample_majority,
)
from .classifiers import (  # noqa: F401
    FittedClassifier,
    ForestParams,
    LogisticParams,
    MlpClfParams,
    SvmParams,
    TreeParams,
    fit_forest,
    fit_logistic,
    fit_mlp_classifier,
    fit_svm_linear,
    fit_tree,
    predict_proba,
)
from .pipeline import ExperimentConfig, balance, run_experiment  # noqa: F401
