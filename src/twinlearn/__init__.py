"""Twin-network classifiers for imbalanced data.

Binary and multiclass twin neural networks, a reference twin SVM solved
through its dual QPs, confusion-matrix metrics for skewed classes, two
nonparametric significance tests, and a reproducible cross-validation
harness with a command-line front end.
"""

from .numcore import Rng, mix_seed
from .data import Dataset, load_csv, load_libsvm, fit_scaling, apply_scaling
from .data import knn_impute, make_folds, make_imbalanced
from .twin_nn import TwinHyper, TwinNNModel, train, predict, decision_values
from .twin_nn import RfnnHyper, train_rfnn_baseline, rfnn_predict
from .multiclass import MCHyper, MulticlassTwinModel, mc_train, mc_predict
from .twsvm import TwsvmHyper, KernelSpec, TwsvmProblem, TwsvmModel, solve_dual, twsvm_predict
from .evalstats import ConfusionMatrix, MetricReport, confusion, metrics
from .evalstats import wilcoxon_signed_ranks, friedman
from .harness import ExperimentSpec, RunResult, run_experiment, run_onevsrest
from .harness import compare_algorithms

__version__ = "0.1.0"

__all__ = [
    "Rng",
    "mix_seed",
    "Dataset",
    "load_csv",
    "load_libsvm",
    "fit_scaling",
    "apply_scaling",
    "knn_impute",
    "make_folds",
    "make_imbalanced",
    "TwinHyper",
    "TwinNNModel",
    "train",
    "predict",
    "decision_values",
    "RfnnHyper",
    "train_rfnn_baseline",
    "rfnn_predict",
    "MCHyper",
    "MulticlassTwinModel",
    "mc_train",
    "mc_predict",
    "TwsvmHyper",
    "KernelSpec",
    "TwsvmProblem",
    "TwsvmModel",
    "solve_dual",
    "twsvm_predict",
    "ConfusionMatrix",
    "MetricReport",
    "confusion",
    "metrics",
    "wilcoxon_signed_ranks",
    "friedman",
    "ExperimentSpec",
    "RunResult",
    "run_experiment",
    "run_onevsrest",
    "compare_algorithms",
]
