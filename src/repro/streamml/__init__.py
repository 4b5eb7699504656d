"""Streaming machine learning substrate (streamDM / MOA analog).

This subpackage provides from-scratch implementations of the streaming
classifiers used by the paper — Hoeffding Tree, Adaptive Random Forest,
and Streaming Logistic Regression — together with the supporting
machinery: incremental statistics, the ADWIN drift detector, Gaussian
naive Bayes leaf predictors, and simple baselines.

All classifiers implement the :class:`repro.streamml.base.StreamClassifier`
interface: ``learn_one``/``predict_one``/``predict_proba_one`` plus a
``merge`` protocol used by the distributed engine to combine local models
trained on different partitions into one global model (Fig. 2 of the
paper).
"""

from repro.streamml.adwin import Adwin
from repro.streamml.arf import AdaptiveRandomForest
from repro.streamml.base import StreamClassifier
from repro.streamml.ddm import DDM, EDDM
from repro.streamml.ensembles import OzaBagging, OzaBoosting
from repro.streamml.hoeffding_tree import HoeffdingTree
from repro.streamml.instance import Instance
from repro.streamml.knn import KNNClassifier
from repro.streamml.majority import MajorityClassClassifier, NoChangeClassifier
from repro.streamml.naive_bayes import GaussianNaiveBayes
from repro.streamml.serialize import model_from_dict, model_to_dict
from repro.streamml.slr import StreamingLogisticRegression
from repro.streamml.stats import P2Quantile, RunningMinMax, RunningStats

__all__ = [
    "Adwin",
    "AdaptiveRandomForest",
    "StreamClassifier",
    "DDM",
    "EDDM",
    "OzaBagging",
    "OzaBoosting",
    "KNNClassifier",
    "model_from_dict",
    "model_to_dict",
    "HoeffdingTree",
    "Instance",
    "MajorityClassClassifier",
    "NoChangeClassifier",
    "GaussianNaiveBayes",
    "StreamingLogisticRegression",
    "P2Quantile",
    "RunningMinMax",
    "RunningStats",
]
