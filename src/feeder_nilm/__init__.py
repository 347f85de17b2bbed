"""Feeder-level load disaggregation toolkit.

Simulates high-frequency distribution-feeder waveforms with in-home
medical devices among background loads, extracts windowed electrical
features, and trains a regressor that predicts how many medical devices
are running behind the feeder.
"""

from .devices import DeviceMode, DeviceModel, HarmonicSpec, default_library
from .evaluate import EvalReport, evaluate, mae
from .featurize import FeatureDataset, FeatureSpec, NormStats, featurize, rank_features, window_targets
from .model import RegressorParams, TrainConfig, init_params, train
from .signals import Waveform
from .simulate import (
    ScenarioConfig,
    Schedule,
    generate_schedule,
    ground_truth_counts,
    synthesize_feeder,
)

__version__ = "0.1.0"

__all__ = [
    "Waveform",
    "HarmonicSpec",
    "DeviceMode",
    "DeviceModel",
    "default_library",
    "ScenarioConfig",
    "Schedule",
    "generate_schedule",
    "synthesize_feeder",
    "ground_truth_counts",
    "window_targets",
    "FeatureSpec",
    "FeatureDataset",
    "NormStats",
    "featurize",
    "rank_features",
    "RegressorParams",
    "TrainConfig",
    "init_params",
    "train",
    "EvalReport",
    "mae",
    "evaluate",
    "__version__",
]
