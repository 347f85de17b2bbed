"""Feeder-level load disaggregation toolkit.

Simulates high-frequency distribution-feeder waveforms with in-home
medical devices among background loads, extracts windowed electrical
features, and trains a regressor that predicts how many medical devices
are running behind the feeder. Each name is imported from its module,
e.g. ``from feeder_nilm.featurize import featurize``.
"""

__version__ = "0.1.0"

__all__ = ["__version__"]
