#!/usr/bin/env python3
"""Print the Fisher-score feature ranking over the built-in device library.

Emulates the lab characterization step: every device class is measured in
each of its modes (every state in which it draws current) a few times,
with its own noise level, and the resulting signature vectors are ranked
by how well each feature separates the classes.

Usage: python scripts/rank_default_features.py [--window-s W] [--reps N]
"""

import argparse
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), os.pardir, "src"))

from feeder_nilm.devices import characterization_vectors, default_library
from feeder_nilm.featurize import FeatureSpec, rank_features


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--window-s", type=float, default=1.0)
    parser.add_argument("--reps", type=int, default=8)
    parser.add_argument("--sample-rate-hz", type=float, default=10_000.0)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    spec = FeatureSpec()
    library = default_library()
    signatures = {
        name: characterization_vectors(
            model, spec, args.window_s, args.sample_rate_hz, args.reps, args.seed
        )
        for name, model in library.items()
    }
    ranking = rank_features(signatures, spec.features)

    width = max(len(name) for name, _ in ranking)
    print(f"{'rank':>4}  {'feature':<{width}}  fisher score")
    for position, (name, score) in enumerate(ranking, start=1):
        print(f"{position:>4}  {name:<{width}}  {score:.6g}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
