"""Shrink the majority class to its one-class-SVM support vectors.

The nu parameter bounds the support-vector fraction from below, so it acts
as a dial for how aggressively the majority is thinned. Points that survive
are the ones that define the class boundary; deep-interior points go.
"""

import numpy as np

from fingan import decision_function, undersample_majority
from fingan.fixtures import blobs_imbalanced


def main():
    table = blobs_imbalanced(950, 50, seed=0)
    print(f"dataset: {table.n_negative} majority / {table.n_positive} minority\n")

    for nu in (0.2, 0.5, 0.8):
        kept, model = undersample_majority(table, nu, "rbf", gamma=0.5)
        frac = kept.n_rows / table.n_negative
        print(f"nu={nu}: kept {kept.n_rows:4d} of {table.n_negative} "
              f"majority rows ({frac:.0%} support vectors)")

    # the decision function scores >= 0 inside the learned region
    kept, model = undersample_majority(table, 0.5, "rbf", gamma=0.5)
    scores = decision_function(model, model.X)
    inside = (scores >= 0).mean()
    print(f"\nat nu=0.5, {inside:.0%} of training rows score inside the "
          f"region (roughly 1 - nu, as the nu-property promises)")

    # distance from the class center: survivors sit toward the boundary
    center = table.negatives().X.mean(axis=0)
    all_d = np.linalg.norm(table.negatives().X - center, axis=1)
    kept_d = np.linalg.norm(kept.X - center, axis=1)
    print(f"mean distance from majority center: all {all_d.mean():.2f}, "
          f"kept {kept_d.mean():.2f}")


if __name__ == "__main__":
    main()
