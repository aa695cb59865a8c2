"""CTGAN on a minority class with a rare category.

Plain GANs tend to drop categories that appear in only a few percent of
rows. CTGAN counters this with conditional vectors sampled by log-frequency
and training-by-sampling, so the rare category stays represented — and can
even be requested explicitly at sampling time.
"""

from fingan import GanConfig, sample_synthetic, train_ctgan
from fingan.fixtures import rare_category_minority


def main():
    table = rare_category_minority(400, rare_fraction=0.05, seed=2)
    rare_real = (table.X[:, 1] == 1.0).mean()
    print(f"minority fixture: {table.n_rows} rows, "
          f"'rare' group at {rare_real:.1%}\n")

    model = train_ctgan(table, GanConfig(mode="ctgan", epochs=600, seed=0))

    # unconditional sampling: the rare group must not vanish
    synth = sample_synthetic(model, 5000, seed=1)
    rare_synth = (synth.X[:, 1] == 1.0).mean()
    print(f"unconditional sample of 5000: 'rare' share {rare_synth:.1%}")

    # conditional sampling: every row honors the requested category
    forced = sample_synthetic(model, 500, seed=2, condition=("group", "rare"))
    share = (forced.X[:, 1] == 1.0).mean()
    print(f"conditioned on group=rare:    'rare' share {share:.0%}")

    # the numeric column shifts with the group, as in the real data
    common = sample_synthetic(model, 500, seed=3, condition=("group", "common"))
    print(f"\nmean value | group=common: {common.X[:, 0].mean():.3f} "
          f"(real ~0.30)")
    print(f"mean value | group=rare:   {forced.X[:, 0].mean():.3f} "
          f"(real ~0.70)")


if __name__ == "__main__":
    main()
