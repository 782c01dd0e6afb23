"""Desk-scale comparison: which losses drive a free grid to correct counts?

Fits a raw prediction grid by gradient descent against several loss variants
on the same batch of synthetic scenes and reports per-variant MAE/RMSE.  No
network is involved, so differences come from the losses alone.
"""

import time

from heatloss import (
    FitConfig,
    InitMode,
    LossConfig,
    LossVariant,
    SigmaParams,
    SynthParams,
    generate_scene,
    run_desk_experiment,
)

scenes = [
    generate_scene(SynthParams(seed=s, width=64, height=64, n_heads=3 + s % 3, min_center_gap=20.0))
    for s in range(8)
]
variants = [
    LossConfig(LossVariant.HEATMAP_FOCAL, alpha=1.0, beta=4.0, gamma=2.0),
    LossConfig(LossVariant.MASK_FOCAL, alpha=1.0, beta=0.5, gamma=4.0),
    LossConfig(LossVariant.MASK_FOCAL_POLY1, alpha=1.0, beta=0.5, gamma=4.0),
    LossConfig(LossVariant.ALPHA_FOCAL, alpha=1.0, gamma=2.0),
]
fit = FitConfig(
    steps=800,
    learning_rate=0.5,
    init=InitMode.UNIFORM_HALF,
    record_every=100,
)

print(f"fitting {len(scenes)} scenes x {len(variants)} variants, {fit.steps} steps each...")
start = time.perf_counter()
results = run_desk_experiment(scenes, variants, SigmaParams(eta=1.0, eps_sigma=3.0), fit)
print(f"done in {time.perf_counter() - start:.1f}s\n")

print(f"{'variant':20s} {'MAE':>7s} {'RMSE':>7s}   per-scene counts (pred/truth)")
for cfg, report in results:
    counts = " ".join(f"{p}/{t}" for p, t in report.per_image)
    print(f"{cfg.variant.value:20s} {report.mae:7.3f} {report.rmse:7.3f}   {counts}")

print("\nwith enough steps every variant recovers the exact counts here; the")
print("interesting regime is a small step budget, where the graded mask losses")
print("keep whole head regions active instead of single keypoints.")
