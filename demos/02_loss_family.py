"""Tour of the loss variants and their algebraic relationships.

Evaluates every variant on one random prediction grid, then demonstrates the
identities that knit the family together: on binary ground truth the heatmap
and mask losses reduce to the plain binary focal loss, and the poly-1 forms
collapse to their base variants when the perturbation is switched off.
"""

from dataclasses import replace

import numpy as np

from heatloss import (
    Grid,
    GroundTruthBundle,
    LossConfig,
    LossVariant,
    loss_with_grad,
)

rng = np.random.default_rng(2024)

# binary ground truth: box-interior pixels are 1
binary = rng.integers(0, 2, (12, 12)).astype(float)
binary_gt = GroundTruthBundle(Grid(binary), n_objects=4)

# smooth ground truth: graded heat inside the box mask, zero outside, so the
# mask variants read the mask as the heatmap's support
inside = rng.random((12, 12)) < 0.4
heat = np.where(inside, rng.uniform(0.3, 1.0, (12, 12)), 0.0)
smooth_gt = GroundTruthBundle(Grid(heat), n_objects=4)

pred = Grid(rng.uniform(0.05, 0.95, (12, 12)))

print("loss values on one random prediction grid (alpha=1, beta=0.5, gamma=2):")
for variant in LossVariant:
    gt = binary_gt if variant in (LossVariant.FOCAL_SCALAR, LossVariant.ALPHA_FOCAL) else smooth_gt
    cfg = LossConfig(variant, alpha=1.0, beta=0.5, gamma=2.0)
    result = loss_with_grad(pred, gt, cfg)
    print(f"  {variant.value:18s} {result.value:10.4f}   |grad|_max {np.abs(result.grad.values).max():8.4f}")

print("\nreduction identities on binary ground truth:")
cfg = LossConfig(LossVariant.ALPHA_FOCAL, alpha=1.0, beta=4.0, gamma=2.0)
base = loss_with_grad(pred, binary_gt, cfg).value
via_heatmap = loss_with_grad(pred, binary_gt, replace(cfg, variant=LossVariant.HEATMAP_FOCAL)).value
via_mask = loss_with_grad(pred, binary_gt, replace(cfg, variant=LossVariant.MASK_FOCAL, beta=0.0)).value
print(f"  binary focal        {base:.12f}")
print(f"  heatmap focal       {via_heatmap:.12f}   (beta irrelevant: every negative has zero heat)")
print(f"  mask focal, beta=0  {via_mask:.12f}")

print("\npoly-1 perturbation strength on the smooth ground truth:")
for eps1 in (0.0, 0.5, 1.0):
    cfg = LossConfig(LossVariant.MASK_FOCAL_POLY1, beta=0.5, gamma=4.0, eps1=eps1)
    value = loss_with_grad(pred, smooth_gt, cfg).value
    print(f"  eps1 = {eps1:3.1f} -> {value:.6f}")
base = loss_with_grad(pred, smooth_gt, LossConfig(LossVariant.MASK_FOCAL, beta=0.5, gamma=4.0)).value
print(f"  base mask focal     {base:.6f}   (equals the eps1 = 0 row exactly)")
