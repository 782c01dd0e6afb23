"""Numerical verification of the analytic gradients.

For each variant, compares the closed-form per-pixel gradient against central
finite differences of the loss value over random instances; every deviation
should sit far below the 1e-6 contract.
"""

import time

from heatloss import LossVariant
from heatloss.losses import max_grad_deviation

print("max relative deviation |analytic - finite difference| / (1 + |analytic|)")
print(f"{'variant':20s} {'deviation':>12s} {'seconds':>8s}")
for variant in LossVariant:
    start = time.perf_counter()
    worst = max_grad_deviation(variant, size=8, instances=250, seed=42)
    elapsed = time.perf_counter() - start
    print(f"{variant.value:20s} {worst:12.3e} {elapsed:8.2f}")
print("\ncontract: deviation <= 1e-6 at every pixel of every instance")
