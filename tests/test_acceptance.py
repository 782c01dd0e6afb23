"""Acceptance suite: one test per exit criterion, each at its pinned tolerance.

Run with ``pytest tests/test_acceptance.py -v`` (add ``-s`` to see the
per-criterion PASS lines while the suite runs), or execute the file directly
with ``python3 tests/test_acceptance.py`` for a plain-text report.
"""

import math
import tempfile
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

from heatloss import (
    FitConfig,
    Grid,
    GroundTruthBundle,
    InitMode,
    LossConfig,
    LossVariant,
    ScalarSample,
    SigmaParams,
    SynthParams,
    compute_metrics,
    compute_sigma,
    extract_peaks,
    fit_direct,
    focal_scalar,
    generate_scene,
    loss_with_grad,
    sigma_from_sensing_factor,
)
from heatloss.ground_truth import BoxAnnotation
from heatloss.serialization import dump_fit_trace_csv, dump_json
from heatloss.grid import write_grid
from heatloss.losses import max_grad_deviation, random_instance
from helpers import brute_force_peaks

GRAD_TOL = 1e-6
IDENTITY_TOL = 1e-12

PINNED_SCENE = SynthParams(
    seed=42, width=64, height=64, n_heads=5, size_range=(6.0, 12.0), min_center_gap=20.0
)
PINNED_SIGMA = SigmaParams(eta=1.0, eps_sigma=3.0)
PINNED_FIT = FitConfig(
    steps=2000,
    learning_rate=0.5,
    init=InitMode.UNIFORM_HALF,
    record_every=1,
)
PINNED_VARIANTS = (
    LossConfig(LossVariant.MASK_FOCAL, alpha=1.0, beta=0.5, gamma=4.0),
    LossConfig(LossVariant.MASK_FOCAL_POLY1, alpha=1.0, beta=0.5, gamma=4.0),
    LossConfig(LossVariant.HEATMAP_FOCAL, alpha=1.0, beta=4.0, gamma=2.0),
)


def _report(name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[acceptance] {name}: {status}{suffix}")
    assert ok, f"{name} failed{suffix}"


def _random_binary_case(rng, beta):
    heat = rng.integers(0, 2, (16, 16)).astype(np.float64)
    gt = GroundTruthBundle(Grid(heat), int(rng.integers(1, 8)))
    pred = Grid(rng.uniform(0.01, 0.99, (16, 16)))
    cfg = LossConfig(
        LossVariant.ALPHA_FOCAL,
        alpha=float(rng.choice([0.25, 1.0, 2.0])),
        beta=beta,
        gamma=float(rng.choice([0.0, 0.5, 2.0, 4.0])),
    )
    return pred, gt, cfg


def test_criterion_01_gradient_contract():
    start = time.perf_counter()
    worst_overall = 0.0
    for variant in LossVariant:
        worst = max_grad_deviation(variant, size=8, instances=1000, seed=20240801)
        worst_overall = max(worst_overall, worst)
        assert worst <= GRAD_TOL, f"{variant.value}: max relative deviation {worst:.3e}"
    elapsed = time.perf_counter() - start
    _report(
        "criterion 1 (gradient contract, 6 variants x 1000 instances)",
        worst_overall <= GRAD_TOL and elapsed < 30.0,
        f"max rel dev {worst_overall:.3e}, {elapsed:.1f}s",
    )


def test_criterion_02_reduction_to_binary_focal():
    rng = np.random.default_rng(20240802)
    worst = 0.0
    for _ in range(100):
        beta = float(rng.choice([0.0, 0.5, 1.0, 2.0, 4.0]))
        pred, gt, cfg = _random_binary_case(rng, beta)
        base = loss_with_grad(pred, gt, cfg).value
        heat_val = loss_with_grad(pred, gt, replace(cfg, variant=LossVariant.HEATMAP_FOCAL)).value
        mask_val = loss_with_grad(
            pred, gt, replace(cfg, variant=LossVariant.MASK_FOCAL, beta=0.0)
        ).value
        worst = max(worst, abs(heat_val - base), abs(mask_val - base))
    _report(
        "criterion 2 (heatmap/mask losses reduce to binary focal on binary GT)",
        worst <= IDENTITY_TOL,
        f"max abs diff {worst:.2e}",
    )


def test_criterion_03_mask_reduces_to_heatmap_on_keypoints():
    rng = np.random.default_rng(20240803)
    worst = 0.0
    for _ in range(100):
        beta = float(rng.choice([0.0, 0.5, 1.0, 2.0, 4.0]))
        pred, gt, cfg = _random_binary_case(rng, beta)
        mask_val = loss_with_grad(pred, gt, replace(cfg, variant=LossVariant.MASK_FOCAL)).value
        heat_val = loss_with_grad(pred, gt, replace(cfg, variant=LossVariant.HEATMAP_FOCAL)).value
        worst = max(worst, abs(mask_val - heat_val))
    _report(
        "criterion 3 (mask loss reduces to heatmap loss with keypoint masks)",
        worst <= IDENTITY_TOL,
        f"max abs diff {worst:.2e}",
    )


def test_criterion_04_poly1_consistency():
    rng = np.random.default_rng(20240804)
    worst = 0.0
    for poly, base_variant in (
        (LossVariant.MASK_FOCAL_POLY1, LossVariant.MASK_FOCAL),
        (LossVariant.POLY1_PIXELWISE, LossVariant.HEATMAP_FOCAL),
    ):
        for _ in range(50):
            pred, gt, cfg = random_instance(base_variant, rng, size=16)
            poly_val = loss_with_grad(pred, gt, replace(cfg, variant=poly, eps1=0.0)).value
            base_val = loss_with_grad(pred, gt, replace(cfg, variant=base_variant)).value
            worst = max(worst, abs(poly_val - base_val))
    gt = GroundTruthBundle(Grid(np.array([[0.5]])), 1)
    cfg = LossConfig(LossVariant.MASK_FOCAL_POLY1, alpha=1.0, beta=0.5, gamma=4.0, eps1=1.0)
    example = loss_with_grad(Grid(np.array([[0.9]])), gt, cfg).value
    example_ok = abs(example - 0.0203181) <= 1e-6
    _report(
        "criterion 4 (poly-1 with eps1=0 equals base; worked value 0.0203181)",
        worst <= IDENTITY_TOL and example_ok,
        f"max abs diff {worst:.2e}, example {example:.7f}",
    )


def test_criterion_05_cross_entropy_limit():
    rng = np.random.default_rng(20240805)
    worst = 0.0
    for _ in range(1000):
        p = float(rng.uniform(0.0, 1.0))
        c = int(rng.integers(0, 2))
        got = focal_scalar(ScalarSample(p, c), gamma=0.0)
        q = min(max(p, 1e-4), 1.0 - 1e-4)
        expected = -math.log(q if c == 1 else 1.0 - q)
        worst = max(worst, abs(got - expected))
    _report(
        "criterion 5 (gamma=0 focal equals cross entropy at 1000 points)",
        worst <= IDENTITY_TOL,
        f"max abs diff {worst:.2e}",
    )


def _criterion_06_grids():
    rng = np.random.default_rng(20240806)
    return [rng.random((16, 16)) for _ in range(200)]


def test_criterion_06_peak_extraction_oracle():
    mismatches = 0
    for values in _criterion_06_grids():
        got = [(p.y, p.x) for p in extract_peaks(Grid(values), window=3, threshold=0.3)]
        if got != brute_force_peaks(values, window=3, threshold=0.3):
            mismatches += 1
    _report(
        "criterion 6 (peak extraction equals brute-force scan on 200 grids)",
        mismatches == 0,
        f"{mismatches} mismatching grids",
    )


def test_criterion_07_metric_identities():
    first = compute_metrics([(3, 4), (5, 4)])
    second = compute_metrics([(0, 0), (10, 0)])
    exact_ok = (
        abs(first.mae - 1.0) <= IDENTITY_TOL
        and abs(first.rmse - 1.0) <= IDENTITY_TOL
        and abs(second.mae - 5.0) <= IDENTITY_TOL
        and abs(second.rmse - math.sqrt(50.0)) <= IDENTITY_TOL
        and abs(second.rmse - 7.0710678) <= 1e-6
    )
    rng = np.random.default_rng(20240807)
    ordering_ok = True
    for _ in range(1000):
        pairs = [
            (int(rng.integers(0, 100)), int(rng.integers(0, 100)))
            for _ in range(int(rng.integers(1, 20)))
        ]
        report = compute_metrics(pairs)
        ordering_ok &= report.rmse >= report.mae
    _report(
        "criterion 7 (MAE/RMSE worked values; RMSE >= MAE on 1000 random lists)",
        exact_ok and ordering_ok,
        f"mae/rmse = {first.mae}/{first.rmse} and {second.mae}/{second.rmse:.7f}",
    )


def _run_pinned_fit(loss_cfg: LossConfig):
    scene = generate_scene(PINNED_SCENE)
    start = time.perf_counter()
    trace = fit_direct(scene, PINNED_SIGMA, PINNED_FIT, loss_cfg)
    return trace, time.perf_counter() - start


def test_criterion_08_desk_scale_fit_recovers_counts():
    details = []
    ok = True
    for loss_cfg in PINNED_VARIANTS:
        trace, elapsed = _run_pinned_fit(loss_cfg)
        this_ok = (
            trace.final_count == trace.gt_count == 5
            and trace.losses[-1][1] < trace.losses[0][1]
            and elapsed < 10.0
        )
        ok &= this_ok
        details.append(
            f"{loss_cfg.variant.value}: count {trace.final_count}/{trace.gt_count}, "
            f"loss {trace.losses[0][1]:.3f}->{trace.losses[-1][1]:.4f}, {elapsed:.1f}s"
        )
    _report("criterion 8 (pinned desk fits recover the exact count)", ok, "; ".join(details))


def test_criterion_09_sigma_examples_and_monotonicity():
    eta0 = compute_sigma(BoxAnnotation(0, 0, 4, 6), SigmaParams(eta=0.0, eps_sigma=1.0))
    boosted = compute_sigma(BoxAnnotation(0, 0, 4, 6), SigmaParams(eta=1.0, eps_sigma=3.0))
    small = compute_sigma(BoxAnnotation(0, 0, 2, 2), SigmaParams(eta=2.0, eps_sigma=1.0))
    examples_ok = (
        abs(eta0 - 9.0) <= 1e-9
        and abs(boosted - 9.0 * (1.0 + math.exp(-9.0)) / 3.0) <= 1e-9
        and abs(small - 5.0 * (1.0 + 2.0 * math.exp(-5.0))) <= 1e-9
    )
    monotone_ok = True
    for eta in (0.0, 1.0, 2.0):
        for eps in (1.0, 3.0):
            params = SigmaParams(eta=eta, eps_sigma=eps)
            sigmas = [sigma_from_sensing_factor(d, params) for d in range(1, 102, 2)]
            monotone_ok &= all(a < b for a, b in zip(sigmas, sigmas[1:]))
    _report(
        "criterion 9 (sigma worked values to 1e-9; strictly increasing in the sensing factor)",
        examples_ok and monotone_ok,
        f"sigma examples {eta0}, {boosted:.6f}, {small:.6f}",
    )


def _peaks_payload(workdir: Path) -> bytes:
    """The peaks files ``dump_json`` writes for the criterion 6 grids, concatenated."""
    blobs = []
    for i, values in enumerate(_criterion_06_grids()):
        path = workdir / f"peaks_{i}.json"
        dump_json({"peaks": extract_peaks(Grid(values), window=3, threshold=0.3)}, path)
        blobs.append(path.read_bytes())
    return b"".join(blobs)


def _fit_payload(workdir: Path) -> tuple[bytes, bytes]:
    trace, _ = _run_pinned_fit(PINNED_VARIANTS[0])
    trace_path = workdir / "trace.csv"
    pred_path = workdir / "pred.grid"
    dump_fit_trace_csv(trace, trace_path)
    write_grid(trace.final_pred, pred_path)
    return trace_path.read_bytes(), pred_path.read_bytes()


def test_criterion_10_determinism_of_outputs():
    with tempfile.TemporaryDirectory() as a, tempfile.TemporaryDirectory() as b:
        peaks_same = _peaks_payload(Path(a)) == _peaks_payload(Path(b))
        fit_same = _fit_payload(Path(a)) == _fit_payload(Path(b))
    _report(
        "criterion 10 (repeated peak extraction and desk fits are byte-identical)",
        peaks_same and fit_same,
        f"peaks identical: {peaks_same}, fit outputs identical: {fit_same}",
    )


if __name__ == "__main__":
    for name, fn in sorted(globals().items()):
        if name.startswith("test_criterion_"):
            fn()
