"""Command-line surface tying the modules into reproducible pipelines.

Every subcommand validates its inputs before writing anything, exits 0 on
success, and on failure writes a machine-readable JSON object
``{"error": <code>, "message": <text>}`` to stderr with a nonzero exit
status.  Grid outputs use the binary format unless the path ends in
``.csv``.  Randomized subcommands (synth, fit, experiment, grad-check)
require an explicit --seed.
"""

from __future__ import annotations

import argparse
import json
import sys
# perfbench/tracing.py saves and restores ``heatloss.cli.ThreadPoolExecutor`` by name
from concurrent.futures import ThreadPoolExecutor  # noqa: F401
from pathlib import Path

import numpy as np

from . import serialization as ser
from .counting import DEFAULT_THRESHOLD, DEFAULT_WINDOW, compute_metrics, extract_peaks
from .errors import HeatlossError, SchemaError, ValidationError
from .grid import Grid, read_grid, read_grid_csv, write_grid, write_grid_csv
from .ground_truth import SigmaParams, interpolate_boxes, render_heatmap, render_mask
from .ground_truth import SceneAnnotation
from .losses import _BINARY_GT_VARIANTS, _MASK_VARIANTS, GroundTruthBundle, LossConfig, LossVariant
from .losses import LossStep, _loss_values, loss_with_grad
from .synth import FitConfig, InitMode, SynthParams, fit_direct, generate_scene, run_desk_experiment

GRAD_CHECK_TOLERANCE = 1e-6
_FD_BLOCK = 64  # one-hot perturbations per finite-difference batch; bounds grad-check memory
_EXIT_CODES = {
    "SCHEMA_ERROR": 2,
    "DIM_MISMATCH": 3,
    "VALIDATION_ERROR": 4,
    "INFEASIBLE_PLACEMENT": 5,
    "NON_FINITE_LOSS": 6,
    "GRAD_CHECK_FAILED": 7,
    "IO_ERROR": 8,
}


class _GradCheckFailed(HeatlossError):
    code = "GRAD_CHECK_FAILED"


def _write_grid_auto(grid: Grid, path: str) -> None:
    if path.endswith(".csv"):
        write_grid_csv(grid, path)
    else:
        write_grid(grid, path)


def _read_grid_auto(path: str) -> Grid:
    if path.endswith(".csv"):
        return read_grid_csv(path)
    return read_grid(path)


def _emit(obj: dict) -> None:
    print(json.dumps(obj, indent=2))


def _cmd_render_gt(args: argparse.Namespace) -> int:
    scene = ser.load_scene(args.annotation)
    params = SigmaParams(eta=args.eta, eps_sigma=args.eps_sigma)
    outputs = (args.heatmap_out, args.mask_out, args.binary_out, args.masked_heatmap_out)
    if not any(outputs):
        raise SchemaError("render-gt: provide at least one of --heatmap-out/--mask-out/--binary-out/--masked-heatmap-out")
    mask = render_mask(scene, args.stride)
    if args.heatmap_out or args.masked_heatmap_out:
        heat = render_heatmap(scene, params, args.stride)
        if args.heatmap_out:
            _write_grid_auto(heat, args.heatmap_out)
        if args.masked_heatmap_out:
            _write_grid_auto(Grid(heat.values * mask.values), args.masked_heatmap_out)
    if args.mask_out:
        _write_grid_auto(mask, args.mask_out)
    if args.binary_out:
        _write_grid_auto(mask, args.binary_out)
    return 0


def _cmd_interpolate(args: argparse.Namespace) -> int:
    anchors = ser.load_anchors(args.anchors)
    points = ser.load_points(args.points)
    boxes = interpolate_boxes(anchors, points)
    scene = SceneAnnotation(width=args.width, height=args.height, boxes=tuple(boxes))
    ser.dump_scene(scene, args.out)
    return 0


def _cmd_eval_loss(args: argparse.Namespace) -> int:
    pred = _read_grid_auto(args.pred)
    heat = _read_grid_auto(args.heatmap)
    if args.mask:
        mask = _read_grid_auto(args.mask)
    else:
        mask = Grid((heat.values > 0.0).astype(np.float64))
    cfg = ser.load_loss_config(args.loss_config)
    bundle = GroundTruthBundle(heatmap=heat, mask=mask, n_objects=args.n_objects)
    result = loss_with_grad(pred, bundle, cfg)
    _write_grid_auto(result.grad, args.grad_out)
    ser.dump_loss_report(result.value, args.grad_out, args.report_out, result.degenerate_n)
    return 0


def random_instance(
    variant: LossVariant, rng: np.random.Generator, size: int | tuple[int, int] = 8
) -> tuple[Grid, GroundTruthBundle, LossConfig]:
    """A random prediction/ground-truth/config triple valid for ``variant``.

    ``size`` is the side of a square grid or a ``(height, width)`` shape.
    Predictions stay inside [0.05, 0.95] and at least 1e-3 away from the
    prediction-error kink so finite differences are well posed.
    """
    cfg = LossConfig(
        variant=variant,
        alpha=float(rng.choice([0.25, 0.5, 1.0])),
        beta=float(rng.choice([0.0, 0.5, 1.0, 2.0, 4.0])),
        gamma=float(rng.choice([0.0, 0.5, 1.0, 2.0, 4.0])),
        eps1=float(rng.choice([0.0, 0.5, 1.0])),
    )
    shape = (size, size) if isinstance(size, int) else tuple(size)
    if variant in _BINARY_GT_VARIANTS:
        heat = mask = rng.integers(0, 2, size=shape).astype(np.float64)
    elif variant in _MASK_VARIANTS:
        mask = (rng.random(shape) < 0.5).astype(np.float64)
        heat = np.where(mask == 1.0, rng.uniform(0.05, 1.0, shape), 0.0)
        heat = np.where((rng.random(shape) < 0.1) & (mask == 1.0), 1.0, heat)
    else:
        heat = rng.uniform(0.0, 1.0, shape)
        heat = np.where(rng.random(shape) < 0.1, 1.0, heat)
        mask = (heat > 0.0).astype(np.float64)
    pred = rng.uniform(0.05, 0.95, shape)
    pred = np.where(np.abs(pred - heat) < 1e-3, pred + 2e-3, pred)
    bundle = GroundTruthBundle(Grid(heat), Grid(mask), int(rng.integers(1, 6)))
    return Grid(pred), bundle, cfg


def max_grad_deviation(variant: LossVariant, size: int, instances: int, seed: int, step: float = 1e-6) -> float:
    """Max relative deviation between analytic gradients and central differences."""
    if size < 1 or instances < 1 or seed < 0:
        raise ValidationError(f"need size >= 1, instances >= 1, seed >= 0; got {size}, {instances}, {seed}")
    n, worst, rng = size * size, 0.0, np.random.default_rng(seed)
    for _ in range(instances):
        pred, bundle, cfg = random_instance(variant, rng, size)
        grad = loss_with_grad(pred, bundle, cfg).grad.values.ravel()
        loss_step = LossStep(bundle, cfg, (2 * _FD_BLOCK, size, size))
        fd = np.empty(n)
        for start in range(0, n, _FD_BLOCK):
            k = min(_FD_BLOCK, n - start)
            # one-hot rows start..start+k-1; the last block's rows past n are zero, unperturbed padding
            eye = np.eye(_FD_BLOCK, n, start).reshape(_FD_BLOCK, size, size)
            values = _loss_values(loss_step, np.concatenate([pred.values + step * eye, pred.values - step * eye]))
            fd[start : start + k] = (values[:k] - values[_FD_BLOCK : _FD_BLOCK + k]) / (2.0 * step)
        deviation = np.abs(grad - fd) / (1.0 + np.abs(grad))
        worst = max(worst, float(deviation.max()))
    return worst


def _cmd_grad_check(args: argparse.Namespace) -> int:
    variant = LossVariant(args.variant)
    worst = max_grad_deviation(variant, args.size, args.instances, args.seed)
    ok = worst <= GRAD_CHECK_TOLERANCE
    _emit(
        {
            "variant": variant.value,
            "instances": args.instances,
            "size": args.size,
            "max_relative_deviation": worst,
            "tolerance": GRAD_CHECK_TOLERANCE,
            "pass": ok,
        }
    )
    if not ok:
        raise _GradCheckFailed(f"max relative deviation {worst:.3e} exceeds {GRAD_CHECK_TOLERANCE}")
    return 0


def _cmd_peaks(args: argparse.Namespace) -> int:
    heatmap = _read_grid_auto(args.heatmap)
    peaks = extract_peaks(heatmap, window=args.window, threshold=args.threshold)
    ser.dump_peaks(peaks, args.out)
    return 0


def _cmd_eval_count(args: argparse.Namespace) -> int:
    pairs = ser.load_count_pairs(args.counts)
    report = compute_metrics(pairs)
    ser.dump_count_report(report, args.out)
    return 0


def _cmd_synth(args: argparse.Namespace) -> int:
    params = SynthParams(
        seed=args.seed,
        width=args.width,
        height=args.height,
        n_heads=args.n_heads,
        size_range=(args.min_side, args.max_side),
        min_center_gap=args.min_gap,
    )
    ser.dump_scene(generate_scene(params), args.out)
    return 0


def _cmd_fit(args: argparse.Namespace) -> int:
    scene = ser.load_scene(args.annotation)
    sigma = SigmaParams(eta=args.eta, eps_sigma=args.eps_sigma)
    cfg = FitConfig(
        loss=ser.load_loss_config(args.loss_config),
        steps=args.steps,
        learning_rate=args.learning_rate,
        init=InitMode(args.init),
        record_every=args.record_every,
        seed=args.seed,
    )
    trace = fit_direct(scene, sigma, cfg)
    if args.trace_out:
        ser.dump_fit_trace_csv(trace, args.trace_out)
    if args.pred_out:
        _write_grid_auto(trace.final_pred, args.pred_out)
    _emit(
        {
            "final_count": trace.final_count,
            "gt_count": trace.gt_count,
            "initial_loss": trace.losses[0][1],
            "final_loss": trace.losses[-1][1],
        }
    )
    return 0


def _cmd_experiment(args: argparse.Namespace) -> int:
    scenes, variants, sigma, fit_cfg = ser.load_experiment_config(args.config, args.seed)
    results = [
        {"variant": ser.loss_config_to_obj(cfg), "report": ser.count_report_to_obj(report)}
        for cfg, report in run_desk_experiment(scenes, variants, sigma, fit_cfg)
    ]
    Path(args.out).write_text(json.dumps(results, indent=2) + "\n")
    return 0


class _Parser(argparse.ArgumentParser):
    """Usage errors, in subcommands too, become ``SCHEMA_ERROR`` failures."""

    def error(self, message: str):
        raise SchemaError(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="heatloss", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("render-gt", help="render heatmap/mask/binary grids from an annotation")
    p.add_argument("--annotation", required=True)
    p.add_argument("--eta", type=float, default=SigmaParams.eta)
    p.add_argument("--eps-sigma", type=float, default=SigmaParams.eps_sigma)
    p.add_argument("--stride", type=int, default=1)
    p.add_argument("--heatmap-out")
    p.add_argument("--mask-out")
    p.add_argument("--binary-out")
    p.add_argument("--masked-heatmap-out", help="heatmap truncated to box interiors")
    p.set_defaults(func=_cmd_render_gt)

    p = sub.add_parser("interpolate", help="derive box sizes for center points from anchors")
    p.add_argument("--anchors", required=True)
    p.add_argument("--points", required=True)
    p.add_argument("--width", type=int, required=True)
    p.add_argument("--height", type=int, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_interpolate)

    p = sub.add_parser("eval-loss", help="evaluate a loss on a prediction grid")
    p.add_argument("--pred", required=True)
    p.add_argument("--heatmap", required=True)
    p.add_argument("--mask", help="defaults to (heatmap > 0)")
    p.add_argument("--n-objects", type=int, required=True)
    p.add_argument("--loss-config", required=True)
    p.add_argument("--report-out", required=True)
    p.add_argument("--grad-out", required=True)
    p.set_defaults(func=_cmd_eval_loss)

    p = sub.add_parser("grad-check", help="verify analytic gradients against finite differences")
    p.add_argument("--variant", required=True, choices=[v.value for v in LossVariant])
    p.add_argument("--instances", type=int, default=50)
    p.add_argument("--size", type=int, default=8)
    p.add_argument("--seed", type=int, required=True)
    p.set_defaults(func=_cmd_grad_check)

    p = sub.add_parser("peaks", help="extract peaks from a heatmap grid")
    p.add_argument("--heatmap", required=True)
    p.add_argument("--window", type=int, default=DEFAULT_WINDOW)
    p.add_argument("--threshold", type=float, default=DEFAULT_THRESHOLD)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_peaks)

    p = sub.add_parser("eval-count", help="aggregate per-image counts into MAE/RMSE")
    p.add_argument("--counts", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_eval_count)

    p = sub.add_parser("synth", help="generate a deterministic synthetic scene")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--width", type=int, required=True)
    p.add_argument("--height", type=int, required=True)
    p.add_argument("--n-heads", type=int, required=True)
    p.add_argument("--min-side", type=float, default=SynthParams.size_range[0])
    p.add_argument("--max-side", type=float, default=SynthParams.size_range[1])
    p.add_argument("--min-gap", type=float, default=SynthParams.min_center_gap)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("fit", help="fit a free prediction grid to a scene under one loss")
    p.add_argument("--annotation", required=True)
    p.add_argument("--loss-config", required=True)
    p.add_argument("--eta", type=float, default=SigmaParams.eta)
    p.add_argument("--eps-sigma", type=float, default=SigmaParams.eps_sigma)
    p.add_argument("--steps", type=int, required=True)
    p.add_argument("--learning-rate", type=float, required=True)
    p.add_argument("--init", default=FitConfig.init.value, choices=[m.value for m in InitMode])
    p.add_argument("--record-every", type=int, default=FitConfig.record_every)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--trace-out", help="CSV of step,loss")
    p.add_argument("--pred-out", help="grid dump of the fitted prediction")
    p.set_defaults(func=_cmd_fit)

    p = sub.add_parser("experiment", help="fit scenes under several variants and report counts")
    p.add_argument("--config", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_experiment)

    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except HeatlossError as exc:
        code = exc.code
        message = str(exc)
    except OSError as exc:
        code = "IO_ERROR"
        message = str(exc)
    except MemoryError as exc:
        code = "VALIDATION_ERROR"
        message = f"out of memory: {exc}"
    print(json.dumps({"error": code, "message": message}), file=sys.stderr)
    return _EXIT_CODES.get(code, 1)


if __name__ == "__main__":
    raise SystemExit(main())
