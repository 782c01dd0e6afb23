"""The three workloads: seeded input files, one pass of CLI calls, output checks.

A workload writes its inputs into a work directory before timing starts and
returns the list of CLI calls that make one pass.  Every call carries the
work it represents (for throughputs) and a check that reads the call's
outputs and compares them with the references in ``oracle``.  A check
returns the (predicted, true) head counts the call produced, or raises
``CheckFailed``.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from oracle import (
    HEATMAP_ATOL,
    CheckFailed,
    brute_force_peaks,
    read_grid_file,
    reference_heatmap,
    reference_mask,
)

ETA, EPS_SIGMA = 1.0, 3.0
SIDE_RANGE = (6.0, 12.0)
LEARNING_RATE = 0.5

# The six loss variants with the hyper-parameters of demos/05.
VARIANTS = [
    {"variant": "FOCAL_SCALAR", "gamma": 2.0},
    {"variant": "ALPHA_FOCAL", "alpha": 1.0, "gamma": 2.0},
    {"variant": "HEATMAP_FOCAL", "alpha": 1.0, "beta": 4.0, "gamma": 2.0},
    {"variant": "MASK_FOCAL", "alpha": 1.0, "beta": 0.5, "gamma": 4.0},
    {"variant": "POLY1_PIXELWISE", "alpha": 1.0, "beta": 4.0, "gamma": 2.0},
    {"variant": "MASK_FOCAL_POLY1", "alpha": 1.0, "beta": 0.5, "gamma": 4.0},
]

DESK_SIZE, DESK_SCENES, DESK_GAP, DESK_STEPS = 64, 8, 20.0, 300
LARGE_SIZE, LARGE_HEADS, LARGE_GAP, LARGE_STEPS = 256, 80, 8.0, 200
DENSE_SIZE, DENSE_HEADS = 512, (300, 1000)
# Every TOUCH_EVERY-th dense head sits on a pixel next to the previous one,
# as touching heads do in a real crowd.  Two adjacent integer centres give
# tied 1.0 peaks, so every dense scene takes the plateau path of
# extract_peaks and the pass time does not depend on the seed's luck.
TOUCH_EVERY = 25


@dataclass
class Call:
    """One CLI invocation of a pass."""

    kind: str  # the CLI subcommand
    argv: list[str]
    outputs: list[Path]
    check: Callable[[str], list[tuple[int, int]]]  # stdout -> count pairs
    work: dict[str, float] = field(default_factory=dict)


@dataclass
class Workload:
    name: str
    threads: str | None  # HEATLOSS_THREADS for the CLI; None keeps its default
    array_bytes: int  # float64 bytes of one grid-sized array
    make: Callable[[int, Path], list[Call]]
    # the traced run also times the pass at the CLI's default worker count
    pool_probe: bool = False


def count_tolerance(truth: int) -> int:
    """Allowed |predicted - true| head count of one fitted image."""
    return max(1, round(0.05 * truth))


def place_heads(rng: np.random.Generator, size: int, n: int, gap: float, touch_every: int = 0):
    """Integer-centred boxes by rejection sampling; restarts when stuck."""
    while True:
        boxes: list[tuple[float, float, float, float]] = []
        while len(boxes) < n:
            w, h = rng.uniform(*SIDE_RANGE, size=2)
            if touch_every and len(boxes) % touch_every == touch_every - 1:
                px, py = boxes[-1][:2]
                offsets = [(dx, dy) for dx in (-1, 0, 1) for dy in (-1, 0, 1) if (dx, dy) != (0, 0)]
                order = rng.permutation(len(offsets))
                spots = [(px + offsets[i][0], py + offsets[i][1]) for i in order]
                cx, cy = next((x, y) for x, y in spots if 0 <= x < size and 0 <= y < size)
                boxes.append((cx, cy, float(w), float(h)))
                continue
            for _ in range(1000):
                cx, cy = (float(v) for v in rng.integers(0, size, size=2))
                if all((cx - b[0]) ** 2 + (cy - b[1]) ** 2 >= gap * gap for b in boxes):
                    boxes.append((cx, cy, float(w), float(h)))
                    break
            else:
                break
        if len(boxes) == n:
            return boxes


def _write_scene(path: Path, size: int, boxes) -> None:
    obj = {"width": size, "height": size, "boxes": [{"cx": cx, "cy": cy, "w": w, "h": h} for cx, cy, w, h in boxes]}
    path.write_text(json.dumps(obj))


def _load_json(path: Path):
    if not path.is_file():
        raise CheckFailed(f"missing output {path.name}")
    try:
        return json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise CheckFailed(f"{path.name}: invalid JSON ({exc})") from exc


def _check_counts(pairs: list[tuple[int, int]], what: str) -> None:
    for pred, truth in pairs:
        if abs(pred - truth) > count_tolerance(truth):
            raise CheckFailed(f"{what}: counted {pred} heads of {truth}")


# --- desk_fit -----------------------------------------------------------------


def _make_desk(seed: int, work: Path) -> list[Call]:
    rng = np.random.default_rng([seed, 1])
    truths = []
    for i in range(DESK_SCENES):
        boxes = place_heads(rng, DESK_SIZE, 3 + i % 3, DESK_GAP)
        _write_scene(work / f"desk_scene_{i}.json", DESK_SIZE, boxes)
        truths.append(len(boxes))
    config = {
        "scenes": [{"file": f"desk_scene_{i}.json"} for i in range(DESK_SCENES)],
        "variants": VARIANTS,
        "sigma": {"eta": ETA, "eps_sigma": EPS_SIGMA},
        "fit": {"steps": DESK_STEPS, "learning_rate": LEARNING_RATE, "record_every": 100},
    }
    (work / "desk_experiment.json").write_text(json.dumps(config))
    out = work / "desk_report.json"

    def check(stdout: str) -> list[tuple[int, int]]:
        report = _load_json(out)
        if not isinstance(report, list) or len(report) != len(VARIANTS):
            raise CheckFailed("experiment report must list one entry per variant")
        pairs = []
        for entry, variant in zip(report, VARIANTS):
            if entry["variant"]["variant"] != variant["variant"]:
                raise CheckFailed(f"variant order: {entry['variant']['variant']} for {variant['variant']}")
            rep = entry["report"]
            got = [(int(p["pred"]), int(p["truth"])) for p in rep["per_image"]]
            if rep["m"] != DESK_SCENES or [t for _, t in got] != truths:
                raise CheckFailed(f"{variant['variant']}: true counts {[t for _, t in got]} != {truths}")
            errors = np.array([p - t for p, t in got], dtype=np.float64)
            if not (math.isclose(rep["mae"], float(np.mean(np.abs(errors))), abs_tol=1e-12)
                    and math.isclose(rep["rmse"], math.sqrt(float(np.mean(errors**2))), abs_tol=1e-12)):
                raise CheckFailed(f"{variant['variant']}: MAE/RMSE disagree with per-image counts")
            _check_counts(got, variant["variant"])
            pairs += got
        return pairs

    argv = ["experiment", "--config", str(work / "desk_experiment.json"), "--seed", str(seed), "--out", str(out)]
    px_steps = DESK_SIZE * DESK_SIZE * DESK_STEPS * DESK_SCENES * len(VARIANTS)
    return [Call("experiment", argv, [out], check, {"fit_px_steps": px_steps})]


# --- large_fit ----------------------------------------------------------------


def _make_large(seed: int, work: Path) -> list[Call]:
    rng = np.random.default_rng([seed, 2])
    boxes = place_heads(rng, LARGE_SIZE, LARGE_HEADS, LARGE_GAP)
    scene, loss = work / "large_scene.json", work / "large_loss.json"
    _write_scene(scene, LARGE_SIZE, boxes)
    loss.write_text(json.dumps(VARIANTS[3]))
    pred = work / "large_pred.grid"

    def check(stdout: str) -> list[tuple[int, int]]:
        summary = json.loads(stdout)
        final, truth = int(summary["final_count"]), int(summary["gt_count"])
        first, last = float(summary["initial_loss"]), float(summary["final_loss"])
        if truth != len(boxes):
            raise CheckFailed(f"gt_count {truth} != {len(boxes)}")
        if not (math.isfinite(first) and math.isfinite(last) and last < first):
            raise CheckFailed(f"loss did not fall: {first} -> {last}")
        values = read_grid_file(pred)
        if values.shape != (LARGE_SIZE, LARGE_SIZE) or not ((values >= 0) & (values <= 1)).all():
            raise CheckFailed("fitted prediction is not a unit-range 256x256 grid")
        recount = len(brute_force_peaks(values))
        # the file holds float32, whose rounding can merge a near-tied pair
        if abs(recount - final) > 2:
            raise CheckFailed(f"final_count {final} but the written prediction has {recount} peaks")
        _check_counts([(final, truth)], "large fit")
        return [(final, truth)]

    argv = [
        "fit", "--annotation", str(scene), "--loss-config", str(loss),
        "--steps", str(LARGE_STEPS), "--learning-rate", str(LEARNING_RATE),
        "--record-every", "50", "--seed", str(seed), "--pred-out", str(pred),
    ]
    return [Call("fit", argv, [pred], check, {"fit_px_steps": LARGE_SIZE * LARGE_SIZE * LARGE_STEPS})]


# --- dense_crowd --------------------------------------------------------------


def _make_dense(seed: int, work: Path) -> list[Call]:
    rng = np.random.default_rng([seed, 3])
    calls = []
    px = DENSE_SIZE * DENSE_SIZE
    for i, n in enumerate(DENSE_HEADS):
        boxes = place_heads(rng, DENSE_SIZE, n, 0.0, TOUCH_EVERY)
        scene = work / f"dense_scene_{i}.json"
        _write_scene(scene, DENSE_SIZE, boxes)
        # alternate formats so both grid formats are written and read
        heat_ext, mask_ext = (".csv", ".grid") if i % 2 == 0 else (".grid", ".csv")
        heat, mask = work / f"dense_heat_{i}{heat_ext}", work / f"dense_mask_{i}{mask_ext}"
        peaks = work / f"dense_peaks_{i}.json"
        ref_heat = reference_heatmap(DENSE_SIZE, DENSE_SIZE, boxes, ETA, EPS_SIGMA)
        ref_mask = reference_mask(DENSE_SIZE, DENSE_SIZE, boxes)

        def check_render(stdout: str, heat=heat, mask=mask, ref_heat=ref_heat, ref_mask=ref_mask):
            got = read_grid_file(heat)
            if got.shape != ref_heat.shape:
                raise CheckFailed(f"{heat.name}: shape {got.shape}")
            err = float(np.max(np.abs(got - ref_heat)))
            if err > HEATMAP_ATOL:
                raise CheckFailed(f"{heat.name}: max deviation {err:.3g} from the per-box reference")
            wrong = int(np.count_nonzero(read_grid_file(mask) != ref_mask))
            if wrong:
                raise CheckFailed(f"{mask.name}: {wrong} pixels differ from the per-box reference")
            return []

        def check_peaks(stdout: str, heat=heat, peaks=peaks, n=n):
            values = read_grid_file(heat)
            got = _load_json(peaks)["peaks"]
            expected = brute_force_peaks(values)
            if [(p["y"], p["x"]) for p in got] != expected:
                raise CheckFailed(f"{peaks.name}: {len(got)} peaks, oracle finds {len(expected)}")
            if any(p["score"] != values[p["y"], p["x"]] for p in got):
                raise CheckFailed(f"{peaks.name}: a peak score differs from its pixel")
            return [(len(got), n)]

        calls.append(Call(
            "render-gt",
            ["render-gt", "--annotation", str(scene), "--heatmap-out", str(heat), "--mask-out", str(mask)],
            [heat, mask], check_render, {"gt_px_boxes": px * n},
        ))
        calls.append(Call(
            "peaks", ["peaks", "--heatmap", str(heat), "--out", str(peaks)], [peaks], check_peaks, {"peaks_px": px},
        ))
    return calls


WORKLOADS = {
    w.name: w
    for w in (
        Workload("desk_fit", "1", DESK_SIZE * DESK_SIZE * 8, _make_desk, pool_probe=True),
        Workload("large_fit", None, LARGE_SIZE * LARGE_SIZE * 8, _make_large),
        Workload("dense_crowd", None, DENSE_SIZE * DENSE_SIZE * 8, _make_dense),
    )
}
