"""JSON readers and the one JSON writer for every declared file format.

Schema problems raise :class:`SchemaError` naming the offending field;
invariant violations surface as :class:`ValidationError` from the domain
types.  :func:`dump_json` writes every JSON output: indented by two spaces,
ending in a newline, an enum as its value and a dataclass as its fields in
declaration order.  Floats are serialized with Python's shortest round-trip
repr, so a dump/load cycle is value-exact.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import is_dataclass
from enum import Enum
from pathlib import Path
from typing import Any

from .counting import CountReport
from .errors import SchemaError
from .ground_truth import AnchorSet, BoxAnnotation, SceneAnnotation, SigmaParams
from .losses import LossConfig, LossResult
from .synth import FitConfig, FitTrace


def _load_json(path: str | Path) -> Any:
    try:
        return json.loads(Path(path).read_text())
    except (ValueError, RecursionError) as exc:  # bad JSON, non-UTF-8 bytes, integer literals past 4300 digits
        raise SchemaError(f"{path}: invalid JSON ({exc})") from exc


def _json_default(obj: Any) -> Any:
    """An enum as its value and a dataclass as its fields in declaration order, uncopied."""
    if isinstance(obj, Enum):
        return obj.value
    if is_dataclass(obj):
        return vars(obj)
    raise TypeError(f"{type(obj).__name__} is not JSON serializable")


def dump_json(obj: Any, path: str | Path | None = None) -> None:
    """Write ``obj`` as JSON indented by two spaces and ending in a newline, to ``path`` or else to stdout."""
    text = json.dumps(obj, indent=2, default=_json_default) + "\n"
    if path is None:
        sys.stdout.write(text)
    else:
        Path(path).write_text(text)


def _is_kind(value: Any, kind: type) -> bool:
    """Whether a JSON value is of ``kind``: ``float`` takes any number, and a bool is never a number."""
    return isinstance(value, (int, float) if kind is float else kind) and not isinstance(value, bool)


def _as_float(value: int | float) -> float:
    """``float(value)``, reading an integer beyond the float64 range as +-inf, as ``json`` reads ``1e400``."""
    try:
        return float(value)
    except OverflowError:
        return math.inf if value > 0 else -math.inf


def _require(obj: dict, key: str, kind: type, where: str) -> Any:
    """``obj[key]``, checked to be of ``kind``; a ``float`` kind returns a float."""
    if not isinstance(obj, dict):
        raise SchemaError(f"{where}: expected a JSON object, got {type(obj).__name__}")
    if key not in obj:
        raise SchemaError(f"{where}: missing required key {key!r}")
    value = obj[key]
    if not _is_kind(value, kind):
        raise SchemaError(f"{where}: key {key!r} has wrong type {type(value).__name__}")
    return _as_float(value) if kind is float else value


def _fields(obj: Any, where: str, required: dict[str, type], optional: dict[str, type]) -> dict[str, Any]:
    """The required and the present optional keys of a closed object, each of its kind.

    Any other key is a :class:`SchemaError`, so a misspelled optional key
    cannot fall back to its default.
    """
    kinds = {**required, **optional}
    fields = {key: _require(obj, key, kind, where) for key, kind in kinds.items() if key in required or key in obj}
    for key in obj:
        if key not in kinds:
            raise SchemaError(f"{where}: unknown key {key!r} (known keys: {', '.join(kinds)})")
    return fields


def _box_from_obj(obj: dict, where: str) -> BoxAnnotation:
    return BoxAnnotation(
        cx=_require(obj, "cx", float, where),
        cy=_require(obj, "cy", float, where),
        w=_require(obj, "w", float, where),
        h=_require(obj, "h", float, where),
    )


def scene_from_obj(obj: Any, where: str = "annotation") -> SceneAnnotation:
    width = _require(obj, "width", int, where)
    height = _require(obj, "height", int, where)
    boxes_raw = _require(obj, "boxes", list, where)
    boxes = tuple(_box_from_obj(b, f"{where}.boxes[{i}]") for i, b in enumerate(boxes_raw))
    return SceneAnnotation(width=width, height=height, boxes=boxes)


def load_scene(path: str | Path) -> SceneAnnotation:
    return scene_from_obj(_load_json(path), where=str(path))


def load_anchors(path: str | Path) -> AnchorSet:
    obj = _load_json(path)
    raw = _require(obj, "anchors", list, str(path))
    return AnchorSet(tuple(_box_from_obj(b, f"{path}.anchors[{i}]") for i, b in enumerate(raw)))


def load_points(path: str | Path) -> list[tuple[float, float]]:
    obj = _load_json(path)
    raw = _require(obj, "points", list, str(path))
    points = []
    for i, entry in enumerate(raw):
        if not (isinstance(entry, list) and len(entry) == 2 and all(_is_kind(v, float) for v in entry)):
            raise SchemaError(f"{path}.points[{i}]: expected [x, y] numbers")
        points.append((_as_float(entry[0]), _as_float(entry[1])))
    return points


def loss_config_from_obj(obj: Any, where: str = "loss config") -> LossConfig:
    optional = dict.fromkeys(("alpha", "beta", "gamma", "eps1", "clamp"), float)
    return LossConfig(**_fields(obj, where, {"variant": str}, optional))


def load_loss_config(path: str | Path) -> LossConfig:
    return loss_config_from_obj(_load_json(path), where=str(path))


def loss_report_to_obj(result: LossResult, grad_file: str) -> dict:
    """The eval-loss report; ``degenerate_n`` appears only when it is true."""
    degenerate = {"degenerate_n": True} if result.degenerate_n else {}
    return {"value": result.value, "grad_file": grad_file, **degenerate}


def count_report_to_obj(report: CountReport) -> dict:
    return {
        "m": report.m,
        "mae": report.mae,
        "rmse": report.rmse,
        "per_image": [{"pred": p, "truth": t} for p, t in report.per_image],
    }


def experiment_report_to_obj(results: list[tuple[LossConfig, CountReport]]) -> list:
    return [{"variant": cfg, "report": count_report_to_obj(report)} for cfg, report in results]


def load_count_pairs(path: str | Path) -> list[tuple[int, int]]:
    obj = _load_json(path)
    raw = _require(obj, "per_image", list, str(path))
    pairs = []
    for i, entry in enumerate(raw):
        where = f"{path}.per_image[{i}]"
        pairs.append((_require(entry, "pred", int, where), _require(entry, "truth", int, where)))
    return pairs


def sigma_params_from_obj(obj: Any, where: str = "sigma") -> SigmaParams:
    return SigmaParams(**_fields(obj, where, {"eta": float, "eps_sigma": float}, {}))


def fit_config_from_obj(obj: Any, seed: int | None, where: str = "fit") -> FitConfig:
    """A ``fit`` block with the run's seed, together every field of :class:`FitConfig`; the loss is not one."""
    fields = _fields(obj, where, {"steps": int, "learning_rate": float}, {"init": str, "record_every": int})
    return FitConfig(seed=seed, **fields)


def load_experiment_config(
    path: str | Path, seed: int | None
) -> tuple[list[SceneAnnotation], list[LossConfig], SigmaParams, FitConfig]:
    """Parse an experiment file: scenes (open inline or closed file refs), variants, sigma, fit; no other key."""
    obj = _load_json(path)
    where = str(path)
    base = Path(path).parent
    scenes = []
    for i, entry in enumerate(_require(obj, "scenes", list, where)):
        if isinstance(entry, dict) and "file" in entry:
            scenes.append(load_scene(base / _fields(entry, f"{where}.scenes[{i}]", {"file": str}, {})["file"]))
        else:
            scenes.append(scene_from_obj(entry, where=f"{where}.scenes[{i}]"))
    variants = [
        loss_config_from_obj(v, where=f"{where}.variants[{i}]")
        for i, v in enumerate(_require(obj, "variants", list, where))
    ]
    if not variants:
        raise SchemaError(f"{where}: 'variants' must be non-empty")
    sigma = sigma_params_from_obj(_require(obj, "sigma", dict, where), where=f"{where}.sigma")
    fit = fit_config_from_obj(_require(obj, "fit", dict, where), seed, where=f"{where}.fit")
    # the closed top level, checked last so that a part's own error comes first
    _fields(obj, where, {"scenes": list, "variants": list, "sigma": dict, "fit": dict}, {})
    return scenes, variants, sigma, fit


def dump_fit_trace_csv(trace: FitTrace, path: str | Path) -> None:
    """CSV with header ``step,loss`` and one row per recorded step."""
    lines = ["step,loss"]
    lines += [f"{step},{loss!r}" for step, loss in trace.losses]
    Path(path).write_text("\n".join(lines) + "\n")
