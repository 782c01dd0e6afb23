"""The traced run: spans around each heatloss layer, recorded from outside.

Import this module only once the heatloss sources are on ``sys.path``.

``Tracer.recording()`` replaces each public function in the module namespace
its caller looks it up in (``heatloss.synth.loss_with_grad``,
``heatloss.cli.read_grid``, ...) with a wrapper that records a span, and
restores the originals on exit.  Nothing under ``src/`` is edited.  Spans
are kept in memory per traced pass and reduced to per-layer metrics at the
end; a span's *self* time is its duration minus the child spans of other
layers, so ``synth.fit_direct`` self time covers the sigmoid (``expit``),
the update and the ``Grid`` wraps.
"""

from __future__ import annotations

import os
import re
import statistics
import subprocess
import threading
import time
import tracemalloc
from collections import defaultdict
from contextlib import contextmanager

import heatloss.cli
import heatloss.counting
import heatloss.serialization
import heatloss.synth
import numpy as np
from heatloss import BoxAnnotation, Grid, LossConfig, SceneAnnotation, SigmaParams
from heatloss import loss_with_grad, supervision_bundle

from oracle import has_tied_candidate
from workloads import DESK_GAP, LARGE_GAP, LARGE_HEADS, VARIANTS, place_heads

VARIANT_NAMES = [v["variant"] for v in VARIANTS]
ALLOC_SWEEPS = 3
IMPORT_REPEATS = 3
# Reported by the pool probe of workloads that run an experiment, 0 elsewhere.
POOL_METRICS = (
    "cli.experiment_pool.workers",
    "cli.experiment_pool.parallel_efficiency",
    "cli.experiment_pool.cpu_efficiency",
    "cli.experiment_pool.speedup",
)


class Span:
    __slots__ = ("name", "layer", "parent", "t0", "t1", "info")

    def __init__(self, name: str, parent: "Span | None", info: dict) -> None:
        self.name = name
        self.layer = name.split(".", 1)[0]
        self.parent = parent
        self.t0 = self.t1 = 0
        self.info = info

    @property
    def ns(self) -> int:
        return self.t1 - self.t0


def _self_ns(span: Span, children: list[Span]) -> int:
    """Span time minus the part of it covered by child spans of other layers.

    Children on pool threads overlap, so their intervals are merged first.
    """
    covered, end = 0, span.t0
    for child in sorted((c for c in children if c.layer != span.layer), key=lambda c: c.t0):
        start = max(child.t0, end)
        if child.t1 > start:
            covered += child.t1 - start
            end = child.t1
    return span.ns - covered


def _grid_px(grid) -> int:
    return int(grid.values.size)


def _render_info(args, kwargs, stride_pos):
    scene = args[0]
    stride = args[stride_pos] if len(args) > stride_pos else kwargs.get("stride", 1)
    px = -(-scene.height // stride) * -(-scene.width // stride)
    return {"px_boxes": px * len(scene.boxes)}


def _peaks_info(args, kwargs):
    window = args[1] if len(args) > 1 else kwargs.get("window", 3)
    threshold = args[2] if len(args) > 2 else kwargs.get("threshold", 0.3)
    return {"px": _grid_px(args[0]), "input": (args[0].values, window, threshold)}


class Tracer:
    def __init__(self) -> None:
        cli, synth, counting = heatloss.cli, heatloss.synth, heatloss.counting
        serialization = heatloss.serialization
        self.passes: list[list[Span]] = []
        self.workers: list[int] = []
        self._local = threading.local()
        self._root: Span | None = None
        none = lambda args, kwargs: {}  # noqa: E731
        self._points = [
            (cli, "fit_direct", "synth.fit_direct", lambda a, k: {
                "px_steps": a[0].width * a[0].height * a[2].steps}),
            (cli, "render_heatmap", "ground_truth.render_heatmap", lambda a, k: _render_info(a, k, 2)),
            (cli, "render_mask", "ground_truth.render_mask", lambda a, k: _render_info(a, k, 1)),
            (cli, "extract_peaks", "counting.extract_peaks", _peaks_info),
            (cli, "read_grid", "grid.read_grid", lambda a, k: {"bytes": os.path.getsize(a[0])}),
            (cli, "read_grid_csv", "grid.read_grid_csv", lambda a, k: {"bytes": os.path.getsize(a[0])}),
            (cli, "write_grid", "grid.write_grid", lambda a, k: {"path": a[1]}),
            (cli, "write_grid_csv", "grid.write_grid_csv", lambda a, k: {"path": a[1]}),
            (serialization, "load_scene", "serialization.load_scene", none),
            (serialization, "load_experiment_config", "serialization.load_experiment_config", none),
            (synth, "supervision_bundle", "synth.supervision_bundle", none),
            (synth, "render_heatmap", "ground_truth.render_heatmap", lambda a, k: _render_info(a, k, 2)),
            (synth, "render_mask", "ground_truth.render_mask", lambda a, k: _render_info(a, k, 1)),
            (synth, "render_binary_map", "ground_truth.render_binary_map", lambda a, k: _render_info(a, k, 1)),
            (synth, "loss_with_grad", "losses.loss_with_grad", lambda a, k: {
                "px": _grid_px(a[0]), "variant": a[2].variant.value}),
            (synth, "expit", "synth.expit", lambda a, k: {"px": int(np.size(a[0]))}),
            (counting, "extract_peaks", "counting.extract_peaks", _peaks_info),
        ]
        self._cli = cli

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str, info: dict):
        """Record a span; on a pool thread with no open span, its parent is
        the open ``cli.main`` span."""
        stack = self._stack()
        span = Span(name, stack[-1] if stack else self._root, info)
        if name == "cli.main":
            self._root = span
        stack.append(span)
        span.t0 = time.perf_counter_ns()
        try:
            yield span
        finally:
            span.t1 = time.perf_counter_ns()
            stack.pop()
            if span is self._root:
                self._root = None
            self.passes[-1].append(span)

    def _wrap(self, fn, name, describe):
        def traced(*args, **kwargs):
            cpu = time.thread_time_ns()
            with self.span(name, describe(args, kwargs)) as span:
                result = fn(*args, **kwargs)
            if name == "synth.fit_direct":
                span.info["ok"] = result.final_count == result.gt_count
                span.info["cpu_ns"] = time.thread_time_ns() - cpu
            elif "path" in span.info:
                span.info["bytes"] = os.path.getsize(span.info.pop("path"))
            return result

        return traced

    def _pool(self, original):
        def make(*args, **kwargs):
            self.workers.append(kwargs.get("max_workers", args[0] if args else 0))
            return original(*args, **kwargs)

        return make

    @contextmanager
    def recording(self):
        """Trace one pass: install the wrappers, restore the originals after."""
        self.passes.append([])
        saved = [(mod, attr, getattr(mod, attr)) for mod, attr, _, _ in self._points]
        saved.append((self._cli, "ThreadPoolExecutor", self._cli.ThreadPoolExecutor))
        try:
            for (mod, attr, name, describe), (_, _, original) in zip(self._points, saved):
                setattr(mod, attr, self._wrap(original, name, describe))
            self._cli.ThreadPoolExecutor = self._pool(saved[-1][2])
            yield
        finally:
            for mod, attr, original in saved:
                setattr(mod, attr, original)

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics over every traced pass; counts and ``.s`` times are per pass."""
        spans = [s for p in self.passes for s in p]
        n_passes = len(self.passes)
        by = defaultdict(list)
        children = defaultdict(list)
        for s in spans:
            by[s.name].append(s)
            children[id(s.parent)].append(s)

        def self_ns(name):
            return sum(_self_ns(s, children[id(s)]) for s in by[name])

        def total(name, key=None):
            return sum((s.ns if key is None else s.info[key]) for s in by[name])

        def rate(ns, units):
            return ns / units if units else 0.0

        m: dict[str, float] = {}
        fits = by["synth.fit_direct"]
        m["synth.fit_direct.calls"] = len(fits) / n_passes
        m["synth.fit_direct.self_ns_per_px_step"] = rate(
            self_ns("synth.fit_direct"), total("synth.fit_direct", "px_steps"))
        m["synth.fit_count_ok_ratio"] = sum(s.info["ok"] for s in fits) / len(fits) if fits else 0.0
        m["synth.supervision_bundle.s"] = total("synth.supervision_bundle") / 1e9 / n_passes
        m["synth.expit.ns_per_px"] = rate(total("synth.expit"), total("synth.expit", "px"))

        losses = by["losses.loss_with_grad"]
        m["losses.loss_with_grad.calls"] = len(losses) / n_passes
        for v in VARIANT_NAMES:
            mine = [s for s in losses if s.info["variant"] == v]
            m[f"losses.loss_with_grad.{v}.ns_per_px"] = rate(
                sum(s.ns for s in mine), sum(s.info["px"] for s in mine))

        m["ground_truth.render_heatmap.ns_per_px_box"] = rate(
            total("ground_truth.render_heatmap"), total("ground_truth.render_heatmap", "px_boxes"))
        masks = by["ground_truth.render_mask"] + by["ground_truth.render_binary_map"]
        m["ground_truth.render_mask.ns_per_px_box"] = rate(
            sum(s.ns for s in masks), sum(s.info["px_boxes"] for s in masks))

        peaks = by["counting.extract_peaks"]
        m["counting.extract_peaks.calls"] = len(peaks) / n_passes
        m["counting.extract_peaks.ns_per_px"] = rate(total("counting.extract_peaks"), total("counting.extract_peaks", "px"))
        m["counting.extract_peaks.tied_calls"] = sum(has_tied_candidate(*s.info["input"]) for s in peaks) / n_passes

        grid_bytes = 0
        for fn in ("read_grid", "write_grid", "read_grid_csv", "write_grid_csv"):
            name = f"grid.{fn}"
            grid_bytes += total(name, "bytes")
            m[f"{name}.ns_per_byte"] = rate(total(name), total(name, "bytes"))
        m["grid.bytes"] = grid_bytes / n_passes

        m["serialization.load_scene.s"] = total("serialization.load_scene") / 1e9 / n_passes
        m["serialization.load_experiment_config.s"] = total("serialization.load_experiment_config") / 1e9 / n_passes

        mains = by["cli.main"]
        m["cli.main.self_s"] = self_ns("cli.main") / 1e9 / n_passes
        experiments = [s for s in mains if s.info["command"] == "experiment"]
        workers = max(self.workers, default=0)
        m["cli.experiment.workers"] = workers
        busy = sum(s.ns for s in experiments) * workers
        m["cli.experiment.parallel_efficiency"] = total("synth.fit_direct") / busy if busy else 0.0
        # span time counts a pool thread's wait for the interpreter lock as
        # work; thread CPU time does not, so this ratio shows what the pool gains
        m["cli.experiment.cpu_efficiency"] = total("synth.fit_direct", "cpu_ns") / busy if busy else 0.0
        return m


def alloc_pass(seed: int) -> dict[str, float]:
    """Peak tracemalloc bytes of one ``loss_with_grad`` call, per pixel.

    Never timed.  The scenes are shaped like the desk and large-fit scenes.
    A few Python objects come from free lists whose state depends on what
    ran before, so a case can read 120 bytes more on one sweep than on the
    next; the minimum over ALLOC_SWEEPS sweeps repeats exactly.
    """
    rng = np.random.default_rng([seed, 4])
    cases = []
    for size, n, gap in ((64, 5, DESK_GAP), (256, LARGE_HEADS, LARGE_GAP)):
        scene = SceneAnnotation(size, size, tuple(BoxAnnotation(*b) for b in place_heads(rng, size, n, gap)))
        pred = Grid(rng.uniform(0.05, 0.95, (size, size)))
        for spec in VARIANTS:
            cfg = LossConfig(**spec)
            name = f"losses.loss_with_grad.{cfg.variant.value}.alloc_bytes_per_px_{size}"
            cases.append((name, pred, supervision_bundle(scene, SigmaParams(), cfg.variant), cfg))
    peaks = defaultdict(list)
    tracemalloc.start()
    try:
        for _ in range(ALLOC_SWEEPS):
            for name, pred, bundle, cfg in cases:
                tracemalloc.reset_peak()
                base = tracemalloc.get_traced_memory()[0]
                result = loss_with_grad(pred, bundle, cfg)
                peaks[name].append(tracemalloc.get_traced_memory()[1] - base)
                del result
    finally:
        tracemalloc.stop()
    return {name: min(peaks[name]) / pred.values.size for name, pred, _, _ in cases}


_IMPORT_LINE = re.compile(r"import time:\s+\d+\s+\|\s+(\d+)\s+\|(\s*)(\S+)")
_IMPORT_PREFIXES = {
    "import.heatloss_us": "heatloss",
    "import.scipy_ndimage_us": "scipy.ndimage",
    "import.scipy_special_us": "scipy.special",
}


def _cumulative_us(stderr: str) -> dict[str, float]:
    """Cumulative import time of each package prefix.

    Python prints a module after the modules it imports, indented one level
    less.  A package's own line can be missing (scipy loads its subpackages
    lazily), so a prefix's time is the sum over its outermost entries: those
    not nested under another entry with the same prefix.
    """
    entries = [(len(m.group(2)), m.group(3), int(m.group(1)))
               for m in map(_IMPORT_LINE.match, stderr.splitlines()) if m]
    found = dict.fromkeys(_IMPORT_PREFIXES, 0.0)
    ancestors: list[tuple[int, str]] = []
    for indent, name, cumulative in reversed(entries):
        while ancestors and ancestors[-1][0] >= indent:
            ancestors.pop()
        for key, prefix in _IMPORT_PREFIXES.items():
            inside = lambda n: n == prefix or n.startswith(prefix + ".")  # noqa: E731
            if inside(name) and not any(inside(a) for _, a in ancestors):
                found[key] += cumulative
        ancestors.append((indent, name))
    return found


def import_breakdown(python: str, env: dict) -> dict[str, float]:
    """Cumulative import times from ``python -X importtime``, median of fresh runs.

    Nested packages overlap: scipy.special counts inside scipy.ndimage,
    which imports it first, and both count inside heatloss.
    """
    samples = defaultdict(list)
    for _ in range(IMPORT_REPEATS):
        proc = subprocess.run([python, "-X", "importtime", "-c", "import heatloss.cli"],
                              env=env, capture_output=True, text=True, timeout=60, check=True)
        for key, value in _cumulative_us(proc.stderr).items():
            samples[key].append(value)
    return {k: statistics.median(v) for k, v in samples.items()}
