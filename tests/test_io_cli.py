"""File formats and the command-line surface."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from heatloss import (
    BoxAnnotation,
    Grid,
    SceneAnnotation,
    SchemaError,
    read_grid,
    read_grid_csv,
    write_grid,
    write_grid_csv,
)
from heatloss.cli import main
from heatloss.serialization import dump_scene, load_scene

pytestmark = pytest.mark.usefixtures("tmp_path")

ROOT = Path(__file__).resolve().parents[1]


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_scene(path, width=32, height=32, boxes=((16.0, 16.0, 6.0, 6.0),)):
    scene = SceneAnnotation(width, height, tuple(BoxAnnotation(*b) for b in boxes))
    dump_scene(scene, path)
    return scene


class TestGridFormats:
    def test_binary_round_trip_is_bit_identical(self, tmp_path):
        rng = np.random.default_rng(91)
        grid = Grid(rng.random((7, 11)))
        path = tmp_path / "grid.bin"
        write_grid(grid, path)
        reread = read_grid(path)
        np.testing.assert_array_equal(reread.values, grid.values.astype("<f4").astype(np.float64))
        second = tmp_path / "grid2.bin"
        write_grid(reread, second)
        assert path.read_bytes() == second.read_bytes()

    def test_header_and_payload_errors(self, tmp_path):
        bad = tmp_path / "bad.bin"
        bad.write_bytes(b"BLOB 2 2\n" + b"\x00" * 16)
        with pytest.raises(SchemaError):
            read_grid(bad)
        short = tmp_path / "short.bin"
        short.write_bytes(b"GRID 2 2\n" + b"\x00" * 15)
        with pytest.raises(SchemaError):
            read_grid(short)

    def test_csv_round_trip_preserves_float32_values(self, tmp_path):
        rng = np.random.default_rng(92)
        grid = Grid(rng.random((4, 6)).astype(np.float32).astype(np.float64))
        path = tmp_path / "grid.csv"
        write_grid_csv(grid, path)
        reread = read_grid_csv(path)
        np.testing.assert_array_equal(
            reread.values.astype(np.float32), grid.values.astype(np.float32)
        )


class TestAnnotationJson:
    def test_scene_round_trip(self, tmp_path):
        path = tmp_path / "scene.json"
        scene = write_scene(path, boxes=((3.25, 4.5, 1.75, 2.0), (10.0, 20.0, 3.0, 3.0)))
        assert load_scene(path) == scene

    def test_schema_errors_name_the_field(self, tmp_path):
        path = tmp_path / "scene.json"
        path.write_text(json.dumps({"width": 8, "boxes": []}))
        with pytest.raises(SchemaError, match="height"):
            load_scene(path)
        path.write_text(json.dumps({"width": 8, "height": 8, "boxes": [{"cx": 1, "cy": 1, "w": 2}]}))
        with pytest.raises(SchemaError, match="'h'"):
            load_scene(path)


class TestRenderGtCommand:
    def test_outputs_and_center_values(self, tmp_path, capsys):
        ann = tmp_path / "scene.json"
        write_scene(ann, boxes=((8.0, 8.0, 5.0, 5.0), (24.0, 20.0, 4.0, 7.0)))
        heat_p, mask_p, bin_p, masked_p = (
            tmp_path / n for n in ("h.grid", "m.grid", "b.grid", "hm.grid")
        )
        code, _, err = run_cli(
            capsys, "render-gt", "--annotation", str(ann), "--eta", "1", "--eps-sigma", "3",
            "--stride", "1", "--heatmap-out", str(heat_p), "--mask-out", str(mask_p),
            "--binary-out", str(bin_p), "--masked-heatmap-out", str(masked_p),
        )
        assert code == 0 and err == ""
        heat = read_grid(heat_p)
        assert heat.values[8, 8] == 1.0 and heat.values[20, 24] == 1.0
        mask = read_grid(mask_p)
        assert mask.is_binary() and mask.values[8, 8] == 1.0
        assert read_grid(bin_p).values.tobytes() == mask.values.tobytes()
        masked = read_grid(masked_p)
        np.testing.assert_array_equal(masked.values, (heat.values.astype("<f4") * mask.values).astype("<f4").astype(float))

    def test_idempotent_bytes(self, tmp_path, capsys):
        ann = tmp_path / "scene.json"
        write_scene(ann)
        out1, out2 = tmp_path / "a.grid", tmp_path / "b.grid"
        for out in (out1, out2):
            code, _, _ = run_cli(capsys, "render-gt", "--annotation", str(ann), "--heatmap-out", str(out))
            assert code == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_csv_extension_switches_format(self, tmp_path, capsys):
        ann = tmp_path / "scene.json"
        write_scene(ann)
        out = tmp_path / "mask.csv"
        code, _, _ = run_cli(capsys, "render-gt", "--annotation", str(ann), "--mask-out", str(out))
        assert code == 0
        assert read_grid_csv(out).values[16, 16] == 1.0

    def test_requires_an_output(self, tmp_path, capsys):
        ann = tmp_path / "scene.json"
        write_scene(ann)
        code, _, err = run_cli(capsys, "render-gt", "--annotation", str(ann))
        assert code != 0
        assert json.loads(err)["error"] == "SCHEMA_ERROR"


class TestInterpolateCommand:
    def test_interpolates_points(self, tmp_path, capsys):
        anchors = tmp_path / "anchors.json"
        anchors.write_text(json.dumps({"anchors": [
            {"cx": 0.0, "cy": 0.0, "w": 10.0, "h": 10.0},
            {"cx": 100.0, "cy": 0.0, "w": 30.0, "h": 30.0},
        ]}))
        points = tmp_path / "points.json"
        points.write_text(json.dumps({"points": [[50.0, 0.0], [25.0, 0.0]]}))
        out = tmp_path / "scene.json"
        code, _, _ = run_cli(
            capsys, "interpolate", "--anchors", str(anchors), "--points", str(points),
            "--width", "128", "--height", "64", "--out", str(out),
        )
        assert code == 0
        scene = load_scene(out)
        assert [(b.w, b.h) for b in scene.boxes] == [(20.0, 20.0), (15.0, 15.0)]


class TestEvalLossCommand:
    def _write_inputs(self, tmp_path, pred_shape=(1, 2)):
        heat = tmp_path / "heat.grid"
        write_grid(Grid(np.array([[1.0, 0.0]])), heat)
        pred = tmp_path / "pred.grid"
        write_grid(Grid(np.full(pred_shape, 0.5)), pred)
        cfg = tmp_path / "loss.json"
        cfg.write_text(json.dumps({"variant": "ALPHA_FOCAL", "alpha": 1.0, "gamma": 2.0}))
        return pred, heat, cfg

    def test_report_and_grad_outputs(self, tmp_path, capsys):
        pred, heat, cfg = self._write_inputs(tmp_path)
        report_p, grad_p = tmp_path / "report.json", tmp_path / "grad.grid"
        code, _, _ = run_cli(
            capsys, "eval-loss", "--pred", str(pred), "--heatmap", str(heat),
            "--n-objects", "1", "--loss-config", str(cfg),
            "--report-out", str(report_p), "--grad-out", str(grad_p),
        )
        assert code == 0
        report = json.loads(report_p.read_text())
        expected = -2.0 * (0.5**2) * math.log(0.5)
        assert report["value"] == pytest.approx(expected, rel=1e-6)
        assert report["grad_file"] == str(grad_p)
        assert read_grid(grad_p).shape == (1, 2)

    def test_dimension_mismatch_error_code(self, tmp_path, capsys):
        pred, heat, cfg = self._write_inputs(tmp_path, pred_shape=(2, 2))
        code, _, err = run_cli(
            capsys, "eval-loss", "--pred", str(pred), "--heatmap", str(heat),
            "--n-objects", "1", "--loss-config", str(cfg),
            "--report-out", str(tmp_path / "r.json"), "--grad-out", str(tmp_path / "g.grid"),
        )
        assert code == 3
        payload = json.loads(err)
        assert payload["error"] == "DIM_MISMATCH"
        assert not (tmp_path / "r.json").exists()


class TestGradCheckCommand:
    def test_poly_variant_passes(self, capsys):
        code, out, _ = run_cli(
            capsys, "grad-check", "--variant", "MASK_FOCAL_POLY1",
            "--instances", "50", "--size", "8", "--seed", "7",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["pass"] is True
        assert payload["max_relative_deviation"] <= 1e-6

    def test_seed_is_required(self, capsys):
        code, _, err = run_cli(capsys, "grad-check", "--variant", "MASK_FOCAL")
        assert code == 2
        payload = json.loads(err)
        assert payload["error"] == "SCHEMA_ERROR"
        assert "--seed" in payload["message"]


class TestUsageErrors:
    @pytest.mark.parametrize(
        "argv, needle",
        [
            (["grad-check", "--variant", "NOPE", "--seed", "1"], "invalid choice"),
            (["peaks", "--heatmap", "h.grid", "--window", "abc", "--out", "p.json"], "invalid int"),
            (["peaks", "--heatmap", "h.grid"], "--out"),
            (["no-such-command"], "invalid choice"),
            ([], "command"),
        ],
    )
    def test_usage_errors_emit_schema_error(self, capsys, argv, needle):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == ""
        payload = json.loads(err)
        assert set(payload) == {"error", "message"}
        assert payload["error"] == "SCHEMA_ERROR"
        assert needle in payload["message"]

    def test_help_still_prints_usage(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["peaks", "--help"])
        assert exc.value.code == 0
        assert "usage: heatloss peaks" in capsys.readouterr().out


def test_cli_import_loads_no_scipy():
    probe = "import sys, heatloss.cli; print(sorted(m for m in sys.modules if m.startswith('scipy')))"
    pythonpath = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-c", probe],
        env={**os.environ, "PYTHONPATH": pythonpath},
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"


class TestPeaksAndCountCommands:
    def test_peaks_json(self, tmp_path, capsys):
        values = np.zeros((8, 8))
        values[2, 3] = 0.9
        values[6, 6] = 0.5
        heat = tmp_path / "heat.grid"
        write_grid(Grid(values), heat)
        out = tmp_path / "peaks.json"
        code, _, _ = run_cli(capsys, "peaks", "--heatmap", str(heat), "--out", str(out))
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["peaks"] == [
            {"x": 3, "y": 2, "score": pytest.approx(0.9, rel=1e-6)},
            {"x": 6, "y": 6, "score": pytest.approx(0.5, rel=1e-6)},
        ]

    def test_eval_count_report(self, tmp_path, capsys):
        counts = tmp_path / "counts.json"
        counts.write_text(json.dumps({"per_image": [
            {"pred": 3, "truth": 4}, {"pred": 5, "truth": 4},
        ]}))
        out = tmp_path / "report.json"
        code, _, _ = run_cli(capsys, "eval-count", "--counts", str(counts), "--out", str(out))
        assert code == 0
        report = json.loads(out.read_text())
        assert report == {
            "m": 2, "mae": 1.0, "rmse": 1.0,
            "per_image": [{"pred": 3, "truth": 4}, {"pred": 5, "truth": 4}],
        }


class TestSynthFitExperimentCommands:
    def test_synth_is_idempotent(self, tmp_path, capsys):
        outs = [tmp_path / f"s{i}.json" for i in range(2)]
        for out in outs:
            code, _, _ = run_cli(
                capsys, "synth", "--seed", "11", "--width", "48", "--height", "48",
                "--n-heads", "4", "--min-gap", "12", "--out", str(out),
            )
            assert code == 0
        assert outs[0].read_bytes() == outs[1].read_bytes()
        assert len(load_scene(outs[0]).boxes) == 4

    def test_infeasible_synth_error_code(self, tmp_path, capsys):
        code, _, err = run_cli(
            capsys, "synth", "--seed", "11", "--width", "8", "--height", "8",
            "--n-heads", "10", "--min-gap", "40", "--out", str(tmp_path / "s.json"),
        )
        assert code == 5
        assert json.loads(err)["error"] == "INFEASIBLE_PLACEMENT"

    def test_fit_writes_trace_and_prediction(self, tmp_path, capsys):
        ann = tmp_path / "scene.json"
        write_scene(ann, width=24, height=24, boxes=((12.0, 12.0, 6.0, 6.0),))
        cfg = tmp_path / "loss.json"
        cfg.write_text(json.dumps({"variant": "MASK_FOCAL", "beta": 0.5, "gamma": 2.0}))
        trace_p, pred_p = tmp_path / "trace.csv", tmp_path / "pred.grid"
        argv = [
            "fit", "--annotation", str(ann), "--loss-config", str(cfg),
            "--steps", "30", "--learning-rate", "0.5", "--record-every", "10",
            "--seed", "0", "--trace-out", str(trace_p), "--pred-out", str(pred_p),
        ]
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        summary = json.loads(out)
        assert summary["gt_count"] == 1
        assert summary["final_loss"] < summary["initial_loss"]
        lines = trace_p.read_text().strip().splitlines()
        assert lines[0] == "step,loss" and len(lines) == 4
        first_bytes = (trace_p.read_bytes(), pred_p.read_bytes())
        code, _, _ = run_cli(capsys, *argv)
        assert code == 0
        assert (trace_p.read_bytes(), pred_p.read_bytes()) == first_bytes

    def test_experiment_report(self, tmp_path, capsys, monkeypatch):
        scene_p = tmp_path / "scene.json"
        write_scene(scene_p, width=24, height=24, boxes=((12.0, 12.0, 6.0, 6.0),))
        config = tmp_path / "exp.json"
        config.write_text(json.dumps({
            "scenes": [
                {"file": "scene.json"},
                {"width": 24, "height": 24, "boxes": [{"cx": 6.0, "cy": 6.0, "w": 5.0, "h": 5.0}]},
            ],
            "variants": [
                {"variant": "MASK_FOCAL", "beta": 0.5, "gamma": 2.0},
                {"variant": "HEATMAP_FOCAL", "beta": 4.0, "gamma": 2.0},
            ],
            "sigma": {"eta": 1.0, "eps_sigma": 3.0},
            "fit": {"steps": 120, "learning_rate": 0.5, "record_every": 20},
        }))
        monkeypatch.setenv("HEATLOSS_THREADS", "2")
        out = tmp_path / "report.json"
        code, _, _ = run_cli(capsys, "experiment", "--config", str(config), "--seed", "1", "--out", str(out))
        assert code == 0
        results = json.loads(out.read_text())
        assert len(results) == 2
        for entry in results:
            assert entry["report"]["m"] == 2
        assert results[0]["variant"]["variant"] == "MASK_FOCAL"

    def test_bad_threads_env_rejected(self, tmp_path, capsys, monkeypatch):
        config = tmp_path / "exp.json"
        config.write_text(json.dumps({
            "scenes": [{"width": 8, "height": 8, "boxes": []}],
            "variants": [{"variant": "MASK_FOCAL"}],
            "sigma": {"eta": 1.0, "eps_sigma": 3.0},
            "fit": {"steps": 1, "learning_rate": 0.5},
        }))
        monkeypatch.setenv("HEATLOSS_THREADS", "zero")
        code, _, err = run_cli(capsys, "experiment", "--config", str(config), "--seed", "1",
                               "--out", str(tmp_path / "r.json"))
        assert code == 2
        assert json.loads(err)["error"] == "SCHEMA_ERROR"
