"""File formats and the command-line surface."""

import json
import math
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from heatloss import (
    BoxAnnotation,
    Grid,
    SceneAnnotation,
    SchemaError,
    SigmaParams,
    loss_with_grad,
    read_grid,
    read_grid_csv,
    render_heatmap,
    write_grid,
    write_grid_csv,
)
from heatloss.cli import _EXIT_CODES, main
from heatloss.serialization import dump_scene, load_scene

pytestmark = pytest.mark.usefixtures("tmp_path")

ROOT = Path(__file__).resolve().parents[1]


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def error_payload(err):
    """The JSON error object on stderr; it has exactly the two contract keys."""
    payload = json.loads(err)
    assert set(payload) == {"error", "message"}
    return payload


def run_cli_process(*argv, env=None):
    """The CLI as a child process, so warnings numpy prints reach its stderr; ``env`` adds variables."""
    pythonpath = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "heatloss.cli", *argv],
        env={**os.environ, "PYTHONPATH": pythonpath, **(env or {})},
        capture_output=True,
        text=True,
        timeout=60,
    )


def write_scene(path, width=32, height=32, boxes=((16.0, 16.0, 6.0, 6.0),)):
    scene = SceneAnnotation(width, height, tuple(BoxAnnotation(*b) for b in boxes))
    dump_scene(scene, path)
    return scene


# 1xN, Nx1 and NxM grids
GRID_SHAPES = st.one_of(
    st.tuples(st.just(1), st.integers(1, 40)),
    st.tuples(st.integers(1, 40), st.just(1)),
    st.tuples(st.integers(2, 12), st.integers(2, 12)),
)


class TestGridFormats:
    @settings(derandomize=True, database=None, deadline=None, max_examples=60)
    @given(values=arrays(np.float64, GRID_SHAPES, elements=st.floats(-1e38, 1e38), fill=st.nothing()))
    def test_binary_round_trip_is_bit_identical(self, tmp_path_factory, values):
        """Bit-stable from the first write onward."""
        first, second = (tmp_path_factory.mktemp("grid") / name for name in ("a.grid", "b.grid"))
        write_grid(Grid(values), first)
        reread = read_grid(first)
        assert reread.shape == values.shape
        np.testing.assert_array_equal(reread.values, values.astype("<f4").astype(np.float64))
        write_grid(reread, second)
        assert first.read_bytes() == second.read_bytes()

    def test_header_and_payload_errors(self, tmp_path):
        bad = tmp_path / "bad.bin"
        bad.write_bytes(b"BLOB 2 2\n" + b"\x00" * 16)
        with pytest.raises(SchemaError):
            read_grid(bad)
        short = tmp_path / "short.bin"
        short.write_bytes(b"GRID 2 2\n" + b"\x00" * 15)
        with pytest.raises(SchemaError):
            read_grid(short)

    @settings(derandomize=True, database=None, deadline=None, max_examples=60)
    @given(values=arrays(np.float32, GRID_SHAPES, elements=st.floats(width=32, allow_nan=False, allow_infinity=False),
                          fill=st.nothing()))
    def test_csv_round_trip_preserves_float32_values(self, tmp_path_factory, values):
        path = tmp_path_factory.mktemp("grid") / "grid.csv"
        write_grid_csv(Grid(values), path)
        reread = read_grid_csv(path)
        assert reread.shape == values.shape
        np.testing.assert_array_equal(reread.values.astype(np.float32), values)


class TestMalformedGridFiles:
    @pytest.mark.parametrize("name, content, needle", [
        ("missing-field.grid", b"GRID 2\n" + bytes(8), "malformed grid header"),
        ("extra-field.grid", b"GRID 1 1 1\n" + bytes(4), "malformed grid header"),
        ("float-size.grid", b"GRID 1.0 1\n" + bytes(4), "non-integer"),
        ("word-size.grid", b"GRID w 1\n" + bytes(4), "non-integer"),
        ("zero-size.grid", b"GRID 0 1\n", "must be positive"),
        ("negative-size.grid", b"GRID 1 -2\n", "must be positive"),
        ("truncated.grid", b"GRID 2 2\n" + bytes(15), "expected 16 payload bytes, found 15"),
        ("long.grid", b"GRID 2 2\n" + bytes(17), "expected 16 payload bytes, found 17"),
        ("no-newline.grid", b"GRID 1 1", "missing 'GRID <w> <h>' header"),
        # int() reads these sizes, but write_grid writes none of them
        ("underscore-sign.grid", b"GRID 1_0 +1\n" + bytes(40), "non-canonical grid header"),
        ("plus-sign.grid", b"GRID +1 1\n" + bytes(4), "non-canonical grid header"),
        ("leading-zero.grid", b"GRID 010 1\n" + bytes(40), "non-canonical grid header"),
        ("double-space.grid", b"GRID 1  1\n" + bytes(4), "non-canonical grid header"),
        ("ragged.csv", b"0.1,0.2\n0.3\n", "malformed grid CSV"),
        ("empty-field.csv", b"0.1,,0.2\n", "malformed grid CSV"),
        ("empty-row-fields.csv", b"0.1,0.2\n,\n", "malformed grid CSV"),
    ])
    def test_reader_errors_are_schema_errors(self, tmp_path, capsys, name, content, needle):
        heat = tmp_path / name
        heat.write_bytes(content)
        code, out, err = run_cli(capsys, "peaks", "--heatmap", str(heat), "--out", str(tmp_path / "p.json"))
        assert code == 2 and out == ""
        payload = error_payload(err)
        assert payload["error"] == "SCHEMA_ERROR" and needle in payload["message"]
        assert not (tmp_path / "p.json").exists()


# The documented exit status of each error code (README, Command-line interface).
EXIT_STATUS = {
    "SCHEMA_ERROR": 2,
    "DIM_MISMATCH": 3,
    "VALIDATION_ERROR": 4,
    "INFEASIBLE_PLACEMENT": 5,
    "NON_FINITE_LOSS": 6,
    "GRAD_CHECK_FAILED": 7,
    "IO_ERROR": 8,
}


class TestExitCodes:
    """One failing invocation per error code; stderr holds exactly the error object."""

    def test_every_error_code_has_a_case(self):
        assert set(_EXIT_CODES) == set(EXIT_STATUS)

    @staticmethod
    def failing_argv(code, tmp_path, monkeypatch):
        scene, loss = tmp_path / "scene.json", tmp_path / "loss.json"
        write_scene(scene, width=8, height=8, boxes=((4.0, 4.0, 3.0, 3.0),))
        loss.write_text(json.dumps({"variant": "FOCAL_SCALAR"}))
        if code == "SCHEMA_ERROR":
            loss.write_text(json.dumps({"gamma": 2.0}))
            return ["fit", "--annotation", str(scene), "--loss-config", str(loss),
                    "--steps", "1", "--learning-rate", "0.5", "--seed", "1"]
        if code == "DIM_MISMATCH":
            heat, pred = tmp_path / "heat.grid", tmp_path / "pred.grid"
            write_grid(Grid(np.zeros((1, 2))), heat)
            write_grid(Grid(np.full((2, 2), 0.5)), pred)
            return ["eval-loss", "--pred", str(pred), "--heatmap", str(heat), "--n-objects", "1",
                    "--loss-config", str(loss), "--report-out", str(tmp_path / "r.json"),
                    "--grad-out", str(tmp_path / "g.grid")]
        if code == "VALIDATION_ERROR":
            return ["grad-check", "--variant", "MASK_FOCAL", "--size", "0", "--seed", "1"]
        if code == "INFEASIBLE_PLACEMENT":
            return ["synth", "--seed", "1", "--width", "8", "--height", "8", "--n-heads", "10",
                    "--min-gap", "40", "--out", str(tmp_path / "s.json")]
        if code == "NON_FINITE_LOSS":
            return ["fit", "--annotation", str(scene), "--loss-config", str(loss),
                    "--steps", "5", "--learning-rate", "1.7e308", "--seed", "1"]
        if code == "GRAD_CHECK_FAILED":
            def doubled_gradient(pred, gt, cfg):
                result = loss_with_grad(pred, gt, cfg)
                return replace(result, grad=Grid(2.0 * result.grad.values))

            monkeypatch.setattr("heatloss.cli.loss_with_grad", doubled_gradient)
            return ["grad-check", "--variant", "MASK_FOCAL", "--size", "4", "--instances", "1", "--seed", "1"]
        assert code == "IO_ERROR"
        return ["peaks", "--heatmap", str(tmp_path / "missing.grid"), "--out", str(tmp_path / "p.json")]

    @pytest.mark.parametrize("code", list(EXIT_STATUS))
    def test_failure_exits_with_its_status_and_error_object(self, tmp_path, capsys, monkeypatch, code):
        status, out, err = run_cli(capsys, *self.failing_argv(code, tmp_path, monkeypatch))
        assert status == EXIT_STATUS[code]
        assert err.count("\n") == 1 and err.endswith("\n")
        payload = error_payload(err)
        assert payload["error"] == code and isinstance(payload["message"], str) and payload["message"]
        if code == "GRAD_CHECK_FAILED":
            assert json.loads(out)["pass"] is False
        else:
            assert out == ""


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


class TestUnreadableJson:
    @pytest.mark.parametrize(
        "content, command",
        [
            (b"\xff\xfe{}", "render-gt"),  # not UTF-8
            (b"[" * 100000, "render-gt"),  # nested past the recursion limit
            (json.dumps({"scenes": [{"file": 123}]}).encode(), "experiment"),
        ],
        ids=["non-utf8", "deep-nesting", "scene-file-not-a-string"],
    )
    def test_schema_error_not_traceback(self, tmp_path, capsys, content, command):
        path = tmp_path / "input.json"
        path.write_bytes(content)
        if command == "render-gt":
            argv = ["render-gt", "--annotation", str(path), "--heatmap-out", str(tmp_path / "h.grid")]
        else:
            argv = ["experiment", "--config", str(path), "--seed", "1", "--out", str(tmp_path / "r.json")]
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == ""
        assert error_payload(err)["error"] == "SCHEMA_ERROR"


class TestOutOfMemory:
    def test_memory_error_becomes_validation_error(self, tmp_path, capsys, monkeypatch):
        def no_memory(*args, **kwargs):
            raise MemoryError("Unable to allocate 2.00 TiB for an array")

        monkeypatch.setattr("heatloss.cli.render_mask", no_memory)
        ann = tmp_path / "scene.json"
        write_scene(ann)
        code, out, err = run_cli(
            capsys, "render-gt", "--annotation", str(ann), "--mask-out", str(tmp_path / "m.grid")
        )
        assert code == 4 and out == ""
        payload = error_payload(err)
        assert payload["error"] == "VALIDATION_ERROR"
        assert payload["message"].startswith("out of memory: Unable to allocate")


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

    @pytest.mark.parametrize("cx", [1.0, 1.5], ids=["on-pixel", "off-pixel"])
    def test_underflowing_kernel_width_is_validation_error(self, tmp_path, cx):
        ann, out = tmp_path / "scene.json", tmp_path / "h.grid"
        write_scene(ann, width=4, height=4, boxes=((cx, 2.0, 2.0, 2.0),))
        result = run_cli_process(
            "render-gt", "--annotation", str(ann), "--eps-sigma", "1e308", "--heatmap-out", str(out)
        )
        assert result.returncode == 4 and result.stdout == ""
        assert "RuntimeWarning" not in result.stderr
        payload = error_payload(result.stderr)
        assert payload["error"] == "VALIDATION_ERROR"
        assert payload["message"].startswith("the kernel width of box 0 underflows: sigma = 5.03")
        assert "eta = 1.0, eps_sigma = 1e+308" in payload["message"]
        assert not out.exists()

    def test_tiny_kernel_width_renders_a_point_without_warning(self, tmp_path):
        """2 sigma^2 is subnormal: every pixel but the centre's exponent overflows to inf."""
        ann, out = tmp_path / "scene.json", tmp_path / "h.grid"
        write_scene(ann, width=4, height=4, boxes=((1.0, 2.0, 2.0, 2.0),))
        result = run_cli_process(
            "render-gt", "--annotation", str(ann), "--eps-sigma", "1e155", "--heatmap-out", str(out)
        )
        assert result.returncode == 0 and result.stderr == ""
        expected = np.zeros((4, 4))
        expected[2, 1] = 1.0
        np.testing.assert_array_equal(read_grid(out).values, expected)


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


    @pytest.mark.parametrize("entry", [[True, 0.0], [1.0], [1.0, "2"], 3.0])
    def test_points_must_be_number_pairs(self, tmp_path, capsys, entry):
        anchors = tmp_path / "anchors.json"
        anchors.write_text(json.dumps({"anchors": [{"cx": 0.0, "cy": 0.0, "w": 10.0, "h": 10.0}]}))
        points = tmp_path / "points.json"
        points.write_text(json.dumps({"points": [[1, 2.5], entry]}))
        code, out, err = run_cli(
            capsys, "interpolate", "--anchors", str(anchors), "--points", str(points),
            "--width", "8", "--height", "8", "--out", str(tmp_path / "scene.json"),
        )
        assert code == 2 and out == ""
        assert error_payload(err) == {"error": "SCHEMA_ERROR", "message": f"{points}.points[1]: expected [x, y] numbers"}
        assert not (tmp_path / "scene.json").exists()


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

    @pytest.mark.parametrize("variant, flag", [("MASK_FOCAL", True), ("FOCAL_SCALAR", None)])
    def test_zero_objects_report_flag(self, tmp_path, capsys, variant, flag):
        pred, heat, cfg = self._write_inputs(tmp_path)  # the heatmap is binary
        cfg.write_text(json.dumps({"variant": variant}))
        report_p = tmp_path / "report.json"
        code, _, err = run_cli(
            capsys, "eval-loss", "--pred", str(pred), "--heatmap", str(heat),
            "--n-objects", "0", "--loss-config", str(cfg),
            "--report-out", str(report_p), "--grad-out", str(tmp_path / "g.grid"),
        )
        assert code == 0 and err == ""
        report = json.loads(report_p.read_text())
        assert report.get("degenerate_n") is flag

    @pytest.mark.parametrize(
        "env", [None, {"PYTHONWARNINGS": "error::RuntimeWarning"}], ids=["plain", "warnings-as-errors"]
    )
    def test_overflow_in_overwritten_background_work_is_silent(self, tmp_path, env):
        """At gamma = 1e308 the background branch overflows at the keypoint, which overwrites it."""
        pred, heat, cfg = tmp_path / "pred.grid", tmp_path / "heat.grid", tmp_path / "loss.json"
        write_grid(Grid(np.array([[0.9999, 0.5], [0.2, 0.0001]])), pred)
        write_grid(Grid(np.array([[1.0, 0.3], [0.0, 0.0]])), heat)
        cfg.write_text(json.dumps({"variant": "HEATMAP_FOCAL", "gamma": 1e308}))
        result = run_cli_process(
            "eval-loss", "--pred", str(pred), "--heatmap", str(heat), "--n-objects", "1",
            "--loss-config", str(cfg), "--report-out", str(tmp_path / "r.json"),
            "--grad-out", str(tmp_path / "g.grid"), env=env,
        )
        assert (result.returncode, result.stdout, result.stderr) == (0, "", "")
        assert json.loads((tmp_path / "r.json").read_text())["value"] == 0.0

    def test_csv_grad_out_is_csv(self, tmp_path):
        pred, heat, cfg = self._write_inputs(tmp_path)
        grads = {}
        for name in ("g.csv", "g.grid"):
            result = run_cli_process(
                "eval-loss", "--pred", str(pred), "--heatmap", str(heat),
                "--n-objects", "1", "--loss-config", str(cfg),
                "--report-out", str(tmp_path / "r.json"), "--grad-out", str(tmp_path / name),
            )
            assert result.returncode == 0 and result.stderr == ""
            grads[name] = tmp_path / name
        assert not grads["g.csv"].read_bytes().startswith(b"GRID")
        from_csv, from_grid = read_grid_csv(grads["g.csv"]), read_grid(grads["g.grid"])
        assert from_csv.shape == (1, 2)
        np.testing.assert_array_equal(from_csv.values.astype(np.float32), from_grid.values)

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

    def test_mask_option_is_a_usage_error(self, tmp_path, capsys):
        # the mask variants read the heatmap's support as their mask
        pred, heat, cfg = self._write_inputs(tmp_path)
        mask = tmp_path / "m.grid"
        write_grid(Grid(np.array([[1.0, 0.0]])), mask)
        code, out, err = run_cli(
            capsys, "eval-loss", "--pred", str(pred), "--heatmap", str(heat), "--mask", str(mask),
            "--n-objects", "1", "--loss-config", str(cfg),
            "--report-out", str(tmp_path / "r.json"), "--grad-out", str(tmp_path / "g.grid"),
        )
        assert code == 2 and out == ""
        assert err.count("\n") == 1 and err.endswith("\n")
        assert error_payload(err)["error"] == "SCHEMA_ERROR"
        assert not (tmp_path / "r.json").exists() and not (tmp_path / "g.grid").exists()


class TestGradientOverflow:
    """A huge scale or eps1 overflows the gradient (in float64 or in the float32
    grid file) or the loss sum; both commands fail cleanly and write nothing."""

    POLY1 = {"variant": "POLY1_PIXELWISE", "alpha": 6e307, "gamma": 0.0, "eps1": 1.0}

    @pytest.mark.parametrize("command,loss,message", [
        ("fit", POLY1, "loss gradient became non-finite at step 1"),
        ("eval-loss", POLY1, "loss gradient is non-finite"),
        ("eval-loss", {"variant": "HEATMAP_FOCAL", "alpha": 1e300}, "float32 range of the grid format"),
        # every term is finite, but their sum overflows float64
        ("eval-loss", {"variant": "POLY1_PIXELWISE", "gamma": 0.0, "eps1": 1e308},
         "float32 range of the grid format"),
    ], ids=["fit", "eval-loss", "eval-loss-float32", "eval-loss-sum"])
    def test_validation_error_without_runtime_warning(self, tmp_path, command, loss, message):
        ann = tmp_path / "scene.json"
        scene = write_scene(ann, width=16, height=16, boxes=((5.0, 5.0, 6.0, 6.0),))
        cfg = tmp_path / "loss.json"
        cfg.write_text(json.dumps(loss))
        if command == "fit":
            argv = ["fit", "--annotation", str(ann), "--loss-config", str(cfg),
                    "--steps", "5", "--learning-rate", "1", "--seed", "1"]
        else:
            heat, pred = tmp_path / "heat.grid", tmp_path / "pred.grid"
            write_grid(render_heatmap(scene, SigmaParams(eta=1.0, eps_sigma=3.0)), heat)
            write_grid(Grid(np.full((16, 16), 0.5)), pred)
            argv = ["eval-loss", "--pred", str(pred), "--heatmap", str(heat),
                    "--n-objects", "1", "--loss-config", str(cfg),
                    "--report-out", str(tmp_path / "r.json"), "--grad-out", str(tmp_path / "g.grid")]
        result = run_cli_process(*argv)
        assert result.returncode == 4 and result.stdout == ""
        assert "RuntimeWarning" not in result.stderr
        payload = error_payload(result.stderr)
        assert payload["error"] == "VALIDATION_ERROR" and message in payload["message"]
        assert not (tmp_path / "r.json").exists()
        assert not (tmp_path / "g.grid").exists()


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


    @pytest.mark.parametrize(
        "option, value", [("--size", "-1"), ("--size", "0"), ("--seed", "-1"), ("--instances", "0")]
    )
    def test_bad_arguments_rejected(self, capsys, option, value):
        args = {"--variant": "MASK_FOCAL", "--size": "4", "--seed": "1", "--instances": "2", option: value}
        code, out, err = run_cli(capsys, "grad-check", *(x for pair in args.items() for x in pair))
        assert code == 4 and out == ""
        assert error_payload(err)["error"] == "VALIDATION_ERROR"


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

    def test_huge_window_is_the_whole_grid_window(self, tmp_path):
        values = np.random.default_rng(93).integers(0, 5, (3, 4)) / 4.0
        heat = tmp_path / "heat.csv"
        write_grid_csv(Grid(values), heat)
        peaks = {}
        for window in ("99999999999", str(2 * 4 - 1)):
            out = tmp_path / f"peaks-{window}.json"
            result = run_cli_process("peaks", "--heatmap", str(heat), "--window", window, "--out", str(out))
            assert result.returncode == 0 and result.stderr == ""
            peaks[window] = json.loads(out.read_text())
        assert peaks["99999999999"] == peaks["7"] and peaks["7"]["peaks"]

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

    def test_empty_csv_heatmap_is_schema_error(self, tmp_path):
        empty = tmp_path / "empty.csv"
        empty.write_text("")
        result = run_cli_process("peaks", "--heatmap", str(empty), "--out", str(tmp_path / "p.json"))
        assert result.returncode == 2 and result.stdout == ""
        assert "Warning" not in result.stderr
        payload = error_payload(result.stderr)
        assert payload["error"] == "SCHEMA_ERROR" and "malformed grid CSV (no data)" in payload["message"]
        assert not (tmp_path / "p.json").exists()


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

    def test_fit_overflowing_learning_rate_is_non_finite_loss(self, tmp_path):
        ann = tmp_path / "scene.json"
        write_scene(ann, width=24, height=24, boxes=((12.0, 12.0, 6.0, 6.0),))
        cfg = tmp_path / "loss.json"
        cfg.write_text(json.dumps({"variant": "FOCAL_SCALAR"}))
        result = run_cli_process(
            "fit", "--annotation", str(ann), "--loss-config", str(cfg),
            "--steps", "5", "--learning-rate", "1.7e308", "--seed", "0",
        )
        assert result.returncode == 6 and result.stdout == ""
        assert "RuntimeWarning" not in result.stderr
        payload = error_payload(result.stderr)
        assert payload["error"] == "NON_FINITE_LOSS" and "1.7e+308" in payload["message"]

    @pytest.mark.parametrize(
        "init, seed", [("SEEDED_NOISE", "-1"), ("UNIFORM_HALF", "-5"), ("ZEROS_LOGIT", str(2**64))]
    )
    def test_fit_seed_outside_64_bit_range_rejected(self, tmp_path, capsys, init, seed):
        ann = tmp_path / "scene.json"
        write_scene(ann, width=8, height=8, boxes=((4.0, 4.0, 3.0, 3.0),))
        cfg = tmp_path / "loss.json"
        cfg.write_text(json.dumps({"variant": "MASK_FOCAL"}))
        code, out, err = run_cli(
            capsys, "fit", "--annotation", str(ann), "--loss-config", str(cfg), "--steps", "1",
            "--learning-rate", "0.5", "--init", init, "--seed", seed,
        )
        assert code == 4 and out == ""
        payload = error_payload(err)
        assert payload["error"] == "VALIDATION_ERROR" and "64-bit" in payload["message"]

    def test_experiment_report(self, tmp_path, capsys):
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
        out = tmp_path / "report.json"
        code, _, _ = run_cli(capsys, "experiment", "--config", str(config), "--seed", "1", "--out", str(out))
        assert code == 0
        results = json.loads(out.read_text())
        assert len(results) == 2
        for entry in results:
            assert entry["report"]["m"] == 2
        assert results[0]["variant"]["variant"] == "MASK_FOCAL"

    def test_experiment_without_scenes_is_validation_error(self, tmp_path, capsys):
        config = tmp_path / "exp.json"
        config.write_text(json.dumps({
            "scenes": [],
            "variants": [{"variant": "MASK_FOCAL"}],
            "sigma": {"eta": 1.0, "eps_sigma": 3.0},
            "fit": {"steps": 1, "learning_rate": 0.5},
        }))
        code, out, err = run_cli(capsys, "experiment", "--config", str(config), "--seed", "1",
                                 "--out", str(tmp_path / "r.json"))
        assert code == 4 and out == ""
        assert error_payload(err)["error"] == "VALIDATION_ERROR"
        assert not (tmp_path / "r.json").exists()
