"""File formats and the command-line surface."""

import contextlib
import io
import json
import math
import os
import re
import subprocess
import sys
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from heatloss import (
    BoxAnnotation,
    FitConfig,
    Grid,
    GroundTruthBundle,
    InitMode,
    LossConfig,
    LossVariant,
    SceneAnnotation,
    SchemaError,
    SigmaParams,
    ValidationError,
    batched_loss_values,
    loss_with_grad,
    read_grid,
    read_grid_csv,
    render_heatmap,
    write_grid,
    write_grid_csv,
)
from heatloss.cli import _EXIT_CODES, main
from heatloss.serialization import (
    dump_json,
    fit_config_from_obj,
    load_experiment_config,
    load_scene,
    loss_config_from_obj,
    scene_from_obj,
    sigma_params_from_obj,
)
from helpers import SUM_OVERFLOW

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


def run_python(*args, env=None):
    """A fresh interpreter with ``src`` on its path, so warnings numpy prints reach its stderr; ``env`` adds variables."""
    pythonpath = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *args],
        env={**os.environ, "PYTHONPATH": pythonpath, **(env or {})},
        capture_output=True,
        text=True,
        timeout=60,
    )


def run_cli_process(*argv, env=None):
    """The CLI as a child process."""
    return run_python("-m", "heatloss.cli", *argv, env=env)


def write_scene(path, width=32, height=32, boxes=((16.0, 16.0, 6.0, 6.0),)):
    scene = SceneAnnotation(width, height, tuple(BoxAnnotation(*b) for b in boxes))
    dump_json(scene, path)
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

    @pytest.mark.parametrize("values, message", [
        (np.zeros((0, 3)), "grid values must be a non-empty 2-D array, got shape (0, 3)"),
        (np.zeros(3), "grid values must be a non-empty 2-D array, got shape (3,)"),
        (np.array([[0.0, np.nan]]), "grid values must be finite"),
    ])
    def test_grid_values_rejected(self, values, message):
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            Grid(values)

    @settings(derandomize=True, database=None, deadline=None, max_examples=60)
    @given(values=arrays(np.float32, GRID_SHAPES, elements=st.floats(width=32, allow_nan=False, allow_infinity=False),
                          fill=st.nothing()))
    def test_csv_round_trip_preserves_float32_values(self, tmp_path_factory, values):
        path = tmp_path_factory.mktemp("grid") / "grid.csv"
        write_grid_csv(Grid(values), path)
        reread = read_grid_csv(path)
        assert reread.shape == values.shape
        np.testing.assert_array_equal(reread.values.astype(np.float32), values)


HEADER_RULE = ("is not 'GRID <width> <height>' and a newline, "
               "with positive decimal sizes below 10**19, no sign or leading zero, one space apart")


def reference_read_grid(raw):
    """The header rule spelled step by step, without the reader's pattern: ASCII decimal fields, each
    size ``int() > 0``, the header exactly ``GRID <w> <h>`` as ``%d`` writes it, then the payload length.
    Returns the values, or None for a file the rule rejects."""
    header, newline, body = raw.partition(b"\n")
    fields = header.split(b" ")
    if not newline or len(fields) != 3 or fields[0] != b"GRID" or not all(f.isdigit() for f in fields[1:]):
        return None
    try:
        width, height = int(fields[1]), int(fields[2])
    except ValueError:  # past Python's integer-parsing digit limit
        return None
    if min(width, height) < 1 or header != b"GRID %d %d" % (width, height) or len(body) != 4 * width * height:
        return None
    return np.frombuffer(body, dtype="<f4").astype(np.float64).reshape(height, width)


# what a header mutation inserts: digits, separators, signs, a non-ASCII digit and over-long sizes
HEADER_PIECES = [b"0", b"1", b"2", b"7", b"10", b" ", b"+", b"-", b"_", b".", b"\t", b"\r", b"\n", b"g", b"D",
                 "\u0661".encode(), "\uff11".encode(), b"1" * 19, b"9" * 20, b"1" * 4301]


@st.composite
def grid_files(draw):
    """A canonical ``GRID w h`` header or a few byte edits of it, over a payload of about the right length."""
    width, height = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    header = b"GRID %d %d" % (width, height)
    for _ in range(draw(st.integers(0, 2))):
        i = draw(st.integers(5, len(header)) | st.integers(0, len(header)))  # mostly in the sizes
        j = draw(st.integers(i, min(i + 2, len(header))))
        header = header[:i] + draw(st.sampled_from([b""] + HEADER_PIECES)) + header[j:]
    sizes = [int(d) for d in re.findall(rb"[0-9]{1,3}", header)[:2]]
    n = math.prod(sizes) if len(sizes) == 2 else width * height  # the length the header claims, if any
    payload = np.random.default_rng(draw(st.integers(0, 2**32))).standard_normal(n).astype("<f4").tobytes()
    cut = draw(st.sampled_from([0, 0, 0, 1, 4, -1, -4]))
    payload = payload[:len(payload) - cut] if cut > 0 else payload + bytes(-cut)
    return header + draw(st.sampled_from([b"\n", b"\n", b"\n", b""])) + payload


class TestMalformedGridFiles:
    @pytest.mark.parametrize("name, content, line", [
        ("missing-field.grid", b"GRID 2\n" + bytes(8), b"GRID 2"),
        ("extra-field.grid", b"GRID 1 1 1\n" + bytes(4), b"GRID 1 1 1"),
        ("float-size.grid", b"GRID 1.0 1\n" + bytes(4), b"GRID 1.0 1"),
        ("word-size.grid", b"GRID w 1\n" + bytes(4), b"GRID w 1"),
        ("zero-size.grid", b"GRID 0 1\n", b"GRID 0 1"),
        ("negative-size.grid", b"GRID 1 -2\n", b"GRID 1 -2"),
        ("no-newline.grid", b"GRID 1 1", b"GRID 1 1"),
        # int() reads these sizes, but write_grid writes none of them
        ("underscore-sign.grid", b"GRID 1_0 +1\n" + bytes(40), b"GRID 1_0 +1"),
        ("plus-sign.grid", b"GRID +1 1\n" + bytes(4), b"GRID +1 1"),
        ("leading-zero.grid", b"GRID 010 1\n" + bytes(40), b"GRID 010 1"),
        ("double-space.grid", b"GRID 1  1\n" + bytes(4), b"GRID 1  1"),
        # the header is checked before the payload, so a non-finite payload does not decide the outcome
        ("leading-zero-nan.grid", b"GRID 010 1\n" + np.full(10, np.nan, "<f4").tobytes(), b"GRID 010 1"),
        ("underscore-sign-inf.grid", b"GRID 1_0 +1\n" + np.full(10, np.inf, "<f4").tobytes(), b"GRID 1_0 +1"),
        # past Python's 4300-digit integer-parsing limit; the message quotes the first 64 bytes
        ("huge-size.grid", b"GRID " + b"1" * 4301 + b" 1\n", b"GRID " + b"1" * 59),
        # a size int() reads, but the 4301-digit payload length it implies cannot be printed
        ("long-size.grid", b"GRID 11 " + b"1" * 4300 + b"\n" + bytes(8), b"GRID 11 " + b"1" * 56),
        ("crlf.grid", b"GRID 1 1\r\n" + bytes(4), b"GRID 1 1\r"),
        ("tab.grid", b"GRID 1\t1\n" + bytes(4), b"GRID 1\t1"),
        ("arabic-digit.grid", "GRID \u0661 1\n".encode() + bytes(4), "GRID \u0661 1".encode()),
    ])
    def test_header_errors_are_one_schema_error(self, tmp_path, capsys, name, content, line):
        heat = tmp_path / name
        heat.write_bytes(content)
        code, out, err = run_cli(capsys, "peaks", "--heatmap", str(heat), "--out", str(tmp_path / "p.json"))
        assert code == 2 and out == ""
        assert error_payload(err) == {"error": "SCHEMA_ERROR", "message": f"{heat}: grid header {line!r} {HEADER_RULE}"}
        assert not (tmp_path / "p.json").exists()

    @pytest.mark.parametrize("name, content, needle", [
        ("truncated.grid", b"GRID 2 2\n" + bytes(15), "expected 16 payload bytes, found 15"),
        ("long.grid", b"GRID 2 2\n" + bytes(17), "expected 16 payload bytes, found 17"),
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

    @settings(derandomize=True, database=None, deadline=None, max_examples=400)
    @given(raw=grid_files())
    def test_reader_accepts_exactly_what_the_reference_rule_accepts(self, tmp_path_factory, raw):
        path = tmp_path_factory.mktemp("header") / "g.grid"
        path.write_bytes(raw)
        expected = reference_read_grid(raw)
        if expected is None:
            with pytest.raises(SchemaError):
                read_grid(path)
        else:
            got = read_grid(path).values
            assert got.shape == expected.shape
            np.testing.assert_array_equal(got, expected)


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

            monkeypatch.setattr("heatloss.losses.loss_with_grad", doubled_gradient)
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


class TestSchemaRejections:
    def test_non_object_is_named(self):
        with pytest.raises(SchemaError, match="^annotation: expected a JSON object, got list$"):
            scene_from_obj([])

    def test_experiment_needs_a_variant(self, tmp_path):
        path = tmp_path / "experiment.json"
        path.write_text(json.dumps({"scenes": [], "variants": []}))
        with pytest.raises(SchemaError, match=f"^{re.escape(str(path))}: 'variants' must be non-empty$"):
            load_experiment_config(path, seed=None)

    @pytest.mark.parametrize("part, key, known", [
        ("", "seed", "scenes, variants, sigma, fit"),
        (".scenes[0]", "note", "file"),
    ], ids=["top-level", "scene-file"])
    def test_experiment_rejects_an_unknown_key(self, tmp_path, part, key, known):
        """A top-level key would otherwise be ignored, and a file reference read as an annotation."""
        write_scene(tmp_path / "s.json")
        path = tmp_path / "experiment.json"
        obj = {"scenes": [{"file": "s.json"}], "variants": [{"variant": "MASK_FOCAL"}],
               "sigma": {"eta": 1.0, "eps_sigma": 3.0}, "fit": {"steps": 1, "learning_rate": 0.5}}
        path.write_text(json.dumps(obj))
        load_experiment_config(path, seed=None)
        (obj["scenes"][0] if part else obj)[key] = 3
        path.write_text(json.dumps(obj))
        message = f"{path}{part}: unknown key {key!r} (known keys: {known})"
        with pytest.raises(SchemaError, match=f"^{re.escape(message)}$"):
            load_experiment_config(path, seed=None)

    @pytest.mark.parametrize("parse, known, key, message", [
        (loss_config_from_obj, {"variant": "MASK_FOCAL", "beta": 0.5}, "gama",
         "loss config: unknown key 'gama' (known keys: variant, alpha, beta, gamma, eps1, clamp)"),
        (sigma_params_from_obj, {"eta": 1.0, "eps_sigma": 3.0}, "etaa",
         "sigma: unknown key 'etaa' (known keys: eta, eps_sigma)"),
        (lambda obj: fit_config_from_obj(obj, None), {"steps": 1, "learning_rate": 0.5},
         "recordevery", "fit: unknown key 'recordevery' (known keys: steps, learning_rate, init, record_every)"),
    ], ids=["loss", "sigma", "fit"])
    def test_config_rejects_an_unknown_key(self, parse, known, key, message):
        """A misspelled key would otherwise leave its setting at the default."""
        parse(known)
        with pytest.raises(SchemaError, match=f"^{re.escape(message)}$"):
            parse({**known, key: 9.0})

    def test_fit_config_is_the_fit_block_and_the_seed(self):
        """Every ``FitConfig`` field is a ``fit`` key or the seed, so no experiment fills in a placeholder."""
        assert [field.name for field in fields(FitConfig)] == ["steps", "learning_rate", "init", "record_every", "seed"]
        block = {"steps": 7, "learning_rate": 0.25, "init": "SEEDED_NOISE", "record_every": 3}
        assert fit_config_from_obj(block, 5) == FitConfig(
            steps=7, learning_rate=0.25, init=InitMode.SEEDED_NOISE, record_every=3, seed=5
        )

    def test_annotations_stay_open_to_metadata(self):
        obj = {"width": 8, "height": 8, "source": "frame 12",
               "boxes": [{"cx": 1.0, "cy": 2.0, "w": 3.0, "h": 4.0, "label": "head"}]}
        assert scene_from_obj(obj) == SceneAnnotation(8, 8, (BoxAnnotation(1.0, 2.0, 3.0, 4.0),))


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


BEYOND_FLOAT64 = 10**400  # float() raises OverflowError on it


def number_slots(obj, path=()):
    """The key path of every number in a JSON value."""
    if isinstance(obj, dict):
        items = obj.items()
    elif isinstance(obj, list):
        items = enumerate(obj)
    else:
        return [path] if isinstance(obj, (int, float)) else []
    return [slot for key, value in items for slot in number_slots(value, path + (key,))]


def passing_call(command, d):
    """JSON inputs by file name and the argv of a ``command`` call on them that exits 0, all under ``d``."""
    box = {"cx": 8.0, "cy": 6.0, "w": 4.0, "h": 5.0}
    scene = {"width": 16, "height": 12, "boxes": [box]}
    if command == "render-gt":
        return {"scene.json": scene}, ["render-gt", "--annotation", str(d / "scene.json"),
                                       "--heatmap-out", str(d / "h.grid"), "--mask-out", str(d / "m.grid")]
    if command == "fit":
        loss = {"variant": "MASK_FOCAL_POLY1", "alpha": 1.0, "beta": 0.5, "gamma": 2, "eps1": 0.5, "clamp": 1e-4}
        return {"scene.json": scene, "loss.json": loss}, [
            "fit", "--annotation", str(d / "scene.json"), "--loss-config", str(d / "loss.json"),
            "--steps", "2", "--learning-rate", "0.5", "--seed", "1"]
    if command == "interpolate":
        anchors = {"anchors": [box, {"cx": 2.0, "cy": 3.0, "w": 6.0, "h": 7.0}]}
        return {"anchors.json": anchors, "points.json": {"points": [[5.0, 5.5], [1, 2]]}}, [
            "interpolate", "--anchors", str(d / "anchors.json"), "--points", str(d / "points.json"),
            "--width", "16", "--height", "12", "--out", str(d / "out.json")]
    assert command == "eval-count"
    counts = {"per_image": [{"pred": 3, "truth": 2}, {"pred": 0, "truth": 1}]}
    return {"counts.json": counts}, ["eval-count", "--counts", str(d / "counts.json"), "--out", str(d / "out.json")]


class TestNumbersBeyondFloat64:
    """An integer that float64 cannot hold fails with the error object of the check that guards its value."""

    @staticmethod
    def failing_argv(case, d):
        if case == "eval-loss --n-objects":
            write_grid(Grid(np.full((2, 2), 0.5)), d / "pred.grid")
            write_grid(Grid(np.eye(2)), d / "heat.grid")
            (d / "loss.json").write_text(json.dumps({"variant": "MASK_FOCAL"}))
            return ["eval-loss", "--pred", str(d / "pred.grid"), "--heatmap", str(d / "heat.grid"),
                    "--n-objects", str(BEYOND_FLOAT64), "--loss-config", str(d / "loss.json"),
                    "--report-out", str(d / "r.json"), "--grad-out", str(d / "g.grid")]
        if case.startswith("synth"):
            gap = case == "synth --min-gap 1e200"
            return ["synth", "--seed", "1", "--width", "8" if gap else str(BEYOND_FLOAT64), "--height", "8",
                    "--n-heads", "2", "--min-gap", "1e200" if gap else "0", "--out", str(d / "s.json")]
        inputs, argv = passing_call(case.split()[0], d)
        if case == "render-gt cx":
            inputs["scene.json"]["boxes"][0]["cx"] = BEYOND_FLOAT64
        elif case == "render-gt --stride":
            argv += ["--stride", str(BEYOND_FLOAT64)]
        elif case == "fit alpha":
            inputs["loss.json"]["alpha"] = BEYOND_FLOAT64
        elif case == "interpolate point":
            inputs["points.json"]["points"][0] = [BEYOND_FLOAT64, 1]
        else:
            inputs["counts.json"]["per_image"][0]["pred"] = BEYOND_FLOAT64
        for name, obj in inputs.items():
            text = json.dumps(obj)
            if case == "eval-count 4301-digit literal":  # json.dumps cannot write it either
                text = text.replace(str(BEYOND_FLOAT64), "1" + "0" * 4300)
            (d / name).write_text(text)
        return argv

    @pytest.mark.parametrize("case, status, message", [
        ("render-gt cx", 4, "box center must be finite, got (inf, 6.0)"),
        ("fit alpha", 4, "alpha must be finite and > 0, got inf"),
        ("interpolate point", 4, "query center must be finite, got (inf, 1.0)"),
        ("eval-count pred", 4, "per_image[0]: pred - truth must fit a float64 (magnitude below 2**1024 - 2**970)"),
        ("eval-count 4301-digit literal", 2, "Exceeds the limit (4300 digits) for integer string conversion"),
        ("eval-loss --n-objects", 4, "n_objects must fit a float64 (magnitude below 2**1024 - 2**970)"),
        ("synth --width", 4, "scene dimensions must fit a float64 (magnitude below 2**1024 - 2**970)"),
        ("render-gt --stride", 4, "stride must fit a float64 (magnitude below 2**1024 - 2**970)"),
        ("synth --min-gap 1e200", 5, "could not place head 1 with min_center_gap=1e+200 on a 8x8 scene"),
    ])
    def test_fails_with_the_error_object(self, tmp_path, capsys, case, status, message):
        code, out, err = run_cli(capsys, *self.failing_argv(case, tmp_path))
        assert code == status and out == ""
        assert err.count("\n") == 1 and err.endswith("\n")
        payload = error_payload(err)
        assert payload["error"] == {2: "SCHEMA_ERROR", 4: "VALIDATION_ERROR", 5: "INFEASIBLE_PLACEMENT"}[status]
        assert message in payload["message"]

    def test_one_head_places_at_any_gap(self, tmp_path, capsys):
        out = tmp_path / "s.json"
        code, _, err = run_cli(capsys, "synth", "--seed", "1", "--width", "8", "--height", "8", "--n-heads", "1",
                               "--min-gap", "1e200", "--out", str(out))
        assert code == 0 and err == ""
        assert len(load_scene(out).boxes) == 1

    def test_counts_whose_rmse_overflows_write_no_report(self, tmp_path, capsys):
        """A squared error past the float64 range would make the RMSE inf, which JSON cannot hold."""
        counts, out = tmp_path / "counts.json", tmp_path / "report.json"
        counts.write_text(json.dumps({"per_image": [{"pred": 10**200, "truth": 0}, {"pred": 3, "truth": 4}]}))
        code, stdout, err = run_cli(capsys, "eval-count", "--counts", str(counts), "--out", str(out))
        assert code == 4 and stdout == ""
        assert error_payload(err) == {
            "error": "VALIDATION_ERROR",
            "message": "the count errors' mean square overflows float64: the RMSE is not finite",
        }
        assert not out.exists()

    def test_synth_far_beyond_the_square_range_places_without_warning(self, tmp_path, capsys):
        """Offsets near 10**300 square past the float64 range; the gap test takes them as far apart."""
        out = tmp_path / "s.json"
        code, _, err = run_cli(capsys, "synth", "--seed", "1", "--width", str(10**300), "--height", "8",
                               "--n-heads", "3", "--out", str(out))
        assert code == 0 and err == ""
        assert len(load_scene(out).boxes) == 3

    @settings(derandomize=True, database=None, deadline=None, max_examples=150)
    @given(data=st.data())
    def test_any_integer_in_a_number_slot_gives_a_status(self, tmp_path_factory, data):
        """Beyond 64, a scene side draws only magnitudes past 10**19, which no grid can address, so
        a render rejects it before allocating; in between it would allocate up to gigabytes."""
        d = tmp_path_factory.mktemp("slot")
        inputs, argv = passing_call(data.draw(st.sampled_from(["render-gt", "fit", "interpolate", "eval-count"])), d)
        name = data.draw(st.sampled_from(sorted(inputs)))
        *parents, key = data.draw(st.sampled_from(number_slots(inputs[name])))
        if key in ("width", "height"):
            value = data.draw(st.integers(-BEYOND_FLOAT64, 64) | st.integers(10**19, BEYOND_FLOAT64))
        else:
            value = data.draw(st.integers(-BEYOND_FLOAT64, BEYOND_FLOAT64))
        obj = inputs[name]
        for part in parents:
            obj = obj[part]
        obj[key] = value
        for file_name, obj in inputs.items():
            (d / file_name).write_text(json.dumps(obj))
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        if code == 0:
            assert err.getvalue() == ""
        else:
            assert code in _EXIT_CODES.values()
            assert err.getvalue().count("\n") == 1
            assert _EXIT_CODES[error_payload(err.getvalue())["error"]] == code


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

    NEAR_ANCHORS = [{"cx": 2.0, "cy": 2.0, "w": 4.0, "h": 4.0}, {"cx": 6.0, "cy": 6.0, "w": 8.0, "h": 8.0}]

    def _interpolate(self, capsys, tmp_path, name, anchors, points, width):
        (tmp_path / f"{name}_anchors.json").write_text(json.dumps({"anchors": anchors}))
        (tmp_path / f"{name}_points.json").write_text(json.dumps({"points": points}))
        out = tmp_path / f"{name}_scene.json"
        code, stdout, err = run_cli(
            capsys, "interpolate", "--anchors", str(tmp_path / f"{name}_anchors.json"),
            "--points", str(tmp_path / f"{name}_points.json"), "--width", str(width), "--height", "10", "--out", str(out),
        )
        assert stdout == ""
        return code, err, out

    @pytest.mark.parametrize("case", ["second-nearest anchor", "unused anchor"])
    def test_an_anchor_distance_beyond_float64(self, tmp_path, capsys, case):
        """A distance past float64 is inf: an error when ``t`` divides by it, else only a last rank."""
        if case == "second-nearest anchor":
            anchors = [{"cx": 1.7e308, "cy": 0.0, "w": 4.0, "h": 4.0}, {"cx": 0.0, "cy": 0.0, "w": 8.0, "h": 8.0}]
            code, err, out = self._interpolate(capsys, tmp_path, "far", anchors, [[-1.7e308, 0.0]], 10)
            assert code == 4 and not out.exists()
            assert error_payload(err) == {
                "error": "VALIDATION_ERROR",
                "message": "query center (-1.7e+308, 0.0): the distance to its second-nearest anchor overflows float64",
            }
        else:
            far = {"cx": -1.7e308, "cy": 0.0, "w": 3.0, "h": 3.0}
            points = [[3.0, 4.0], [1e307, 4.0]]  # the second point's offset from the far anchor overflows
            code, err, out = self._interpolate(capsys, tmp_path, "far", [*self.NEAR_ANCHORS, far], points, 10**308)
            assert code == 0 and err == ""
            assert self._interpolate(capsys, tmp_path, "near", self.NEAR_ANCHORS, points, 10**308)[:2] == (0, "")
            assert out.read_bytes() == (tmp_path / "near_scene.json").read_bytes()


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

    @pytest.mark.parametrize("command,loss,message,grids", [
        ("fit", POLY1, "loss gradient became non-finite at step 1", None),
        ("eval-loss", POLY1, "loss gradient is non-finite", None),
        ("eval-loss", {"variant": "HEATMAP_FOCAL", "alpha": 1e300}, "float32 range of the grid format", None),
        # every term is finite, but their sum overflows float64
        ("eval-loss", {"variant": "POLY1_PIXELWISE", "gamma": 0.0, "eps1": 1e308}, SUM_OVERFLOW, None),
        # every pixel sits on the clamp, so the gradient is 0, but 1600 terms of about -1e306 overflow their sum
        ("eval-loss", {"variant": "POLY1_PIXELWISE", "eps1": 1e306, "gamma": 0.0}, SUM_OVERFLOW,
         (np.ones((40, 40)), np.zeros((40, 40)))),
    ], ids=["fit", "eval-loss", "eval-loss-float32", "eval-loss-sum", "eval-loss-sum-zero-gradient"])
    def test_validation_error_without_runtime_warning(self, tmp_path, command, loss, message, grids):
        ann = tmp_path / "scene.json"
        scene = write_scene(ann, width=16, height=16, boxes=((5.0, 5.0, 6.0, 6.0),))
        cfg = tmp_path / "loss.json"
        cfg.write_text(json.dumps(loss))
        if command == "fit":
            argv = ["fit", "--annotation", str(ann), "--loss-config", str(cfg),
                    "--steps", "5", "--learning-rate", "1", "--seed", "1"]
        else:
            heat, pred = tmp_path / "heat.grid", tmp_path / "pred.grid"
            pred_values, heat_values = grids or (
                np.full((16, 16), 0.5), render_heatmap(scene, SigmaParams(eta=1.0, eps_sigma=3.0)).values
            )
            write_grid(Grid(heat_values), heat)
            write_grid(Grid(pred_values), pred)
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

    def test_loss_with_grad_raises_the_sum_overflow(self):
        """Every pixel sits on the clamp, so the gradient is 0, but 1600 terms of about 1e306 overflow their
        sum.  The value-only batched_loss_values returns the overflowed value for its caller to judge."""
        pred, gt = Grid(np.ones((40, 40))), GroundTruthBundle(Grid(np.zeros((40, 40))), 1)
        cfg = LossConfig(LossVariant.POLY1_PIXELWISE, eps1=1e306, gamma=0.0)
        with pytest.raises(ValidationError, match=f"^{re.escape(SUM_OVERFLOW)}$"):
            loss_with_grad(pred, gt, cfg)
        assert batched_loss_values(pred.values[None], gt, cfg).tolist() == [math.inf]

    @pytest.mark.parametrize("loss,pred", [
        # q^gamma underflows to 0 while gamma ln(1 - q) overflows to -inf at the background 0.9
        ({"variant": "HEATMAP_FOCAL", "gamma": 1e308}, [[0.9999, 0.9]]),
        # FOCAL_SCALAR has neither alpha nor eps1
        ({"variant": "FOCAL_SCALAR", "gamma": 1e308}, [[0.9999, 0.9]]),
        # 1 - clamp rounds to 1, so a background prediction of 1 stays 1 after the clamp
        ({"variant": "ALPHA_FOCAL", "clamp": 1e-300}, [[0.5, 1.0]]),
    ], ids=["gamma", "gamma-focal-scalar", "clamp"])
    def test_non_finite_gradient_message_names_gamma_and_clamp(self, tmp_path, capsys, loss, pred):
        heat_values = np.array([[1.0, 0.0]])
        with pytest.raises(ValidationError) as caught:
            loss_with_grad(Grid(np.array(pred)), GroundTruthBundle(Grid(heat_values), 1), LossConfig(**loss))
        heat, pred_path, cfg = tmp_path / "heat.grid", tmp_path / "pred.grid", tmp_path / "loss.json"
        write_grid(Grid(heat_values), heat)
        write_grid(Grid(np.array(pred)), pred_path)
        cfg.write_text(json.dumps(loss))
        code, out, err = run_cli(
            capsys, "eval-loss", "--pred", str(pred_path), "--heatmap", str(heat),
            "--n-objects", "1", "--loss-config", str(cfg),
            "--report-out", str(tmp_path / "r.json"), "--grad-out", str(tmp_path / "g.grid"),
        )
        payload = error_payload(err)
        assert code == 4 and out == "" and payload["error"] == "VALIDATION_ERROR"
        for message in (str(caught.value), payload["message"]):
            assert message.startswith("loss gradient is non-finite")
            assert "gamma" in message and "clamp is at or below 2**-54" in message
        assert not (tmp_path / "r.json").exists() and not (tmp_path / "g.grid").exists()


class TestOversizedGrid:
    """A grid whose float64 values numpy cannot address is a VALIDATION_ERROR naming its size.

    Only 10**10 x 10**10 is tried: it is rejected before anything is allocated."""

    SIDE = 10**10
    MESSAGE = f"a {SIDE}x{SIDE} grid is too large: numpy cannot address its float64 values"

    def _scene(self, tmp_path):
        write_scene(tmp_path / "scene.json", width=self.SIDE, height=self.SIDE, boxes=((5.0, 5.0, 6.0, 6.0),))
        return str(tmp_path / "scene.json")

    def _fails(self, capsys, *argv):
        code, out, err = run_cli(capsys, *argv)
        assert code == 4 and out == ""
        assert error_payload(err) == {"error": "VALIDATION_ERROR", "message": self.MESSAGE}

    def test_render_gt(self, tmp_path, capsys):
        self._fails(capsys, "render-gt", "--annotation", self._scene(tmp_path),
                    "--heatmap-out", str(tmp_path / "h.grid"), "--mask-out", str(tmp_path / "m.grid"))
        assert list(tmp_path.iterdir()) == [tmp_path / "scene.json"]

    @pytest.mark.parametrize("variant", ["FOCAL_SCALAR", "ALPHA_FOCAL"])
    def test_fit_and_experiment(self, tmp_path, capsys, variant):
        scene = self._scene(tmp_path)
        loss = tmp_path / "loss.json"
        loss.write_text(json.dumps({"variant": variant}))
        self._fails(capsys, "fit", "--annotation", scene, "--loss-config", str(loss),
                    "--steps", "1", "--learning-rate", "1", "--seed", "1")
        config = tmp_path / "exp.json"
        config.write_text(json.dumps({
            "scenes": [{"file": "scene.json"}],
            "variants": [{"variant": variant}],
            "sigma": {"eta": 1.0, "eps_sigma": 3.0},
            "fit": {"steps": 1, "learning_rate": 1.0},
        }))
        self._fails(capsys, "experiment", "--config", str(config), "--seed", "1", "--out", str(tmp_path / "r.json"))
        assert not (tmp_path / "r.json").exists()

    def test_grad_check(self, capsys):
        self._fails(capsys, "grad-check", "--variant", "MASK_FOCAL", "--size", str(self.SIDE), "--seed", "1")


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
    result = run_python("-c", probe)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"


def test_counting_and_fitting_load_no_numpy_ma(tmp_path):
    """A value-only ``np.unique`` or ``np.isin`` imports ``numpy.ma`` on first use,
    about 15 ms per process; no counting or fit path may make one."""
    write_scene(tmp_path / "scene.json")
    (tmp_path / "loss.json").write_text(json.dumps({"variant": "MASK_FOCAL"}))
    values = np.zeros((8, 8))
    values[1, 1:4] = values[5:7, 5] = 0.8  # two tied plateaus
    write_grid(Grid(values), tmp_path / "tied.grid")
    probe = (
        "import sys\n"
        "from heatloss import count_image, extract_peaks, read_grid\n"
        "from heatloss.cli import main\n"
        f"grid = read_grid({str(tmp_path / 'tied.grid')!r})\n"
        "assert count_image(grid) == len(extract_peaks(grid)) == 2\n"
        f"assert main(['fit', '--annotation', {str(tmp_path / 'scene.json')!r}, '--loss-config', "
        f"{str(tmp_path / 'loss.json')!r}, '--steps', '20', '--learning-rate', '0.5', '--seed', '1']) == 0\n"
        f"assert main(['peaks', '--heatmap', {str(tmp_path / 'tied.grid')!r}, '--out', "
        f"{str(tmp_path / 'peaks.json')!r}]) == 0\n"
        "sys.stderr.write(str('numpy.ma' in sys.modules))\n"
    )
    result = run_python("-c", probe)
    assert result.returncode == 0, result.stderr
    assert result.stderr == "False"


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

    def test_eval_count_rejects_a_negative_count(self, tmp_path, capsys):
        counts = tmp_path / "counts.json"
        counts.write_text(json.dumps({"per_image": [{"pred": 1, "truth": 1}, {"pred": -3, "truth": 2}]}))
        out = tmp_path / "report.json"
        code, stdout, err = run_cli(capsys, "eval-count", "--counts", str(counts), "--out", str(out))
        assert code == 4 and stdout == "" and not out.exists()
        assert error_payload(err) == {
            "error": "VALIDATION_ERROR", "message": "per_image[1]: counts must be >= 0, got pred -3, truth 2",
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

    def test_fit_rejects_a_misspelled_loss_key(self, tmp_path, capsys):
        ann, cfg = tmp_path / "scene.json", tmp_path / "loss.json"
        write_scene(ann)
        cfg.write_text(json.dumps({"variant": "MASK_FOCAL", "gama": 9.0, "beta": 0.5}))
        code, out, err = run_cli(capsys, "fit", "--annotation", str(ann), "--loss-config", str(cfg),
                                 "--steps", "2", "--learning-rate", "0.5", "--seed", "1")
        assert code == 2 and out == ""
        payload = error_payload(err)
        assert payload["error"] == "SCHEMA_ERROR" and f"{cfg}: unknown key 'gama'" in payload["message"]

    def test_fit_reads_the_loss_config_before_the_fit_settings(self, tmp_path, capsys):
        """With both the loss config and ``--steps`` bad, the loss config's error comes first."""
        ann, cfg = tmp_path / "scene.json", tmp_path / "loss.json"
        write_scene(ann)
        cfg.write_text(json.dumps({"variant": "MASK_FOCAL", "gama": 9.0}))
        code, out, err = run_cli(capsys, "fit", "--annotation", str(ann), "--loss-config", str(cfg),
                                 "--steps", "0", "--learning-rate", "0.5", "--seed", "1")
        assert code == 2 and out == ""
        payload = error_payload(err)
        assert payload["error"] == "SCHEMA_ERROR" and f"{cfg}: unknown key 'gama'" in payload["message"]

    @pytest.mark.parametrize("section, key", [
        ("sigma", "etaa"), ("fit", "recordevery"), ("variant", "gama"), ("top level", "seed"), ("scene file", "note"),
    ])
    def test_experiment_rejects_a_misspelled_key(self, tmp_path, capsys, section, key):
        write_scene(tmp_path / "s.json")
        config = tmp_path / "exp.json"
        obj = {
            "scenes": [
                {"width": 16, "height": 16, "boxes": [{"cx": 8.0, "cy": 8.0, "w": 5.0, "h": 5.0}]},
                {"file": "s.json"},
            ],
            "variants": [{"variant": "MASK_FOCAL"}],
            "sigma": {"eta": 1.0, "eps_sigma": 3.0},
            "fit": {"steps": 2, "learning_rate": 0.5},
        }
        parts = {"sigma": obj["sigma"], "fit": obj["fit"], "variant": obj["variants"][0], "top level": obj,
                 "scene file": obj["scenes"][1]}
        parts[section][key] = 5
        config.write_text(json.dumps(obj))
        code, out, err = run_cli(capsys, "experiment", "--config", str(config), "--seed", "1",
                                 "--out", str(tmp_path / "r.json"))
        assert code == 2 and out == "" and not (tmp_path / "r.json").exists()
        payload = error_payload(err)
        assert payload["error"] == "SCHEMA_ERROR" and f": unknown key '{key}'" in payload["message"]

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


def pick(obj, *keys):
    """``obj``'s ``keys`` in the order given; a missing key is a KeyError."""
    return {key: obj[key] for key in keys}


def count_report_layout(report):
    return {**pick(report, "m", "mae", "rmse"), "per_image": [pick(p, "pred", "truth") for p in report["per_image"]]}


class TestJsonLayout:
    """Every JSON output, byte for byte: indented by two spaces, one final newline, keys in README's order.

    Each expected object is rebuilt from the run's own values, so a test pins the layout and the key
    order of its output, not values that may differ across machines.
    """

    @staticmethod
    def assert_layout(text, layout):
        assert text == json.dumps(layout(json.loads(text)), indent=2) + "\n"

    @staticmethod
    def scene_layout(scene):
        return {**pick(scene, "width", "height"), "boxes": [pick(b, "cx", "cy", "w", "h") for b in scene["boxes"]]}

    def test_synth_scene(self, tmp_path, capsys):
        out = tmp_path / "scene.json"
        argv = ["synth", "--seed", "3", "--width", "32", "--height", "24", "--n-heads", "3", "--out", str(out)]
        assert run_cli(capsys, *argv) == (0, "", "")
        self.assert_layout(out.read_text(), self.scene_layout)
        assert len(json.loads(out.read_text())["boxes"]) == 3

    def test_interpolate_scene(self, tmp_path, capsys):
        (tmp_path / "anchors.json").write_text(json.dumps({"anchors": [
            {"cx": 0.0, "cy": 0.0, "w": 10.0, "h": 12.0}, {"cx": 30.0, "cy": 5.0, "w": 4.0, "h": 6.0},
        ]}))
        (tmp_path / "points.json").write_text(json.dumps({"points": [[7, 2.5], [20.25, 1]]}))
        out = tmp_path / "scene.json"
        argv = ["interpolate", "--anchors", str(tmp_path / "anchors.json"), "--points", str(tmp_path / "points.json"),
                "--width", "40", "--height", "8", "--out", str(out)]
        assert run_cli(capsys, *argv) == (0, "", "")
        self.assert_layout(out.read_text(), self.scene_layout)

    @pytest.mark.parametrize("n_objects, keys", [
        ("1", ("value", "grad_file")),
        ("0", ("value", "grad_file", "degenerate_n")),
    ], ids=["plain", "degenerate_n"])
    def test_loss_report(self, tmp_path, capsys, n_objects, keys):
        write_grid(Grid(np.array([[1.0, 0.0]])), tmp_path / "heat.grid")
        write_grid(Grid(np.array([[0.5, 0.25]])), tmp_path / "pred.grid")
        (tmp_path / "loss.json").write_text(json.dumps({"variant": "MASK_FOCAL"}))
        out = tmp_path / "report.json"
        argv = ["eval-loss", "--pred", str(tmp_path / "pred.grid"), "--heatmap", str(tmp_path / "heat.grid"),
                "--n-objects", n_objects, "--loss-config", str(tmp_path / "loss.json"), "--report-out", str(out),
                "--grad-out", str(tmp_path / "grad.grid")]
        assert run_cli(capsys, *argv) == (0, "", "")
        self.assert_layout(out.read_text(), lambda report: pick(report, *keys))

    @pytest.mark.parametrize("n_peaks", [0, 2])
    def test_peaks(self, tmp_path, capsys, n_peaks):
        values = np.zeros((6, 8))
        values[1, 2], values[4, 6] = (0.875, 0.5) if n_peaks else (0.0, 0.0)
        write_grid(Grid(values), tmp_path / "heat.grid")
        out = tmp_path / "peaks.json"
        assert run_cli(capsys, "peaks", "--heatmap", str(tmp_path / "heat.grid"), "--out", str(out)) == (0, "", "")
        self.assert_layout(out.read_text(), lambda obj: {"peaks": [pick(p, "x", "y", "score") for p in obj["peaks"]]})
        assert len(json.loads(out.read_text())["peaks"]) == n_peaks

    def test_count_report(self, tmp_path, capsys):
        (tmp_path / "counts.json").write_text(json.dumps({"per_image": [{"truth": 4, "pred": 3}, {"pred": 9, "truth": 4}]}))
        out = tmp_path / "report.json"
        assert run_cli(capsys, "eval-count", "--counts", str(tmp_path / "counts.json"), "--out", str(out)) == (0, "", "")
        self.assert_layout(out.read_text(), count_report_layout)

    def test_experiment_report(self, tmp_path, capsys):
        (tmp_path / "exp.json").write_text(json.dumps({
            "scenes": [{"width": 16, "height": 12, "boxes": [{"cx": 8.0, "cy": 6.0, "w": 5.0, "h": 5.0}]}],
            "variants": [{"gamma": 3.0, "variant": "MASK_FOCAL"}, {"variant": "FOCAL_SCALAR"}],
            "sigma": {"eta": 1.0, "eps_sigma": 3.0},
            "fit": {"steps": 3, "learning_rate": 0.5},
        }))
        out = tmp_path / "report.json"
        argv = ["experiment", "--config", str(tmp_path / "exp.json"), "--seed", "1", "--out", str(out)]
        assert run_cli(capsys, *argv) == (0, "", "")
        self.assert_layout(out.read_text(), lambda entries: [
            {"variant": pick(e["variant"], "variant", "alpha", "beta", "gamma", "eps1", "clamp"),
             "report": count_report_layout(e["report"])}
            for e in entries
        ])

    def test_fit_stdout(self, tmp_path, capsys):
        write_scene(tmp_path / "scene.json", width=12, height=10, boxes=((6.0, 5.0, 4.0, 4.0),))
        (tmp_path / "loss.json").write_text(json.dumps({"variant": "HEATMAP_FOCAL"}))
        code, out, err = run_cli(
            capsys, "fit", "--annotation", str(tmp_path / "scene.json"), "--loss-config", str(tmp_path / "loss.json"),
            "--steps", "3", "--learning-rate", "0.5", "--seed", "1",
        )
        assert (code, err) == (0, "")
        self.assert_layout(out, lambda summary: pick(summary, "final_count", "gt_count", "initial_loss", "final_loss"))

    def test_grad_check_stdout(self, capsys):
        code, out, err = run_cli(capsys, "grad-check", "--variant", "POLY1_PIXELWISE", "--size", "4",
                                 "--instances", "2", "--seed", "1")
        assert (code, err) == (0, "")
        self.assert_layout(out, lambda check: pick(
            check, "variant", "instances", "size", "max_relative_deviation", "tolerance", "pass"))
