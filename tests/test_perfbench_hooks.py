"""The benchmark's tracer wraps heatloss functions by name and reads their arguments by position.

``perfbench/tracing.py`` replaces ``heatloss.cli.fit_direct`` and others with
wrappers that read, say, the ``FitConfig`` as ``fit_direct``'s third
positional argument.  A renamed function or a moved argument breaks the
traced benchmark run; these tests run the traced CLI in process, so the
test suite sees it too.  Nothing under ``perfbench/`` is changed.
"""

import json
from pathlib import Path

import pytest

from heatloss.cli import main

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture
def tracing(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing

    return tracing


def test_traced_fit_and_experiment(tracing, tmp_path, capsys):
    scene = {"width": 16, "height": 16, "boxes": [{"cx": 5.0, "cy": 6.0, "w": 5.0, "h": 5.0}]}
    (tmp_path / "scene.json").write_text(json.dumps(scene))
    (tmp_path / "loss.json").write_text(json.dumps({"variant": "MASK_FOCAL"}))
    (tmp_path / "experiment.json").write_text(json.dumps({
        "scenes": [{"file": "scene.json"}],
        "variants": [{"variant": "MASK_FOCAL"}, {"variant": "HEATMAP_FOCAL"}],
        "sigma": {"eta": 1.0, "eps_sigma": 3.0},
        "fit": {"steps": 3, "learning_rate": 0.5},
    }))
    tracer = tracing.Tracer()
    with tracer.recording():
        fit = main([
            "fit", "--annotation", str(tmp_path / "scene.json"), "--loss-config", str(tmp_path / "loss.json"),
            "--steps", "3", "--learning-rate", "0.5", "--seed", "1",
        ])
        experiment = main([
            "experiment", "--config", str(tmp_path / "experiment.json"), "--seed", "1",
            "--out", str(tmp_path / "report.json"),
        ])
    assert capsys.readouterr().err == ""
    assert (fit, experiment) == (0, 0)
    fits = [span for span in tracer.passes[-1] if span.name == "synth.fit_direct"]
    assert [span.info["px_steps"] for span in fits] == [16 * 16 * 3]
    assert tracer.metrics()["synth.fit_direct.calls"] == 1
