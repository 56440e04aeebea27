"""Every function binding the benchmark's tracer wraps exists in kdtrain,
so renaming one fails here and not only in a benchmark run."""

import importlib
import importlib.util
from pathlib import Path

import pytest

_TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_probes():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", _TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.PROBES


PROBES = _load_probes()


@pytest.mark.parametrize("probe", PROBES, ids=[f"{p.module}.{p.attr}" for p in PROBES])
def test_probe_target_is_a_kdtrain_callable(probe):
    assert probe.module.split(".")[0] == "kdtrain"
    assert callable(getattr(importlib.import_module(probe.module), probe.attr))


def test_every_probe_fires_in_an_every_regime_pipeline(tmp_path, monkeypatch):
    """Each probed binding is called by a tiny pipeline over every
    regime, so a call routed around its binding fails here instead of
    silently blanking its per-layer metric."""
    from test_cli import PIPELINE, run, write_config

    calls = {}
    for probe in PROBES:
        module = importlib.import_module(probe.module)
        key = f"{probe.module}.{probe.attr}"
        calls[key] = 0

        def counting(*args, _fn=getattr(module, probe.attr), _key=key, **kwargs):
            calls[_key] += 1
            return _fn(*args, **kwargs)

        monkeypatch.setattr(module, probe.attr, counting)
    config = write_config(tmp_path / "tiny.yaml")
    out = tmp_path / "out"
    for argv in PIPELINE:
        assert run(config, out, *argv) == 0, argv
    assert run(config, out, "eval", "--model", str(out / "student_hard_s3.dkdm")) == 0
    assert len(calls) == len(PROBES) == 26
    assert [key for key, n in calls.items() if n == 0] == []
