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
