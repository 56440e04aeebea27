"""Tests of the benchmark itself. Run from the repository root:

    python3 -m pytest -q perfbench/test_perfbench.py
"""

import importlib
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import harness  # noqa: E402
from tracing import PROBES, Probe, Tracer, self_times  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def test_self_time_of_nested_spans():
    spans = [
        ("root", 0.0, 10.0, -1),
        ("a", 1.0, 4.0, 0),
        ("b", 2.0, 3.0, 1),
        ("a", 5.0, 9.0, 0),
        ("b", 6.0, 8.5, 3),
    ]
    st = self_times(spans)
    assert st["root"].self_s == pytest.approx(10.0 - 3.0 - 4.0)
    assert st["a"].calls == 2
    assert st["a"].total_s == pytest.approx(7.0)
    assert st["a"].self_s == pytest.approx((3.0 - 1.0) + (4.0 - 2.5))
    assert st["b"].self_s == pytest.approx(3.5)


def test_tracer_nesting_and_caller_label():
    ticks = iter(range(100))
    tracer = Tracer(clock=lambda: float(next(ticks)))
    with tracer.span("cli.eval"):  # t 0..5
        with tracer.span("training.eval"):  # t 1..4
            assert tracer.caller() == "eval"
            with tracer.span("lstm.forward.eval"):  # t 2..3
                pass
    assert tracer.caller() == "train"
    st = tracer.stats()
    assert st["cli.eval"].self_s == pytest.approx(5 - 3)
    assert st["training.eval"].self_s == pytest.approx(3 - 1)
    assert st["lstm.forward.eval"].self_s == pytest.approx(1)


def test_generator_probe_times_each_item():
    def gen(n):
        yield from range(n)

    module = type(sys)("fake_module")
    module.gen = gen
    sys.modules["fake_module"] = module
    try:
        tracer = Tracer()
        seen = []
        probe = Probe("fake_module", "gen", "g", lambda t, item, a, k, name: seen.append(item),
                      generator=True)
        with tracer.installed([probe]):
            assert list(module.gen(3)) == [0, 1, 2]
        assert module.gen is gen
        assert seen == [0, 1, 2]
        assert tracer.stats()["g"].calls == 4  # three items and the final StopIteration
    finally:
        del sys.modules["fake_module"]


def _bindings():
    return {(p.module, p.attr): getattr(importlib.import_module(p.module), p.attr)
            for p in PROBES}


def test_probes_restored_after_traced_run():
    before = _bindings()
    result = harness.run_workload("student_matrix", 5, 0.1, True, "tiny", ROOT, 0.0)
    assert result["failed"] == 0
    assert result["metrics"]["lstm.backward.calls"]["value"] > 0
    after = _bindings()
    assert all(after[key] is before[key] for key in before)


def test_probes_restored_after_error():
    before = _bindings()
    with pytest.raises(RuntimeError):
        with Tracer().installed(PROBES):
            assert all(_bindings()[key] is not before[key] for key in before)
            raise RuntimeError("boom")
    assert all(_bindings()[key] is before[key] for key in before)


def _run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_tiny_smoke_run_emits_every_metric(workload, trace):
    proc = _run(ROOT, "--workload", workload, "--seed", "2", "--seconds", "0.2",
                "--trace", str(trace), "--scale", "tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {k: m["unit"] for k, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared}
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_benchmark_json_names_known_workloads():
    assert {w["name"] for w in BENCHMARK["workloads"]} <= set(WORKLOADS)
    assert BENCHMARK["paths"] == ["perfbench"]


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = _run(tmp_path, "--workload", "teacher_export", "--seed", "1", "--seconds", "1",
                "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
