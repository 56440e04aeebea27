"""Run one workload through ``kdtrain.cli.main`` and measure it.

A run sets up the workload's output directory several times (the median
is ``setup_s``), then repeats whole passes of CLI calls until the time
budget is spent. Each CLI call is one operation; it fails on a non-zero
exit code or a failed output check. End-to-end rates are totals over
the passes. A traced run instead sets up once, alternates untraced and
traced passes, and reports per-module metrics and the tracing overhead.
"""

import contextlib
import ctypes
import hashlib
import io
import json
import os
import platform
import re
import resource
import shutil
import statistics
import time
from pathlib import Path

import yaml

from tracing import PROBES, Tracer, module_metrics
from workloads import FRESH_STUDENT, WORKLOADS, Call, student_stem

SETUP_REPEATS = 3
_HERE = Path(__file__).resolve().parent
_ACCURACY_LINE = re.compile(r"frame accuracy on \w+: ([0-9.]+)")


# ---------------------------------------------------------------------------
# Environment and identity


def _blas_threads():
    """Thread count reported by the OpenBLAS library numpy loaded."""
    try:
        with open("/proc/self/maps") as maps:
            libs = {line.split()[-1] for line in maps if "openblas" in line and ".so" in line}
    except OSError:
        return None
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": _blas_threads(),
        "blas_threads_env": os.environ.get("OPENBLAS_NUM_THREADS"),
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
    }


def git_commit(root: Path):
    """HEAD commit read from .git, or None outside a git checkout."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest(root: Path) -> str:
    h = hashlib.sha256()
    for path in sorted((root / "src" / "kdtrain").rglob("*.py")):
        h.update(path.relative_to(root).as_posix().encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


# ---------------------------------------------------------------------------
# One workload instance: a config and an output directory


class Run:
    def __init__(self, workload, seed: int, scale: str, out: Path, references: dict):
        self.w = workload
        self.seed = seed
        self.cfg = workload.config(seed, scale)
        self.out = out
        self.references = references
        self.known_hashes: dict[str, str] = {}
        self.observed: dict[str, float] = {}
        self.failures: list[str] = []
        self.attempted = 0
        self.failed = 0
        self.frames: dict[str, int] = {}

    # -- configuration ------------------------------------------------------

    def write_config(self) -> Path:
        self.out.mkdir(parents=True, exist_ok=True)
        path = self.out.parent / f"{self.out.name}.yaml"
        path.write_text(yaml.safe_dump(self.cfg, sort_keys=True))
        return path

    @property
    def temperatures(self) -> list[float]:
        return [float(t) for t in self.cfg["experiment"]["temperatures"]]

    def _split_frames(self, split: str) -> int:
        if split not in self.frames:
            manifest = (self.out / f"manifest_{split}.txt").read_text().split()
            self.frames[split] = sum(int(c) for c in manifest[2::3])
        return self.frames[split]

    # -- one CLI call ---------------------------------------------------------

    def call(self, call: Call, config: Path, tracer=None):
        """Run one subcommand and check its outputs; return (seconds, frames)."""
        from kdtrain.cli import main

        argv = [a.format(out=self.out, seed=self.seed) for a in call.argv]
        buf = io.StringIO()
        index = tracer.enter(f"cli.{argv[0]}") if tracer else None
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
                code = main(["--config", str(config), "--out", str(self.out), *argv])
        finally:
            seconds = time.perf_counter() - start
            if tracer:
                tracer.exit(index)
        self.attempted += 1
        problems = [f"exit code {code}: {buf.getvalue().strip()[-300:]}"] if code else []
        frames = 0
        if not problems:
            try:
                frames = self._check(argv, buf.getvalue(), problems)
            except Exception as exc:  # a check that cannot run is a failed check
                problems.append(f"check raised {type(exc).__name__}: {exc}")
        self._record(" ".join(argv), problems)
        return seconds, frames

    def _record(self, operation: str, problems) -> None:
        self.failed += bool(problems)
        self.failures.extend(f"{operation}: {p}" for p in problems)

    # -- output checks --------------------------------------------------------

    def _same_bytes(self, names, problems):
        for name in names:
            digest = _sha256(self.out / name)
            first = self.known_hashes.setdefault(name, digest)
            if digest != first:
                problems.append(f"{name} differs from an earlier run of the same seed")

    def _band(self, key: str, value: float, problems):
        self.observed[key] = value
        if not self.references:  # tiny scale has no reference values
            return
        ref = self.references.get(key)
        if ref is None:
            problems.append(f"no reference value for {key}")
        elif abs(value - ref[0]) > ref[1]:
            problems.append(f"{key} = {value:.4f}, reference {ref[0]} +- {ref[1]}")

    def _check_record(self, stem: str, expected_epochs: int, problems):
        from kdtrain.formats import read_run_record

        rec = read_run_record(self.out / f"{stem}.runrec")
        if len(rec.epochs) != expected_epochs:
            problems.append(f"{stem} ran {len(rec.epochs)} epochs, expected {expected_epochs}")
        self._band(f"{stem.rsplit('_s', 1)[0]}.test_fa", rec.test_accuracy, problems)
        self._same_bytes([f"{stem}.dkdm", f"{stem}.runrec"], problems)
        return len(rec.epochs)

    def _check(self, argv, stdout: str, problems) -> int:
        """Check the outputs of one call; return the frames it processed."""
        cmd = argv[0]
        train = self.cfg["train"]
        if cmd == "generate-data":
            self._same_bytes([f"dataset_{s}.dkds" for s in ("train", "cv", "test")], problems)
            return 0
        if cmd == "train-teacher":
            epochs = self._check_record(f"teacher_s{self.seed}",
                                        self.cfg["teacher"]["max_epochs"], problems)
            return epochs * self._split_frames("train")
        if cmd == "train-student":
            regime = argv[argv.index("--regime") + 1]
            expected = train["max_epochs"]
            if regime == "pretrain":
                expected += train["pretrain_switch_epoch"]
            epochs = self._check_record(student_stem(regime, self.seed), expected, problems)
            return epochs * self._split_frames("train")
        if cmd == "export-soft":
            temperatures = self.temperatures
            if "--temperature" in argv:
                temperatures = [float(argv[argv.index("--temperature") + 1])]
            return self._check_export(temperatures, problems)
        if cmd == "eval":
            return self._check_eval(argv, stdout, problems)
        if cmd == "variance-report":
            return self._check_variance(problems)
        raise ValueError(f"no output check for {cmd}")

    def _check_export(self, temperatures, problems) -> int:
        from kdtrain.datasets import validate_soft_targets
        from kdtrain.formats import read_dataset, read_soft_targets

        train = read_dataset(self.out / "dataset_train.dkds")
        names = [f"soft_T{t:g}_s{self.seed}.dkst" for t in temperatures]
        for t, name in zip(temperatures, names):
            soft = read_soft_targets(self.out / name)
            if soft.temperature != t:
                problems.append(f"{name} records T={soft.temperature}")
            problems.extend(f"{name}: {v}" for v in validate_soft_targets(soft, train)[:3])
        self._same_bytes(names, problems)
        return len(names) * train.total_frames

    def _check_eval(self, argv, stdout: str, problems) -> int:
        from kdtrain.formats import read_run_record

        found = _ACCURACY_LINE.search(stdout)
        if not found:
            problems.append("no frame accuracy in output")
            return 0
        accuracy = float(found.group(1))
        model = Path(argv[argv.index("--model") + 1])
        record = model.with_suffix(".runrec")
        if record.exists():
            expected = read_run_record(record).test_accuracy
            if f"{expected:.4f}" != found.group(1):
                problems.append(f"eval gives {accuracy}, training recorded {expected:.4f}")
        else:
            self._band(f"{model.stem.rsplit('_s', 1)[0]}.test_fa", accuracy, problems)
        return self._split_frames("test")

    def _check_variance(self, problems) -> int:
        name = f"variance_s{self.seed}.txt"
        for line in (self.out / name).read_text().splitlines():
            if line.startswith("#"):
                continue
            targets, temperature, total, _ = line.split()
            key = "hard" if targets == "hard" else f"soft_T{temperature}"
            self._band(f"variance.{key}.total", float(total), problems)
        self._same_bytes([name], problems)
        return (1 + len(self.temperatures)) * self._split_frames("train")

    # -- set-up ---------------------------------------------------------------

    def write_fresh_student(self):
        """The untrained student that eval and variance-report read, built
        the way ``variance-report`` builds one without ``--student``."""
        from kdtrain.formats import read_dataset, write_checkpoint
        from kdtrain.lstm import init_lstm
        from kdtrain.training import derive_rng

        train = read_dataset(self.out / "dataset_train.dkds")
        s = self.cfg["student"]
        params = init_lstm(train.feature_dim, train.num_classes, layers=s["layers"],
                           cells=s["cells"], projection=s["projection"],
                           rng=derive_rng(self.seed, "init"))
        name = f"{FRESH_STUDENT.format(seed=self.seed)}.dkdm"
        write_checkpoint(self.out / name, params)
        problems = []
        self._same_bytes([name], problems)
        self.attempted += 1
        self._record(f"write {name}", problems)

    def set_up(self, tracer=None) -> float:
        """Prepare a fresh output directory; return the seconds it took."""
        shutil.rmtree(self.out, ignore_errors=True)
        start = time.perf_counter()
        config = self.write_config()
        for call in self.w.setup:
            self.call(call, config, tracer)
        if self.w.fresh_student:
            self.write_fresh_student()
        return time.perf_counter() - start

    def run_pass(self, config: Path, tracer=None) -> list[tuple[str, float, int]]:
        """One pass of the workload's calls: (stage, seconds, frames) each."""
        return [(call.stage, *self.call(call, config, tracer)) for call in self.w.passes]


# ---------------------------------------------------------------------------
# Summaries


def summary(values: list[float]) -> dict:
    """Median, quartiles and sample count."""
    if len(values) == 1:
        q1 = med = q3 = values[0]
    else:
        q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": med, "q1": q1, "q3": q3, "n": len(values)}


STAGES = ("train", "export", "eval")


def pass_metrics(passes: list[list[tuple[str, float, int]]]) -> dict[str, dict]:
    """End-to-end rates and pass time over all passes of a run.

    A rate is the frames of all the stage's calls over their summed
    seconds, so every second measured counts once: the host's slow
    spells last seconds, and a total over the whole run evens them out
    better than the median of a few passes does. Per-pass medians and
    quartiles are kept beside each value, as ``per_pass``.
    """

    def rate(calls, stage):
        seconds = sum(c[1] for c in calls if c[0] == stage)
        return sum(c[2] for c in calls if c[0] == stage) / seconds if seconds else 0.0

    every_call = [c for p in passes for c in p]
    metrics = {}
    for stage in STAGES:
        metrics[f"{stage}_frames_per_s"] = {
            "value": rate(every_call, stage), "unit": "frames/s", "n": len(passes),
            "per_pass": summary([rate(p, stage) for p in passes])}
    metrics["wall_s"] = {
        "value": sum(c[1] for c in every_call) / len(passes), "unit": "s", "n": len(passes),
        "per_pass": summary([sum(c[1] for c in p) for p in passes])}
    return metrics


def _timed_passes(run: Run, config: Path, seconds: float) -> list[list]:
    """Whole passes while another one is expected to end within
    ``seconds`` (at least one)."""
    start = time.perf_counter()
    passes = [run.run_pass(config)]
    per_pass = time.perf_counter() - start
    while time.perf_counter() - start + per_pass <= seconds:
        passes.append(run.run_pass(config))
        per_pass = (time.perf_counter() - start) / len(passes)
    return passes


def _paired_passes(run: Run, config: Path, seconds: float, tracer: Tracer):
    """Alternate untraced and traced passes, so warm-up and host drift
    fall on both sides of the overhead ratio alike."""
    start = time.perf_counter()
    plain, traced = [], []
    while True:
        plain.append(run.run_pass(config))
        with tracer.installed(PROBES):
            traced.append(run.run_pass(config, tracer))
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / len(plain) > seconds:
            return plain, traced


def _ledger_check(run: Run, ledger: Path, key: str) -> None:
    """Compare artifact hashes with earlier runs of the same key, across
    processes; record them the first time."""
    entries = json.loads(ledger.read_text()) if ledger.exists() else {}
    earlier = entries.get(key)
    run.attempted += 1  # the cross-process check is an operation of its own
    if earlier is None:
        entries[key] = run.known_hashes
        tmp = ledger.with_suffix(".tmp")
        tmp.write_text(json.dumps(entries, indent=1, sort_keys=True))
        os.replace(tmp, ledger)
        return
    run._record("rerun identity", [
        f"{name} differs from an earlier process with the same seed"
        for name, digest in sorted(run.known_hashes.items())
        if earlier.get(name, digest) != digest
    ])


def run_workload(name: str, seed: int, seconds: float, trace: bool, scale: str,
                 root: Path, startup_s: float) -> dict:
    workload = WORKLOADS[name]
    work = root / ".perfbench_out" / scale / name
    work.mkdir(parents=True, exist_ok=True)
    references = {}
    if scale == "desk":
        references = json.loads((_HERE / "references.json").read_text())[name]
    run = Run(workload, seed, scale, work / f"seed{seed}", references)

    metrics: dict[str, dict] = {}
    if not trace:
        setups = [run.set_up() for _ in range(SETUP_REPEATS)]
        config = run.write_config()
        passes = _timed_passes(run, config, seconds)
        metrics.update(pass_metrics(passes))
        metrics["setup_s"] = {
            "value": startup_s + statistics.median(setups), "unit": "s", "n": len(setups),
            "startup_s": startup_s, "set_up": summary(setups)}
        metrics["peak_rss_mb"] = {
            "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "unit": "MB"}
    else:
        tracer = Tracer()
        with tracer.installed(PROBES):
            run.set_up(tracer)
        generate = tracer.stats().get("datasets.generate_synth")
        tracer.reset()
        config = run.write_config()
        plain, traced = _paired_passes(run, config, seconds, tracer)
        for key, (value, unit) in module_metrics(tracer, len(traced)).items():
            metrics[key] = {"value": value, "unit": unit}
        metrics["datasets.generate_synth.s"] = {
            "value": generate.total_s if generate else 0.0, "unit": "s"}
        overhead = (pass_metrics(traced)["wall_s"]["value"]
                    / pass_metrics(plain)["wall_s"]["value"])
        metrics["trace.overhead_ratio"] = {"value": overhead, "unit": "ratio",
                                           "n": len(traced), "untraced_n": len(plain)}
        passes = plain + traced

    from kdtrain.config import load_config

    identity = {
        "workload": name,
        "seed": seed,
        "scale": scale,
        "seconds": seconds,
        "trace": trace,
        "passes": len(passes),
        "config_digest": load_config(str(config)).digest(),
        "git_commit": git_commit(root),
        "src_digest": source_digest(root),
    }
    _ledger_check(run, work / "ledger.json",
                  f"{seed}:{identity['config_digest']}:{identity['src_digest']}")
    return {
        "identity": identity,
        "environment": environment(),
        "metrics": metrics,
        "attempted": run.attempted,
        "failed": run.failed,
        "failures": run.failures[:20],
        "observed": run.observed,
    }
