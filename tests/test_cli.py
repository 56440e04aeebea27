"""The command line end to end at a tiny config: every subcommand, byte
identity on rerun, the Table-1 report, and exit codes 0/1/2/3."""

import hashlib
import os
import shutil
import struct
import subprocess
import sys
import threading
import time
import warnings
from pathlib import Path

import numpy as np
import pytest
import yaml
from test_training import traced_peak

from kdtrain import cli, feedforward, formats, training
from kdtrain.cli import main
from kdtrain.distill import REGIMES, SoftTargetSet, export_soft_targets
from kdtrain.feedforward import _BLOCK_ROWS, ff_forward, init_feedforward
from kdtrain.formats import (
    read_checkpoint,
    read_dataset,
    read_run_record,
    read_soft_targets,
    write_checkpoint,
    write_soft_targets,
)
from kdtrain.lstm import init_lstm

CONFIG = {
    "task": {"seed": 7, "classes": 4, "feature_dim": 5, "min_frames": 8, "max_frames": 15,
             "train_utterances": 12, "cv_utterances": 6, "test_utterances": 6},
    "teacher": {"hidden": [8], "max_epochs": 2},
    "student": {"cells": 6, "projection": 3},
    "train": {"max_epochs": 2, "streams": 3, "window": 5, "pretrain_switch_epoch": 1},
    "experiment": {"regimes": list(REGIMES), "temperatures": [2.0], "seeds": [3]},
}
PIPELINE = (
    ["generate-data"], ["train-teacher"], ["export-soft"], ["train-student"],
    ["variance-report"], ["report"],
)
BYTE_STABLE = ("*.dkds", "*.dkst", "*.dkdm", "*.runrec", "report.*", "variance_*.txt")


def write_config(path, **overrides):
    cfg = {section: dict(values) for section, values in CONFIG.items()}
    for section, values in overrides.items():
        cfg[section].update(values)
    path.write_text(yaml.safe_dump(cfg))
    return str(path)


def run(config, out, *argv):
    return main(["--config", config, "--out", str(out), *argv])


def run_pipeline(config, out):
    for argv in PIPELINE:
        assert run(config, out, *argv) == 0, argv


def digests(out):
    return {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for pattern in BYTE_STABLE
        for p in out.glob(pattern)
    }


@pytest.fixture(scope="module")
def done(tmp_path_factory):
    """(config path, output directory) of one complete pipeline run."""
    root = tmp_path_factory.mktemp("cli")
    config = write_config(root / "tiny.yaml")
    run_pipeline(config, root / "out")
    return config, root / "out"


def test_pipeline_writes_every_artifact(done, capsys):
    config, out = done
    for stem in ("student_hard_s3", "student_soft_T2_s3", "student_reg_T2_s3",
                 "student_pretrain_T2_s3", "student_logitmatch_s3", "teacher_s3"):
        assert (out / f"{stem}.dkdm").exists() and (out / f"{stem}.runrec").exists()
    assert (out / "variance_s3.txt").exists() and (out / "report.csv").exists()
    assert run(config, out, "eval", "--model", str(out / "student_hard_s3.dkdm")) == 0
    assert "frame accuracy on test:" in capsys.readouterr().out


def test_rerun_into_fresh_directory_is_byte_identical(done, tmp_path):
    config, out = done
    run_pipeline(config, tmp_path / "again")
    first = digests(out)
    assert len(first) == 19  # 3 datasets, 1 soft set, 6 models and records, 3 reports
    assert digests(tmp_path / "again") == first


def test_every_file_under_out_is_written_atomically(tmp_path, monkeypatch):
    """Every file the pipeline leaves under --out was written by
    ``write_atomic`` (temp file, then rename), and no temp file is left."""
    written = []

    def recording(path, parts, _write=formats.write_atomic):
        written.append(path.name)
        _write(path, parts)

    monkeypatch.setattr(formats, "write_atomic", recording)
    monkeypatch.setattr(cli, "write_atomic", recording)
    config = write_config(tmp_path / "tiny.yaml")
    out = tmp_path / "out"
    run_pipeline(config, out)
    assert sorted(written) == sorted(p.name for p in out.iterdir())
    assert len(written) == 23  # the 19 byte-stable files, config.digest and 3 manifests


def test_report_has_one_row_per_regime(done):
    lines = (done[1] / "report.txt").read_text().splitlines()
    rows = [(line[:14].strip(), line[15:27].strip()) for line in lines[2 : lines.index("")]]
    assert rows == [
        ("teacher", "Hard"),
        ("student", "Hard"),
        ("student", "Logits"),
        ("student-T2", "Soft"),
        ("student-T2", "Soft + Hard"),
        ("student-T2", "Soft, Hard"),
    ]


def test_variance_report_does_not_depend_on_the_student_path(done, tmp_path, monkeypatch):
    """The same student, once by absolute and once by relative path,
    into two output directories, gives byte-identical variance files."""
    config, out = done
    student = (out / "student_reg_T2_s3.dkdm").resolve()
    first, second = (shutil.copytree(out, tmp_path / name) for name in ("a", "b"))
    assert run(config, first, "variance-report", "--student", str(student)) == 0
    monkeypatch.chdir(tmp_path)
    assert run(config, second, "variance-report", "--student", os.path.relpath(student)) == 0
    text = (first / "variance_s3.txt").read_bytes()
    assert (second / "variance_s3.txt").read_bytes() == text
    digest = hashlib.sha256(student.read_bytes()).hexdigest()
    assert f"# student student_reg_T2_s3.dkdm sha256 {digest}\n".encode() in text


def test_variance_report_reads_every_soft_set_before_any_forward(tmp_path, monkeypatch):
    config = write_config(tmp_path / "two_t.yaml", experiment={"temperatures": [2.0, 5.0]})
    out = tmp_path / "out"
    for argv in (["generate-data"], ["train-teacher"], ["export-soft", "--temperature", "2"]):
        assert run(config, out, *argv) == 0

    def no_forward(*args):
        raise AssertionError("forward pass before every soft-target set was read")

    monkeypatch.setattr(training, "eval_logits", no_forward)
    assert run(config, out, "variance-report") == 2
    assert not list(out.glob("variance_s*.txt"))


def test_one_export_over_four_temperatures_equals_four_single_exports(tmp_path, capsys):
    temperatures = [1.0, 2.0, 5.0, 10.0]
    config = write_config(tmp_path / "four_t.yaml", experiment={"temperatures": temperatures})
    together, alone = tmp_path / "together", tmp_path / "alone"
    for argv in (["generate-data"], ["train-teacher"]):
        assert run(config, together, *argv) == 0
    shutil.copytree(together, alone)
    capsys.readouterr()
    assert run(config, together, "export-soft") == 0
    printed = capsys.readouterr().out
    for t in temperatures:
        assert run(config, alone, "export-soft", "--temperature", format(t, "g")) == 0
    assert capsys.readouterr().out == printed
    assert len(digests(together)) == 3 + 4 + 2  # datasets, soft sets, teacher and record
    assert digests(alone) == digests(together)


def test_export_soft_holds_one_float64_set_at_a_time(tmp_path, capsys):
    """export-soft at four temperatures writes, drops and reads back each
    float32 set before it makes the next, so its traced peak is at most
    the train split and two float64 sets' bytes: the teacher's logits,
    and one float32 set with the checks of its read-back rows; not one
    set per temperature."""
    config = write_config(
        tmp_path / "wide.yaml",
        task={"classes": 40, "feature_dim": 8, "min_frames": 30, "max_frames": 80,
              "train_utterances": 100},
        experiment={"temperatures": [1.0, 2.0, 5.0, 10.0]},
    )
    out = tmp_path / "out"
    assert run(config, out, "generate-data") == 0
    teacher = out / "random_teacher.dkdm"
    write_checkpoint(teacher, init_feedforward([8, 16, 40], np.random.default_rng(17), scale=0.5))
    train = read_dataset(out / "dataset_train.dkds")
    split = train.features.nbytes + train.labels.nbytes
    one_set = train.total_frames * 40 * 8
    code, peak = traced_peak(run, config, out, "export-soft", "--teacher", str(teacher))
    assert code == 0 and len(list(out.glob("soft_T*_s3.dkst"))) == 4
    assert peak <= split + 2 * one_set + 2**18


def test_parallel_students_equal_the_serial_run(done, tmp_path):
    config, out = done
    copy = shutil.copytree(out, tmp_path / "copy", ignore=shutil.ignore_patterns("student_*"))
    assert run(config, copy, "train-student", "--parallel", "2") == 0
    students = {n: d for n, d in digests(out).items() if n.startswith("student_")}
    assert len(students) == 10
    assert {n: d for n, d in digests(copy).items() if n.startswith("student_")} == students


def test_importing_the_cli_leaves_the_process_pool_unloaded():
    """Only --parallel above 1 imports the process pool, so a serial
    command does not pay for multiprocessing."""
    pool_modules = ("concurrent.futures.process", "multiprocessing")
    code = f"import sys, kdtrain.cli; print([m for m in {pool_modules} if m in sys.modules])"
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=60, check=True)
    assert proc.stdout == "[]\n"


def teacher_threads() -> int:
    """How many threads score a four-block teacher forward here; each
    block's first layer takes 20 ms more, so that every thread the
    forward starts gets a block."""
    idents, logistic = set(), feedforward._logistic

    def held(*args, **kwargs):
        idents.add(threading.get_ident())
        time.sleep(0.02)
        return logistic(*args, **kwargs)

    feedforward._logistic = held
    try:
        ff_forward(init_feedforward([2, 3, 2], np.random.default_rng(0)),
                   np.zeros((4 * _BLOCK_ROWS, 2)))
    finally:
        feedforward._logistic = logistic
    return len(idents)


def test_parallel_workers_score_in_one_process(done, tmp_path, monkeypatch):
    """train-student --parallel gives its pool training.score_serially as
    initializer, after which a worker scores in one process and a
    teacher on one thread; the command's own process keeps its CPUs."""
    import concurrent.futures

    pool_class = concurrent.futures.ProcessPoolExecutor
    initializers = []

    class Recording(pool_class):
        def __init__(self, *args, **kwargs):
            initializers.append(kwargs.get("initializer"))
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Recording)
    config, out = done
    copy = shutil.copytree(out, tmp_path / "copy", ignore=shutil.ignore_patterns("student_*"))
    assert run(config, copy, "train-student", "--regime", "hard", "--parallel", "2") == 0
    assert initializers == [training.score_serially]
    with pool_class(1, initializer=training.score_serially) as pool:
        assert pool.submit(training._scoring_cpus).result() == 1
        assert pool.submit(teacher_threads).result() == 1
    assert training._scoring_cpus() == min(2, len(os.sched_getaffinity(0)))
    assert teacher_threads() == training._scoring_cpus()


# Runs the command line with every LSTM score shared between three processes.
_SPLIT_CLI = ("import sys; from kdtrain import cli, training; "
              "training._scoring_cpus = lambda: 3; training._MIN_SHARE = 1; "
              "sys.exit(cli.main(sys.argv[1:]))")


def kdtrain_process(*argv):
    """Run ``_SPLIT_CLI`` with ``argv`` in a fresh interpreter whose
    standard output is a block-buffered pipe."""
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    return subprocess.run([sys.executable, "-c", _SPLIT_CLI, *argv], capture_output=True,
                          text=True, env={**env, "PYTHONPATH": src}, timeout=120)


def test_split_scores_print_each_line_once(tmp_path):
    """Children leave without flushing the parent's buffered output, so
    train-student and eval print each line once while their cv and test
    scores are shared out, and so does train-teacher, which forks none."""
    config = write_config(tmp_path / "split.yaml", task={"cv_utterances": 70,
                                                          "test_utterances": 70})
    out = tmp_path / "out"
    assert run(config, out, "generate-data") == 0
    assert len(read_dataset(out / "dataset_cv.dkds").utterances) > training._EVAL_GROUP * 2
    assert read_dataset(out / "dataset_test.dkds").total_frames > 512
    expected = {("train-teacher",): 3, ("export-soft",): 1,
                ("train-student", "--regime", "hard"): 3,
                ("eval", "--model", str(out / "student_hard_s3.dkdm")): 1}
    for argv, lines in expected.items():
        proc = kdtrain_process("--config", config, "--out", str(out), *argv)
        assert proc.returncode == 0, proc.stderr
        printed = proc.stdout.splitlines()
        assert len(printed) == len(set(printed)) == lines, printed


def test_split_score_at_default_blas_threads_equals_the_serial_one(tmp_path):
    """With the BLAS thread count left at its default, a teacher scored
    on three threads and an LSTM scored in three processes finish and
    give the logits of a serial score at one BLAS thread."""
    code = ("import sys, hashlib, numpy as np; from kdtrain import feedforward, training; "
            "from kdtrain.datasets import SynthTaskSpec, generate_synth; "
            "from kdtrain.feedforward import init_feedforward; from kdtrain.lstm import init_lstm; "
            "training._scoring_cpus = feedforward._scoring_cpus = lambda: int(sys.argv[1]); "
            "training._MIN_SHARE = 1; "
            "split = generate_synth(SynthTaskSpec(train_utterances=70), 5).train; "
            "rng = np.random.default_rng(6); "
            "models = [init_feedforward([20, 256, 256, 10], rng), "
            "          init_lstm(20, 10, layers=1, cells=64, projection=32, rng=rng)]; "
            "print([hashlib.sha256(training.eval_logits(m, split)).hexdigest() for m in models])")
    src = str(Path(cli.__file__).resolve().parents[1])
    threads = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
    default = {k: v for k, v in os.environ.items() if k not in threads}
    digests = []
    for processes, env in (("1", {**default, **dict.fromkeys(threads, "1")}), ("3", default)):
        proc = subprocess.run([sys.executable, "-c", code, processes], capture_output=True,
                              text=True, env={**env, "PYTHONPATH": src}, timeout=120)
        assert proc.returncode == 0, proc.stderr
        digests.append(proc.stdout)
    assert digests[0] == digests[1]


def test_each_split_is_read_once_per_command(done, tmp_path, monkeypatch):
    """train-student reads the three splits once for all its cells, and
    variance-report reads the train split once for all its seeds."""
    config, out = done
    copy = shutil.copytree(out, tmp_path / "copy", ignore=shutil.ignore_patterns("student_*"))
    reads = []

    def counting(path):
        reads.append(path.name)
        return read_dataset(path)

    monkeypatch.setattr(cli, "read_dataset", counting)
    assert run(config, copy, "train-student") == 0
    assert len(list(copy.glob("student_*.runrec"))) == 5
    assert sorted(reads) == ["dataset_cv.dkds", "dataset_test.dkds", "dataset_train.dkds"]
    two_seeds = write_config(tmp_path / "two.yaml", experiment={"seeds": [3, 4]})
    fresh = tmp_path / "two"
    for argv in (["generate-data"], ["train-teacher"], ["export-soft"]):
        assert run(two_seeds, fresh, *argv) == 0
    reads.clear()
    assert run(two_seeds, fresh, "variance-report") == 0
    assert reads == ["dataset_train.dkds"]
    assert len(list(fresh.glob("variance_s*.txt"))) == 2


def test_export_from_a_student_checkpoint_exits_3(done, tmp_path, capsys):
    config, out = done
    copy = shutil.copytree(out, tmp_path / "copy")
    student = copy / "student_hard_s3.dkdm"
    assert run(config, copy, "export-soft", "--teacher", str(student)) == 3
    lines = capsys.readouterr().err.splitlines()
    assert lines == [f"error: teacher checkpoint {student} does not hold a feed-forward model"]


def test_checkpoint_whose_header_disagrees_with_itself_exits_3(done, tmp_path, capsys):
    """An LSTM header with P = 4 > C = 2 and the full payload it asks for."""
    config, out = done
    bad = tmp_path / "bad.dkdm"
    n_values = 8 * 3 + 8 * 4 + 8 + 4 * 2 + 2 * 4 + 2  # w_x, w_r, bias, w_p, w_out, b_out
    bad.write_bytes(b"DKDM1" + struct.pack("<BB5I", 1, 1, 1, 3, 2, 4, 2) + bytes(8 * n_values))
    capsys.readouterr()
    assert run(config, out, "eval", "--model", str(bad)) == 3
    assert capsys.readouterr().err.splitlines() == [
        f"error: checkpoint {bad}: inconsistent header (1, 3, 2, 4, 2): "
        "projection dim 4 exceeds cell dim 2"
    ]


@pytest.mark.parametrize("argv, before, message", [
    (["train-teacher"], [], "; run generate-data first"),
    (["export-soft"], [["generate-data"]], "; run train-teacher first"),
    (["report"], [["generate-data"]], "no completed runs under"),
], ids=["train-teacher", "export-soft", "report"])
def test_a_step_before_its_inputs_exits_2(tmp_path, capsys, argv, before, message):
    config = write_config(tmp_path / "tiny.yaml")
    out = tmp_path / "out"
    for earlier in before:
        assert run(config, out, *earlier) == 0
    capsys.readouterr()
    assert run(config, out, *argv) == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ") and message in lines[0], lines


@pytest.mark.parametrize("command", ["export-soft", "train-student"])
def test_flag_temperature_named_like_a_configured_one_exits_2(done, tmp_path, capsys, command):
    """2.0000001 is named T2, as the configured 2.0 is: the two would
    share their files, so the flag is refused before anything is
    written."""
    config, out = done
    copy = shutil.copytree(out, tmp_path / "copy")
    fresh = tmp_path / "fresh"
    capsys.readouterr()
    for where in (copy, fresh):
        assert run(config, where, command, "--temperature", "2.0000001") == 2
        assert capsys.readouterr().err.splitlines() == [
            "error: --temperature 2.0000001 shares the name T2 "
            "with the configured temperature 2.0"
        ]
    assert digests(copy) == digests(out)
    assert sorted(p.name for p in copy.iterdir()) == sorted(p.name for p in out.iterdir())
    assert not fresh.exists()


def test_flag_temperature_with_a_name_of_its_own_is_used(done, tmp_path):
    config, out = done
    copy = shutil.copytree(out, tmp_path / "copy")
    assert run(config, copy, "export-soft", "--temperature", "3") == 0
    assert run(config, copy, "train-student", "--regime", "soft", "--temperature", "3") == 0
    assert read_soft_targets(copy / "soft_T3_s3.dkst").temperature == 3.0
    assert read_run_record(copy / "student_soft_T3_s3.runrec").temperature == 3.0


def test_report_does_not_call_a_trained_students_variance_fresh(done, tmp_path):
    config, out = done
    copy = shutil.copytree(out, tmp_path / "copy")
    student = copy / "student_reg_T2_s3.dkdm"
    assert run(config, copy, "variance-report", "--student", str(student)) == 0
    assert run(config, copy, "report") == 0
    text = (copy / "report.txt").read_text()
    assert "# student student_reg_T2_s3.dkdm sha256" in text and "fresh" not in text


def test_unknown_regime_exits_2(done):
    assert run(*done, "train-student", "--regime", "kaldi") == 2


def test_unknown_config_key_exits_2(done, tmp_path):
    config = write_config(tmp_path / "typo.yaml", train={"learning_rte": 0.1})
    assert run(config, tmp_path / "out", "generate-data") == 2


def test_negative_seed_exits_2_before_out_exists(done, tmp_path, capsys):
    """The rule experiment.seeds gets at load, with or without data."""
    config, out = done
    fresh = tmp_path / "out"
    capsys.readouterr()
    for where in (out, fresh):
        assert run(config, where, "--seed", "-1", "train-teacher") == 2
        assert capsys.readouterr().err.splitlines() == ["error: --seed must be at least 0, got -1"]
    assert not fresh.exists()


@pytest.mark.parametrize("value", ["0", "-3"])
def test_parallel_below_one_exits_2(done, tmp_path, capsys, value):
    config, out = done
    copy = shutil.copytree(out, tmp_path / "copy", ignore=shutil.ignore_patterns("student_*"))
    capsys.readouterr()
    assert run(config, copy, "train-student", "--parallel", value) == 2
    assert capsys.readouterr().err.splitlines() == [
        f"error: --parallel must be at least 1, got {value}"
    ]
    assert not list(copy.glob("student_*"))


def test_noise_past_float32_exits_2_and_writes_nothing(tmp_path, capsys):
    config = write_config(tmp_path / "loud.yaml", task={"noise_scale": 1e39})
    out = tmp_path / "out"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert run(config, out, "generate-data") == 2
    assert caught == []
    captured = capsys.readouterr()
    assert captured.err.splitlines() == ["error: noise_scale 1e+39 overflows float32"]
    assert captured.out == "" and not out.exists()


@pytest.mark.parametrize("command, model", [
    (["eval", "--model"], init_feedforward([5, 8, 3], np.random.default_rng(5))),
    (["eval", "--split", "cv", "--model"], init_feedforward([4, 8, 4], np.random.default_rng(5))),
    (["variance-report", "--student"],
     init_lstm(5, 3, layers=1, cells=6, projection=3, rng=np.random.default_rng(5))),
    (["variance-report", "--student"],
     init_lstm(4, 4, layers=1, cells=6, projection=3, rng=np.random.default_rng(5))),
], ids=["eval-K", "eval-D", "variance-report-K", "variance-report-D"])
def test_model_that_does_not_fit_the_split_exits_3(done, tmp_path, capsys, command, model):
    config, out = done
    path = tmp_path / "misfit.dkdm"
    write_checkpoint(path, model)
    copy = shutil.copytree(out, tmp_path / "copy")
    capsys.readouterr()
    assert run(config, copy, *command, str(path)) == 3
    captured = capsys.readouterr()
    assert captured.err.splitlines() == [
        f"error: model of D={model.input_dim}, K={model.output_dim} does not fit a split of "
        "D=5, K=4"
    ]
    assert captured.out == ""


def test_config_digest_mismatch_on_out_exits_2(done, tmp_path):
    config = write_config(tmp_path / "other.yaml", experiment={"seeds": [4]})
    assert run(config, done[1], "report") == 2


def test_truncated_dataset_exits_3(done, tmp_path):
    config, out = done
    copy = shutil.copytree(out, tmp_path / "copy")
    raw = (copy / "dataset_train.dkds").read_bytes()
    (copy / "dataset_train.dkds").write_bytes(raw[:-7])
    assert run(config, copy, "train-teacher") == 3


def test_non_finite_feature_exits_3_before_any_epoch(done, tmp_path, capsys):
    config, out = done
    copy = shutil.copytree(out, tmp_path / "copy", ignore=shutil.ignore_patterns("teacher_*"))
    path = copy / "dataset_train.dkds"
    raw = bytearray(path.read_bytes())
    raw[-4:] = struct.pack("<f", float("nan"))
    path.write_bytes(bytes(raw))
    capsys.readouterr()
    assert run(config, copy, "train-teacher") == 3
    assert "non-finite feature nan" in capsys.readouterr().err
    assert not list(copy.glob("teacher_*"))


def test_soft_targets_at_wrong_temperature_exit_3(done, tmp_path):
    config, out = done
    copy = shutil.copytree(out, tmp_path / "copy")
    shutil.copy(copy / "soft_T2_s3.dkst", copy / "soft_T1_s3.dkst")
    assert run(config, copy, "train-student", "--regime", "soft", "--temperature", "1") == 3
    assert not (copy / "student_soft_T1_s3.runrec").exists()


def test_numeric_abort_exits_1_and_keeps_last_good_epoch(tmp_path):
    config = write_config(tmp_path / "huge.yaml", train={"learning_rate": 1e308})
    out = tmp_path / "out"
    for argv in (["generate-data"], ["train-teacher"]):
        assert run(config, out, *argv) == 0
    assert run(config, out, "train-student", "--regime", "hard") == 1
    assert (out / "student_hard_s3.aborted.dkdm").exists()
    assert read_run_record(out / "student_hard_s3.aborted.runrec").epochs == []
    assert not (out / "student_hard_s3.dkdm").exists()
    # the aborted record is not a completed run, so the report leaves it out
    assert run(config, out, "report") == 0
    rows = (out / "report.csv").read_text().splitlines()[1:]
    assert [row.split(",")[:2] for row in rows] == [["teacher", "hard"]]


@pytest.mark.parametrize("case", ["cv split", "off-normalised row", "NaN entry"])
def test_misfit_soft_targets_exit_3_before_any_epoch(done, tmp_path, capsys, case):
    """A soft set exported on the cv split, one with a row that does not
    sum to 1, or one with a NaN entry, written over the train soft file."""
    config, out = done
    copy = shutil.copytree(out, tmp_path / "copy")
    for stale in copy.glob("student_soft_T2_s3.*"):
        stale.unlink()
    soft_path = copy / "soft_T2_s3.dkst"
    if case == "cv split":
        teacher = read_checkpoint(copy / "teacher_s3.dkdm")
        bad = next(export_soft_targets(teacher, read_dataset(copy / "dataset_cv.dkds"), [2.0]))
    else:
        soft = read_soft_targets(soft_path)
        rows = soft.rows.copy()
        if case == "NaN entry":
            rows[0, 1] = float("nan")
        else:
            rows[0] *= 0.5
        bad = SoftTargetSet(2.0, rows, soft.teacher_digest)
    write_soft_targets(soft_path, bad)
    capsys.readouterr()
    assert run(config, copy, "train-student", "--regime", "soft") == 3
    assert "epoch" not in capsys.readouterr().out
    assert not list(copy.glob("student_soft_T2_s3.*"))
    assert run(config, copy, "variance-report") == 3


def test_report_refuses_a_record_without_its_regime_line(done, tmp_path):
    config, out = done
    copy = shutil.copytree(out, tmp_path / "copy")
    record = copy / "teacher_s3.runrec"
    lines = record.read_text().splitlines(keepends=True)
    record.write_text("".join(ln for ln in lines if not ln.startswith("# regime ")))
    assert run(config, copy, "report") == 3


def test_report_refuses_a_completed_record_without_epochs(done, tmp_path):
    config, out = done
    copy = shutil.copytree(out, tmp_path / "copy")
    record = copy / "teacher_s3.runrec"
    lines = record.read_text().splitlines(keepends=True)
    record.write_text("".join(ln for ln in lines if ln.startswith("#")))
    assert run(config, copy, "report") == 3
