"""The command line end to end at a tiny config: every subcommand, byte
identity on rerun, the Table-1 report, and exit codes 0/1/2/3."""

import hashlib
import os
import shutil

import pytest
import yaml

from kdtrain.cli import main
from kdtrain.distill import MODES
from kdtrain.formats import read_run_record

CONFIG = {
    "task": {"seed": 7, "classes": 4, "feature_dim": 5, "min_frames": 8, "max_frames": 15,
             "train_utterances": 12, "cv_utterances": 6, "test_utterances": 6},
    "teacher": {"hidden": [8], "max_epochs": 2},
    "student": {"cells": 6, "projection": 3},
    "train": {"max_epochs": 2, "streams": 3, "window": 5, "pretrain_switch_epoch": 1},
    "experiment": {"regimes": list(MODES), "temperatures": [2.0], "seeds": [3]},
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


def test_unknown_regime_exits_2(done):
    assert run(*done, "train-student", "--regime", "kaldi") == 2


def test_unknown_config_key_exits_2(done, tmp_path):
    config = write_config(tmp_path / "typo.yaml", train={"learning_rte": 0.1})
    assert run(config, tmp_path / "out", "generate-data") == 2


def test_config_digest_mismatch_on_out_exits_2(done, tmp_path):
    config = write_config(tmp_path / "other.yaml", experiment={"seeds": [4]})
    assert run(config, done[1], "report") == 2


def test_truncated_dataset_exits_3(done, tmp_path):
    config, out = done
    copy = shutil.copytree(out, tmp_path / "copy")
    raw = (copy / "dataset_train.dkds").read_bytes()
    (copy / "dataset_train.dkds").write_bytes(raw[:-7])
    assert run(config, copy, "train-teacher") == 3


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
