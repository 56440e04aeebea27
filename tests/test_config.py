"""Experiment configuration: the defaults, the key schema, the teacher's
fallbacks to the train section, the digest, the typing rule, and the
refusal of every wrong-typed or out-of-range value at load (exit 2, one
``error:`` line, no traceback, no output directory)."""

from dataclasses import replace

import pytest
import yaml

from kdtrain.cli import main
from kdtrain.config import DEFAULTS, load_config
from kdtrain.datasets import SynthTaskSpec
from kdtrain.errors import ConfigError
from kdtrain.training import TrainingSchedule


def write_yaml(path, values):
    path.write_text(yaml.safe_dump(values, sort_keys=False))
    return str(path)


def test_defaults_validate():
    cfg = load_config(None)
    assert cfg.values == DEFAULTS
    assert cfg.schedule.max_epochs == DEFAULTS["train"]["max_epochs"]
    assert cfg.schedule == TrainingSchedule()


def test_default_task_is_the_spec_default():
    assert load_config(None).task == SynthTaskSpec()


def test_unknown_nested_key_names_its_dotted_path(tmp_path):
    with pytest.raises(ConfigError, match=r"train\.learning_rte"):
        load_config(write_yaml(tmp_path / "typo.yaml", {"train": {"learning_rte": 0.1}}))
    with pytest.raises(ConfigError, match=r"\['bogus'\]"):
        load_config(write_yaml(tmp_path / "top.yaml", {"bogus": 1}))


def test_teacher_nulls_fall_back_to_the_train_section(tmp_path):
    train = {"learning_rate": 0.02, "max_epochs": 7}
    cfg = load_config(write_yaml(
        tmp_path / "null.yaml",
        {"teacher": {"learning_rate": None, "max_epochs": None}, "train": train},
    ))
    assert cfg.teacher_schedule == cfg.schedule
    assert cfg.teacher_schedule.learning_rate == 0.02 and cfg.teacher_schedule.max_epochs == 7
    cfg = load_config(write_yaml(
        tmp_path / "own.yaml",
        {"teacher": {"learning_rate": 0.5, "max_epochs": 3}, "train": train},
    ))
    assert cfg.teacher_schedule == replace(cfg.schedule, learning_rate=0.5, max_epochs=3)
    assert cfg.schedule.learning_rate == 0.02 and cfg.schedule.max_epochs == 7


def test_digest_does_not_depend_on_key_order(tmp_path):
    values = {"task": {"seed": 3, "classes": 4}, "train": {"window": 5, "streams": 2}}
    reordered = {"train": {"streams": 2, "window": 5}, "task": {"classes": 4, "seed": 3}}
    first = write_yaml(tmp_path / "a.yaml", values)
    second = write_yaml(tmp_path / "b.yaml", reordered)
    assert (tmp_path / "a.yaml").read_text() != (tmp_path / "b.yaml").read_text()
    assert load_config(first).digest() == load_config(second).digest()
    assert load_config(first).digest() != load_config(None).digest()


@pytest.mark.parametrize("section, key", [
    ("train", "window"), ("train", "streams"), ("train", "max_epochs"),
    ("teacher", "max_epochs"),
])
def test_schedule_below_one_exits_2_at_load(tmp_path, capsys, section, key):
    config = write_yaml(tmp_path / "bad.yaml", {section: {key: 0}})
    with pytest.raises(ConfigError, match=f"{section} schedule: {key} must be at least 1"):
        load_config(config)
    out = tmp_path / "out"
    assert main(["--config", config, "--out", str(out), "train-teacher"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err
    assert not out.exists()


def assert_refused_at_load(tmp_path, capsys, text, match):
    """``text`` as the config: exit 2 before ``--out`` exists, with one
    ``error:`` line that contains ``match``."""
    config = tmp_path / "bad.yaml"
    config.write_text(text)
    out = tmp_path / "out"
    assert main(["--config", str(config), "--out", str(out), "generate-data"]) == 2
    captured = capsys.readouterr()
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ") and match in lines[0], lines
    assert "Traceback" not in captured.err and captured.out == ""
    assert not out.exists()


def test_missing_config_file_exits_2(tmp_path, capsys):
    missing = tmp_path / "nowhere.yaml"
    with pytest.raises(ConfigError, match="config file not found"):
        load_config(str(missing))
    out = tmp_path / "out"
    assert main(["--config", str(missing), "--out", str(out), "generate-data"]) == 2
    assert capsys.readouterr().err == f"error: config file not found: {missing}\n"
    assert not out.exists()


LEAVES = [(section, name, default) for section, keys in DEFAULTS.items()
          for name, default in keys.items()]


def wrong_values(default):
    if isinstance(default, list):
        return [3, "hard", {"a": 1}, [True], [[1]], [None]]
    return ["x", True, [1], {"a": 1}]


@pytest.mark.parametrize("section, name, value", [
    pytest.param(section, name, value, id=f"{section}.{name}={value!r}")
    for section, name, default in LEAVES for value in wrong_values(default)
])
def test_every_key_refuses_a_wrong_type_at_load(tmp_path, capsys, section, name, value):
    text = yaml.safe_dump({section: {name: value}})
    assert_refused_at_load(tmp_path, capsys, text, f"'{section}.{name}")


@pytest.mark.parametrize("text, match", [
    ("train: {window: x}", "'train.window' must be an int, got 'x'"),
    ("train: {window: 2.7}", "'train.window' must be an int, got 2.7"),
    ("train: {streams: true}", "'train.streams' must be an int, got True"),
    ("experiment: {seeds: 3}", "'experiment.seeds' must be a list, got 3"),
    ("experiment: {seeds: [1, 2.5]}", "'experiment.seeds[1]' must be an int, got 2.5"),
    ("experiment: {seeds: []}", "['seeds'] must not be empty"),
    ("experiment: {seeds: [1, 3, 1]}", "'experiment.seeds' lists [1] more than once"),
    ("experiment: {regimes: [soft, soft]}", "'experiment.regimes' lists ['soft'] more than once"),
    ("experiment: {temperatures: [2.0, 1, 2]}",
     "'experiment.temperatures' lists [2.0] more than once"),
    ("experiment: {temperatures: [1.0000001, 2, 1.0000002]}",
     "'experiment.temperatures' lists 1.0000001 and 1.0000002, which share the name T1"),
    ("experiment: {regimes: hard}", "'experiment.regimes' must be a list, got 'hard'"),
    ("experiment: {regimes: [hard, kaldi]}", "experiment: unknown mode 'kaldi'"),
    ("experiment: {temperatures: [2, 0]}", "experiment: temperature must be positive"),
    ("experiment: {alpha: 1.5}", "experiment: alpha must be in [0, 1]"),
    ("task: {classes: many}", "'task.classes' must be an int, got 'many'"),
    ("task: {classes: 1}", "task: need at least 2 classes, got 1"),
    ("task: {min_frames: 0}", "task: bad utterance length range [0, 80]"),
    ("task: {cv_utterances: 0}", "task: every split needs at least 1 utterance"),
    ("task: {seed: -1}", "'task.seed' must be at least 0, got -1"),
    ("teacher: {hidden: 128}", "'teacher.hidden' must be a list, got 128"),
    ("teacher: {hidden: [16, 0]}", "'teacher.hidden[1]' must be at least 1, got 0"),
    ("teacher: {learning_rate: 0}", "teacher schedule: learning rate must be positive"),
    ("student: {cells: 0}", "'student.cells' must be at least 1, got 0"),
    ("student: {cells: 4, projection: 8}",
     "'student.projection' must be at most student.cells, got 8 > 4"),
    ("train: {momentum: 1.5}", "train schedule: momentum must be in [0, 1), got 1.5"),
    ("train: {clip_norm: -5}", "train schedule: clip_norm must be positive, got -5.0"),
    ("train: {clip_norm: 0}", "train schedule: clip_norm must be positive, got 0.0"),
    ("train: {pretrain_switch_epoch: -3}",
     "train schedule: pretrain_switch_epoch must be at least 0, got -3"),
    ("train: {max_halvings: 0}", "train schedule: max_halvings must be at least 1, got 0"),
    ("train: {improve_threshold: .nan}", "train schedule: improve_threshold must not be NaN"),
    ("task: {noise_scale: .nan}", "task: noise_scale must be finite and >= 0, got nan"),
    ("task: {noise_scale: -1}", "task: noise_scale must be finite and >= 0, got -1.0"),
    ("train: 3", "config key 'train' must be a mapping"),
    ("- train\n- task\n", "bad.yaml must hold a mapping"),
])
def test_bad_setting_exits_2_at_load(tmp_path, capsys, text, match):
    assert_refused_at_load(tmp_path, capsys, text, match)


# Loose but valid values load typed, and their digests stay pinned:
# existing output directories were initialized under these digests.
@pytest.mark.parametrize("text, typed, digest", [
    ("train:\n  learning_rate: 1e-3\n", lambda cfg: cfg.schedule.learning_rate == 0.001,
     "3a0c9f3dc0bef5ea63cf42c863bd9211c07fc12af4a8c054f5cd1416c3b1cc73"),
    ("train:\n  window: 20.0\n", lambda cfg: repr(cfg.schedule.window) == "20",
     "6365b50c5cb3aababb27bb06f3bab99546d5064af14b3e9b4827e10f2eae61f5"),
    ("teacher:\n  hidden: []\n", lambda cfg: cfg.teacher_hidden == (),
     "89992b717b6c0cb19f74f26f6eb3108d02c68af49dc1249ecf23e76cc93b049e"),
    ("", lambda cfg: cfg.schedule.learning_rate == 0.003 and cfg.teacher_hidden == (128, 128),
     "1630c04ff667abc1071dbb3eafe6c628cb5b9c05063ecbfb3b4d8e93c35ee093"),
], ids=["string 1e-3", "whole float window", "linear teacher", "empty file"])
def test_loose_but_valid_values_load_with_unchanged_digests(tmp_path, text, typed, digest):
    config = tmp_path / "ok.yaml"
    config.write_text(text)
    cfg = load_config(str(config))
    assert typed(cfg) and cfg.digest() == digest
