"""Experiment configuration: the defaults, the key schema, the teacher's
fallbacks to the train section, the digest, and the refusal of schedule
values that would crash or hang training (exit 2 at load, no traceback)."""

import copy

import pytest
import yaml

from kdtrain.cli import main
from kdtrain.config import DEFAULTS, ExperimentConfig, load_config
from kdtrain.errors import ConfigError


def write_yaml(path, values):
    path.write_text(yaml.safe_dump(values, sort_keys=False))
    return str(path)


def test_defaults_validate():
    cfg = load_config(None)
    assert cfg.values == DEFAULTS
    ExperimentConfig(copy.deepcopy(DEFAULTS)).validate()
    assert cfg.schedule().max_epochs == DEFAULTS["train"]["max_epochs"]


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
    assert cfg.teacher_learning_rate == 0.02 and cfg.teacher_max_epochs == 7
    cfg = load_config(write_yaml(
        tmp_path / "own.yaml",
        {"teacher": {"learning_rate": 0.5, "max_epochs": 3}, "train": train},
    ))
    assert cfg.teacher_learning_rate == 0.5 and cfg.teacher_max_epochs == 3
    assert cfg.learning_rate == 0.02 and cfg.schedule().max_epochs == 7


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
