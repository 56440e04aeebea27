"""Experiment configuration: one YAML file with a fixed key schema.

Every key has a desk-scale default, so an empty (or absent) file is a
complete experiment. Unknown keys anywhere are errors - silent typos in
sweep configs are worse than a hard failure. The SHA-256 digest of the
resolved configuration identifies an output directory; commands refuse
to write into a directory initialized under a different digest.
"""

import copy
import hashlib
import json
from dataclasses import dataclass
from pathlib import Path

import yaml

from .datasets import SynthTaskSpec
from .distill import REGIMES
from .errors import ConfigError, InvalidArgumentError
from .training import TrainingSchedule

DEFAULTS = {
    "task": {
        "seed": 20260401,
        "classes": 10,
        "feature_dim": 20,
        "self_loop": 0.85,
        "noise_scale": 1.6,
        "noise_corr": 0.85,
        "blend_frames": 2,
        "min_frames": 30,
        "max_frames": 80,
        "train_utterances": 300,
        "cv_utterances": 150,
        "test_utterances": 300,
    },
    "teacher": {
        "hidden": [128, 128],
        "learning_rate": 0.01,
        "max_epochs": None,  # null -> train.max_epochs
    },
    "student": {
        "layers": 1,
        "cells": 64,
        "projection": 32,
    },
    "train": {
        "learning_rate": 0.003,
        "momentum": 0.9,
        "clip_norm": 5.0,
        "streams": 4,
        "window": 20,
        "max_epochs": 40,
        "improve_threshold": 0.1,
        "max_halvings": 3,
        "pretrain_switch_epoch": None,
    },
    "experiment": {
        "regimes": ["hard", "soft", "reg", "pretrain"],
        "temperatures": [1.0, 2.0],
        "alpha": 0.5,
        "seeds": [1, 2, 3, 4, 5],
    },
}


def _merge(base: dict, override: dict, path: str = "") -> dict:
    out = {}
    for key, default in base.items():
        here = f"{path}.{key}" if path else key
        if key in override:
            value = override[key]
            if isinstance(default, dict):
                if not isinstance(value, dict):
                    raise ConfigError(f"config key '{here}' must be a mapping")
                out[key] = _merge(default, value, here)
            else:
                out[key] = value
        else:
            out[key] = copy.deepcopy(default)
    unknown = sorted(f"{path}.{key}" if path else str(key) for key in set(override) - set(base))
    if unknown:
        raise ConfigError(f"unknown config key(s) {unknown}")
    return out


@dataclass
class ExperimentConfig:
    values: dict

    @property
    def data_seed(self) -> int:
        return int(self.values["task"]["seed"])

    def task_spec(self) -> SynthTaskSpec:
        t = self.values["task"]
        return SynthTaskSpec(
            num_classes=int(t["classes"]),
            feature_dim=int(t["feature_dim"]),
            self_loop=float(t["self_loop"]),
            noise_scale=float(t["noise_scale"]),
            noise_corr=float(t["noise_corr"]),
            blend_frames=int(t["blend_frames"]),
            min_frames=int(t["min_frames"]),
            max_frames=int(t["max_frames"]),
            train_utterances=int(t["train_utterances"]),
            cv_utterances=int(t["cv_utterances"]),
            test_utterances=int(t["test_utterances"]),
        )

    @property
    def teacher_hidden(self) -> list[int]:
        return [int(h) for h in self.values["teacher"]["hidden"]]

    @property
    def teacher_learning_rate(self) -> float:
        lr = self.values["teacher"]["learning_rate"]
        return float(lr) if lr is not None else self.learning_rate

    @property
    def teacher_max_epochs(self) -> int:
        m = self.values["teacher"]["max_epochs"]
        return int(m) if m is not None else int(self.values["train"]["max_epochs"])

    @property
    def student_shape(self) -> tuple[int, int, int]:
        s = self.values["student"]
        return int(s["layers"]), int(s["cells"]), int(s["projection"])

    @property
    def learning_rate(self) -> float:
        return float(self.values["train"]["learning_rate"])

    @property
    def momentum(self) -> float:
        return float(self.values["train"]["momentum"])

    @property
    def clip_norm(self) -> float:
        return float(self.values["train"]["clip_norm"])

    def schedule(self, max_epochs: int | None = None) -> TrainingSchedule:
        t = self.values["train"]
        switch = t["pretrain_switch_epoch"]
        return TrainingSchedule(
            max_epochs=int(max_epochs if max_epochs is not None else t["max_epochs"]),
            improve_threshold=float(t["improve_threshold"]),
            max_halvings=int(t["max_halvings"]),
            streams=int(t["streams"]),
            window=int(t["window"]),
            pretrain_switch_epoch=None if switch is None else int(switch),
        )

    @property
    def regimes(self) -> list[str]:
        return [str(r) for r in self.values["experiment"]["regimes"]]

    @property
    def temperatures(self) -> list[float]:
        return [float(t) for t in self.values["experiment"]["temperatures"]]

    @property
    def alpha(self) -> float:
        return float(self.values["experiment"]["alpha"])

    @property
    def seeds(self) -> list[int]:
        return [int(s) for s in self.values["experiment"]["seeds"]]

    def digest(self) -> str:
        canonical = json.dumps(self.values, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canonical.encode()).hexdigest()

    def validate(self) -> None:
        if not self.regimes:
            raise ConfigError("experiment.regimes must not be empty")
        bad = [r for r in self.regimes if r not in REGIMES]
        if bad:
            raise ConfigError(f"unknown regime(s) {bad}; choose from {list(REGIMES)}")
        if not self.seeds:
            raise ConfigError("experiment.seeds must not be empty")
        if any(t <= 0 for t in self.temperatures) or not self.temperatures:
            raise ConfigError("experiment.temperatures must be a nonempty list of positives")
        if not 0.0 <= self.alpha <= 1.0:
            raise ConfigError(f"experiment.alpha must be in [0, 1], got {self.alpha}")
        for section, max_epochs in (("train", None), ("teacher", self.teacher_max_epochs)):
            try:
                self.schedule(max_epochs)
            except InvalidArgumentError as exc:
                raise ConfigError(f"{section} schedule: {exc}") from exc


def load_config(path: str | None = None) -> ExperimentConfig:
    """Resolve a config file against the defaults; None means defaults."""
    override = {}
    if path is not None:
        p = Path(path)
        if not p.exists():
            raise ConfigError(f"config file not found: {p}")
        loaded = yaml.safe_load(p.read_text())
        if loaded is None:
            loaded = {}
        if not isinstance(loaded, dict):
            raise ConfigError(f"config file {p} must hold a mapping")
        override = loaded
    cfg = ExperimentConfig(_merge(DEFAULTS, override))
    cfg.validate()
    return cfg
