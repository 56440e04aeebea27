"""Experiment configuration: one YAML file with a fixed key schema.

Every key has a desk-scale default, so an empty (or absent) file is a
complete experiment; the task and train defaults are the fields' own in
``SynthTaskSpec`` and ``TrainingSchedule`` (``task.seed`` aside). Unknown
keys anywhere are errors - silent typos in sweep configs are worse than
a hard failure.

``load_config`` types every value once, as its key's default: an int
key takes an int or a whole float (20.0); a float key takes whatever
``float()`` parses, such as the string PyYAML makes of 1e-3; a list key
takes only a list, typed element by element; a bool is never a number.
The owning constructors (``SynthTaskSpec``, ``TrainingSchedule``,
``DistillLossSpec``) then apply their range rules, and the student's
shape rules (``_MINIMUM``, projection at most cells) apply here, so a bad
value is a ConfigError naming its key or rule at load. The train section
is one ``TrainingSchedule``; in the teacher's, a non-null teacher key
that names a field overrides it.

The SHA-256 digest covers the merged values as written, not as typed
(``window: 20.0`` and ``window: 20`` differ). It identifies an output
directory; commands refuse to write into a directory initialized under
a different digest.
"""

import copy
import hashlib
import json
from dataclasses import dataclass, fields, replace
from pathlib import Path

import yaml

from .datasets import SynthTaskSpec
from .distill import DistillLossSpec
from .errors import ConfigError, InvalidArgumentError
from .training import TrainingSchedule

# The config's name for a SynthTaskSpec field, where the two differ.
_TASK_KEYS = {"num_classes": "classes"}

DEFAULTS = {
    "task": {"seed": 20260401, **{_TASK_KEYS.get(f.name, f.name): f.default
                                  for f in fields(SynthTaskSpec)}},
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
    "train": {f.name: f.default for f in fields(TrainingSchedule)},
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


# Keys that may be null, and the type of a value. A null teacher key
# leaves the train section's setting in the teacher's schedule.
_NULLABLE = {"teacher.learning_rate": float, "teacher.max_epochs": int,
             "train.pretrain_switch_epoch": int}
# Lower bounds that no constructor checks at load.
_MINIMUM = {"task.seed": 0, "teacher.hidden": 1, "student.layers": 1, "student.cells": 1,
            "student.projection": 1, "experiment.seeds": 0}
_TYPE_NAMES = {int: "an int", float: "a number", str: "a string"}


def _as(key: str, kind, value, minimum=None):
    """``value`` converted to ``kind`` (int, float, str, or ``[kind]`` for
    a list), or a ConfigError naming ``key``."""
    if isinstance(kind, list):
        if not isinstance(value, list):
            raise ConfigError(f"config key '{key}' must be a list, got {value!r}")
        return tuple(_as(f"{key}[{i}]", kind[0], v, minimum) for i, v in enumerate(value))
    ok = not isinstance(value, bool) and (kind is not str or isinstance(value, str))
    if kind is int and isinstance(value, float):
        ok = ok and value.is_integer()
    try:
        converted = kind(value) if ok else None
    except (TypeError, ValueError, OverflowError):
        converted = None
    if converted is None:
        raise ConfigError(f"config key '{key}' must be {_TYPE_NAMES[kind]}, got {value!r}")
    if minimum is not None and converted < minimum:
        raise ConfigError(f"config key '{key}' must be at least {minimum}, got {converted}")
    return converted


def _typed(values: dict) -> dict:
    """Every leaf of the merged ``values``, by dotted key, as its type
    (a null stays None)."""
    out = {}
    for section, defaults in DEFAULTS.items():
        for name, default in defaults.items():
            key, value = f"{section}.{name}", values[section][name]
            if key in _NULLABLE:
                out[key] = None if value is None else _as(key, _NULLABLE[key], value)
            else:
                kind = [type(default[0])] if isinstance(default, list) else type(default)
                out[key] = _as(key, kind, value, _MINIMUM.get(key))
    return out


def temperature_name(t: float) -> str:
    """How file and cell names print a temperature: 6 significant digits."""
    return format(t, "g")


def _checked(rule: str, build, *args, **kwargs):
    """``build(*args, **kwargs)``, its range error a ConfigError."""
    try:
        return build(*args, **kwargs)
    except InvalidArgumentError as exc:
        raise ConfigError(f"{rule}: {exc}") from exc


@dataclass(frozen=True)
class ExperimentConfig:
    """One resolved experiment. ``values`` is the merged YAML as written
    and the digest's only input; every other field is a typed,
    range-checked setting built from it by ``load_config``."""

    values: dict
    data_seed: int
    task: SynthTaskSpec
    teacher_hidden: tuple[int, ...]
    teacher_schedule: TrainingSchedule
    student_shape: tuple[int, int, int]
    schedule: TrainingSchedule
    regimes: tuple[str, ...]
    temperatures: tuple[float, ...]
    alpha: float
    seeds: tuple[int, ...]

    def digest(self) -> str:
        canonical = json.dumps(self.values, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canonical.encode()).hexdigest()


def load_config(path: str | None = None) -> ExperimentConfig:
    """Resolve a config file against the defaults (None means defaults),
    typed and range-checked; a bad setting raises ConfigError here."""
    override = {}
    if path is not None:
        p = Path(path)
        if not p.exists():
            raise ConfigError(f"config file not found: {p}")
        loaded = yaml.safe_load(p.read_text())
        override = {} if loaded is None else loaded
        if not isinstance(override, dict):
            raise ConfigError(f"config file {p} must hold a mapping")
    values = _merge(DEFAULTS, override)
    v = _typed(values)
    task = {f.name: v[f"task.{_TASK_KEYS.get(f.name, f.name)}"] for f in fields(SynthTaskSpec)}
    schedule = _checked("train schedule", TrainingSchedule,
                        **{f.name: v[f"train.{f.name}"] for f in fields(TrainingSchedule)})
    teacher = {f.name: v[f"teacher.{f.name}"] for f in fields(TrainingSchedule)
               if v.get(f"teacher.{f.name}") is not None}
    if v["student.projection"] > v["student.cells"]:
        raise ConfigError(f"config key 'student.projection' must be at most student.cells, "
                          f"got {v['student.projection']} > {v['student.cells']}")
    empty = [k for k in ("regimes", "temperatures", "seeds") if not v[f"experiment.{k}"]]
    if empty:
        raise ConfigError(f"experiment key(s) {empty} must not be empty")
    for k in ("regimes", "temperatures", "seeds"):
        listed = v[f"experiment.{k}"]
        repeated = sorted({x for x in listed if listed.count(x) > 1})
        if repeated:  # each value names its own cells and files; 2 and 2.0 are one
            raise ConfigError(f"config key 'experiment.{k}' lists {repeated} more than once")
    named = {}
    for t in v["experiment.temperatures"]:
        other = named.setdefault(temperature_name(t), t)
        if other != t:
            raise ConfigError(f"config key 'experiment.temperatures' lists {other!r} and {t!r}, "
                              f"which share the name T{temperature_name(t)}")
    for regime in v["experiment.regimes"]:
        for t in v["experiment.temperatures"]:
            _checked("experiment", DistillLossSpec, regime, v["experiment.alpha"], t)
    return ExperimentConfig(
        values=values,
        data_seed=v["task.seed"],
        task=_checked("task", SynthTaskSpec, **task),
        teacher_hidden=v["teacher.hidden"],
        teacher_schedule=_checked("teacher schedule", replace, schedule, **teacher),
        student_shape=(v["student.layers"], v["student.cells"], v["student.projection"]),
        schedule=schedule,
        regimes=v["experiment.regimes"], temperatures=v["experiment.temperatures"],
        alpha=v["experiment.alpha"], seeds=v["experiment.seeds"],
    )
