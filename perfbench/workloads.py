"""The benchmark's workloads: a config per seed, set-up steps, and the
pass of CLI calls that is timed.

Every pass runs each of the three stages (train, export, eval) so every
end-to-end metric exists on every workload; the sizes decide which
stage a workload stresses. Epoch counts are fixed
(``improve_threshold: -.inf`` never halves the learning rate or stops
early), so the work done never depends on the numbers a run computes.
Why each workload exists is in BENCHMARK.json and README.md.
"""

from collections.abc import Callable
from dataclasses import dataclass

TEMPERATURE = 2.0
REGIMES = ("hard", "soft", "reg", "pretrain")


@dataclass(frozen=True)
class Call:
    stage: str  # "setup" | "train" | "export" | "eval"
    argv: tuple[str, ...]  # CLI arguments after --config/--out; {out} and {seed} are filled in


@dataclass(frozen=True)
class Workload:
    name: str
    config: Callable[[int, str], dict]  # (seed, scale) -> config file contents
    setup: tuple[Call, ...]
    passes: tuple[Call, ...]
    fresh_student: bool = False  # set-up writes an untrained student checkpoint for eval


def student_stem(regime: str, seed: int, t: float = TEMPERATURE) -> str:
    if regime == "hard":
        return f"student_hard_s{seed}"
    return f"student_{regime}_T{t:g}_s{seed}"


FRESH_STUDENT = "student_fresh_s{seed}"

# Tiny sizes keep the benchmark's own smoke tests to seconds.
_TINY_TASK = {"min_frames": 10, "max_frames": 20, "train_utterances": 12,
              "cv_utterances": 6, "test_utterances": 12}


def _student_matrix(seed: int, scale: str) -> dict:
    cfg = {
        "task": {"seed": seed},
        "teacher": {"max_epochs": 1},
        "train": {"max_epochs": 1, "improve_threshold": float("-inf"),
                  "pretrain_switch_epoch": 1},
        "experiment": {"regimes": list(REGIMES), "temperatures": [TEMPERATURE],
                       "seeds": [seed]},
    }
    if scale == "tiny":
        cfg["task"].update(_TINY_TASK)
        cfg["teacher"]["hidden"] = [16]
        cfg["student"] = {"cells": 8, "projection": 4}
    return cfg


def _teacher_export(seed: int, scale: str) -> dict:
    cfg = {
        "task": {"seed": seed},
        "teacher": {"max_epochs": 3},
        "train": {"improve_threshold": float("-inf")},
        "experiment": {"regimes": ["hard"], "temperatures": [1.0, 2.0, 5.0, 10.0],
                       "seeds": [seed]},
    }
    if scale == "tiny":
        cfg["task"].update(_TINY_TASK)
        cfg["teacher"]["hidden"] = [16]
    return cfg


def _student_eval_long(seed: int, scale: str) -> dict:
    cfg = {
        "task": {"seed": seed, "min_frames": 150, "max_frames": 450,
                 "train_utterances": 32, "cv_utterances": 4, "test_utterances": 32},
        "teacher": {"max_epochs": 4},
        "student": {"layers": 2, "cells": 256, "projection": 128},
        "train": {"improve_threshold": float("-inf")},
        "experiment": {"regimes": ["hard"], "temperatures": [TEMPERATURE], "seeds": [seed]},
    }
    if scale == "tiny":
        cfg["task"].update({"min_frames": 40, "max_frames": 80, "train_utterances": 4,
                            "cv_utterances": 2, "test_utterances": 8})
        cfg["teacher"]["hidden"] = [16]
        cfg["student"] = {"layers": 2, "cells": 8, "projection": 4}
    return cfg


def _eval(stem: str) -> Call:
    return Call("eval", ("eval", "--model", f"{{out}}/{stem}.dkdm", "--split", "test"))


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "student_matrix",
            _student_matrix,
            setup=(Call("setup", ("generate-data",)), Call("setup", ("train-teacher",))),
            passes=(
                Call("export", ("export-soft",)),
                *(Call("train", ("train-student", "--regime", r)) for r in REGIMES),
                *(_eval(student_stem(r, "{seed}")) for r in REGIMES),
                Call("eval", ("variance-report", "--student",
                              f"{{out}}/{student_stem('reg', '{seed}')}.dkdm")),
            ),
        ),
        Workload(
            "teacher_export",
            _teacher_export,
            setup=(Call("setup", ("generate-data",)),),
            passes=(
                Call("train", ("train-teacher",)),
                Call("export", ("export-soft",)),
                _eval("teacher_s{seed}"),
            ),
        ),
        Workload(
            "student_eval_long",
            _student_eval_long,
            setup=(Call("setup", ("generate-data",)),),
            passes=(
                Call("train", ("train-teacher",)),
                Call("export", ("export-soft",)),
                *(Call("export", ("export-soft", "--temperature", t))
                  for t in ("1", "3", "5", "10", "20")),
                _eval(FRESH_STUDENT),
                Call("eval", ("variance-report", "--student",
                              f"{{out}}/{FRESH_STUDENT}.dkdm")),
            ),
            fresh_student=True,
        ),
    )
}
