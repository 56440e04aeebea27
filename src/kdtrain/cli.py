"""Command-line orchestration of the desk-scale experiment matrix.

Subcommands: generate-data, train-teacher, export-soft, train-student,
eval, variance-report, report. All artifacts land under --out, keyed by
the config digest; rerunning any command with the same config and seed
rewrites byte-identical files.

Exit codes: 0 success, 1 numeric failure, 2 usage/config error,
3 data-format error.
"""

import argparse
import statistics
import sys
from functools import partial
from pathlib import Path

from .config import ExperimentConfig, load_config, temperature_name
from .datasets import generate_synth, validate_soft_targets
from .distill import REGIMES, DistillLossSpec, export_soft_targets
from .errors import (
    AlignmentError,
    ConfigError,
    FormatError,
    KdtrainError,
    NumericOverflowError,
)
from .feedforward import FeedForwardParams, init_feedforward
from .formats import (
    RunRecord,
    checkpoint_digest,
    export_manifest_text,
    read_checkpoint,
    read_dataset,
    read_run_record,
    read_soft_targets,
    write_atomic,
    write_checkpoint,
    write_dataset,
    write_run_record,
    write_soft_targets,
)
from .lstm import init_lstm
from .numeric import require_positive
from .training import (
    TrainingAborted,
    derive_rng,
    frame_accuracy,
    gradient_variance_report,
    run_training,
    score_serially,
)

_SPLITS = ("train", "cv", "test")


def _teacher_stem(seed: int) -> str:
    return f"teacher_s{seed}"


def _soft_name(t: float, seed: int) -> str:
    return f"soft_T{temperature_name(t)}_s{seed}.dkst"


def _student_stem(regime: str, t: float, seed: int) -> str:
    if REGIMES[regime].soft_targets:
        return f"student_{regime}_T{temperature_name(t)}_s{seed}"
    return f"student_{regime}_s{seed}"


def _prepare_out(out: Path, cfg: ExperimentConfig) -> None:
    out.mkdir(parents=True, exist_ok=True)
    digest_file = out / "config.digest"
    digest = cfg.digest()
    if digest_file.exists():
        existing = digest_file.read_text().strip()
        if existing != digest:
            raise ConfigError(
                f"output dir {out} was initialized with config digest {existing[:12]}..., "
                f"current config digests to {digest[:12]}...; use a fresh --out"
            )
    else:
        write_atomic(digest_file, [f"{digest}\n".encode()])


def _load_split(out: Path, name: str):
    path = out / f"dataset_{name}.dkds"
    if not path.exists():
        raise ConfigError(f"missing dataset {path}; run generate-data first")
    return read_dataset(path)


def _init_student(cfg: ExperimentConfig, train, seed: int):
    layers, cells, projection = cfg.student_shape
    return init_lstm(train.feature_dim, train.num_classes, layers=layers, cells=cells,
                     projection=projection, rng=derive_rng(seed, "init"))


def _train_cell(cfg: ExperimentConfig, out: Path, splits, stem: str, label: str, spec, init,
                seed: int, **run_kwargs) -> None:
    """Train one model on the (train, cv, test) ``splits``, score it on
    test, and write ``<stem>.dkdm`` and ``<stem>.runrec``. On a numeric
    abort, persist the last good epoch's checkpoint and partial record
    as ``<stem>.aborted.*`` before propagating."""
    train, cv, test = splits
    try:
        record, params = run_training(
            spec, init, train, cv, master_seed=seed, config_digest=cfg.digest(), log=print,
            **run_kwargs,
        )
    except TrainingAborted as exc:
        write_checkpoint(out / f"{stem}.aborted.dkdm", exc.params)
        write_run_record(out / f"{stem}.aborted.runrec", exc.record)
        print(f"aborted: {exc}; last good epoch saved as {stem}.aborted.*", file=sys.stderr)
        raise
    record.test_accuracy = frame_accuracy(params, test)
    write_checkpoint(out / f"{stem}.dkdm", params)
    write_run_record(out / f"{stem}.runrec", record)
    print(
        f"{label}: cv_fa {record.epochs[-1].cv_accuracy:.2f} "
        f"test_fa {record.test_accuracy:.2f} ({len(record.epochs)} epochs)"
    )


def _expand_cells(regimes, temperatures, seeds):
    cells = []
    for seed in seeds:
        for regime in regimes:
            for t in temperatures if REGIMES[regime].soft_targets else [1.0]:
                cells.append((regime, t, seed))
    return cells


def cmd_generate_data(cfg: ExperimentConfig, out: Path) -> None:
    splits = generate_synth(cfg.task, cfg.data_seed)  # first: a refused task writes nothing
    _prepare_out(out, cfg)
    for name in _SPLITS:
        ds = getattr(splits, name)
        write_dataset(out / f"dataset_{name}.dkds", ds)
        write_atomic(out / f"manifest_{name}.txt", [export_manifest_text(ds).encode()])
        print(f"wrote dataset_{name}.dkds ({ds.total_frames} frames, "
              f"{len(ds.utterances)} utterances)")


def cmd_train_teacher(cfg: ExperimentConfig, out: Path, seeds) -> None:
    splits = [_load_split(out, name) for name in _SPLITS]
    dims = [splits[0].feature_dim, *cfg.teacher_hidden, splits[0].num_classes]
    for seed in seeds:
        _train_cell(
            cfg, out, splits, _teacher_stem(seed), f"teacher seed {seed}",
            DistillLossSpec("hard", cfg.alpha), init_feedforward(dims, derive_rng(seed, "init")),
            seed, schedule=cfg.teacher_schedule, model_tag="teacher",
        )


def _read_teacher(path: Path, hint: str) -> FeedForwardParams:
    if not path.exists():
        raise ConfigError(f"missing teacher checkpoint {path}{hint}")
    teacher = read_checkpoint(path)
    if not isinstance(teacher, FeedForwardParams):
        raise FormatError(f"teacher checkpoint {path} does not hold a feed-forward model")
    return teacher


def cmd_export_soft(cfg: ExperimentConfig, out: Path, seeds, temperatures,
                    teacher_path: str | None) -> None:
    train = _load_split(out, "train")
    for seed in seeds:
        path = Path(teacher_path) if teacher_path else out / f"{_teacher_stem(seed)}.dkdm"
        teacher = _read_teacher(path, "; run train-teacher first")
        # checked in memory: a set holds the float32 rows its file stores
        for soft in export_soft_targets(teacher, train, temperatures):
            target = out / _soft_name(soft.temperature, seed)
            violations = validate_soft_targets(soft, train)
            if violations:
                raise FormatError(f"exported soft targets {target} failed self-validation: "
                                  f"{violations[0]}")
            write_soft_targets(target, soft)
            print(f"wrote {target.name} (T={temperature_name(soft.temperature)}, "
                  f"{soft.frame_count} frames)")
            del soft  # before the next set is made


def _read_soft(out: Path, t: float, seed: int):
    path = out / _soft_name(t, seed)
    if not path.exists():
        raise ConfigError(f"missing soft targets {path}; run export-soft first")
    return read_soft_targets(path)


def _train_one_student(cfg: ExperimentConfig, out: Path, splits, cell) -> None:
    regime, t, seed = cell
    init = _init_student(cfg, splits[0], seed)
    soft = None
    teacher = None
    if REGIMES[regime].soft_targets:
        soft = _read_soft(out, t, seed)
    if REGIMES[regime].teacher_logits:
        teacher = _read_teacher(out / f"{_teacher_stem(seed)}.dkdm", " for logit matching")
    stem = _student_stem(regime, t, seed)
    _train_cell(
        cfg, out, splits, stem, stem, DistillLossSpec(regime, cfg.alpha, t), init, seed,
        soft_targets=soft, teacher=teacher, schedule=cfg.schedule, model_tag="student",
    )


def cmd_train_student(cfg: ExperimentConfig, out: Path, regimes, temperatures, seeds,
                      parallel: int) -> None:
    splits = [_load_split(out, name) for name in _SPLITS]
    train = partial(_train_one_student, cfg, out, splits)
    cells = _expand_cells(regimes, temperatures, seeds)
    if parallel > 1:
        # imported here so that a serial command does not pay for multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(parallel, initializer=score_serially) as pool:
            list(pool.map(train, cells))
    else:
        list(map(train, cells))


def cmd_eval(cfg: ExperimentConfig, out: Path, model_path: str, split: str) -> None:
    params = read_checkpoint(model_path)
    ds = _load_split(out, split)
    fa = frame_accuracy(params, ds)
    print(f"frame accuracy on {split}: {fa:.4f}")


def cmd_variance_report(
    cfg: ExperimentConfig, out: Path, seeds, student_path: str | None
) -> None:
    train = _load_split(out, "train")
    for seed in seeds:
        if student_path:
            student = read_checkpoint(student_path)
            # name and content, not the path: the report must not depend on
            # the directory the command runs from
            origin = f"{Path(student_path).name} sha256 {checkpoint_digest(student).hex()}"
        else:
            student = _init_student(cfg, train, seed)
            origin = "fresh-init"
        soft_sets = [_read_soft(out, t, seed) for t in cfg.temperatures]
        hard, *softs = gradient_variance_report(student, train, [None, *soft_sets])
        lines = [
            "# kdtrain-variance v1",
            f"# seed {seed}",
            f"# student {origin}",
            "# columns targets temperature total first_term",
            f"hard - {hard.total!r} {hard.first_term!r}",
        ]
        for t, rep in zip(cfg.temperatures, softs):
            lines.append(f"soft {temperature_name(t)} {rep.total!r} {rep.first_term!r}")
        text = "\n".join(lines) + "\n"
        write_atomic(out / f"variance_s{seed}.txt", [text.encode()])
        print(text, end="")


def _collect_runs(out: Path) -> list[RunRecord]:
    records = []
    for path in sorted(out.glob("teacher_s*.runrec")) + sorted(out.glob("student_*.runrec")):
        if ".aborted." in path.name:
            continue
        record = read_run_record(path)
        if not record.epochs:
            raise FormatError(f"run record {path} has no epochs")
        records.append(record)
    return records


def _median(values):
    return statistics.median(values) if values else float("nan")


def cmd_report(cfg: ExperimentConfig, out: Path) -> None:
    records = _collect_runs(out)
    if not records:
        raise ConfigError(f"no completed runs under {out}")

    csv_lines = ["model,regime,temperature,alpha,seed,epochs,tr_fa,cv_fa,test_fa"]
    for r in records:
        last = r.epochs[-1]
        test = "" if r.test_accuracy is None else repr(r.test_accuracy)
        csv_lines.append(
            f"{r.model},{r.regime},{r.temperature!r},{r.alpha!r},{r.seed},"
            f"{len(r.epochs)},{last.train_accuracy!r},{last.cv_accuracy!r},{test}"
        )
    write_atomic(out / "report.csv", [("\n".join(csv_lines) + "\n").encode()])

    # Table-1-style summary: one row per (model, regime, T), median over seeds.
    groups: dict[tuple, list[RunRecord]] = {}
    for r in records:
        key_t = r.temperature if REGIMES[r.regime].soft_targets else None
        groups.setdefault((r.model, r.regime, key_t), []).append(r)

    def sort_key(item):
        (model, regime, t), _ = item
        model_rank = 0 if model == "teacher" else 1
        return (model_rank, t if t is not None else 0.0, list(REGIMES).index(regime))

    header = f"{'Model':<14} {'Targets':<12} {'TR FA%':>8} {'CV FA%':>8} {'TEST FA%':>9}"
    rows = [header, "-" * len(header)]
    for (model, regime, t), rs in sorted(groups.items(), key=sort_key):
        label = model if model == "teacher" else (
            "student" if t is None else f"student-T{temperature_name(t)}"
        )
        tr = _median([r.epochs[-1].train_accuracy for r in rs])
        cv = _median([r.epochs[-1].cv_accuracy for r in rs])
        te = _median([r.test_accuracy for r in rs if r.test_accuracy is not None])
        rows.append(
            f"{label:<14} {REGIMES[regime].label:<12} {tr:>8.2f} {cv:>8.2f} {te:>9.2f}"
        )

    variance_files = sorted(out.glob("variance_s*.txt"))
    if variance_files:
        rows.append("")
        rows.append("Gradient variance (student vs hard and teacher targets):")
        for vf in variance_files:
            rows.append(vf.read_text().rstrip())
    table = "\n".join(rows) + "\n"
    write_atomic(out / "report.txt", [table.encode()])
    print(table, end="")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kdtrain",
        description="Teacher-student distillation training at desk scale.",
    )
    parser.add_argument("--config", help="experiment YAML (defaults used when omitted)")
    parser.add_argument("--out", default="out", help="artifact directory (default: out)")
    parser.add_argument("--seed", type=int, help="restrict to one master seed")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("generate-data", help="synthesize train/cv/test datasets")
    sub.add_parser("train-teacher", help="train the feed-forward teacher (hard targets)")

    p = sub.add_parser("export-soft", help="write temperature-softened teacher targets")
    p.add_argument("--temperature", type=float, help="restrict to one temperature")
    p.add_argument("--teacher", help="explicit teacher checkpoint path")

    p = sub.add_parser("train-student", help="train LSTM student cells")
    p.add_argument("--regime", help="restrict to one regime")
    p.add_argument("--temperature", type=float, help="restrict to one temperature")
    p.add_argument("--parallel", type=int, default=1,
                   help="independent cells in N processes, each scoring on one CPU")

    p = sub.add_parser("eval", help="frame accuracy of a checkpoint on a split")
    p.add_argument("--model", required=True)
    p.add_argument("--split", default="test", choices=_SPLITS)

    p = sub.add_parser("variance-report", help="gradient variance: hard vs soft targets")
    p.add_argument("--student", help="student checkpoint (default: fresh init from --seed)")

    sub.add_parser("report", help="emit the Table-1-style summary and CSV")
    return parser


def _dispatch(args) -> None:
    cfg = load_config(args.config)
    if args.seed is not None and args.seed < 0:
        raise ConfigError(f"--seed must be at least 0, got {args.seed}")
    if getattr(args, "parallel", 1) < 1:
        raise ConfigError(f"--parallel must be at least 1, got {args.parallel}")
    temps = cfg.temperatures
    if getattr(args, "temperature", None) is not None:
        require_positive(args.temperature, "--temperature")
        name = temperature_name(args.temperature)
        clash = [t for t in temps if temperature_name(t) == name and t != args.temperature]
        if clash:  # the two would read and write one another's files
            raise ConfigError(f"--temperature {args.temperature!r} shares the name T{name} "
                              f"with the configured temperature {clash[0]!r}")
        temps = [args.temperature]
    out = Path(args.out)
    if args.command != "generate-data":  # which prepares --out once its splits exist
        _prepare_out(out, cfg)
    seeds = [args.seed] if args.seed is not None else cfg.seeds
    if args.command == "generate-data":
        cmd_generate_data(cfg, out)
    elif args.command == "train-teacher":
        cmd_train_teacher(cfg, out, seeds)
    elif args.command == "export-soft":
        cmd_export_soft(cfg, out, seeds, temps, args.teacher)
    elif args.command == "train-student":
        regimes = [args.regime] if args.regime else cfg.regimes
        bad = [r for r in regimes if r not in REGIMES]
        if bad:
            raise ConfigError(f"unknown regime(s) {bad}")
        cmd_train_student(cfg, out, regimes, temps, seeds, args.parallel)
    elif args.command == "eval":
        cmd_eval(cfg, out, args.model, args.split)
    elif args.command == "variance-report":
        cmd_variance_report(cfg, out, seeds, args.student)
    elif args.command == "report":
        cmd_report(cfg, out)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        _dispatch(args)
    except (FormatError, AlignmentError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except NumericOverflowError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 1
    except (KdtrainError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
