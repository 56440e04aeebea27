"""Print the sha256 of every artifact one benchmark pass writes.

Runs a workload of ``perfbench/workloads.py`` the way the benchmark
does: its set-up calls, then one pass of its CLI calls through
``kdtrain.cli.main``, at 1 BLAS thread, into a fresh output directory.
Prints one ``sha256  name`` line per file written, sorted by name, and
last the sha256 of everything the calls printed, with the output path
replaced by ``{out}``. Two checkouts whose listings are identical wrote
the same bytes and the same output.

    python3 tools/artifact_digests.py --workload teacher_export --seed 1 --out DIR

``--root`` picks the checkout whose ``src/kdtrain`` and
``perfbench/workloads.py`` are run (default: the one holding this
script), so the same script can list a parent commit's artifacts.
Exit status 1 if a call exits non-zero.
"""

import os

# The benchmark runs at one BLAS thread; so does this listing.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

import yaml  # noqa: E402


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--scale", choices=("desk", "tiny"), default="desk")
    p.add_argument("--out", required=True, help="output directory; must be new or empty")
    p.add_argument("--root", default=str(Path(__file__).resolve().parents[1]),
                   help="kdtrain checkout to run (default: this script's)")
    return p.parse_args(argv)


def write_fresh_student(out: Path, config: Path, seed: int, name: str) -> None:
    """The untrained student checkpoint a ``fresh_student`` workload's
    set-up writes: the one ``variance-report`` builds."""
    from kdtrain.cli import _init_student
    from kdtrain.config import load_config
    from kdtrain.formats import read_dataset, write_checkpoint

    train = read_dataset(out / "dataset_train.dkds")
    params = _init_student(load_config(config), train, seed)
    write_checkpoint(out / f"{name.format(seed=seed)}.dkdm", params)


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path(args.root).resolve()
    sys.path[:0] = [str(root / "src"), str(root / "perfbench")]
    import kdtrain
    from kdtrain.cli import main as kdtrain_main
    from workloads import FRESH_STUDENT, WORKLOADS

    if Path(kdtrain.__file__).resolve().parent != root / "src" / "kdtrain":
        print(f"error: imported kdtrain from {kdtrain.__file__}", file=sys.stderr)
        return 2
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}, choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    out = Path(args.out).resolve()
    if out.exists() and any(out.iterdir()):
        print(f"error: {out} is not empty", file=sys.stderr)
        return 2
    out.mkdir(parents=True, exist_ok=True)

    workload = WORKLOADS[args.workload]
    cfg = workload.config(args.seed, args.scale)
    printed = io.StringIO()
    failed = []

    def run(call) -> None:
        argv = [a.format(out=out, seed=args.seed) for a in call.argv]
        with contextlib.redirect_stdout(printed), contextlib.redirect_stderr(printed):
            code = kdtrain_main(["--config", str(config), "--out", str(out), *argv])
        if code:
            failed.append(f"{' '.join(argv)} exited {code}")

    with tempfile.TemporaryDirectory() as tmp:
        config = Path(tmp) / "config.yaml"
        config.write_text(yaml.safe_dump(cfg, sort_keys=True))
        for call in workload.setup:
            run(call)
        if workload.fresh_student:
            write_fresh_student(out, config, args.seed, FRESH_STUDENT)
        for call in workload.passes:
            run(call)
    for path in sorted(out.iterdir()):
        print(f"{hashlib.sha256(path.read_bytes()).hexdigest()}  {path.name}")
    text = printed.getvalue().replace(str(out), "{out}")
    print(f"{hashlib.sha256(text.encode()).hexdigest()}  (stdout)")
    for failure in failed:
        print(f"error: {failure}", file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
