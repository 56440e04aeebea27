"""kdtrain benchmark: run one workload and print its metrics.

Run from the root of a kdtrain checkout:

    python3 perfbench/run.py --workload student_matrix --seed 1 --seconds 45 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the
per-module metrics of a traced run. The last line of standard output is
one JSON object with the keys correct, attempted, failed and metrics.
``--repeat N`` runs the workload N times in fresh processes with seeds
seed .. seed+N-1 and prints each metric's median and quartiles.
"""

import os
import time

_T0 = time.perf_counter()
# One BLAS thread: the runs are single-client batch jobs on a small host,
# and a pinned thread count keeps results comparable between runs.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

from workloads import WORKLOADS  # noqa: E402


def _process_age() -> float:
    """Seconds since this process started, at clock-tick resolution."""
    try:
        start_ticks = int(Path("/proc/self/stat").read_text().rsplit(")", 1)[1].split()[19])
        uptime = float(Path("/proc/uptime").read_text().split()[0])
        return max(0.0, uptime - start_ticks / os.sysconf("SC_CLK_TCK"))
    except (OSError, ValueError, IndexError):
        return 0.0


_BEFORE_T0 = _process_age()


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=45.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--scale", choices=("desk", "tiny"), default="desk",
                   help="tiny shrinks every size, for the benchmark's own tests")
    p.add_argument("--repeat", type=int, default=0,
                   help="steadiness mode: N runs in fresh processes, then quartiles")
    return p.parse_args(argv)


def repeat(args) -> int:
    """Steadiness mode: run the workload in N fresh processes, one after
    another, and print each metric's median and quartiles over them."""
    values: dict[str, list[float]] = {}
    units: dict[str, str] = {}
    bad = 0
    for i in range(args.repeat):
        cmd = [sys.executable, __file__, "--workload", args.workload, "--seed",
               str(args.seed + i), "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--scale", args.scale]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"run {i}: exit {proc.returncode}\n{proc.stderr[-2000:]}", file=sys.stderr)
            return 1
        result = json.loads(lines[-1])
        bad += result["failed"] or not result["correct"]
        print(f"run {i} seed {args.seed + i}: " + ", ".join(
            f"{k}={m['value']:.6g}" for k, m in result["metrics"].items()), flush=True)
        for k, m in result["metrics"].items():
            values.setdefault(k, []).append(m["value"])
            units[k] = m["unit"]
    print(f"{'metric':<44} {'unit':>9} {'median':>12} {'q1':>12} {'q3':>12} {'iqr/med':>8}")
    for k, vs in values.items():
        q1, med, q3 = statistics.quantiles(vs, n=4) if len(vs) > 1 else (vs[0],) * 3
        spread = (q3 - q1) / med if med else 0.0
        print(f"{k:<44} {units[k]:>9} {med:>12.6g} {q1:>12.6g} {q3:>12.6g} {spread:>8.3f}")
    print(f"runs with failed operations: {bad} of {args.repeat}")
    return 0 if bad == 0 else 1


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "kdtrain" / "__init__.py").is_file():
        print(f"error: {root} is not a kdtrain checkout (src/kdtrain missing); "
              "run from the repository root", file=sys.stderr)
        return 2
    if args.repeat:
        return repeat(args)
    sys.path.insert(0, str(root / "src"))
    import kdtrain  # noqa: F401  (import time counts toward setup_s)
    import harness

    if Path(kdtrain.__file__).resolve().parent != (root / "src" / "kdtrain").resolve():
        print(f"error: imported kdtrain from {kdtrain.__file__}", file=sys.stderr)
        return 2
    startup_s = _BEFORE_T0 + time.perf_counter() - _T0
    result = harness.run_workload(args.workload, args.seed, args.seconds, bool(args.trace),
                                  args.scale, root, startup_s)

    results_dir = root / ".perfbench_out" / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    detail = results_dir / f"{args.scale}_{args.workload}_seed{args.seed}_trace{args.trace}.json"
    detail.write_text(json.dumps(result, indent=1, sort_keys=True))

    ident, env = result["identity"], result["environment"]
    print(f"workload {ident['workload']} seed {ident['seed']} passes {ident['passes']} "
          f"config {ident['config_digest'][:12]} src {ident['src_digest'][:12]} "
          f"commit {ident['git_commit']}")
    print("env " + " ".join(f"{k}={v}" for k, v in env.items()))
    for name, m in result["metrics"].items():
        note = ""
        if "per_pass" in m:
            pm = m["per_pass"]
            note = (f" (over {m['n']} passes; per pass: median {pm['median']:.6g},"
                    f" q1 {pm['q1']:.6g}, q3 {pm['q3']:.6g})")
        elif "set_up" in m:
            su = m["set_up"]
            note = (f" (start-up {m['startup_s']:.3g} s + median of {su['n']} set-ups;"
                    f" q1 {su['q1']:.6g}, q3 {su['q3']:.6g})")
        print(f"{name} {m['value']:.6g} {m['unit']}{note}")
    print(f"error_rate {result['failed'] / result['attempted']:.4g} "
          f"({result['failed']} of {result['attempted']} operations failed)")
    for failure in result["failures"]:
        print(f"FAILED {failure}")
    print(f"detail {detail.relative_to(root)}")
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: {"value": m["value"], "unit": m["unit"]}
                    for k, m in result["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
