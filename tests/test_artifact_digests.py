"""tools/artifact_digests.py lists the same digests on a rerun, so a
difference between two checkouts is a difference in what they wrote."""

import subprocess
import sys
from pathlib import Path

import pytest

_SCRIPT = Path(__file__).resolve().parents[1] / "tools" / "artifact_digests.py"


def listing(workload: str, out: Path) -> list[str]:
    proc = subprocess.run(
        [sys.executable, str(_SCRIPT), "--workload", workload, "--seed", "1",
         "--scale", "tiny", "--out", str(out)],
        capture_output=True, text=True, timeout=300, check=True,
    )
    return proc.stdout.splitlines()


@pytest.mark.parametrize("workload, expected", [
    ("teacher_export", {"teacher_s1.dkdm", "teacher_s1.runrec", "soft_T1_s1.dkst",
                        "soft_T10_s1.dkst"}),
    ("student_matrix", {"student_hard_s1.dkdm", "student_pretrain_T2_s1.runrec",
                        "soft_T2_s1.dkst", "variance_s1.txt"}),
    ("student_eval_long", {"student_fresh_s1.dkdm", "teacher_s1.dkdm", "soft_T20_s1.dkst",
                           "variance_s1.txt"}),
], ids=["teacher_export", "student_matrix", "student_eval_long"])
def test_rerun_lists_identical_digests(tmp_path, workload, expected):
    first = listing(workload, tmp_path / "a")
    assert listing(workload, tmp_path / "b") == first
    names = [line.split("  ", 1)[1] for line in first]
    assert names[-1] == "(stdout)"
    assert names[:-1] == sorted(names[:-1])
    assert expected <= set(names)


def test_refuses_a_directory_that_is_not_empty(tmp_path):
    (tmp_path / "stale.dkst").write_bytes(b"")
    proc = subprocess.run(
        [sys.executable, str(_SCRIPT), "--workload", "teacher_export", "--scale", "tiny",
         "--out", str(tmp_path)],
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 2 and "not empty" in proc.stderr
