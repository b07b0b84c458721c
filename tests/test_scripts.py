"""Smoke runs of the scripts under ``scripts/`` at a small scale."""

import csv
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_script(name, *argv, cwd):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *map(str, argv)],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=300,
    )


def test_demo_prints_its_headlines(tmp_path):
    proc = run_script("demo.py", "--workdir", tmp_path / "demo", "--seed", 7, "--speakers", 3,
                      "--words", 100, "--sample-rate", 8000, cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    out = proc.stdout
    assert out.startswith("synthesizing 3 speeches x 100 words (planted effect +0.15 SD) ...\n")
    assert "predicted pitch (z units) by party and addressing state:" in out
    assert "  AfD addressing=0" in out and "  SPD addressing=1" in out
    assert "planted effect +0.150, recovered addressing_x_SPD = " in out
    assert "words most typical of speech addressed at the target party:" in out


def test_recovery_study_reports_coverage(tmp_path):
    proc = run_script("recovery_study.py", "--runs", 2, "--csv", tmp_path / "study.csv",
                      cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0] == "runs            2"
    assert lines[1] == "planted effect  +0.150"
    assert any(line.startswith("95% CI coverage ") and line.endswith("/2") for line in lines)
    assert proc.stderr.count("seed ") == 2
    with open(tmp_path / "study.csv", newline="", encoding="utf-8") as fh:
        header, *rows = csv.reader(fh)
    assert header == ["seed", "estimate", "std_error", "ci_low", "ci_high", "covered"]
    assert len(rows) == 2 and {len(row) for row in rows} == {6}
    assert [row[0] for row in rows] == ["0", "1"] and {row[5] for row in rows} <= {"0", "1"}
    assert all(float(row[3]) <= float(row[1]) <= float(row[4]) for row in rows)
