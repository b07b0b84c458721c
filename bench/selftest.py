"""Self-tests of the benchmark, run at tiny sizes.

    python3 -m pytest -q bench/selftest.py

The file name keeps these out of the repository's own test run.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402  (puts src/ on the path)
import workloads  # noqa: E402
from layers import LAYERS  # noqa: E402
from modalign import pitch  # noqa: E402
from spans import ROOT_SPAN, Span, self_times  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

TINY = {
    "planted_battery": lambda: workloads.PlantedBattery(corpora=2, speakers=2, words=60),
    "timeline_queries": lambda: workloads.TimelineQueries(speakers=2, words=120),
    "latent_aligners": lambda: workloads.LatentAligners(pairs=8, shortest=20, longest=40),
}


def bench(capsys, name: str, trace: int):
    argv = ["--workload", name, "--seed", "3", "--seconds", "0.2", "--trace", str(trace)]
    assert run.main(argv, workload=TINY[name]()) == 0
    *_, figures, result = capsys.readouterr().out.strip().splitlines()
    return json.loads(figures), json.loads(result)


def test_workloads_match_benchmark_json():
    assert set(TINY) == set(workloads.WORKLOADS) == {w["name"] for w in SPEC["workloads"]}


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", sorted(TINY))
def test_every_metric_printed_with_its_unit(capsys, name, trace):
    figures, result = bench(capsys, name, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    section = SPEC["per_layer" if trace else "end_to_end"]
    assert {n: m["unit"] for n, m in result["metrics"].items()} == {m["name"]: m["unit"] for m in section}
    values = {n: m["value"] for n, m in result["metrics"].items()}
    assert all(isinstance(v, (int, float)) and math.isfinite(v) for v in values.values())
    if not trace:
        assert all(v > 0 for v in values.values())
    else:
        dump = json.loads((BENCH.parent / ".bench_out" / f"trace-{name}-seed3.json").read_text())
        spans = [Span(**s) for s in dump["spans"]]
        # every span is the op's root or belongs to a layer, and none has negative self time
        assert {s.name.split(".")[0] for s in spans if s.name != ROOT_SPAN} <= set(LAYERS)
        assert min(self_times(spans).values()) >= -1e-12
        assert sum(s.name == ROOT_SPAN for s in spans) == result["attempted"] // 2
    stamp = figures["provenance"]
    for key in ("nproc", "cpu_model", "l2", "l3", "python", "numpy", "commit", "seed", "ops"):
        assert key in stamp
    assert stamp["seed"] == 3 and stamp["ops"] == result["attempted"]
    assert figures["report"]["failed_frac"] == 0.0


def test_corrupted_f0_counts_as_failed(capsys, monkeypatch):
    real = pitch.word_pitch
    calls = []

    def nudged(track, words):
        out = real(track, words)
        calls.append(None)
        if len(calls) == 1:  # first session of the first op only
            out[0] = dataclasses.replace(out[0], mean_f0=out[0].mean_f0 * 1.05)
        return out

    monkeypatch.setattr(pitch, "word_pitch", nudged)
    figures, result = bench(capsys, "planted_battery", 0)
    assert result["failed"] == 1 and not result["correct"]
    assert result["attempted"] > 1  # the run went on
    assert figures["report"]["failed_frac"] == 1 / result["attempted"]
    assert "f0 off" in figures["report"]["problems"][0]


def test_fails_without_the_program(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    argv = [sys.executable, "bench/run.py", "--workload", "latent_aligners", "--seed", "1",
            "--seconds", "1", "--trace", "0"]
    proc = subprocess.run(argv, cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0 and proc.stdout == ""


def test_leaves_no_process_behind():
    argv = [sys.executable, "bench/run.py", "--workload", "latent_aligners", "--seed", "1",
            "--seconds", "0.2", "--trace", "0"]
    # in a session of its own, so every process it starts can be found by session id
    proc = subprocess.Popen(argv, cwd=run.ROOT, stdout=subprocess.DEVNULL, start_new_session=True)
    assert proc.wait(timeout=120) == 0
    survivors = []
    for entry in Path("/proc").iterdir():
        try:
            if entry.name.isdigit() and os.getsid(int(entry.name)) == proc.pid:
                survivors.append(entry.name)
        except OSError:  # the process ended while we looked
            pass
    assert survivors == []


def test_self_time_subtracts_the_union_of_children():
    spans = [
        Span(0, "op", 0, None, 0.0, 10.0),
        Span(1, "a", 0, 0, 1.0, 4.0),
        Span(2, "b", 0, 0, 3.0, 6.0),  # overlaps a, as on a worker thread
        Span(3, "c", 0, 1, 2.0, 3.0),
    ]
    own = self_times(spans)
    assert own == {0: 5.0, 1: 2.0, 2: 3.0, 3: 1.0}
