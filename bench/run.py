#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics.

    python3 bench/run.py --workload planted_battery --seed 1 --seconds 15 --trace 0

Run from the repository root; the program is imported from ``src/``.  Set-up
(corpus synthesis, and the index where the op only reads it) runs
``SETUP_REPEATS`` times, each in a fresh process, and ``setup_s`` is the
median of the times taken inside those processes.  Then one client runs ops back to back for ``--seconds`` and every
op's output is checked against the planted truth; a failed check counts in
``failed`` and the run goes on.

With ``--trace 0`` ops run untraced and the last line carries the
``end_to_end`` metrics of ``BENCHMARK.json``; op times there are in units of
the calibration kernel (see ``calibrate``).  With ``--trace 1`` each input
runs untraced and then traced, the last line carries the ``per_layer``
metrics, and the spans go to ``.bench_out/``.  The line before the last
holds the provenance stamp and the workload's own figures (wall-clock op
times, CI coverage, audio per wall second, failure messages).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

try:
    import modalign
    import workloads
    from layers import layer_metrics, probes
except ImportError as e:  # reported by main(), so a checkout without the program exits non-zero
    IMPORT_ERROR: ImportError | None = e
else:
    IMPORT_ERROR = None

from spans import Tracer, patched

SETUP_REPEATS = 3
SETUP_CHILD = Path(__file__).resolve().parent / "setup_child.py"
SETUP_TIMEOUT_S = 60
TRACE_FILE_DIR = ROOT / ".bench_out"
WORK_DIR = ROOT / ".bench_work"

# Inputs of the calibration kernel: word records like an index blob, and frames to transform.
_CAL_JSON = json.dumps(
    [{"id": f"w{i:06d}", "start": i * 0.375, "end": (i + 1) * 0.375, "word": f"wort{i % 50:03d}"}
     for i in range(1500)]
)
_CAL_FRAMES = np.random.default_rng(0).standard_normal((24, 1024))


def calibrate() -> float:
    """Seconds for a fixed mix of JSON, dict, interpreter and FFT work (about 5 ms).

    It runs no program code, so its time tracks only the speed the CPU gives
    this process.  On a shared host that speed swings by up to 1.8x in
    phases lasting seconds to a minute; each op is divided by the kernel's
    time just before and after it, so the gated op metrics are in kernel
    units ("cal") and a program change moves them while the host's swings
    mostly cancel.
    """
    tic = time.perf_counter()
    by_word: dict[str, list] = {}
    for w in json.loads(_CAL_JSON):
        by_word.setdefault(w["word"], []).append((w["start"], w["end"]))
    acc = 0.0
    for k in range(15000):
        acc += k * 0.5
    spec = np.fft.rfft(_CAL_FRAMES, n=2048, axis=1)
    np.fft.irfft(spec * spec.conj(), axis=1)
    return time.perf_counter() - tic


def set_up(workload, work: Path, seed: int):
    """Median time of ``SETUP_REPEATS`` set-ups and the last one's inner timings.

    Each set-up runs in a fresh process (``setup_child.py``) and is timed
    there; ``subprocess.run`` waits for it, and kills it if this process is
    interrupted, so no set-up process outlives the run.
    """
    argv = [sys.executable, str(SETUP_CHILD), workload.name,
            json.dumps(dataclasses.asdict(workload)), str(work), str(seed)]
    times = []
    for _ in range(SETUP_REPEATS):
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir(parents=True)
        proc = subprocess.run(argv, capture_output=True, text=True, timeout=SETUP_TIMEOUT_S)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up failed:\n{proc.stderr.strip()}")
        done = json.loads(proc.stdout.strip().splitlines()[-1])
        times.append(done["seconds"])
    return statistics.median(times), done["timings"]


def run_op(workload, i: int, tracer=None):
    """Run op ``i`` and check it; returns (seconds, problems)."""
    tic = time.perf_counter()
    try:
        if tracer is None:
            out = workload.op(i)
        else:
            with patched(probes(tracer)), tracer.op(i):
                out = workload.op(i)
    except Exception as e:  # a failed op counts in `failed`; the run goes on
        return time.perf_counter() - tic, [f"op {i} raised {type(e).__name__}: {e}"]
    seconds = time.perf_counter() - tic
    try:
        return seconds, workload.check(out)
    except Exception as e:
        return seconds, [f"check of op {i} raised {type(e).__name__}: {e}"]


class Loop:
    """Closed-loop client: sends ops one after another and tallies them."""

    def __init__(self, workload):
        self.workload = workload
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        # (op seconds, mean calibration seconds around the op) per timed op
        self.untraced: list[tuple[float, float]] = []
        self.traced: list[tuple[float, float]] = []

    def op(self, i: int, tracer=None, timed: bool = True) -> None:
        """Run op ``i`` (the workload picks its input by ``i``) and tally it."""
        before = calibrate()
        seconds, problems = run_op(self.workload, i, tracer)
        cal = (before + calibrate()) / 2
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(problems)
        if timed:
            (self.untraced if tracer is None else self.traced).append((seconds, cal))


def measure_untraced(workload, seconds: float) -> Loop:
    loop = Loop(workload)
    loop.op(0, timed=False)  # warm-up: first-call costs stay out of the timings
    start = time.perf_counter()
    while not loop.untraced or time.perf_counter() - start < seconds:
        loop.op(len(loop.untraced))
    return loop


def measure_traced(workload, seconds: float):
    """Run each input untraced, then traced; returns the loop, the tracer and layer metrics."""
    tracer = Tracer()
    loop = Loop(workload)
    loop.op(0, timed=False)
    start = time.perf_counter()
    while not loop.traced or time.perf_counter() - start < seconds:
        i = len(loop.traced)
        loop.op(i)
        loop.op(i, tracer)
    metrics = layer_metrics(tracer.spans)
    metrics["trace.overhead_frac"] = (
        statistics.median(s / c for s, c in loop.traced)
        / statistics.median(s / c for s, c in loop.untraced) - 1.0
    )
    return loop, tracer, metrics


def _read(path: Path) -> str | None:
    try:
        return path.read_text(encoding="utf-8").strip()
    except OSError:
        return None


def git_commit() -> str | None:
    """HEAD of the checkout; None outside a git clone or without git."""
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    except OSError:
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def provenance(args, attempted: int) -> dict:
    cpu_model = None
    for line in (_read(Path("/proc/cpuinfo")) or "").splitlines():
        if line.startswith("model name"):
            cpu_model = line.split(":", 1)[1].strip()
            break
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        if _read(index / "type") in ("Unified", "Data"):
            caches[f"L{_read(index / 'level')}"] = _read(index / "size")
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "l2": caches.get("L2"),
        "l3": caches.get("L3"),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "commit": git_commit(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "ops": attempted,
    }


def run(workload, seed: int, seconds: float, trace: bool, work: Path) -> tuple[dict, Loop, dict]:
    """Set up, measure and return (metrics by name, loop, workload figures)."""
    setup_s, inner = set_up(workload, work, seed)
    workload.load(work, seed)
    if trace:
        loop, tracer, metrics = measure_traced(workload, seconds)
        synth = inner.get("synth_s", [])
        metrics["synth.corpus_s"] = statistics.fmean(synth) if synth else 0.0
        if "build_index_s" in inner:  # the index is part of set-up, not of the op
            metrics["ingest.build_index_s"] = inner["build_index_s"]
            metrics["ingest.index_bytes"] = inner["index_bytes"]
        figures = {"spans": tracer.dump()}
    else:
        loop = measure_untraced(workload, seconds)
        cals = [s / c for s, c in loop.untraced]
        metrics = {
            "ops_per_kcal": 1e3 * len(cals) / sum(cals),
            "op_p50_cal": statistics.median(cals),
            "setup_s": setup_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        figures = {}
    report = workload.report()
    if loop.untraced:
        # Not gated: wall-clock figures swing with the host's load, and a run
        # holds too few ops for ten to lie beyond its 90th percentile.
        times = [s for s, _ in loop.untraced]
        report["ops_per_s"] = len(times) / sum(times)
        report["op_p50_ms"] = 1e3 * statistics.median(times)
        report["op_p90_ms"] = 1e3 * float(np.percentile(times, 90))
        report["op_p90_cal"] = float(np.percentile([s / c for s, c in loop.untraced], 90))
        report["cal_p50_ms"] = 1e3 * statistics.median(c for _, c in loop.untraced)
        if "audio_s_per_op" in report:
            report["audio_x_realtime"] = report["audio_s_per_op"] * report["ops_per_s"]
    report["failed_frac"] = loop.failed / loop.attempted
    report["setup_s"] = setup_s
    report["problems"] = loop.problems[:10]
    figures["report"] = report
    return metrics, loop, figures


def main(argv=None, workload=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")

    if IMPORT_ERROR is not None:
        print(f"bench: cannot import the program from {ROOT / 'src'}: {IMPORT_ERROR}", file=sys.stderr)
        return 2
    if Path(modalign.__file__).resolve().parent.parent != ROOT / "src":
        print(f"bench: modalign imported from {modalign.__file__}, not {ROOT / 'src'}", file=sys.stderr)
        return 2

    if workload is None:
        workload = workloads.WORKLOADS[args.workload]()
    work = WORK_DIR / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        metrics, loop, figures = run(workload, args.seed, args.seconds, bool(args.trace), work)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    stamp = provenance(args, loop.attempted)
    if args.trace:
        TRACE_FILE_DIR.mkdir(exist_ok=True)
        out = TRACE_FILE_DIR / f"trace-{args.workload}-seed{args.seed}.json"
        out.write_text(json.dumps({"provenance": stamp, "spans": figures.pop("spans")}) + "\n")
    for problem in loop.problems[:10]:
        print(f"bench: {problem}", file=sys.stderr)
    print(json.dumps({"provenance": stamp, **figures}))

    section = spec["per_layer" if args.trace else "end_to_end"]
    result = {
        "correct": loop.failed == 0,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in section},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
