"""The golden CLI battery: a fixed list of ``modalign`` commands on one synthetic corpus.

:func:`run_battery` runs :data:`BATTERY` in order inside a working directory
and returns, per command, its exit code, stdout, stderr and a snapshot of the
files it wrote.  Every path in the battery is relative, so nothing printed
or written names the directory.  ``tests/golden/`` holds the expected
results (``battery.json`` and ``files/``); ``tests/golden/regenerate.py``
rewrites them, and ``tests/test_golden.py`` compares a fresh run with them.

Comparison rules (:func:`differences`):

* Files whose numbers come from the pitch tracker (the ``pitch`` CSVs,
  ``regression.json``, ``margins.csv``) and the WAV summaries are compared
  token by token: the text between numbers byte for byte, integers exactly,
  and other numbers within ``|a - b| <= TOLERANCE * max(1, |a|, |b|)``.  The
  last bits of FFT and ``np.sin`` results differ between numpy builds and
  between changes to the tracker's arithmetic.
* Everything else — stdout, stderr, exit codes, every other output file —
  byte for byte.
* The index is kept whole; its ``manifest.json`` stores audio paths
  relative to the index, so it does not name the directory either.  The
  large synthesized session files are kept as digests: a SHA-256 for
  transcripts and gaze CSVs, and for each WAV its frame count, sample rate,
  and the mean and RMS of its samples.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import re
import shutil
from pathlib import Path

from modalign.cli import main
from modalign.ingest import read_wav

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"
TOLERANCE = 1e-9

_IDX = ("--index", "idx")

#: ``(case, argv, outputs)``: outputs are the files or directories the case writes.
BATTERY: list[tuple[str, list[str], list[str]]] = [
    ("synth", ["synth", "--out", "raw", "--seed", "7", "--speakers", "4", "--words", "120",
               "--effect", "0.15"], ["raw"]),
    ("ingest", ["ingest", "--manifest", "raw/manifest.json", "--out", "idx"], ["idx"]),
    ("pitch", ["pitch", *_IDX, "--out", "pitch.csv"], ["pitch.csv"]),
    ("pitch-1024-256", ["pitch", *_IDX, "--frame-length", "1024", "--hop", "256",
                        "--out", "pitch_1024_256.csv"], ["pitch_1024_256.csv"]),
    ("pitch-hop-128", ["pitch", *_IDX, "--hop", "128", "--out", "pitch_hop_128.csv"],
     ["pitch_hop_128.csv"]),
    ("pitch-hop-300", ["pitch", *_IDX, "--hop", "300", "--out", "pitch_hop_300.csv"],
     ["pitch_hop_300.csv"]),
    ("segments", ["segments", *_IDX, "--out", "segments.csv"], ["segments.csv"]),
    ("align", ["align", *_IDX, "--out", "align.csv"], ["align.csv"]),
    ("align-reverse", ["align", *_IDX, "--source", "segments", "--target", "text",
                       "--out", "align_reverse.csv"], ["align_reverse.csv"]),
    ("align-min-overlap", ["align", *_IDX, "--min-overlap", "0.2",
                           "--out", "align_min_overlap.csv"], ["align_min_overlap.csv"]),
    ("query-text-where-gaze", ["query", *_IDX, "--select", "text", "--where", "gaze.label==AfD",
                               "--out", "query_text_gaze.csv"], ["query_text_gaze.csv"]),
    ("query-text-where-text", ["query", *_IDX, "--select", "text", "--where", "text.word==zuruf",
                               "--out", "query_text_text.csv"], ["query_text_text.csv"]),
    ("query-derived-where-text", ["query", *_IDX, "--select", "derived",
                                  "--where", "text.word==zuruf",
                                  "--out", "query_derived_text.csv"], ["query_derived_text.csv"]),
    ("query-derived-where-gaze", ["query", *_IDX, "--select", "derived",
                                  "--where", "gaze.label==AfD",
                                  "--out", "query_derived_gaze.csv"], ["query_derived_gaze.csv"]),
    ("query-select-audio", ["query", *_IDX, "--select", "audio", "--where", "gaze.label==AfD",
                            "--out", "query_audio.csv"], []),
    ("query-select-unknown", ["query", *_IDX, "--select", "smell", "--where", "gaze.label==AfD",
                              "--out", "query_smell.csv"], []),
    ("query-where-nonsense", ["query", *_IDX, "--select", "text", "--where", "nonsense",
                              "--out", "query_nonsense.csv"], []),
    ("query-where-unknown", ["query", *_IDX, "--select", "text", "--where", "smell.label==AfD",
                             "--out", "query_unknown.csv"], []),
    ("regress", ["regress", *_IDX, "--out", "reg"], ["reg"]),
    ("fw", ["fw", *_IDX, "--out", "fw.csv"], ["fw.csv"]),
    ("advise-continuous", ["advise", "--data", "continuous"], []),
    ("advise-discrete", ["advise", "--data", "discrete", "--representation", "semantic",
                         "--integration", "implicit"], []),
    ("advise-incomplete", ["advise", "--data", "discrete", "--representation", "semantic"], []),
]

#: Output files compared number by number (see the module docstring).
_TOLERANT = re.compile(r"(^pitch.*\.csv|/regression\.json|/margins\.csv|\.wav\.summary\.json)$")
_NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?")


def _snapshot_file(path: Path, name: str) -> dict[str, bytes]:
    """``{golden name: bytes}`` standing for one output file."""
    if name.startswith("raw/sessions/"):
        if name.endswith(".wav"):
            with read_wav(path) as audio:
                x = audio.span(0, len(audio))
            summary = {
                "frames": int(x.size),
                "sample_rate": audio.sample_rate,
                "mean": float(x.mean()),
                "rms": math.sqrt(float((x * x).mean())),
            }
            return {name + ".summary.json": (json.dumps(summary, indent=2) + "\n").encode()}
        return {name + ".sha256": (hashlib.sha256(path.read_bytes()).hexdigest() + "\n").encode()}
    return {name: path.read_bytes()}


def _snapshot(workdir: Path, output: str) -> dict[str, bytes]:
    """``{golden name: bytes}`` for an output file, or for every file under an output directory."""
    root = workdir / output
    paths = [root] if root.is_file() else sorted(p for p in root.rglob("*") if p.is_file())
    out = {}
    for path in paths:
        out.update(_snapshot_file(path, path.relative_to(workdir).as_posix()))
    return out


def run_battery(workdir) -> tuple[dict[str, dict], dict[str, bytes]]:
    """Run :data:`BATTERY` inside ``workdir``: ``(results per case, output files)``."""
    workdir = Path(workdir)
    results: dict[str, dict] = {}
    files: dict[str, bytes] = {}
    here = os.getcwd()
    os.chdir(workdir)
    try:
        for case, argv, outputs in BATTERY:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(argv)
            results[case] = {"argv": argv, "exit_code": code,
                             "stdout": out.getvalue(), "stderr": err.getvalue()}
            for output in outputs:
                files.update(_snapshot(workdir, output))
    finally:
        os.chdir(here)
    return results, files


def load_goldens() -> tuple[dict[str, dict], dict[str, bytes]]:
    """The expected ``(results per case, output files)`` stored under :data:`GOLDEN_DIR`."""
    results = json.loads((GOLDEN_DIR / "battery.json").read_text(encoding="utf-8"))
    root = GOLDEN_DIR / "files"
    files = {
        p.relative_to(root).as_posix(): p.read_bytes()
        for p in sorted(root.rglob("*")) if p.is_file()
    }
    return results, files


def write_goldens(results: dict[str, dict], files: dict[str, bytes]) -> None:
    """Replace the stored goldens with ``results`` and ``files``.

    A stored file that :func:`differences` accepts keeps its bytes, so a
    rerun on unchanged code leaves the goldens as they were.
    """
    _, stored = load_goldens()
    root = GOLDEN_DIR / "files"
    shutil.rmtree(root, ignore_errors=True)
    for name, data in files.items():
        if name in stored and differences(name, stored[name], data) is None:
            data = stored[name]
        (root / name).parent.mkdir(parents=True, exist_ok=True)
        (root / name).write_bytes(data)
    (GOLDEN_DIR / "battery.json").write_text(
        json.dumps(results, indent=2, ensure_ascii=False) + "\n", encoding="utf-8"
    )


def _close(a: str, b: str) -> bool:
    if "." not in a + b and "e" not in (a + b).lower():  # integers: exactly
        return a == b
    x, y = float(a), float(b)
    return abs(x - y) <= TOLERANCE * max(1.0, abs(x), abs(y))


def differences(name: str, want: bytes, got: bytes) -> str | None:
    """Why ``got`` does not match the golden ``want`` for output ``name``, or None."""
    if want == got:
        return None
    if not _TOLERANT.search(name):
        return f"{name}: bytes differ"
    want_text, got_text = want.decode("utf-8"), got.decode("utf-8")
    if _NUMBER.split(want_text) != _NUMBER.split(got_text):
        return f"{name}: text between the numbers differs"
    pairs = zip(_NUMBER.findall(want_text), _NUMBER.findall(got_text), strict=True)
    for i, (a, b) in enumerate(pairs):
        if not _close(a, b):
            return f"{name}: number #{i} is {b}, golden {a} (tolerance {TOLERANCE})"
    return None
