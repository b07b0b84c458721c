"""The program's layers as the benchmark sees them.

``probes`` names the public calls a traced op times and what each counts;
``layer_metrics`` turns the spans of traced ops into the per-layer metrics.
Layer names are the module names of ``src/modalign``.
"""

from __future__ import annotations

import os
from collections import defaultdict
from pathlib import Path

from modalign import cli as pipeline  # the pipeline module tests/_e2e.py imports from
from modalign import gaze, ingest, latent, pitch, stats, timeline

from spans import ROOT_SPAN, self_times

LAYERS = ("ingest", "pitch", "gaze", "timeline", "stats", "latent", "cli")

# per-layer metric -> span whose self time it reports, in seconds per traced op
TIMED = {
    "pitch.track_s": "pitch.estimate_pitch_track",
    "pitch.word_pitch_s": "pitch.word_pitch",
    "pitch.standardize_s": "pitch.standardize_by_speaker",
    "ingest.build_index_s": "ingest.build_index",
    "ingest.load_session_s": "ingest.load_session",
    "ingest.read_wav_s": "ingest.read_wav",
    "gaze.detect_s": "gaze.detect_address_segments",
    "gaze.min_words_s": "gaze.enforce_min_words",
    "timeline.join_s": "timeline.join_streams",
    "timeline.query_s": "timeline.query_crossmodal",
    "stats.split_s": "stats.four_situation_split",
    "stats.fightin_words_s": "stats.fightin_words",
    "stats.fe_regress_s": "stats.fe_regress",
    "cli.build_panel_self_s": "cli.build_panel",
    "latent.dtw_s": "latent.dtw_align",
    "latent.cca_s": "latent.cca_align",
}


def dir_bytes(root) -> int:
    return sum(p.stat().st_size for p in Path(root).rglob("*") if p.is_file())


def probes(tracer):
    """``patched`` targets that time every layer boundary an op crosses.

    ``join_streams`` is wrapped where the pipeline module looks it up, since
    it imports the name rather than the module.
    """

    def probe(owner, attr, name, count=None):
        return (owner, attr, lambda fn: tracer.wrap(fn, name, count))

    return [
        probe(ingest, "build_index", "ingest.build_index",
              lambda out, *a, **k: {"bytes": dir_bytes(out)}),
        probe(ingest.CorpusIndex, "__init__", "ingest.CorpusIndex"),
        probe(ingest.CorpusIndex, "load_session", "ingest.load_session"),
        probe(ingest, "read_wav", "ingest.read_wav",
              lambda out, path, *a, **k: {"bytes": os.path.getsize(path)}),
        probe(pitch, "estimate_pitch_track", "pitch.estimate_pitch_track",
              lambda out, *a, **k: {"frames": len(out), "voiced": out.voiced_count}),
        probe(pitch, "word_pitch", "pitch.word_pitch",
              lambda out, *a, **k: {"without_f0": pitch.missing_count(out)}),
        probe(pitch, "standardize_by_speaker", "pitch.standardize_by_speaker"),
        probe(gaze, "detect_address_segments", "gaze.detect_address_segments",
              lambda out, samples, *a, **k: {"samples": len(samples)}),
        probe(gaze, "enforce_min_words", "gaze.enforce_min_words",
              lambda out, segments, *a, **k: {"raw": len(segments), "kept": len(out)}),
        probe(gaze, "segments_to_stream", "gaze.segments_to_stream"),
        probe(pipeline, "join_streams", "timeline.join_streams",
              lambda out, *a, **k: {"pairs": len(out)}),
        probe(timeline, "query_crossmodal", "timeline.query_crossmodal",
              lambda out, *a, **k: {"hits": len(out)}),
        probe(stats, "fe_regress", "stats.fe_regress",
              lambda out, *a, **k: {"rows": out.n_obs}),
        probe(stats, "four_situation_split", "stats.four_situation_split"),
        probe(stats, "fightin_words", "stats.fightin_words"),
        probe(pipeline, "build_panel", "cli.build_panel",
              lambda out, *a, **k: {"skipped": out[2]}),
        probe(pipeline, "corpus_word_pitches", "cli.corpus_word_pitches"),
        probe(pipeline, "session_segments", "cli.session_segments"),
        probe(latent, "dtw_align", "latent.dtw_align",
              lambda out, a, b, *r, **k: {"cells": len(a) * len(b)}),
        probe(latent, "cca_align", "latent.cca_align"),
    ]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(spans) -> dict[str, float]:
    """Per-op means over the traced ops whose spans are given.

    Times are self times, so the ``<layer>.self_s`` values plus the
    benchmark's own share (``trace.glue_frac``) add up to ``trace.op_s``.
    A layer an op never enters reads 0.
    """
    own = self_times(spans)
    ops = len({s.op for s in spans if s.name == ROOT_SPAN})
    by_name = defaultdict(float)
    counts = defaultdict(float)
    for s in spans:
        by_name[s.name] += own[s.id]
        for key, value in s.counts.items():
            counts[s.name, key] += value

    m = {metric: by_name[name] / ops for metric, name in TIMED.items()}
    for layer in LAYERS:
        m[f"{layer}.self_s"] = sum(v for n, v in by_name.items() if n.split(".")[0] == layer) / ops
    op_total = sum(s.end - s.start for s in spans if s.name == ROOT_SPAN)
    m["trace.op_s"] = op_total / ops
    m["trace.glue_frac"] = _ratio(by_name[ROOT_SPAN], op_total)

    frames = counts["pitch.estimate_pitch_track", "frames"]
    m["pitch.frames"] = frames / ops
    m["pitch.us_per_frame"] = _ratio(by_name["pitch.estimate_pitch_track"] * 1e6, frames)
    m["pitch.voiced_frac"] = _ratio(counts["pitch.estimate_pitch_track", "voiced"], frames)
    m["pitch.words_without_f0"] = counts["pitch.word_pitch", "without_f0"] / ops
    m["ingest.index_bytes"] = counts["ingest.build_index", "bytes"] / ops
    m["ingest.audio_bytes"] = counts["ingest.read_wav", "bytes"] / ops
    m["gaze.samples"] = counts["gaze.detect_address_segments", "samples"] / ops
    m["gaze.kept_frac"] = _ratio(
        counts["gaze.enforce_min_words", "kept"], counts["gaze.enforce_min_words", "raw"]
    )
    m["timeline.join_pairs"] = counts["timeline.join_streams", "pairs"] / ops
    m["timeline.query_hits"] = counts["timeline.query_crossmodal", "hits"] / ops
    m["stats.panel_rows"] = counts["stats.fe_regress", "rows"] / ops
    m["stats.panel_rows_skipped"] = counts["cli.build_panel", "skipped"] / ops
    cells = counts["latent.dtw_align", "cells"]
    m["latent.dtw_cells"] = cells / ops
    m["latent.dtw_ns_per_cell"] = _ratio(by_name["latent.dtw_align"] * 1e9, cells)
    return m
