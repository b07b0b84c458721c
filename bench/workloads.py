"""The three benchmark workloads.

Each workload is one closed-loop client: it sends its next op only after the
last one returns.  ``setup`` runs in a child process and builds every input
from the seed with ``synth_corpus``; ``load`` reads what the checks need;
``op`` is the timed call into the program; ``check`` compares its output
with the planted truth and returns the problems it found.
"""

from __future__ import annotations

import json
import math
import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import ClassVar

import numpy as np

from modalign import ingest, latent, stats, timeline
from modalign import gaze as gaze_mod
from modalign.synth import WORD_SLOT, SynthSpec, synth_corpus

from layers import dir_bytes, pipeline
from spans import capture

F0_TOLERANCE = 0.01   # relative; the worst word error seen on these corpora is 0.32%
PLANTED_EFFECT = 0.15  # speaker-SD units, as in the planted-effect acceptance test
Z_CALM = 3.0


def timed_setup(workload, work: Path, seed: int) -> tuple[float, dict]:
    """Run ``workload.setup`` and time it in the process it runs in.

    The time leaves out process start and imports, so it moves with the
    set-up work alone.
    """
    tic = time.perf_counter()
    timings = workload.setup(work, seed)
    return time.perf_counter() - tic, timings


def _synth(spec: SynthSpec, out: Path, timings: dict) -> Path:
    tic = time.perf_counter()
    manifest = synth_corpus(spec, out)
    timings.setdefault("synth_s", []).append(time.perf_counter() - tic)
    return manifest


def _index(manifest: Path, out: Path, timings: dict) -> None:
    tic = time.perf_counter()
    ingest.build_index(manifest, out)
    timings["build_index_s"] = time.perf_counter() - tic
    timings["index_bytes"] = dir_bytes(out)


def _truth(manifest: Path) -> dict:
    return json.loads((manifest.parent / "ground_truth.json").read_text(encoding="utf-8"))


def _check_pitch_panel(truth: dict, pitches, rows) -> list[str]:
    """Word f0 within tolerance of the planted tone; panel rows flag exactly the planted words.

    ``rows`` follow ``pitches`` in order, minus words without a z-score.
    """
    problems = []
    expected = {
        (sid, ingest.word_element_id(w)): f
        for sid, sess in truth["sessions"].items()
        for w, f in enumerate(sess["word_freqs"])
    }
    if len(pitches) != len(expected):
        return [f"{len(pitches)} word pitches for {len(expected)} planted words"]
    bad = []
    for wp in pitches:
        planted = expected[wp.session_id, wp.word_id]
        if wp.mean_f0 is None or abs(wp.mean_f0 - planted) > F0_TOLERANCE * planted:
            bad.append(wp.word_id)
    if bad:
        problems.append(f"{len(bad)} words with f0 off by more than {F0_TOLERANCE:.0%}")
    scored = [wp for wp in pitches if wp.z is not None]
    if len(scored) != len(rows):
        return problems + [f"{len(rows)} panel rows for {len(scored)} scored words"]
    addressed = {}
    for wp, row in zip(scored, rows):
        if row.regressors["addressing"]:
            addressed.setdefault(wp.session_id, []).append(wp.word_id)
    for sid, sess in truth["sessions"].items():
        if sorted(addressed.get(sid, [])) != sorted(sess["in_segment_word_ids"]):
            problems.append(f"{sid}: addressed words differ from the planted segments")
    return problems


@dataclass
class PlantedBattery:
    """Many small corpora shaped like the planted-effect acceptance test."""

    corpora: int = 40
    speakers: int = 3
    words: int = 100

    name: ClassVar[str] = "planted_battery"
    config: ClassVar = pipeline.RunConfig(pitch=pipeline.PitchSettings(frame_length=1024, hop=256))

    def _spec(self, seed: int, k: int) -> SynthSpec:
        # even corpora carry the planted effect, odd ones are null
        return SynthSpec(
            seed=seed * 1000 + k, speakers=self.speakers, words_per_speech=self.words,
            planted_pitch_effect=PLANTED_EFFECT if k % 2 == 0 else 0.0, sample_rate=8000,
        )

    def setup(self, work: Path, seed: int) -> dict:
        timings = {}
        for k in range(self.corpora):
            _synth(self._spec(seed, k), work / f"c{k:03d}", timings)
        return timings

    def load(self, work: Path, seed: int) -> None:
        self.work = work
        self.manifests = [work / f"c{k:03d}" / "manifest.json" for k in range(self.corpora)]
        self.truths = [_truth(m) for m in self.manifests]
        self.interaction = f"addressing_x_{self._spec(seed, 0).other_party}"
        self.seconds_of_audio = self.speakers * self.words * WORD_SLOT
        self.outcomes: dict[int, bool] = {}   # corpus -> CI covers truth / |z| calm

    def op(self, i: int):
        k = i % self.corpora
        with capture(pipeline, "corpus_word_pitches") as got:
            index = ingest.CorpusIndex(ingest.build_index(self.manifests[k], self.work / "idx"))
            rows, _, _ = pipeline.build_panel(index, self.config)
            result = stats.fe_regress(rows)
        return k, got, rows, result

    def check(self, out) -> list[str]:
        k, got, rows, result = out
        truth = self.truths[k]
        problems = _check_pitch_panel(truth, got[0][1], rows)
        est = result.coefficients[self.interaction]
        se = result.standard_errors[self.interaction]
        if not (math.isfinite(est) and math.isfinite(se) and se > 0):
            return problems + [f"corpus {k}: estimate {est} with SE {se}"]
        if k not in self.outcomes:
            if truth["planted_effect"]:
                self.outcomes[k] = abs(est - truth["planted_effect"]) <= stats.Z_95 * se
            else:
                self.outcomes[k] = abs(est / se) < Z_CALM
        return problems

    def report(self) -> dict:
        planted = [ok for k, ok in self.outcomes.items() if k % 2 == 0]
        null = [ok for k, ok in self.outcomes.items() if k % 2 == 1]
        return {
            "ci_coverage": sum(planted) / len(planted) if planted else None,
            "null_calm": sum(null) / len(null) if null else None,
            "planted_corpora": len(planted),
            "null_corpora": len(null),
            "audio_s_per_op": self.seconds_of_audio,
        }


@dataclass
class TimelineQueries:
    """Index reads, gaze, joins, the cross-modal query and the lexical split; no audio."""

    speakers: int = 8
    words: int = 4000

    name: ClassVar[str] = "timeline_queries"
    config: ClassVar = pipeline.RunConfig()

    def setup(self, work: Path, seed: int) -> dict:
        timings = {}
        spec = SynthSpec(seed=seed, speakers=self.speakers, words_per_speech=self.words,
                         sample_rate=8000)
        _index(_synth(spec, work / "raw", timings), work / "idx", timings)
        return timings

    def load(self, work: Path, seed: int) -> None:
        self.index_root = work / "idx"
        self.truth = _truth(work / "raw" / "manifest.json")

    def op(self, i: int):
        label = self.config.address.label
        target = self.config.target_party
        index = ingest.CorpusIndex(self.index_root)
        segments = pipeline.session_segments(index, self.config)
        streams, joined = [], {}
        for sid in index.session_ids():
            data = index.load_session(sid)
            streams.append(data.words)
            if segments[sid]:
                seg_stream = gaze_mod.segments_to_stream(segments[sid], sid, speaker_id=data.speaker_id)
                streams.append(seg_stream)
                joined[sid] = pipeline.join_streams(data.words, seg_stream)
        hits = timeline.query_crossmodal(
            streams, timeline.Modality.TEXT, lambda e: e.payload == label, timeline.Modality.DERIVED
        )
        split = stats.four_situation_split(
            [s for s in streams if s.modality is timeline.Modality.TEXT],
            segments,
            {sid: p.party for sid, p in index.speakers().items()},
            target_party=target,
        )
        cells = split.cells()
        scores = {
            name: stats.fightin_words(counts, sum((c for n, c in cells.items() if n != name), Counter()))
            for name, counts in cells.items()
        }
        return joined, hits, scores

    def check(self, out) -> list[str]:
        joined, hits, scores = out
        problems = []
        planted = 0
        for sid, sess in self.truth["sessions"].items():
            planted += len(sess["in_segment_word_ids"])
            amap = joined.get(sid)
            got = sorted({p.source_id for p in amap.pairs}) if amap else []
            if got != sorted(sess["in_segment_word_ids"]):
                problems.append(f"{sid}: joined words differ from the planted segments")
        if len(hits) != planted:
            problems.append(f"query found {len(hits)} words, {planted} planted")
        for name, result in scores.items():
            z = [s.z for s in result]
            if not all(math.isfinite(v) for v in z) or any(a < b for a, b in zip(z, z[1:])):
                problems.append(f"{name}: scores not finite or not sorted")
        return problems

    def report(self) -> dict:
        return {}


@dataclass
class LatentAligners:
    """DTW then CCA on 13-dim signals and time-warped, noisy copies of them."""

    pairs: int = 16  # a multiple of BATCH
    shortest: int = 200
    longest: int = 800

    name: ClassVar[str] = "latent_aligners"
    DIM: ClassVar[int] = 13
    k: ClassVar[int] = 3
    BATCH: ClassVar[int] = 4  # pairs per op

    def setup(self, work: Path, seed: int) -> dict:
        # Sizes are fixed and only the signals come from the seed, so every run
        # times the same cells.
        rng = np.random.default_rng(seed)
        arrays = {}
        for p, n in enumerate(np.linspace(self.shortest, self.longest, self.pairs).round().astype(int)):
            m = int(np.clip(round(n * (1.25 if p % 2 else 0.8)), self.shortest, self.longest))
            a = np.cumsum(rng.standard_normal((n, self.DIM)), axis=0) / math.sqrt(n)
            warp = (n - 1) * np.linspace(0.0, 1.0, m) ** rng.uniform(0.7, 1.4)
            b = np.stack([np.interp(warp, np.arange(n), a[:, d]) for d in range(self.DIM)], axis=1)
            arrays[f"a{p}"] = a
            arrays[f"b{p}"] = b + 0.05 * rng.standard_normal(b.shape)
        tic = time.perf_counter()
        np.savez(work / "pairs.npz", **arrays)
        return {"save_s": time.perf_counter() - tic}

    def load(self, work: Path, seed: int) -> None:
        with np.load(work / "pairs.npz") as z:
            seqs = [(z[f"a{p}"], z[f"b{p}"]) for p in range(self.pairs)]
        # Op j takes one pair from each size band, snaking through the bands so
        # that every op aligns about the same number of cells.
        ops = self.pairs // self.BATCH
        self.batches = [
            [seqs[q * ops + (j if q % 2 == 0 else ops - 1 - j)] for q in range(self.BATCH)]
            for j in range(ops)
        ]

    def op(self, i: int):
        out = []
        for a, b in self.batches[i % len(self.batches)]:
            path = latent.dtw_align(a, b)
            ia, ib = np.array(path.pairs).T
            out.append((a, b, path, latent.cca_align(a[ia], b[ib], self.k)))
        return out

    def check(self, out) -> list[str]:
        return [problem for aligned in out for problem in self._check_pair(*aligned)]

    def _check_pair(self, a, b, path, cca) -> list[str]:
        problems = []
        steps = np.diff(np.array(path.pairs), axis=0)
        if (
            path.pairs[0] != (0, 0)
            or path.pairs[-1] != (len(a) - 1, len(b) - 1)
            or not all(tuple(s) in {(1, 1), (1, 0), (0, 1)} for s in steps)
        ):
            problems.append("warp path not monotone from (0, 0) to (n-1, m-1)")
        ia, ib = np.array(path.pairs).T
        along = float(np.sqrt(((a[ia] - b[ib]) ** 2).sum(axis=1)).sum())
        if not math.isclose(along, path.total_cost, rel_tol=1e-9):
            problems.append(f"total_cost {path.total_cost} != {along} summed along the path")
        r = cca.correlations
        if r.shape != (self.k,) or np.any(r < 0) or np.any(r > 1) or np.any(np.diff(r) > 0):
            problems.append(f"canonical correlations {r} outside [0, 1] or increasing")
        return problems

    def report(self) -> dict:
        return {}


WORKLOADS = {w.name: w for w in (PlantedBattery, TimelineQueries, LatentAligners)}
