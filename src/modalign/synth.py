"""Synthetic corpora with planted, analytically known ground truth.

Each speaker gets one session: a transcript of fixed-length word slots, a
WAV file holding one pure tone per word, and a gaze trace whose yaw sits
inside the address band exactly during the planted segments.  Word
frequencies are drawn around a per-speaker baseline; inside planted
segments, speakers *outside* the target party get a boost of
``planted_pitch_effect`` speaker-SDs, which is what the downstream
regression should recover as the party × addressing interaction.

Layout choices that make the ground truth exact rather than approximate:

* Word slots are 0.375 s and gaze samples arrive every 0.125 s.  Both are
  exact binary fractions, so segment boundaries reconstructed by the gaze
  detector (last sample + one period) equal the planted word boundaries
  bit for bit, and the planted in-segment word set is recovered exactly.
* Each slot is 0.225 s of tone followed by 0.15 s of silence — longer
  than an analysis frame, so no pitch frame ever mixes two words.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .errors import InvalidSpec
from .gaze import GazeTrace
from .ingest import MANIFEST_FORMAT_VERSION, _json_bytes, replacing
from .ingest import AUDIO_BLOCK_SAMPLES, pcm16_wav, quantize_pcm16
from .ingest import write_gaze, write_speakers, write_transcript
from .timeline import Modality, not_utf8, stream_from_columns

WORD_SLOT = 0.375        # seconds per word; 3/8, exact in binary
GAZE_PERIOD = 0.125      # seconds between gaze samples; 1/8, exact in binary
SAMPLES_PER_WORD = 3     # gaze samples per word slot
TONE_FRACTION = 0.6      # leading fraction of the slot that carries the tone
MAX_SAMPLE_RATE = 192000  # Hz; the highest rate audio hardware commonly records

#: small vocabularies so the lexical comparison has something to find
_COMMON_VOCAB = [f"wort{i:03d}" for i in range(50)]
_ADDRESS_VOCAB = ["zuruf", "emport", "skandal", "widerspruch", "aufregung"]
_NEUTRAL_VOCAB = ["bericht", "haushalt", "antrag", "ausschuss", "verfahren"]


@dataclass(frozen=True)
class SynthSpec:
    """Corpus-generation settings; everything is deterministic under ``seed``.

    Out-of-range settings raise :class:`~modalign.errors.InvalidSpec` at
    construction; ``sample_rate`` must lie in [8000, 192000] Hz and be
    divisible by 8, so a word slot is a whole number of samples.
    """

    seed: int = 0
    speakers: int = 4
    words_per_speech: int = 250
    planted_pitch_effect: float = 0.0   # speaker-SD units added inside segments
    segment_density: float = 0.3        # target fraction of words inside segments
    sample_rate: int = 16000
    jitter_hz: float = 6.0              # per-word SD around the speaker baseline
    target_party: str = "AfD"
    other_party: str = "SPD"

    def __post_init__(self):
        if self.speakers < 1 or self.words_per_speech < 1:
            raise InvalidSpec("speakers and words_per_speech must be positive")
        if not 0.0 <= self.segment_density <= 1.0:
            raise InvalidSpec(f"segment_density {self.segment_density} outside [0, 1]")
        if self.seed < 0:
            raise InvalidSpec("seed must be >= 0")
        if not math.isfinite(self.planted_pitch_effect):
            raise InvalidSpec(
                f"planted_pitch_effect must be finite, got {self.planted_pitch_effect}"
            )
        if not 0 < self.jitter_hz < math.inf:
            raise InvalidSpec(f"jitter_hz must be finite and > 0, got {self.jitter_hz}")
        if not 8000 <= self.sample_rate <= MAX_SAMPLE_RATE or self.sample_rate % 8 != 0:
            raise InvalidSpec(
                f"sample_rate must be in [8000, {MAX_SAMPLE_RATE}] and divisible by 8, "
                f"got {self.sample_rate}"
            )
        if self.target_party == self.other_party:
            raise InvalidSpec("target and other party must differ")
        for party in (self.target_party, self.other_party):
            # speakers.csv is read unquoted, so these would split or rename a party
            if any(c in party for c in ',"\r\n'):
                raise InvalidSpec(f"party {party!r} holds a comma, quote or line break")
            if not_utf8((party,)) is not None:
                raise InvalidSpec(f"party {party!r} holds a lone surrogate")


def _plant_segments(n_words: int, density: float, rng: np.random.Generator) -> list[tuple[int, int]]:
    """Word-index ranges [a, b) for address segments hitting roughly ``density``."""
    if density <= 0.0:
        return []
    segments = []
    pos = int(rng.integers(3, 10))
    while True:
        length = int(rng.integers(12, 25))
        if pos + length > n_words:
            break
        segments.append((pos, pos + length))
        gap = max(1, int(round(length * (1.0 - density) / density * rng.uniform(0.6, 1.4))))
        pos += length + gap
    return segments


def _write_tones(freqs: np.ndarray, sr: int, slot_samples: int, path: Path) -> None:
    """A WAV of word slots of ``freqs``: each a tapered tone, then silence to the slot boundary.

    Slots are rendered and written a block at a time, about
    ``AUDIO_BLOCK_SAMPLES`` samples, through one float buffer and one PCM
    block whose silent tails stay zero.
    """
    tone_samples = int(slot_samples * TONE_FRACTION)
    t = np.arange(tone_samples) / sr
    ramp = min(80, tone_samples // 4)
    window = 0.5 * (1.0 - np.cos(np.pi * np.arange(ramp) / ramp))
    per_block = min(len(freqs), max(1, AUDIO_BLOCK_SAMPLES // slot_samples))
    tones = np.empty((per_block, tone_samples))
    pcm = np.zeros((per_block, slot_samples), np.int16)
    with pcm16_wav(path, sr, len(freqs) * slot_samples) as write:
        for lo in range(0, len(freqs), per_block):
            block = freqs[lo : lo + per_block]
            tone = tones[: len(block)]
            np.multiply(2.0 * np.pi * block[:, None], t, out=tone)
            np.sin(tone, out=tone)
            tone *= 0.4
            tone[:, :ramp] *= window
            tone[:, tone_samples - ramp:] *= window[::-1]
            quantize_pcm16(tone, pcm[: len(block), :tone_samples])
            write(pcm[: len(block)])


def synth_corpus(spec: SynthSpec, out_dir) -> Path:
    """Generate a corpus under ``out_dir``; returns the manifest path.

    Besides the corpus files (manifest, speakers CSV, per-session
    transcript/WAV/gaze), a ``ground_truth.json`` sidecar records the
    planted effect and, per session, the segment word ranges, their time
    intervals, and the exact in-segment word ids.

    ``out_dir`` must be new, an empty directory, or a corpus this function
    wrote, which is replaced whole; anything else raises
    :class:`~modalign.errors.ValidationError` and is left untouched.
    """
    out_dir = Path(out_dir)
    with replacing(out_dir, _is_corpus, "a synthetic corpus") as root:
        _write_corpus(spec, root)
    return out_dir / "manifest.json"


def _is_corpus(out_dir: Path) -> bool:
    """Does ``out_dir`` look like a corpus :func:`synth_corpus` wrote?"""
    truth = json.loads((out_dir / "ground_truth.json").read_text(encoding="utf-8"))
    return (out_dir / "manifest.json").is_file() and {"planted_effect", "spec"} <= truth.keys()


def _write_corpus(spec: SynthSpec, out_dir: Path) -> None:
    (out_dir / "sessions").mkdir(parents=True)
    rng = np.random.default_rng(spec.seed)
    sr = spec.sample_rate
    slot_samples = int(round(WORD_SLOT * sr))

    speaker_rows = []
    manifest_sessions = []
    truth_sessions = {}
    for i in range(spec.speakers):
        speaker_id = f"spk{i:03d}"
        session_id = f"sess{i:03d}"
        party = spec.target_party if i % 2 == 1 else spec.other_party
        gender = "m" if (i // 2) % 2 == 0 else "f"
        baseline = 130.0 if gender == "m" else 210.0
        speaker_rows.append((speaker_id, party, gender))

        n = spec.words_per_speech
        segments = _plant_segments(n, spec.segment_density, rng)
        in_segment = np.zeros(n, dtype=bool)
        for a, b in segments:
            in_segment[a:b] = True

        freqs = baseline + spec.jitter_hz * rng.standard_normal(n)
        if party != spec.target_party:
            freqs = freqs + spec.planted_pitch_effect * spec.jitter_hz * in_segment
        freqs = np.clip(freqs, baseline - 40.0, baseline + 40.0)

        tokens = []
        for inside in in_segment:
            if rng.uniform() >= 0.15:
                vocab = _COMMON_VOCAB
            else:
                vocab = _ADDRESS_VOCAB if inside else _NEUTRAL_VOCAB
            tokens.append(vocab[int(rng.integers(len(vocab)))])

        files = {
            key: f"sessions/{session_id}.{ext}"
            for key, ext in (("transcript", "jsonl"), ("audio", "wav"), ("gaze", "csv"))
        }
        words = stream_from_columns(
            Modality.TEXT,
            session_id,
            [w * WORD_SLOT for w in range(n)],
            [(w + 1) * WORD_SLOT for w in range(n)],
            tokens,
            speaker_id=speaker_id,
        )
        write_transcript(words, out_dir / files["transcript"])
        _write_tones(freqs, sr, slot_samples, out_dir / files["audio"])

        # (yaw, pitch) per sample, uniform in its word's band; ``low + (high - low) * u``
        # is how Generator.uniform draws
        addressing = np.repeat(in_segment, SAMPLES_PER_WORD)[:, None]
        low = np.where(addressing, [50.0, -5.0], [0.0, -10.0])
        high = np.where(addressing, [65.0, 5.0], [30.0, 10.0])
        yaw, pitch = (low + (high - low) * rng.random((n * SAMPLES_PER_WORD, 2))).T
        times = np.arange(yaw.size) * GAZE_PERIOD
        frontal = np.ones(yaw.size, dtype=bool)
        write_gaze(GazeTrace(times, yaw, pitch, frontal), out_dir / files["gaze"])

        manifest_sessions.append({"session_id": session_id, "speaker_id": speaker_id, **files})
        truth_sessions[session_id] = {
            "speaker_id": speaker_id,
            "party": party,
            "segments_words": [[a, b] for a, b in segments],
            "segments_time": [[a * WORD_SLOT, b * WORD_SLOT] for a, b in segments],
            "in_segment_word_ids": [i for i, inside in zip(words.ids, in_segment) if inside],
            "word_freqs": [float(f) for f in freqs],
        }

    write_speakers(speaker_rows, out_dir / "speakers.csv")
    (out_dir / "manifest.json").write_bytes(
        _json_bytes(
            {
                "format_version": MANIFEST_FORMAT_VERSION,
                "speakers": "speakers.csv",
                "sessions": manifest_sessions,
            }
        )
    )
    (out_dir / "ground_truth.json").write_bytes(
        _json_bytes(
            {
                "planted_effect": spec.planted_pitch_effect,
                "spec": asdict(spec),
                "sessions": truth_sessions,
            }
        )
    )
