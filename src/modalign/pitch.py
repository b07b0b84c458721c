"""Fundamental-frequency estimation and per-word pitch aggregation.

The estimator is the cumulative-mean-normalized difference method: for each
analysis frame the squared difference function ``d(tau)`` is normalized by
its running mean, the first lag inside the search band whose normalized
value drops below an absolute threshold is chosen (descending to the
adjacent local minimum), and the lag is refined by parabolic interpolation.
``f0 = sample_rate / lag``.  Frames with no qualifying lag are unvoiced.

The normalization makes the track invariant to loudness: scaling the
waveform scales numerator and denominator alike.

Downstream, words collect the voiced frames whose centers fall inside the
word interval, and per-speaker z-scores put speakers with different
baseline voices on a common scale.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Iterable, Sequence

import numpy as np

from .errors import (
    AudioTooShort,
    DegenerateSpeaker,
    InvalidRange,
    SessionMismatch,
    ValidationError,
)
from .timeline import ElementStream, Modality

@dataclass(frozen=True)
class PitchRange:
    """Closed search band [floor, ceiling] in Hz."""

    floor: float
    ceiling: float

    def __post_init__(self):
        if not (0 < self.floor < self.ceiling):
            raise InvalidRange(f"need 0 < floor < ceiling, got [{self.floor}, {self.ceiling}]")


#: Conventional search bands for adult speaking voice, keyed by gender code.
PITCH_RANGE_BY_GENDER = {
    "m": PitchRange(75.0, 300.0),
    "f": PitchRange(100.0, 500.0),
}


@dataclass(frozen=True)
class AudioBuffer:
    """Mono waveform, float samples nominally in [-1, 1]."""

    samples: np.ndarray
    sample_rate: int

    def __post_init__(self):
        object.__setattr__(self, "samples", np.asarray(self.samples, dtype=np.float64))
        if self.samples.ndim != 1 or self.samples.size == 0:
            raise ValidationError("audio must be a non-empty 1-d array")
        if self.sample_rate < 8000:
            raise ValidationError(f"sample_rate must be >= 8000, got {self.sample_rate}")


@dataclass(frozen=True)
class PitchTrack:
    """Frame-level f0 track.

    ``f0`` holds NaN where ``voiced`` is False.  Frame times are the frame
    centers, spaced ``hop / sample_rate`` apart.
    """

    frame_times: np.ndarray
    f0: np.ndarray
    voiced: np.ndarray
    sample_rate: int
    frame_length: int
    hop: int
    session_id: str | None = None

    def __len__(self) -> int:
        return len(self.frame_times)

    @property
    def voiced_count(self) -> int:
        return int(self.voiced.sum())


@dataclass(frozen=True)
class WordPitch:
    """Mean f0 of one word; ``mean_f0`` is None when no voiced frame landed inside."""

    word_id: str
    session_id: str
    speaker_id: str | None
    mean_f0: float | None
    voiced_frame_count: int
    z: float | None = None


@dataclass
class SpeakerProfile:
    """Per-speaker metadata."""

    speaker_id: str
    party: str
    gender_range: PitchRange


def _fft_size(n: int) -> int:
    """Smallest ``2^a * 3^b * 5^c >= n``; pocketfft is fastest on such lengths."""
    while True:
        m = n
        for p in (2, 3, 5):
            while m % p == 0:
                m //= p
        if m == 1:
            return n
        n += 1


def _difference_chunk(frames: np.ndarray, max_lag: int, last_lag: int) -> np.ndarray:
    """Squared difference function for a block of frames, lags 0..last_lag.

    ``d(tau) = sum_{j<W} (x[j] - x[j+tau])^2`` with integration window
    ``W = max_lag`` (callers guarantee ``2 * max_lag <= frame_length`` and
    ``last_lag <= max_lag``), expanded into energies plus one FFT
    cross-correlation per frame: ``d = E_head + E_shift(tau) - 2 * corr(tau)``.

    No lag up to ``last_lag`` reads past sample ``W + last_lag - 1``, so only
    that head of each frame is transformed.  The correlation is circular
    with period ``nfft >= W + last_lag``, while ``j + tau <= W - 1 + last_lag``
    for every term it sums, so it never wraps.
    """
    w = max_lag
    span = w + last_lag
    nfft = _fft_size(span)
    frames = frames[:, :span]
    sq = np.cumsum(frames * frames, axis=1)
    sq = np.concatenate([np.zeros((frames.shape[0], 1)), sq], axis=1)
    e_shift = sq[:, w : span + 1] - sq[:, : last_lag + 1]  # energy of x[tau : tau+W]
    e_head = e_shift[:, :1]                                  # energy of x[0 : W]

    spec_full = np.fft.rfft(frames, nfft, axis=1)
    spec_head = np.fft.rfft(frames[:, :w], nfft, axis=1)
    corr = np.fft.irfft(spec_full * np.conj(spec_head), nfft, axis=1)[:, : last_lag + 1]
    return e_head + e_shift - 2.0 * corr


def _normalize(diff: np.ndarray) -> np.ndarray:
    """Cumulative-mean normalization; lag 0 is defined as 1."""
    tail = diff[:, 1:]
    denom = np.cumsum(tail, axis=1)
    taus = np.arange(1, diff.shape[1])
    out = np.ones_like(diff)
    np.divide(tail * taus, denom, out=out[:, 1:], where=denom > 0)
    return out


def estimate_pitch_track(
    audio: AudioBuffer,
    search_range: PitchRange,
    *,
    frame_length: int = 2048,
    hop: int = 512,
    threshold: float = 0.15,
    session_id: str | None = None,
    chunk_frames: int = 2048,
) -> PitchTrack:
    """Estimate f0 per frame.

    Parameters
    ----------
    audio:
        Mono waveform.
    search_range:
        Band of admissible f0 in Hz; lags searched are
        ``[sample_rate/ceiling, sample_rate/floor]``.
    frame_length, hop:
        Analysis framing in samples.  ``frame_length`` must be at least
        twice the longest admissible period (``2 * sample_rate / floor``).
    threshold:
        Absolute voicing threshold on the normalized difference.

    The dip search and the parabolic refinement read no lag past
    ``tau_hi + 1`` (``tau_hi = sample_rate/floor``), and the cumulative mean
    at a lag depends only on the lags before it, so lags beyond
    ``min(tau_hi + 1, frame_length // 2)`` are neither computed nor
    normalized.  Frames are strided views of the waveform, not copies.

    Raises :class:`AudioTooShort` when the signal is shorter than one
    frame and :class:`InvalidRange` when framing cannot cover the band or
    the band holds no whole-sample lag of at least 2.
    """
    sr = audio.sample_rate
    if frame_length < 2 * sr / search_range.floor:
        raise InvalidRange(
            f"frame_length {frame_length} cannot hold two periods at floor "
            f"{search_range.floor} Hz (need >= {2 * sr / search_range.floor:.0f})"
        )
    if not (threshold > 0 and math.isfinite(threshold)):
        raise ValidationError(f"threshold must be finite and > 0, got {threshold}")
    if hop < 1 or hop > frame_length:
        raise ValidationError(f"hop must be in [1, frame_length], got {hop}")
    x = audio.samples
    if x.size < frame_length:
        raise AudioTooShort(f"{x.size} samples < one frame of {frame_length}")

    max_lag = frame_length // 2
    tau_lo = max(2, math.ceil(sr / search_range.ceiling))
    tau_hi = min(max_lag, math.floor(sr / search_range.floor))
    if tau_lo > tau_hi:
        raise InvalidRange(f"{search_range} holds no whole-sample lag >= 2 at {sr} Hz")
    last_lag = min(tau_hi + 1, max_lag)

    starts = np.arange(0, x.size - frame_length + 1, hop)
    windows = np.lib.stride_tricks.sliding_window_view(x, frame_length)[::hop]
    times = (starts + frame_length / 2) / sr
    f0 = np.full(starts.size, np.nan)
    voiced = np.zeros(starts.size, dtype=bool)

    for lo in range(0, starts.size, chunk_frames):
        frames = windows[lo : lo + chunk_frames]
        cmnd = _normalize(_difference_chunk(frames, max_lag, last_lag))

        band = cmnd[:, tau_lo : tau_hi + 1]
        # Value at tau+1, with +inf past the band edge so a dip that is
        # still falling at the edge is accepted there.
        nxt = np.full_like(band, np.inf)
        nxt[:, :-1] = band[:, 1:]
        stop = (band < threshold) & (nxt >= band)
        has = stop.any(axis=1)
        tau = np.argmax(stop, axis=1) + tau_lo

        # Parabolic refinement on the normalized difference around tau.
        shift = np.zeros(tau.size)
        ok = has & (tau + 1 <= last_lag)
        if ok.any():
            rows = np.nonzero(ok)[0]
            t = tau[rows]
            y0 = cmnd[rows, t - 1]
            y1 = cmnd[rows, t]
            y2 = cmnd[rows, t + 1]
            denom = y0 - 2.0 * y1 + y2
            good = denom > 0
            s = np.zeros(rows.size)
            np.divide(0.5 * (y0 - y2), denom, out=s, where=good)
            s[np.abs(s) > 1] = 0.0
            shift[rows] = s

        est = sr / (tau + shift)
        est = np.clip(est, search_range.floor, search_range.ceiling)
        f0[lo : lo + len(frames)] = np.where(has, est, np.nan)
        voiced[lo : lo + len(frames)] = has

    return PitchTrack(times, f0, voiced, sr, frame_length, hop, session_id)


def word_pitch(track: PitchTrack, words: ElementStream) -> list[WordPitch]:
    """Mean f0 per word, averaging voiced frames whose centers fall in the word.

    Words that catch no voiced frame come back with ``mean_f0 = None`` and
    a zero count; callers drop or tally them (see :func:`missing_count`).
    """
    if words.modality is not Modality.TEXT:
        raise ValidationError(f"expected a text stream, got {words.modality.value}")
    if track.session_id is not None and track.session_id != words.session_id:
        raise SessionMismatch(
            f"track session {track.session_id!r} != words session {words.session_id!r}"
        )
    los = np.searchsorted(track.frame_times, words.starts, side="left").tolist()
    his = np.searchsorted(track.frame_times, words.ends, side="left").tolist()
    out = []
    for word_id, lo, hi in zip(words.ids, los, his):
        vals = track.f0[lo:hi][track.voiced[lo:hi]]
        out.append(
            WordPitch(
                word_id=word_id,
                session_id=words.session_id,
                speaker_id=words.speaker_id,
                mean_f0=float(vals.mean()) if vals.size else None,
                voiced_frame_count=int(vals.size),
            )
        )
    return out


def missing_count(word_pitches: Iterable[WordPitch]) -> int:
    """How many words carry no pitch observation."""
    return sum(1 for wp in word_pitches if wp.mean_f0 is None)


def speaker_statistics(
    word_pitches: Sequence[WordPitch],
    *,
    per_session: bool = False,
) -> dict:
    """Sample mean and SD (ddof=1) of word pitch per speaker (or speaker+session)."""
    groups: dict = {}
    for wp in word_pitches:
        if wp.mean_f0 is None:
            continue
        key = (wp.speaker_id, wp.session_id) if per_session else wp.speaker_id
        groups.setdefault(key, []).append(wp.mean_f0)
    stats = {}
    for key, vals in groups.items():
        if len(vals) < 2:
            raise DegenerateSpeaker(f"speaker {key!r} has {len(vals)} pitch observation(s)")
        arr = np.asarray(vals)
        sd = float(arr.std(ddof=1))
        if sd == 0.0:
            raise DegenerateSpeaker(f"speaker {key!r} has zero pitch variance")
        stats[key] = (float(arr.mean()), sd, len(vals))
    return stats


def standardize_by_speaker(
    word_pitches: Sequence[WordPitch],
    *,
    per_session: bool = False,
) -> list[WordPitch]:
    """Fill ``z = (mean_f0 - speaker mean) / speaker SD`` for every observed word.

    The speaker mean is taken over everything passed in — hand this the
    whole corpus for corpus-wide baselines, or set ``per_session=True`` to
    re-center within each session.  Words without an observation pass
    through with ``z = None``.  Raises :class:`DegenerateSpeaker` when a
    speaker has fewer than two observations or zero variance.
    """
    stats = speaker_statistics(word_pitches, per_session=per_session)
    out = []
    for wp in word_pitches:
        if wp.mean_f0 is None:
            out.append(wp)
            continue
        key = (wp.speaker_id, wp.session_id) if per_session else wp.speaker_id
        mean, sd, _ = stats[key]
        out.append(replace(wp, z=(wp.mean_f0 - mean) / sd))
    return out
