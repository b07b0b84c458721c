"""Head-pose segmentation: turn per-frame gaze samples into address segments.

A speaker addresses a particular block of the chamber when their head yaw
falls inside a configured band while facing the room.  Brief downward
glances (reading notes) should not split an ongoing segment, so samples
with a strongly negative pitch angle keep an open segment alive without
being able to start one.  Segments that cover too few spoken words are
discarded as noise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import UnsortedSamples, ValidationError
from .timeline import ElementStream, Modality, TimeInterval, overlap_pairs, stream_from_columns


@dataclass(frozen=True, eq=False)
class GazeTrace:
    """A gaze trace as four parallel arrays: float64 ``t``/``yaw``/``pitch``, bool ``frontal``."""

    t: np.ndarray
    yaw: np.ndarray
    pitch: np.ndarray
    frontal: np.ndarray

    def __len__(self) -> int:
        return self.t.size


@dataclass(frozen=True)
class AddressRule:
    """Detection parameters.

    yaw band in degrees (inclusive); ``notes_pitch_threshold`` in degrees —
    pitch strictly below it means "looking down at notes"; ``min_words`` is
    the smallest number of overlapping words a segment must cover to be
    kept.  ``max_notes_seconds`` optionally caps how long a notes-look may
    bridge a segment (None: indefinitely); on timeout the segment is
    trimmed back to its last in-band sample.
    """

    yaw_min: float = 45.0
    yaw_max: float = 70.0
    notes_pitch_threshold: float = -20.0
    min_words: int = 10
    label: str = "AfD"
    max_notes_seconds: float | None = None

    def __post_init__(self):
        if not (math.isfinite(self.yaw_min) and math.isfinite(self.yaw_max)):
            raise ValidationError(f"yaw band [{self.yaw_min}, {self.yaw_max}] must be finite")
        if self.yaw_min > self.yaw_max:
            raise ValidationError(f"yaw band [{self.yaw_min}, {self.yaw_max}] is empty")
        if math.isnan(self.notes_pitch_threshold):
            raise ValidationError("notes_pitch_threshold must be a number, got nan")
        if self.max_notes_seconds is not None and not self.max_notes_seconds >= 0:
            raise ValidationError(f"max_notes_seconds must be >= 0, got {self.max_notes_seconds}")
        if self.min_words < 0:
            raise ValidationError("min_words must be >= 0")


@dataclass(frozen=True)
class AddressSegment:
    """Maximal span of addressing gaze; ``word_count`` is filled by the word filter."""

    interval: TimeInterval
    label: str
    word_count: int = 0


def _sample_period(t: np.ndarray) -> float:
    """Median sample spacing; for an even count of spacings, the upper middle one."""
    if t.size < 2:
        return 0.0
    gaps = np.diff(t)
    k = gaps.size // 2
    return float(np.partition(gaps, k)[k])


def _run_bounds(flags: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """First and last index of every maximal run of True in ``flags``."""
    edges = np.diff(flags.astype(np.int8), prepend=0, append=0)
    return np.flatnonzero(edges == 1), np.flatnonzero(edges == -1) - 1


def detect_address_segments(trace: GazeTrace, rule: AddressRule) -> list[AddressSegment]:
    """Scan a gaze trace for maximal addressing runs.

    A sample is *in band* when it is frontal and ``yaw_min <= yaw <=
    yaw_max``.  A frontal sample with ``pitch < notes_pitch_threshold``
    keeps an already-open run going (it cannot open one).  Any other
    sample — including every non-frontal one — closes the run.  A run
    spanning samples ``i..j`` becomes ``[t_i, t_j + period)`` where
    ``period`` is the median sample spacing of the trace.

    Samples must be strictly increasing in time (:class:`UnsortedSamples`).
    """
    t = trace.t
    back = np.flatnonzero(t[1:] <= t[:-1])
    if back.size:
        k = int(back[0])
        raise UnsortedSamples(f"sample at t={t[k + 1]} does not follow t={t[k]}")
    period = _sample_period(t)

    in_band = trace.frontal & (rule.yaw_min <= trace.yaw) & (trace.yaw <= rule.yaw_max)
    at_notes = trace.frontal & ~in_band & (trace.pitch < rule.notes_pitch_threshold)
    band_first, band_last = _run_bounds(in_band)
    if not band_first.size:
        return []
    notes_first, notes_last = _run_bounds(at_notes)

    # The notes-look run right after each in-band run, if any: [band_last + 1, gap_last].
    after = band_last + 1
    k = np.searchsorted(notes_first, after)
    has_gap = k < notes_first.size
    has_gap[has_gap] = notes_first[k[has_gap]] == after[has_gap]
    gap_last = band_last.copy()
    gap_last[has_gap] = notes_last[k[has_gap]]
    # A gap that outlasts max_notes_seconds closes the segment at its last in-band sample.
    timed_out = np.zeros_like(has_gap)
    if rule.max_notes_seconds is not None:
        timed_out[has_gap] = (
            t[gap_last[has_gap]] - t[after[has_gap]] > rule.max_notes_seconds
        )
    # Otherwise a gap bridges to the next in-band run when one starts right after it.
    nxt = gap_last + 1
    bridged = ~timed_out & (nxt < t.size)
    bridged[bridged] = in_band[nxt[bridged]]
    closes_at = np.where(timed_out, band_last, gap_last)

    last_run = np.flatnonzero(~bridged)
    first_run = np.concatenate(([0], last_run[:-1] + 1))
    starts = t[band_first[first_run]].tolist()
    ends = (t[closes_at[last_run]] + period).tolist()
    return [AddressSegment(TimeInterval(a, b), rule.label) for a, b in zip(starts, ends)]


def enforce_min_words(
    segments: Sequence[AddressSegment],
    words: ElementStream,
    rule: AddressRule,
) -> list[AddressSegment]:
    """Drop segments covering fewer than ``rule.min_words`` words.

    A word counts when its interval overlap with the segment is strictly
    positive.  Surviving segments come back with ``word_count`` filled.
    """
    if words.modality is not Modality.TEXT:
        raise ValidationError(f"expected a text stream, got {words.modality.value}")
    seg_starts = np.array([seg.interval.start for seg in segments], dtype=np.float64)
    seg_ends = np.array([seg.interval.end for seg in segments], dtype=np.float64)
    covered, _, _ = overlap_pairs(seg_starts, seg_ends, words.starts, words.ends, 0.0)
    counts = np.bincount(covered, minlength=len(segments)).tolist()
    return [
        AddressSegment(seg.interval, seg.label, count)
        for seg, count in zip(segments, counts)
        if count >= rule.min_words
    ]


def segments_to_stream(
    segments: Sequence[AddressSegment],
    session_id: str,
    *,
    speaker_id: str | None = None,
) -> ElementStream:
    """Wrap segments as a derived stream so they can be joined and queried."""
    return stream_from_columns(
        Modality.DERIVED,
        session_id,
        [f"seg{i:04d}" for i in range(len(segments))],
        [seg.interval.start for seg in segments],
        [seg.interval.end for seg in segments],
        [seg.label for seg in segments],
        speaker_id=speaker_id,
    )
