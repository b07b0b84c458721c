"""Head-pose segmentation: turn per-frame gaze samples into address segments.

A speaker addresses a particular block of the chamber when their head yaw
falls inside a configured band while facing the room.  Brief downward
glances (reading notes) should not split an ongoing segment, so samples
with a strongly negative pitch angle keep an open segment alive without
being able to start one.  Segments that cover too few spoken words are
discarded as noise.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from typing import Sequence

from .errors import SessionMismatch, UnsortedSamples, ValidationError
from .timeline import Element, ElementStream, Modality, TimeInterval, build_stream, overlap


@dataclass(frozen=True)
class GazeSample:
    """One head-pose sample: time (s), yaw and pitch (degrees), camera-facing flag."""

    t: float
    yaw: float
    pitch: float
    frontal: bool


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
        if self.yaw_min > self.yaw_max:
            raise ValidationError(f"yaw band [{self.yaw_min}, {self.yaw_max}] is empty")
        if self.min_words < 0:
            raise ValidationError("min_words must be >= 0")


@dataclass(frozen=True)
class AddressSegment:
    """Maximal span of addressing gaze; ``word_count`` is filled by the word filter."""

    interval: TimeInterval
    label: str
    word_count: int = 0


def _sample_period(samples: Sequence[GazeSample]) -> float:
    if len(samples) < 2:
        return 0.0
    diffs = sorted(samples[i + 1].t - samples[i].t for i in range(len(samples) - 1))
    return diffs[len(diffs) // 2]


def detect_address_segments(
    samples: Sequence[GazeSample],
    rule: AddressRule,
) -> list[AddressSegment]:
    """Scan a gaze trace for maximal addressing runs.

    A sample is *in band* when it is frontal and ``yaw_min <= yaw <=
    yaw_max``.  A frontal sample with ``pitch < notes_pitch_threshold``
    keeps an already-open run going (it cannot open one).  Any other
    sample — including every non-frontal one — closes the run.  A run
    spanning samples ``i..j`` becomes ``[t_i, t_j + period)`` where
    ``period`` is the median sample spacing of the trace.

    Samples must be strictly increasing in time (:class:`UnsortedSamples`).
    """
    for a, b in zip(samples, samples[1:]):
        if b.t <= a.t:
            raise UnsortedSamples(f"sample at t={b.t} does not follow t={a.t}")

    period = _sample_period(samples)
    segments: list[AddressSegment] = []
    start_idx: int | None = None
    last_idx = -1            # last sample belonging to the open run
    last_in_band = -1        # last in-band sample of the open run
    notes_since: float | None = None

    def close(end_idx: int) -> None:
        nonlocal start_idx, notes_since
        if start_idx is not None and end_idx >= start_idx:
            iv = TimeInterval(samples[start_idx].t, samples[end_idx].t + period)
            segments.append(AddressSegment(iv, rule.label))
        start_idx = None
        notes_since = None

    for i, s in enumerate(samples):
        in_band = s.frontal and rule.yaw_min <= s.yaw <= rule.yaw_max
        if in_band:
            if start_idx is None:
                start_idx = i
            last_idx = i
            last_in_band = i
            notes_since = None
            continue
        at_notes = s.frontal and s.pitch < rule.notes_pitch_threshold
        if at_notes and start_idx is not None:
            if notes_since is None:
                notes_since = s.t
            if rule.max_notes_seconds is not None and s.t - notes_since > rule.max_notes_seconds:
                close(last_in_band)
            else:
                last_idx = i
            continue
        close(last_idx)
    close(last_idx)
    return segments


def enforce_min_words(
    segments: Sequence[AddressSegment],
    words: ElementStream,
    rule: AddressRule,
    *,
    session_id: str | None = None,
) -> list[AddressSegment]:
    """Drop segments covering fewer than ``rule.min_words`` words.

    A word counts when its interval overlap with the segment is strictly
    positive.  Surviving segments come back with ``word_count`` filled.
    """
    if words.modality is not Modality.TEXT:
        raise ValidationError(f"expected a text stream, got {words.modality.value}")
    if session_id is not None and session_id != words.session_id:
        raise SessionMismatch(
            f"segments from session {session_id!r}, words from {words.session_id!r}"
        )
    intervals = words.intervals()  # sorted by end too: words cannot overlap
    kept = []
    for seg in segments:
        hi = bisect_left(intervals, seg.interval.end, key=lambda iv: iv.start)
        lo = bisect_right(intervals, seg.interval.start, key=lambda iv: iv.end)
        count = sum(1 for k in range(lo, hi) if overlap(intervals[k], seg.interval) > 0.0)
        if count >= rule.min_words:
            kept.append(AddressSegment(seg.interval, seg.label, count))
    return kept


def segments_to_stream(
    segments: Sequence[AddressSegment],
    session_id: str,
    *,
    speaker_id: str | None = None,
) -> ElementStream:
    """Wrap segments as a derived stream so they can be joined and queried."""
    elems = [
        Element(f"seg{i:04d}", seg.interval, seg.label) for i, seg in enumerate(segments)
    ]
    return build_stream(Modality.DERIVED, session_id, elems, speaker_id=speaker_id)
