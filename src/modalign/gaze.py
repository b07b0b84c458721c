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

import numpy as np

from .errors import UnsortedSamples, ValidationError
from .timeline import ElementStream, Modality, not_utf8, overlap_ranges, stream_from_columns


@dataclass(frozen=True, eq=False)
class GazeTrace:
    """A gaze trace as four parallel arrays: float64 ``t``/``yaw``/``pitch``, bool ``frontal``.

    Checked when built: times must be finite, >= 0 and strictly rising
    (:class:`UnsortedSamples` naming the first sample that is not).
    """

    t: np.ndarray
    yaw: np.ndarray
    pitch: np.ndarray
    frontal: np.ndarray

    def __post_init__(self):
        t = self.t
        # strictly rising from t[0] >= 0 to t[-1] < inf is the whole rule, and NaN fails each test
        if not t.size or (t[0] >= 0 and t[-1] < np.inf and (t[1:] > t[:-1]).all()):
            return
        # each t above the one before and below inf (NaN is neither); -5e-324 is the double below 0
        before = np.concatenate(([-5e-324], t[:-1]))
        bad = np.flatnonzero(~((before < t) & (t < np.inf)))
        if bad.size:
            k = int(bad[0])
            raise UnsortedSamples(f"sample {k} at t={t[k]} is not finite, >= 0 and rising")

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
    trimmed back to its last in-band sample.  ``label`` may hold no lone
    surrogate (see :func:`~modalign.timeline.not_utf8`).
    """

    yaw_min: float = 45.0
    yaw_max: float = 70.0
    notes_pitch_threshold: float = -20.0
    min_words: int = 10
    label: str = "AfD"
    max_notes_seconds: float | None = None

    def __post_init__(self):
        if not -math.inf < self.yaw_min <= self.yaw_max < math.inf:
            raise ValidationError(f"yaw band [{self.yaw_min}, {self.yaw_max}] is empty or not finite")
        if math.isnan(self.notes_pitch_threshold):
            raise ValidationError("notes_pitch_threshold must be a number, got nan")
        if self.max_notes_seconds is not None and not self.max_notes_seconds >= 0:
            raise ValidationError(f"max_notes_seconds must be >= 0, got {self.max_notes_seconds}")
        if self.min_words < 0:
            raise ValidationError("min_words must be >= 0")
        if not_utf8((self.label,)) is not None:
            raise ValidationError(f"label {self.label!r} holds a lone surrogate")


@dataclass(frozen=True, eq=False)
class AddressSegments:
    """Address segments as columns: float64 ``starts``/``ends``, int ``word_counts``, one ``label``.

    Segment ``k`` is the half-open ``[starts[k], ends[k])`` in seconds.
    ``word_counts`` is zero until :func:`enforce_min_words` fills it.
    """

    starts: np.ndarray
    ends: np.ndarray
    word_counts: np.ndarray
    label: str

    def __len__(self) -> int:
        return self.starts.size


def _sample_period(t: np.ndarray) -> float:
    """Median sample spacing; for an even count of spacings, the upper middle one."""
    if t.size < 2:
        return 0.0
    gaps = np.diff(t)
    k = gaps.size // 2
    return float(np.partition(gaps, k)[k])


def _run_bounds(flags: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """First and last index of every maximal run of True in ``flags``."""
    padded = np.concatenate(([False], flags, [False]))
    edges = np.flatnonzero(padded[1:] != padded[:-1])  # alternately a run's first, last + 1
    return edges[::2], edges[1::2] - 1


def detect_address_segments(trace: GazeTrace, rule: AddressRule) -> AddressSegments:
    """Scan a gaze trace for maximal addressing runs, labelled ``rule.label``.

    A sample is *in band* when it is frontal and ``yaw_min <= yaw <=
    yaw_max``; a frontal sample out of band with ``pitch <
    notes_pitch_threshold`` is a *notes-look*.  A run of notes-looks lasting
    more than ``max_notes_seconds`` (first to last sample) bridges nothing.
    Every maximal run of in-band and bridging samples that holds an in-band
    sample becomes ``[t_i, t_j + period)``: ``i`` is its first in-band
    sample, ``j`` its last sample and ``period`` the median sample spacing.
    So a notes-look keeps a segment open but cannot open one, and any other
    sample, every non-frontal one included, closes it.  The segments come
    in time order with zero word counts.
    """
    t = trace.t
    in_band = trace.frontal & (rule.yaw_min <= trace.yaw) & (trace.yaw <= rule.yaw_max)
    bridge = trace.frontal & ~in_band & (trace.pitch < rule.notes_pitch_threshold)
    if rule.max_notes_seconds is not None:
        first, last = _run_bounds(bridge)
        bridge[bridge] = np.repeat(t[last] - t[first] <= rule.max_notes_seconds, last - first + 1)
    first, last = _run_bounds(in_band | bridge)
    band = np.append(np.flatnonzero(in_band), t.size)
    opens = band[np.searchsorted(band, first)]  # each run's first in-band sample, if it has one
    kept = opens <= last
    return AddressSegments(
        t[opens[kept]],
        t[last[kept]] + _sample_period(t),
        np.zeros(np.count_nonzero(kept), dtype=np.intp),
        rule.label,
    )


def enforce_min_words(
    segments: AddressSegments,
    words: ElementStream,
    rule: AddressRule,
) -> AddressSegments:
    """Drop segments covering fewer than ``rule.min_words`` words.

    A word counts when its interval overlap with the segment is strictly
    positive: the words of each segment's
    :func:`~modalign.timeline.overlap_ranges` that have positive length.
    The segments may come in any order and keep it; the ones kept come
    back with ``word_counts`` filled.
    """
    if words.modality is not Modality.TEXT:
        raise ValidationError(f"expected a text stream, got {words.modality.value}")
    lo, hi = overlap_ranges(segments.starts, segments.ends, words.starts, words.ends)
    counts = hi - lo
    spans = words.ends > words.starts
    if not spans.all():  # take the zero-length words out of each range
        before = np.concatenate(([0], np.cumsum(spans)))  # words of positive length before k
        counts = before[hi] - before[lo]
    keep = counts >= rule.min_words
    return AddressSegments(segments.starts[keep], segments.ends[keep], counts[keep], segments.label)


def segments_to_stream(
    segments: AddressSegments,
    session_id: str,
    *,
    speaker_id: str | None = None,
) -> ElementStream:
    """Wrap segments as a derived stream (ids ``seg0000`` ... in time order) to join and query."""
    return stream_from_columns(
        Modality.DERIVED,
        session_id,
        segments.starts,
        segments.ends,
        np.zeros(len(segments), dtype=np.intp),
        speaker_id=speaker_id,
        vocab=(segments.label,),
    )
