"""Timestamped element streams, interval joins, and cross-modal queries.

Every modality is reduced to a stream of discrete elements (words and
segments) stamped with half-open time intervals on a shared per-session
clock.  Aligning two modalities is then an interval join; querying one
modality by a condition on another is a join followed by a filter.

Conventions
-----------
* An interval is two floats, a half-open ``[start, end)`` in seconds.  Two
  intervals that merely touch (``a.end == b.start``) do not overlap.
* Point samples are represented as ``start == end`` and never align with
  anything: a zero-length interval has zero overlap with everything.
* Payloads are strings: a word's token, a segment's label.
* Bounds are checked in one place, :func:`stream_from_columns`, which
  raises :class:`~modalign.errors.NegativeInterval` unless
  ``0 <= start <= end``.
* Streams are immutable once built; operations return new objects.
"""

from __future__ import annotations

import enum
from collections.abc import Sequence
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterator

import numpy as np

from .errors import (
    DuplicateIds,
    EmptyStream,
    ModalityAbsent,
    NegativeInterval,
    OverlappingWords,
    SessionMismatch,
    ValidationError,
)


class Modality(enum.Enum):
    TEXT = "text"
    DERIVED = "derived"


class Cardinality(enum.Enum):
    """Observed relation shape of an alignment map."""

    ONE_TO_ONE = "one-to-one"
    ONE_TO_MANY = "one-to-many"
    MANY_TO_ONE = "many-to-one"
    MANY_TO_MANY = "many-to-many"


@dataclass(frozen=True)
class Element:
    """One discrete item on the timeline, a word or a segment, over ``[start, end)``."""

    id: str
    start: float
    end: float
    payload: str


class _ElementColumns(Sequence):
    """The one place that builds :class:`Element` objects from columns.

    A subclass holds ``ids``, ``starts``, ``ends`` and ``payloads``;
    ``seq[k]`` and iteration build its elements on demand, with ``start``
    and ``end`` as Python floats.
    """

    def __len__(self) -> int:
        return len(self.ids)

    def __getitem__(self, k: int) -> Element:
        return Element(self.ids[k], self.starts[k].item(), self.ends[k].item(), self.payloads[k])

    def __iter__(self) -> Iterator[Element]:
        return map(Element, self.ids, self.starts.tolist(), self.ends.tolist(), self.payloads)


@dataclass(frozen=True, eq=False)
class ElementStream(_ElementColumns):
    """Sorted, immutable sequence of elements from one modality and session.

    Held as columns: ``starts``/``ends`` are read-only float64 arrays and
    ``ids``/``payloads`` are tuples, all in ``(start, end, id)`` order.  An
    :class:`Element` is built only when one is asked for, by iteration or
    ``stream[i]``.
    """

    modality: Modality
    session_id: str
    speaker_id: str | None
    ids: tuple[str, ...]
    starts: np.ndarray
    ends: np.ndarray
    payloads: tuple[str, ...]


def stream_from_columns(
    modality: Modality,
    session_id: str,
    ids: Sequence[str],
    starts,
    ends,
    payloads: Sequence[str],
    speaker_id: str | None = None,
) -> ElementStream:
    """Validate, sort, and freeze a stream given as parallel columns.

    Elements are sorted by ``(start, end, id)``.  Raises
    :class:`ValidationError` unless every payload is a string,
    :class:`EmptyStream`, :class:`DuplicateIds` on duplicate element ids,
    :class:`NegativeInterval` unless ``0 <= start <= end``, and
    :class:`OverlappingWords` when a text stream's word intervals overlap.
    """
    starts = np.array(starts, dtype=np.float64)
    ends = np.array(ends, dtype=np.float64)
    ids, payloads = tuple(ids), tuple(payloads)
    if not len(ids) == len(payloads) == starts.size == ends.size:
        raise ValidationError("stream columns differ in length")
    if not ids:
        raise EmptyStream(f"stream for session {session_id!r} has no elements")
    if set(map(type, payloads)) != {str}:
        raise ValidationError(f"payloads of the stream for session {session_id!r} must be strings")
    if len(set(ids)) != len(ids):
        raise DuplicateIds(f"element ids repeat in the stream for session {session_id!r}")
    bad = np.flatnonzero((starts < 0) | (ends < starts))
    if bad.size:
        raise NegativeInterval(f"bad interval [{starts[bad[0]]}, {ends[bad[0]]})")

    if not (starts[1:] > starts[:-1]).all():  # ties or disorder: sort by (start, end, id)
        order = np.lexsort((np.array(ids), ends, starts))
        starts, ends = starts[order], ends[order]
        ids = tuple(ids[k] for k in order.tolist())
        payloads = tuple(payloads[k] for k in order.tolist())

    if modality is Modality.TEXT:
        clash = np.flatnonzero(starts[1:] < ends[:-1])
        if clash.size:
            k = int(clash[0])
            raise OverlappingWords(
                f"words {ids[k]!r} and {ids[k + 1]!r} overlap in session {session_id!r}"
            )

    starts.setflags(write=False)
    ends.setflags(write=False)
    return ElementStream(modality, session_id, speaker_id, ids, starts, ends, payloads)


@dataclass(frozen=True)
class AlignedPair:
    source_id: str
    target_id: str
    overlap: float


@dataclass(frozen=True, eq=False)
class AlignmentMap:
    """Result of joining two streams, held as columns, plus the observed cardinality.

    Pair ``k`` joins ``source[i[k]]`` to ``target[j[k]]`` with ``overlap[k]``
    seconds in common; ``i``, ``j`` and ``overlap`` are read-only arrays in
    ``(i, j)`` order.  The :class:`AlignedPair` tuple :attr:`pairs` is built
    only when it is first read.
    """

    source: ElementStream
    target: ElementStream
    i: np.ndarray
    j: np.ndarray
    overlap: np.ndarray
    cardinality: Cardinality

    def __len__(self) -> int:
        return self.i.size

    def source_ids(self) -> list[str]:
        """The source element id of every pair."""
        return [self.source.ids[k] for k in self.i.tolist()]

    def target_ids(self) -> list[str]:
        """The target element id of every pair."""
        return [self.target.ids[k] for k in self.j.tolist()]

    @cached_property
    def pairs(self) -> tuple[AlignedPair, ...]:
        return tuple(map(AlignedPair, self.source_ids(), self.target_ids(), self.overlap.tolist()))


def _observed_cardinality(source_idx: np.ndarray, target_idx: np.ndarray) -> Cardinality:
    """Relation shape of the pairs ``(source_idx[k], target_idx[k])``."""
    if not source_idx.size:
        # Degenerate: the empty relation constrains nothing.
        return Cardinality.MANY_TO_MANY
    fan_out = np.bincount(source_idx).max()
    fan_in = np.bincount(target_idx).max()
    if fan_out <= 1 and fan_in <= 1:
        return Cardinality.ONE_TO_ONE
    if fan_in <= 1:
        return Cardinality.ONE_TO_MANY
    if fan_out <= 1:
        return Cardinality.MANY_TO_ONE
    return Cardinality.MANY_TO_MANY


def overlap_pairs(
    starts_a: np.ndarray,
    ends_a: np.ndarray,
    starts_b: np.ndarray,
    ends_b: np.ndarray,
    min_overlap: float,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(i, j, overlap)`` for every pair with ``overlap > min_overlap``, ordered by ``(i, j)``.

    ``min_overlap`` must be >= 0.  Side ``b`` must be sorted by start; side
    ``a`` may come in any order.  For each ``a[i]`` the candidates are the
    ``b[j]`` that start before ``a[i]`` ends (a ``searchsorted`` on the
    starts) from the first whose running maximum of ends passes ``a[i]``'s
    start (a ``searchsorted`` on that running maximum); every other ``b[j]``
    is disjoint from or touches ``a[i]``.  So the work is linear in the
    candidates, which exceed the pairs only where a long ``b`` interval
    keeps the running maximum ahead of later, shorter ones.
    """
    reach = np.maximum.accumulate(ends_b)
    lo = np.searchsorted(reach, starts_a, side="right")
    hi = np.searchsorted(starts_b, ends_a, side="left")
    counts = np.maximum(hi - lo, 0)
    i = np.repeat(np.arange(starts_a.size), counts)
    first = np.cumsum(counts) - counts  # offset of each a[i]'s first candidate
    j = np.arange(i.size) - np.repeat(first - lo, counts)
    ov = np.minimum(ends_a[i], ends_b[j]) - np.maximum(starts_a[i], starts_b[j])
    keep = ov > min_overlap
    return i[keep], j[keep], ov[keep]


def covered(starts_a, ends_a, starts_b, ends_b) -> np.ndarray:
    """Mask of the ``b`` intervals (sorted by start) that overlap, strictly, an ``a`` (any order)."""
    mask = np.zeros(starts_b.size, dtype=bool)
    mask[overlap_pairs(starts_a, ends_a, starts_b, ends_b, 0.0)[1]] = True
    return mask


def join_streams(
    source: ElementStream,
    target: ElementStream,
    min_overlap: float = 0.0,
) -> AlignmentMap:
    """Temporal join of two streams from the same session.

    Returns every element pair whose interval overlap strictly exceeds
    ``min_overlap`` seconds (default: any positive overlap).  Pairs are
    ordered by source position, then target position.  Raises
    :class:`SessionMismatch` when the streams belong to different sessions
    and :class:`ValidationError` on a negative ``min_overlap``.
    """
    if source.session_id != target.session_id:
        raise SessionMismatch(
            f"cannot join sessions {source.session_id!r} and {target.session_id!r}"
        )
    if not min_overlap >= 0:
        raise ValidationError(f"min_overlap must be >= 0, got {min_overlap}")
    i, j, ov = overlap_pairs(source.starts, source.ends, target.starts, target.ends, min_overlap)
    for column in (i, j, ov):
        column.setflags(write=False)
    return AlignmentMap(source, target, i, j, ov, _observed_cardinality(i, j))


@dataclass(frozen=True, eq=False)
class QueryHits(_ElementColumns):
    """Read-only sequence of the :class:`Element` hits of :func:`query_crossmodal`.

    Held as flat columns in (session, start, end, id) order: ``session_ids``,
    ``ids`` and ``payloads`` are tuples and ``starts``/``ends`` read-only
    float64 arrays.  ``hits[k]`` and iteration build the elements on demand;
    an element does not carry its session, ``session_ids[k]`` does.
    """

    session_ids: tuple[str, ...]
    ids: tuple[str, ...]
    starts: np.ndarray
    ends: np.ndarray
    payloads: tuple[str, ...]


def query_crossmodal(
    corpus: Sequence[ElementStream],
    select: Modality,
    where: Callable[[Element], bool],
    where_modality: Modality,
) -> QueryHits:
    """Elements of ``select`` modality that overlap a matching element elsewhere.

    ``where`` is evaluated on every element of the ``where_modality``
    streams; a ``select`` element qualifies when it overlaps (strictly
    positive overlap) at least one matching element in the same session.
    Results are deduplicated and ordered by (session, start, end, id).
    Raises :class:`ModalityAbsent` when the corpus has no stream of either
    modality, naming the ``where`` modality first.
    """
    selects = [s for s in corpus if s.modality is select]
    filters = [s for s in corpus if s.modality is where_modality]
    if not filters:
        raise ModalityAbsent(f"corpus has no {where_modality.value} stream")
    if not selects:
        raise ModalityAbsent(f"corpus has no {select.value} stream")

    matched_by_session: dict[str, list[tuple[float, float]]] = {}
    for stream in filters:
        hits = [(e.start, e.end) for e in stream if where(e)]
        if hits:
            matched_by_session.setdefault(stream.session_id, []).extend(hits)

    parts = []  # (session id, select stream, positions of its hits)
    for stream in selects:
        matched = matched_by_session.get(stream.session_id)
        if not matched:
            continue
        starts, ends = np.array(matched).T
        at = np.flatnonzero(covered(starts, ends, stream.starts, stream.ends))
        parts.append((stream.session_id, stream, at))  # in (start, end, id) order
    parts.sort(key=lambda part: part[0])  # stable: a session's streams keep their corpus order

    session_ids = [sid for sid, _, at in parts for _ in range(at.size)]
    ids = [s.ids[k] for _, s, at in parts for k in at.tolist()]
    payloads = [s.payloads[k] for _, s, at in parts for k in at.tolist()]
    starts = np.concatenate([np.empty(0)] + [s.starts[at] for _, s, at in parts])
    ends = np.concatenate([np.empty(0)] + [s.ends[at] for _, s, at in parts])
    if len({sid for sid, _, _ in parts}) < len(parts):
        # Some session has several select streams; the sort is stable, so
        # elements with equal keys keep their streams' corpus order.
        order = np.lexsort((np.array(ids), ends, starts, np.array(session_ids))).tolist()
        session_ids, ids, payloads = (
            [column[k] for k in order] for column in (session_ids, ids, payloads)
        )
        starts, ends = starts[order], ends[order]
    starts.setflags(write=False)
    ends.setflags(write=False)
    return QueryHits(tuple(session_ids), tuple(ids), starts, ends, tuple(payloads))
