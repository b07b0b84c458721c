"""Timestamped element streams, interval joins, and cross-modal queries.

Every modality is reduced to a stream of discrete elements (words, frames,
segments) stamped with half-open time intervals on a shared per-session
clock.  Aligning two modalities is then an interval join; querying one
modality by a condition on another is a join followed by a filter.

Conventions
-----------
* Intervals are half-open ``[start, end)`` in seconds.  Two intervals that
  merely touch (``a.end == b.start``) do not overlap.
* Point samples are represented as ``start == end`` and never align with
  anything: a zero-length interval has zero overlap with everything.
* Streams are immutable once built; operations return new objects.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from numbers import Real
from typing import Callable, Iterable, Iterator, Sequence

from .errors import (
    DuplicateIds,
    EmptyStream,
    MixedPayload,
    ModalityAbsent,
    NegativeInterval,
    OverlappingWords,
    SessionMismatch,
    ValidationError,
)


class Modality(enum.Enum):
    TEXT = "text"
    AUDIO = "audio"
    VISUAL = "visual"
    DERIVED = "derived"


class Cardinality(enum.Enum):
    """Observed relation shape of an alignment map."""

    ONE_TO_ONE = "one-to-one"
    ONE_TO_MANY = "one-to-many"
    MANY_TO_ONE = "many-to-one"
    MANY_TO_MANY = "many-to-many"


@dataclass(frozen=True, order=True)
class TimeInterval:
    """Half-open interval ``[start, end)`` in seconds.

    ``start == end`` marks a point sample (exposed via :attr:`point`).
    """

    start: float
    end: float

    def __post_init__(self):
        if self.start < 0 or self.end < self.start:
            raise NegativeInterval(f"bad interval [{self.start}, {self.end})")

    @property
    def point(self) -> bool:
        return self.start == self.end

    @property
    def duration(self) -> float:
        return self.end - self.start


def overlap(a: TimeInterval, b: TimeInterval) -> float:
    """Overlap duration of two half-open intervals; 0 when disjoint or touching."""
    return max(0.0, min(a.end, b.end) - max(a.start, b.start))


def _payload_kind(payload) -> str:
    if isinstance(payload, str):
        return "token"
    if isinstance(payload, tuple):
        if len(payload) == 2 and all(isinstance(v, Real) for v in payload):
            return "angles"
        raise MixedPayload(f"tuple payload must be a (yaw, pitch) pair, got {payload!r}")
    if isinstance(payload, Real):
        return "scalar"
    raise MixedPayload(f"unsupported payload type {type(payload).__name__}")


@dataclass(frozen=True)
class Element:
    """One discrete item on the timeline: a word, a sample, a segment."""

    id: str
    interval: TimeInterval
    payload: str | float | tuple[float, float]


@dataclass(frozen=True)
class ElementStream:
    """Sorted, immutable sequence of elements from one modality and session."""

    modality: Modality
    session_id: str
    speaker_id: str | None
    elements: tuple[Element, ...]

    def __len__(self) -> int:
        return len(self.elements)

    def __iter__(self) -> Iterator[Element]:
        return iter(self.elements)

    def intervals(self) -> list[TimeInterval]:
        return [e.interval for e in self.elements]


def build_stream(
    modality: Modality,
    session_id: str,
    elements: Iterable[Element],
    speaker_id: str | None = None,
) -> ElementStream:
    """Validate, sort, and freeze a stream of elements.

    Elements are sorted by ``(start, end, id)``.  Raises
    :class:`EmptyStream`, :class:`MixedPayload` on payload-variant mixtures,
    :class:`OverlappingWords` when a text stream's word intervals overlap,
    and :class:`DuplicateIds` on duplicate element ids.
    """
    elems = sorted(elements, key=lambda e: (e.interval.start, e.interval.end, e.id))
    if not elems:
        raise EmptyStream(f"stream for session {session_id!r} has no elements")

    kinds = {_payload_kind(e.payload) for e in elems}
    if len(kinds) > 1:
        raise MixedPayload(f"stream mixes payload variants {sorted(kinds)}")

    ids = {e.id for e in elems}
    if len(ids) != len(elems):
        raise DuplicateIds(f"element ids repeat in the stream for session {session_id!r}")

    if modality is Modality.TEXT:
        for prev, cur in zip(elems, elems[1:]):
            if cur.interval.start < prev.interval.end:
                raise OverlappingWords(
                    f"words {prev.id!r} and {cur.id!r} overlap in session {session_id!r}"
                )

    return ElementStream(modality, session_id, speaker_id, tuple(elems))


@dataclass(frozen=True)
class AlignedPair:
    source_id: str
    target_id: str
    overlap: float


@dataclass(frozen=True)
class AlignmentMap:
    """Result of joining two streams: explicit pairs plus the observed cardinality."""

    pairs: tuple[AlignedPair, ...]
    cardinality: Cardinality

    def __len__(self) -> int:
        return len(self.pairs)


def _observed_cardinality(pairs: Sequence[AlignedPair]) -> Cardinality:
    if not pairs:
        # Degenerate: the empty relation constrains nothing.
        return Cardinality.MANY_TO_MANY
    out_degree: dict[str, int] = {}
    in_degree: dict[str, int] = {}
    for p in pairs:
        out_degree[p.source_id] = out_degree.get(p.source_id, 0) + 1
        in_degree[p.target_id] = in_degree.get(p.target_id, 0) + 1
    fan_out = max(out_degree.values())
    fan_in = max(in_degree.values())
    if fan_out <= 1 and fan_in <= 1:
        return Cardinality.ONE_TO_ONE
    if fan_in <= 1:
        return Cardinality.ONE_TO_MANY
    if fan_out <= 1:
        return Cardinality.MANY_TO_ONE
    return Cardinality.MANY_TO_MANY


def sweep_overlaps(
    a: Sequence[TimeInterval],
    b: Sequence[TimeInterval],
    min_overlap: float,
) -> list[tuple[int, int, float]]:
    """All index pairs with ``overlap > min_overlap`` between two sorted interval lists.

    Forward-scan plane sweep: whichever side opens earlier scans the other
    side while start times stay below its end.  Runs in
    ``O(n + m + candidates)`` after the callers' sort.
    """
    pairs: list[tuple[int, int, float]] = []
    i = j = 0
    na, nb = len(a), len(b)
    while i < na and j < nb:
        if (a[i].start, a[i].end) <= (b[j].start, b[j].end):
            end = a[i].end
            k = j
            while k < nb and b[k].start < end:
                ov = overlap(a[i], b[k])
                if ov > min_overlap:
                    pairs.append((i, k, ov))
                k += 1
            i += 1
        else:
            end = b[j].end
            k = i
            while k < na and a[k].start < end:
                ov = overlap(a[k], b[j])
                if ov > min_overlap:
                    pairs.append((k, j, ov))
                k += 1
            j += 1
    return pairs


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
    if min_overlap < 0:
        raise ValidationError(f"min_overlap must be >= 0, got {min_overlap}")
    idx = sweep_overlaps(source.intervals(), target.intervals(), min_overlap)
    idx.sort(key=lambda t: (t[0], t[1]))
    pairs = tuple(
        AlignedPair(source.elements[i].id, target.elements[j].id, ov) for i, j, ov in idx
    )
    return AlignmentMap(pairs, _observed_cardinality(pairs))


def query_crossmodal(
    corpus: Sequence[ElementStream],
    select: Modality,
    where: Callable[[Element], bool],
    where_modality: Modality,
) -> list[Element]:
    """Elements of ``select`` modality that overlap a matching element elsewhere.

    ``where`` is evaluated on every element of the ``where_modality``
    streams; a ``select`` element qualifies when it overlaps (strictly
    positive overlap) at least one matching element in the same session.
    Results are deduplicated and ordered by (session, start, end, id).
    Raises :class:`ModalityAbsent` when the corpus has no stream of either
    modality.
    """
    selects = [s for s in corpus if s.modality is select]
    filters = [s for s in corpus if s.modality is where_modality]
    if not selects:
        raise ModalityAbsent(f"corpus has no {select.value} stream")
    if not filters:
        raise ModalityAbsent(f"corpus has no {where_modality.value} stream")

    matched_by_session: dict[str, list[TimeInterval]] = {}
    for stream in filters:
        hits = [e.interval for e in stream if where(e)]
        if hits:
            matched_by_session.setdefault(stream.session_id, []).extend(hits)

    out: list[tuple[str, float, float, str, Element]] = []
    for stream in selects:
        matched = matched_by_session.get(stream.session_id)
        if not matched:
            continue
        matched.sort()
        hit_idx = {i for i, _, _ in sweep_overlaps(stream.intervals(), matched, 0.0)}
        for i in sorted(hit_idx):
            e = stream.elements[i]
            out.append((stream.session_id, e.interval.start, e.interval.end, e.id, e))
    out.sort(key=lambda t: t[:4])
    return [t[4] for t in out]
