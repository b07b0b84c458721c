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
* Payloads are strings: a word's token, a segment's label.  A stream holds
  them as a vocabulary and codes: ``vocab`` is its distinct strings, in the
  order they first appear in time order, and element ``k``'s payload is
  ``vocab[codes[k]]``.
* An element's id is its position in time order, spelled by its stream's
  modality (:func:`element_ids`): ``w000000`` ... for words, ``seg0000`` ...
  for segments.
* Bounds are checked in one place, :func:`stream_from_columns`, which
  raises :class:`~modalign.errors.NegativeInterval` unless
  ``0 <= start <= end < inf``, so every bound is finite.
* Streams are immutable once built; operations return new objects.
"""

from __future__ import annotations

import enum
import re
from collections import Counter
from collections.abc import Collection, Sequence
from dataclasses import dataclass
from functools import cached_property
from itertools import chain, repeat
from typing import Callable, Iterator

import numpy as np

from .errors import (
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

    A subclass holds ``ids``, ``starts``, ``ends`` and ``payloads`` and is
    as long as ``starts``; ``seq[k]`` and iteration build its elements on
    demand, with ``start`` and ``end`` as Python floats.
    """

    def __len__(self) -> int:
        return self.starts.size

    def __getitem__(self, k: int) -> Element:
        return Element(self.ids[k], self.starts[k].item(), self.ends[k].item(), self.payloads[k])

    def __iter__(self) -> Iterator[Element]:
        return map(Element, self.ids, self.starts.tolist(), self.ends.tolist(), self.payloads)


@dataclass(frozen=True, eq=False)
class ElementStream(_ElementColumns):
    """Sorted, immutable sequence of elements from one modality and session.

    Held as columns: ``starts``/``ends`` are read-only float64 arrays,
    ``codes`` a read-only int array and ``ids`` a tuple, all in the order
    :func:`stream_from_columns` gives; ``vocab`` is the tuple of distinct
    payloads the codes index.  The :attr:`payloads` tuple is built when it
    is first read, and an :class:`Element` only when one is asked for, by
    iteration or ``stream[i]``.
    """

    modality: Modality
    session_id: str
    speaker_id: str | None
    ids: tuple[str, ...]
    starts: np.ndarray
    ends: np.ndarray
    vocab: tuple[str, ...]
    codes: np.ndarray

    @cached_property
    def payloads(self) -> tuple[str, ...]:
        """Each element's payload, ``vocab[codes[k]]``."""
        return tuple(map(self.vocab.__getitem__, self.codes.tolist()))


_ID_FORMATS = {Modality.TEXT: "w{:06d}", Modality.DERIVED: "seg{:04d}"}
_IDS: dict[Modality, tuple[str, ...]] = {}  # element ids by modality, made once
word_element_id = _ID_FORMATS[Modality.TEXT].format  # the id of the word at a 0-based position


def element_ids(modality: Modality, n: int) -> tuple[str, ...]:
    """The ids of positions ``0 .. n-1`` of a ``modality`` stream, sliced from one table.

    Each modality's table is shared by the whole process and grows by
    doubling, so every id is made once.
    """
    table = _IDS.get(modality, ())
    if len(table) < n:
        spell = _ID_FORMATS[modality].format
        table += tuple(map(spell, range(len(table), max(n, 2 * len(table)))))
        _IDS[modality] = table
    return table[:n]


_SURROGATE = re.compile("[\ud800-\udfff]")


def not_utf8(strings: Collection[str]) -> str | None:
    """The first of ``strings`` holding a lone surrogate, which UTF-8 cannot encode, or None.

    Decoded UTF-8 holds none; they come from JSON escapes such as
    ``"\\ud800"`` and from command-line bytes that are not UTF-8.
    """
    text = "".join(strings)
    if text.isascii() or _SURROGATE.search(text) is None:  # isascii reads a flag the str keeps
        return None
    return next(filter(_SURROGATE.search, strings))


def stream_from_columns(
    modality: Modality,
    session_id: str,
    starts,
    ends,
    payloads: Sequence,
    speaker_id: str | None = None,
    *,
    vocab: Sequence[str] | None = None,
) -> ElementStream:
    """Validate, sort, and freeze a stream given as parallel columns.

    ``payloads`` are strings, or, with ``vocab`` given, integer codes into
    it.  Elements are sorted by ``(start, end)``, ties keeping their input
    order, and the ``k``-th gets id ``element_ids(modality, n)[k]``.  A
    stream's vocab holds each distinct payload once, in the order the
    payloads first appear in time order: a stream built from strings takes
    it from them, and one built from codes must be given it so.  Raises
    :class:`ValidationError` unless every payload (every vocab entry) is a
    string free of lone surrogates (see :func:`not_utf8`), the vocab holds
    no string twice, every code indexes it and
    every entry is used in that order, :class:`EmptyStream`,
    :class:`NegativeInterval` unless ``0 <= start <= end < inf`` (NaN
    fails), and :class:`OverlappingWords` when a text stream's words
    overlap.
    """
    starts = np.array(starts, dtype=np.float64)
    ends = np.array(ends, dtype=np.float64)
    n = len(payloads)
    if not starts.size == ends.size == n:
        raise ValidationError("stream columns differ in length")
    if not n:
        raise EmptyStream(f"stream for session {session_id!r} has no elements")
    # ties or disorder: a stable sort by (start, end)
    order = None if (starts[1:] > starts[:-1]).all() else np.lexsort((ends, starts))
    strings = vocab is None
    if strings:  # one hash pass over the payloads in time order
        in_time = payloads if order is None else map(payloads.__getitem__, order.tolist())
        first = {}  # each distinct payload -> the position where it first appears
        try:
            at = np.fromiter(map(first.setdefault, in_time, range(n)), np.intp, n)
        except TypeError:  # an unhashable payload, which is no string
            raise ValidationError(f"payloads in session {session_id!r} must be strings") from None
        vocab = first
    vocab = tuple(vocab)
    if set(map(type, vocab)) - {str}:
        raise ValidationError(f"payloads in session {session_id!r} must be strings")
    bad = not_utf8(vocab)
    if bad is not None:
        raise ValidationError(f"payload {bad!r} in session {session_id!r} holds a lone surrogate")
    if strings:
        code_at = np.empty(n, np.intp)  # at a payload's first position, its code
        code_at[np.fromiter(first.values(), np.intp, len(vocab))] = np.arange(len(vocab))
        codes = code_at[at]
    else:
        codes = np.asarray(payloads)
        if len(set(vocab)) < len(vocab):
            twice = next(word for word, count in Counter(vocab).items() if count > 1)
            raise ValidationError(f"vocab of session {session_id!r} holds {twice!r} twice")
        if codes.dtype.kind not in "iu" or codes.ndim != 1:
            raise ValidationError(f"codes in session {session_id!r} must be integers")
        codes = codes.astype(np.intp)  # the stream's own copy
        unsigned = codes.view(np.uintp)  # a negative code, or one past intp, reads as huge
        if unsigned.max() >= len(vocab):
            k = int(np.argmax(unsigned >= len(vocab)))
            raise ValidationError(
                f"code {payloads[k]} in session {session_id!r} is outside its vocab of {len(vocab)}"
            )
        if order is not None:
            codes = codes[order]
        # In first-appearance order the newest code so far grows by one at each new word.
        newest = np.maximum.accumulate(codes)
        if codes[0] or newest[-1] + 1 < len(vocab) or (codes[1:] > newest[:-1] + 1).any():
            k = int(np.argmax(np.diff(newest, prepend=-1, append=len(vocab)) > 1))
            due = (int(newest[k - 1]) if k else -1) + 1  # the code that should have come next
            if not (codes == due).any():
                raise ValidationError(
                    f"vocab entry {vocab[due]!r} of session {session_id!r} is unused"
                )
            raise ValidationError(
                f"vocab of session {session_id!r} lists {vocab[due]!r} before "
                f"{vocab[codes[k]]!r}, which appears first"
            )
    bad = np.flatnonzero(~((0 <= starts) & (starts <= ends) & (ends < np.inf)))
    if bad.size:
        raise NegativeInterval(f"bad interval [{starts[bad[0]]}, {ends[bad[0]]})")
    if order is not None:
        starts, ends = starts[order], ends[order]
    ids = element_ids(modality, n)

    if modality is Modality.TEXT:
        clash = np.flatnonzero(starts[1:] < ends[:-1])
        if clash.size:
            k = int(clash[0])
            raise OverlappingWords(
                f"words {ids[k]!r} and {ids[k + 1]!r} overlap in session {session_id!r}"
            )

    for column in (starts, ends, codes):
        column.setflags(write=False)
    return ElementStream(modality, session_id, speaker_id, ids, starts, ends, vocab, codes)


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


def overlap_ranges(starts_a, ends_a, starts_b, reach_b) -> tuple[np.ndarray, np.ndarray]:
    """``(lo, hi)``: every ``b`` that overlaps ``a[i]`` lies in ``b[lo[i]:hi[i]]``; ``lo <= hi``.

    Side ``b`` must be sorted by start, and ``reach_b`` be its ends where
    they rise, as a text stream's words do, their running maximum where
    they fall; side ``a`` may come in any order.  The ``b`` whose reach
    passes ``a[i]``'s start are then a suffix and the ``b`` that start
    before it ends a prefix: two binary searches, and every other ``b`` is
    disjoint from or touches ``a[i]``.  With ``b``'s own ends the ``b`` of
    positive length in the range are exactly those that overlap ``a[i]``;
    with a running maximum the range also holds ``b`` nested in an earlier,
    longer one.  A zero-length ``a[i]`` overlaps nothing and gets
    ``lo[i] == hi[i]``.
    """
    lo = np.searchsorted(reach_b, starts_a, side="right")
    hi = np.searchsorted(starts_b, ends_a, side="left")
    return lo, np.where(ends_a > starts_a, hi, lo)


def overlap_pairs(
    starts_a: np.ndarray,
    ends_a: np.ndarray,
    starts_b: np.ndarray,
    ends_b: np.ndarray,
    min_overlap: float,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(i, j, overlap)`` for every pair with ``overlap > min_overlap``, ordered by ``(i, j)``.

    ``min_overlap`` must be >= 0.  Side ``b`` must be sorted by start; side
    ``a`` may come in any order.  The candidates for ``a[i]`` are the ``b``
    of its :func:`overlap_ranges`, listed without a Python loop, so the work
    is linear in ``a`` and the candidates, which exceed the pairs only where
    a long ``b`` keeps the running maximum of ends ahead of later, shorter
    ones.  When ``a`` is the longer side and sorted by start too, as when
    words are joined to segments, the search runs from side ``b`` instead;
    those pairs come in ``(j, i)`` order and are re-sorted, stably by ``i``,
    only when ``i`` falls somewhere.
    """
    if starts_a.size > starts_b.size and not (starts_a[1:] < starts_a[:-1]).any():
        j, i, ov = overlap_pairs(starts_b, ends_b, starts_a, ends_a, min_overlap)
        if (i[1:] < i[:-1]).any():
            order = np.argsort(i, kind="stable")
            i, j, ov = i[order], j[order], ov[order]
        return i, j, ov
    reach = ends_b if (ends_b[1:] >= ends_b[:-1]).all() else np.maximum.accumulate(ends_b)
    lo, hi = overlap_ranges(starts_a, ends_a, starts_b, reach)
    counts = hi - lo
    i = np.repeat(np.arange(starts_a.size), counts)
    first = np.cumsum(counts) - counts  # offset of each a[i]'s first candidate
    j = np.arange(i.size) - np.repeat(first - lo, counts)
    ov = np.minimum(ends_a[i], ends_b[j]) - np.maximum(starts_a[i], starts_b[j])
    keep = ov > min_overlap
    return i[keep], j[keep], ov[keep]


def covered(starts_a, ends_a, starts_b, ends_b) -> np.ndarray:
    """Mask of the ``b`` intervals (sorted by start) that overlap, strictly, an ``a`` (any order).

    Where ``b``'s ends rise, the mask comes from the :func:`overlap_ranges`
    through one difference array: two binary searches per ``a`` and one
    pass over ``b``.  Otherwise, as for nested segments, it comes from
    :func:`overlap_pairs`.
    """
    if (ends_b[1:] < ends_b[:-1]).any():
        mask = np.zeros(starts_b.size, dtype=bool)
        mask[overlap_pairs(starts_a, ends_a, starts_b, ends_b, 0.0)[1]] = True
        return mask
    lo, hi = overlap_ranges(starts_a, ends_a, starts_b, ends_b)
    n = starts_b.size
    depth = np.cumsum(np.bincount(lo, minlength=n + 1) - np.bincount(hi, minlength=n + 1))
    return (depth[:-1] > 0) & (ends_b > starts_b)


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

    Held as ``parts``, one ``(stream, positions)`` per session with a hit,
    in session order: that session's hits are ``stream[k]`` for ``k`` in the
    read-only int array ``positions``, in stream order.  ``starts``/``ends``
    are read-only float64 arrays over all the hits in that order; the
    ``session_ids``, ``ids`` and ``payloads`` tuples are built when first
    read.  ``hits[k]`` and iteration build the elements on demand; an
    element does not carry its session, ``session_ids[k]`` does.
    """

    parts: tuple[tuple[ElementStream, np.ndarray], ...]
    starts: np.ndarray
    ends: np.ndarray

    @cached_property
    def session_ids(self) -> tuple[str, ...]:
        return tuple(chain.from_iterable(repeat(s.session_id, at.size) for s, at in self.parts))

    @cached_property
    def ids(self) -> tuple[str, ...]:
        return tuple(chain.from_iterable(
            map(s.ids.__getitem__, at.tolist()) for s, at in self.parts
        ))

    @cached_property
    def payloads(self) -> tuple[str, ...]:
        return tuple(chain.from_iterable(
            map(s.vocab.__getitem__, s.codes[at].tolist()) for s, at in self.parts
        ))


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
    Results are deduplicated and ordered by session id (Python's string
    order), then by their stream's (start, end) order, ties keeping their
    stream order.  Raises :class:`ModalityAbsent` when the corpus has no
    stream of either modality, naming the ``where`` modality first, and
    :class:`ValidationError` naming the session when a session has more
    than one ``select`` stream.
    """
    selects = [s for s in corpus if s.modality is select]
    filters = [s for s in corpus if s.modality is where_modality]
    if not filters:
        raise ModalityAbsent(f"corpus has no {where_modality.value} stream")
    if not selects:
        raise ModalityAbsent(f"corpus has no {select.value} stream")
    for sid, count in Counter(s.session_id for s in selects).items():
        if count > 1:
            raise ValidationError(f"session {sid!r} has {count} {select.value} streams, not one")

    matched: dict[str, list[tuple[np.ndarray, np.ndarray]]] = {}  # each session's match bounds
    for stream in filters:
        keep = np.fromiter(map(where, stream), bool, len(stream))
        if keep.any():
            bounds = (stream.starts[keep], stream.ends[keep])
            matched.setdefault(stream.session_id, []).append(bounds)

    parts = []  # (select stream, positions of its hits)
    for stream in sorted(selects, key=lambda s: s.session_id):
        bounds = matched.get(stream.session_id)
        if bounds:
            starts, ends = (np.concatenate(column) for column in zip(*bounds))
            at = np.flatnonzero(covered(starts, ends, stream.starts, stream.ends))
            at.setflags(write=False)
            parts.append((stream, at))  # in (start, end) order

    starts = np.concatenate([np.empty(0)] + [s.starts[at] for s, at in parts])
    ends = np.concatenate([np.empty(0)] + [s.ends[at] for s, at in parts])
    starts.setflags(write=False)
    ends.setflags(write=False)
    return QueryHits(tuple(parts), starts, ends)
