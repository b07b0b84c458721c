"""Interval overlap, stream construction, temporal joins, cross-modal queries."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _oracles import brute_force_join, overlap, sweep_loop
from modalign.cli import RunConfig, session_streams
from modalign.errors import (
    EmptyStream,
    ModalityAbsent,
    NegativeInterval,
    OverlappingWords,
    SessionMismatch,
    ValidationError,
)
from modalign.ingest import CorpusIndex, build_index
from modalign.synth import SynthSpec, synth_corpus
from modalign.timeline import (
    Cardinality,
    Element,
    Modality,
    covered,
    element_ids,
    join_streams,
    overlap_pairs,
    overlap_ranges,
    query_crossmodal,
    stream_from_columns,
    word_element_id,
)


def derived(spans, session="s", labels=None):
    """A DERIVED stream of ``spans``; each label defaults to "x"."""
    starts, ends = [a for a, _ in spans], [b for _, b in spans]
    labels = labels or ["x"] * len(spans)
    return stream_from_columns(Modality.DERIVED, session, starts, ends, labels)


def random_spans(rng, n):
    starts = rng.uniform(0.0, 50.0, size=n)
    durations = rng.exponential(1.0, size=n)
    durations[rng.uniform(size=n) < 0.2] = 0.0  # sprinkle in point samples
    return list(zip(starts, starts + durations))


# --- intervals -------------------------------------------------------------

def test_interval_rejects_negative():
    for spans in [[(-0.1, 1.0)], [(-1, 0)], [(2.0, 1.0)], [(0.0, 1.0), (2.0, 1.5)]]:
        with pytest.raises(NegativeInterval):
            derived(spans)
    for starts, ends in [([0.0, -1.0], [1.0, 0.0]), ([0.0, 2.0], [1.0, 1.5])]:
        with pytest.raises(NegativeInterval):
            stream_from_columns(Modality.DERIVED, "s", starts, ends, ["x", "y"])
    # a bound that is not finite is refused in the same test
    nan, inf = float("nan"), float("inf")
    for span in [(nan, 1.0), (0.0, nan), (nan, nan), (0.0, inf), (inf, inf), (-inf, 0.0)]:
        with pytest.raises(NegativeInterval):
            derived([(0.0, 1.0), span])
    # a point sample, start == end, is a valid interval
    assert len(derived([(3.0, 3.0), (0.0, 0.0)])) == 2


_BOUNDS = st.floats() | st.sampled_from([float("nan"), float("inf"), -float("inf"), -0.0, 0.0,
                                         5e-324, -5e-324, 1e308])


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(_BOUNDS, _BOUNDS), min_size=1, max_size=6))
def test_stream_refuses_any_bound_not_finite_nonnegative_and_ordered(spans):
    ok = all(0 <= start <= end < float("inf") for start, end in spans)
    try:
        stream = derived(spans)
    except NegativeInterval:
        assert not ok
    else:
        assert ok
        assert sorted(zip(stream.starts.tolist(), stream.ends.tolist())) == sorted(spans)


def test_stream_elements_equal_checked_ones():
    # Elements a stream builds equal, hash and order like elements built
    # directly, and hold their bounds as Python floats.
    stream = derived([(0.0, 0.5), (0.25, 1.0), (2.0, 2.0)])
    checked = [Element(e.id, e.start, e.end, e.payload) for e in stream]
    assert list(stream) == checked == [stream[k] for k in range(len(stream))]
    assert [hash(e) for e in stream] == [hash(e) for e in checked]
    assert sorted((e.start, e.end) for e in stream) == [(e.start, e.end) for e in checked]
    assert all(type(e.start) is float and type(e.end) is float for e in stream)


def test_negative_positions_give_python_floats():
    # CSV cells are repr()s of the bounds, so an element read from either end
    # of a stream or of the query hits must hold plain floats.
    words = stream_from_columns(Modality.TEXT, "s", [0, 0.1], [0.1, 0.3], ["ja", "nein"])
    segs = derived([(0.0, 1.0)], labels=["AfD"])
    hits = query_crossmodal([words, segs], Modality.TEXT, lambda e: True, Modality.DERIVED)
    for last in (words[-1], hits[-1]):
        assert last == Element("w000001", 0.1, 0.3, "nein")
        assert type(last.start) is float and type(last.end) is float
        assert (repr(last.start), repr(last.end)) == ("0.1", "0.3")
    assert words[-2] == hits[-2] == Element("w000000", 0.0, 0.1, "ja")
    with pytest.raises(IndexError):
        words[-3]


def _one_pair_overlap(a, b):
    """The overlap ``overlap_pairs`` reports between single intervals ``a`` and ``b``; 0 for none."""
    cols = [np.array([bound], dtype=float) for side in (a, b) for bound in side]
    _, _, ov = overlap_pairs(*cols, 0.0)
    return float(ov[0]) if ov.size else 0.0


def test_overlap_cases():
    assert _one_pair_overlap((0, 2), (1, 3)) == 1.0
    assert _one_pair_overlap((0, 10), (2, 3)) == 1.0  # containment
    assert _one_pair_overlap((0, 1), (1, 2)) == 0.0  # touching
    assert _one_pair_overlap((0, 1), (5, 6)) == 0.0
    # a point inside a covering interval still has zero measure
    assert _one_pair_overlap((0, 10), (4, 4)) == 0.0


@given(
    st.tuples(
        st.floats(0, 100, allow_nan=False),
        st.floats(0, 100, allow_nan=False),
        st.floats(0, 100, allow_nan=False),
        st.floats(0, 100, allow_nan=False),
    )
)
def test_overlap_symmetric_and_bounded(vals):
    a1, d1, a2, d2 = vals
    a = (a1, a1 + d1)
    b = (a2, a2 + d2)
    assert _one_pair_overlap(a, b) == _one_pair_overlap(b, a) == overlap(a, b)
    assert 0.0 <= _one_pair_overlap(a, b) <= min(a[1] - a[0], b[1] - b[0])


# --- stream construction ---------------------------------------------------

def test_stream_from_columns_sorts_elements():
    s = stream_from_columns(Modality.DERIVED, "s", [5, 1, 3], [6, 2, 4], list("xyz"))
    assert s.payloads == ("y", "z", "x") and s.ids == ("seg0000", "seg0001", "seg0002")
    # ties on (start, end) keep their input order
    s = stream_from_columns(Modality.DERIVED, "s", [1, 1, 0], [2, 2, 1], "xyz")
    assert s.payloads == ("z", "x", "y")


def test_positional_ids_are_given_after_the_time_sort():
    # zero-length words tie on (start, end) and keep their input order
    s = stream_from_columns(Modality.TEXT, "s", [2, 1, 1, 0], [3, 1, 1, 1], ["c", "b", "B", "a"])
    assert s.payloads == ("a", "b", "B", "c")
    assert s.ids == element_ids(Modality.TEXT, 4) == tuple(map(word_element_id, range(4)))
    assert element_ids(Modality.TEXT, 4000)[3999] == "w003999"
    assert element_ids(Modality.TEXT, 2) == ("w000000", "w000001")
    assert element_ids(Modality.DERIVED, 10001)[10000] == "seg10000"
    with pytest.raises(OverlappingWords, match="'w000000' and 'w000001'"):
        stream_from_columns(Modality.TEXT, "s", [0.5, 0.0], [1.0, 0.6], ["b", "a"])


_SPELLING = {Modality.TEXT: "w{:06d}", Modality.DERIVED: "seg{:04d}"}
_QUARTERS = st.lists(st.tuples(st.integers(0, 3), st.integers(0, 2)), min_size=1, max_size=12)


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(Modality), _QUARTERS, st.data())
def test_ids_are_positions_in_time_order_and_ties_keep_input_order(modality, quarters, data):
    # On a quarter-second grid spans tie often, and some are zero-length.  Words may not
    # overlap, so a text stream lays its words end to end, each after a gap; zero-length
    # words with no gap tie.  Other streams take each pair as a start and a length.
    if modality is Modality.TEXT:
        ends = np.cumsum([gap + length for gap, length in quarters]) * 0.25
        spans = [(end - 0.25 * length, end) for end, (_, length) in zip(ends.tolist(), quarters)]
    else:
        spans = [(0.25 * start, 0.25 * (start + length)) for start, length in quarters]
    order = data.draw(st.permutations(range(len(spans))))
    shuffled = [(*spans[k], f"p{k}") for k in order]
    stream = stream_from_columns(modality, "s", *zip(*shuffled))
    expected = sorted(shuffled, key=lambda row: row[:2])  # stable: ties keep the input order
    assert stream.payloads == tuple(payload for _, _, payload in expected)
    assert list(zip(stream.starts.tolist(), stream.ends.tolist())) == [row[:2] for row in expected]
    assert [e.id for e in stream] == [_SPELLING[modality].format(k) for k in range(len(spans))]


def test_stream_from_columns_rejects_empty():
    with pytest.raises(EmptyStream):
        stream_from_columns(Modality.TEXT, "s", [], [], [])


def test_stream_from_columns_rejects_non_string_payloads():
    with pytest.raises(ValidationError):
        stream_from_columns(Modality.DERIVED, "s", [0, 2], [1, 3], ["word", 1.5])
    for unhashable in ([1, 2], {"word": "ja"}):
        with pytest.raises(ValidationError, match="payloads in session 's' must be strings"):
            stream_from_columns(Modality.DERIVED, "s", [0, 2], [1, 3], ["word", unhashable])


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 3), st.integers(0, 2), st.sampled_from("aAbc")),
                min_size=1, max_size=12))
def test_vocab_holds_each_payload_once_in_time_order(rows):
    spans = [(0.25 * start, 0.25 * (start + length), token) for start, length, token in rows]
    stream = stream_from_columns(Modality.DERIVED, "s", *zip(*spans))
    expected = tuple(token for _, _, token in sorted(spans, key=lambda row: row[:2]))
    assert stream.payloads == expected
    assert stream.vocab == tuple(dict.fromkeys(expected))  # first appearance in time order
    assert [stream.vocab[code] for code in stream.codes.tolist()] == list(expected)
    assert stream.codes.dtype.kind == "i" and not stream.codes.flags.writeable
    again = stream_from_columns(Modality.DERIVED, "s", stream.starts, stream.ends,
                                stream.codes.astype("<u4"), vocab=list(stream.vocab))
    assert again.vocab == stream.vocab and list(again) == list(stream)


@pytest.mark.parametrize(
    "vocab, codes, message",
    [
        (["a", "b", "a"], [0, 1], "vocab of session 's' holds 'a' twice"),
        (["a", 7], [0, 1], "must be strings"),
        (["a", None], [0, 0], "must be strings"),
        (["a", "b"], [0, 2], "code 2 in session 's' is outside its vocab of 2"),
        (["a", "b"], [-1, 0], "code -1 in session 's' is outside its vocab of 2"),
        (["a", "b"], np.array([0, 2**64 - 1], dtype=np.uint64), "code 18446744073709551615 "),
        ([], [0, 0], "outside its vocab of 0"),
        (["a", "b"], [0.0, 1.0], "codes in session 's' must be integers"),
        (["a", "b"], [False, True], "must be integers"),
        (["a", "b", "c"], [0, 1], "vocab entry 'c' of session 's' is unused"),
        (["a", "b"], [0, 0], "vocab entry 'b' of session 's' is unused"),
        (["a", "b"], [1, 0], "vocab of session 's' lists 'a' before 'b', which appears first"),
        (["ja", "\ud800\udfff"], [0, 1], r"payload '\\ud800\\udfff' in session 's' holds a lone"),
    ],
)
def test_stream_from_codes_checks_vocab_and_codes(vocab, codes, message):
    with pytest.raises(ValidationError, match=message):
        stream_from_columns(Modality.TEXT, "s", [0, 1], [1, 2], codes, vocab=vocab)


def test_stream_from_codes_keeps_the_callers_array():
    codes = np.array([1, 0, 1])
    stream = stream_from_columns(Modality.TEXT, "s", [2, 0, 1], [3, 1, 2], codes, vocab=("x", "y"))
    assert stream.payloads == ("x", "y", "y") and stream.vocab == ("x", "y")
    assert codes.flags.writeable and codes.tolist() == [1, 0, 1]


def test_text_words_may_touch_but_not_overlap():
    ok = stream_from_columns(Modality.TEXT, "s", [0.0, 0.5], [0.5, 1.0], ["ja", "nein"])
    assert len(ok) == 2
    with pytest.raises(OverlappingWords):
        stream_from_columns(Modality.TEXT, "s", [0.0, 0.5], [0.6, 1.0], ["ja", "nein"])


def test_non_text_streams_may_overlap():
    s = derived([(0.0, 2.0), (1.0, 3.0)])
    assert len(s) == 2


@given(st.permutations(list(range(6))))
def test_stream_from_columns_order_invariant(perm):
    spans = [(0.0, 1.0), (0.5, 2.0), (2.0, 2.0), (3.0, 4.5), (4.0, 4.1), (6.0, 7.0)]
    labels = [f"p{i}" for i in range(6)]
    reference = stream_from_columns(Modality.DERIVED, "s", *zip(*spans), labels)
    columns = [[column[i] for i in perm] for column in (*zip(*spans), labels)]
    shuffled = stream_from_columns(Modality.DERIVED, "s", *columns)
    assert list(shuffled) == list(reference)


# --- joins -----------------------------------------------------------------

# quarter-second grid points give zero-length, touching and nested intervals;
# arbitrary floats give everything else
_EDGE = st.integers(0, 16).map(lambda k: k * 0.25) | st.floats(0.0, 4.0)
_LENGTH = st.integers(0, 6).map(lambda k: k * 0.25) | st.floats(0.0, 2.0)


def _laid_end_to_end(steps):
    """Word-like ``(start, length)`` spans from ``(gap, length)`` steps in quarter seconds.

    The words touch or stand apart, some have zero length, and their ends
    rise with their starts.
    """
    ends = 0.25 * np.cumsum([gap + length for gap, length in steps])
    return [(end - 0.25 * length, 0.25 * length) for end, (_, length) in zip(ends.tolist(), steps)]


_WORD_SPANS = st.lists(st.tuples(st.integers(0, 2), st.integers(0, 3)), max_size=25).map(
    _laid_end_to_end)


def _spans(min_size, max_size):
    return st.lists(st.tuples(_EDGE, _LENGTH), min_size=min_size, max_size=max_size)


@settings(max_examples=300, deadline=None)
@given(
    # sizes up to 25 each, or a side of 9 to 200 against one of at most 8, either way round
    st.sampled_from([(_spans(0, 25), _spans(0, 25)), (_spans(9, 200), _spans(0, 8)),
                     (_spans(0, 8), _spans(9, 200))]).flatmap(lambda sides: st.tuples(*sides)),
    st.sampled_from([0.0, 0.0, 0.25, 0.3]),
    st.booleans(),
)
def test_overlap_pairs_match_sweep_loop(spans, min_ov, sort_a):
    # side a sorted by start, or in the order drawn, as covered hands it over for nested b
    a, b = ([(s, s + d) for s, d in side] for side in spans)
    if sort_a:
        a.sort()
    b.sort()
    order = sorted(range(len(a)), key=a.__getitem__)  # sorted position -> position in a
    cols = [np.array([iv[end] for iv in side], dtype=float) for side in (a, b) for end in (0, 1)]
    i, j, ov = overlap_pairs(*cols, min_ov)
    expected = sweep_loop([a[k] for k in order], b, min_ov)
    assert list(zip(i.tolist(), j.tolist(), ov.tolist())) == sorted(
        (order[k], *rest) for k, *rest in expected)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(_EDGE, _LENGTH | st.just(0.0)), max_size=25),
       _spans(0, 25) | _WORD_SPANS)
def test_overlap_ranges_match_brute_force(a_spans, b_spans):
    # b is either any spans, whose ends may fall and which get their running maximum as
    # reach, or words, whose ends rise and are their own reach
    a = [(s, s + d) for s, d in a_spans]  # side a in the order drawn
    b = sorted((s, s + d) for s, d in b_spans)
    starts_a, ends_a, starts_b, ends_b = (
        np.array([iv[end] for iv in side], dtype=float) for side in (a, b) for end in (0, 1))
    rising = bool((ends_b[1:] >= ends_b[:-1]).all())
    reach = ends_b if rising else np.maximum.accumulate(ends_b)
    lo, hi = overlap_ranges(starts_a, ends_a, starts_b, reach)
    assert (lo <= hi).all()
    for x, first, stop in zip(a, lo.tolist(), hi.tolist()):
        overlapping = {k for k, y in enumerate(b) if overlap(x, y) > 0}
        in_range = set(range(first, stop))
        if x[0] == x[1]:
            assert first == stop
        if rising:
            assert overlapping == {k for k in in_range if b[k][0] < b[k][1]}
        else:
            assert overlapping <= in_range


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(_EDGE, _LENGTH | st.just(0.0)), max_size=25),
       _spans(0, 25) | _WORD_SPANS)
def test_covered_matches_brute_force(a_spans, b_spans):
    # b is either any spans, whose ends may fall, or words, whose ends rise
    a = [(s, s + d) for s, d in a_spans]  # side a in the order drawn
    b = sorted((s, s + d) for s, d in b_spans)
    cols = [np.array([iv[end] for iv in side], dtype=float) for side in (a, b) for end in (0, 1)]
    mask = covered(*cols)
    assert mask.dtype == bool
    assert mask.tolist() == [any(overlap(x, y) > 0 for x in a) for y in b]


def test_join_matches_brute_force_randomized():
    rng = np.random.default_rng(42)
    for trial in range(60):
        na, nb = rng.integers(1, 250, size=2)
        a = derived(random_spans(rng, int(na)))
        b = derived(random_spans(rng, int(nb)))
        min_ov = float(rng.choice([0.0, 0.0, 0.25]))
        got = {(p.source_id, p.target_id): p.overlap for p in join_streams(a, b, min_ov).pairs}
        assert got == brute_force_join(a, b, min_ov)


def test_join_pairs_ordered_by_position():
    a = derived([(0, 4), (1, 5), (2, 6)])
    b = derived([(0, 3), (2, 7)])
    pairs = join_streams(a, b).pairs
    keys = [(p.source_id, p.target_id) for p in pairs]
    assert keys == sorted(keys)


def test_touching_intervals_never_align():
    a = derived([(0.0, 1.0)])
    b = derived([(1.0, 2.0)])
    assert join_streams(a, b).pairs == ()


def test_point_elements_never_align():
    words = derived([(0.0, 10.0)])
    points = derived([(5.0, 5.0)])
    assert join_streams(words, points).pairs == ()
    assert join_streams(points, words).pairs == ()


def test_min_overlap_is_strict():
    a = derived([(0.0, 1.0)])
    b = derived([(0.5, 2.0)])  # overlap exactly 0.5
    assert len(join_streams(a, b, min_overlap=0.25)) == 1
    assert len(join_streams(a, b, min_overlap=0.5)) == 0


def test_join_rejects_cross_session():
    a = derived([(0, 1)], session="s1")
    b = derived([(0, 1)], session="s2")
    with pytest.raises(SessionMismatch):
        join_streams(a, b)


# --- cardinality -----------------------------------------------------------

def test_cardinality_classification():
    one = derived([(0, 1), (2, 3)])
    assert join_streams(one, derived([(0.5, 2.5)])).cardinality is Cardinality.MANY_TO_ONE
    assert join_streams(derived([(0.5, 2.5)]), one).cardinality is Cardinality.ONE_TO_MANY
    assert join_streams(one, derived([(0, 1), (2, 3)])).cardinality is Cardinality.ONE_TO_ONE
    many = derived([(0, 3), (1, 4)])
    assert join_streams(many, derived([(0, 3), (1, 4)])).cardinality is Cardinality.MANY_TO_MANY


def test_empty_alignment_is_degenerate_many_to_many():
    a = derived([(0, 1)])
    b = derived([(5, 6)])
    amap = join_streams(a, b)
    assert amap.pairs == ()
    assert amap.cardinality is Cardinality.MANY_TO_MANY


# --- cross-modal queries ---------------------------------------------------

def words_stream(session, toks_spans):
    tokens, starts, ends = zip(*toks_spans)
    return stream_from_columns(Modality.TEXT, session, starts, ends, tokens)


def test_query_selects_overlapping_elements():
    words = words_stream("s", [("ja", 0, 1), ("nein", 1, 2), ("doch", 4, 5)])
    segs = derived([(0.5, 1.5)], labels=["AfD"])
    hits = query_crossmodal([words, segs], Modality.TEXT, lambda e: e.payload == "AfD", Modality.DERIVED)
    assert [e.id for e in hits] == ["w000000", "w000001"]


def test_query_deduplicates_and_orders():
    words = words_stream("s", [("a", 0, 3), ("b", 3, 4)])
    segs = derived([(0.0, 1.5), (1.0, 3.5)], labels=["AfD", "AfD"])
    hits = query_crossmodal([words, segs], Modality.TEXT, lambda e: True, Modality.DERIVED)
    # w000000 overlaps both segments but appears once, in timeline order
    assert [e.id for e in hits] == ["w000000", "w000001"]


def test_query_respects_sessions():
    words_a = words_stream("sa", [("x", 0, 1)])
    words_b = words_stream("sb", [("y", 0, 1)])
    segs_a = derived([(0.0, 1.0)], session="sa", labels=["AfD"])
    hits = query_crossmodal(
        [words_a, words_b, segs_a], Modality.TEXT, lambda e: True, Modality.DERIVED
    )
    assert [e.id for e in hits] == ["w000000"]
    assert hits[0].payload == "x"


def test_query_refuses_two_select_streams_of_one_session():
    words = words_stream("s", [("x", 0, 1), ("y", 2, 3)])
    more = stream_from_columns(Modality.TEXT, "s", [1, 3], [2, 4], ["z", "q"])
    other = words_stream("t", [("x", 0, 1)])
    segs = derived([(0.0, 5.0)], labels=["AfD"])
    for corpus in ([words, more, segs], [other, segs, words, more]):
        with pytest.raises(ValidationError, match="session 's' has 2 text streams, not one"):
            query_crossmodal(corpus, Modality.TEXT, lambda e: True, Modality.DERIVED)
    # refused whether or not the session has a match
    with pytest.raises(ValidationError, match="session 's'"):
        query_crossmodal([words, more, segs], Modality.TEXT, lambda e: False, Modality.DERIVED)


def test_query_orders_sessions_as_python_strings():
    # numpy's U strings drop trailing NULs and would tie "a" with "a\x00"; "a" comes first
    corpus = []
    for sid, token in (("a\x00", "later"), ("b", "last"), ("a", "first")):
        corpus += [words_stream(sid, [(token, 0, 1)]), derived([(0.0, 1.0)], session=sid)]
    hits = query_crossmodal(corpus, Modality.TEXT, lambda e: True, Modality.DERIVED)
    assert hits.session_ids == ("a", "a\x00", "b")
    assert hits.payloads == ("first", "later", "last")


def test_query_hits_build_their_tuples_when_first_read():
    words = words_stream("s", [("ja", 0, 1), ("nein", 1, 2), ("doch", 4, 5)])
    segs = derived([(0.5, 1.5)], labels=["AfD"])
    hits = query_crossmodal([words, segs], Modality.TEXT, lambda e: True, Modality.DERIVED)
    lazy = {"session_ids", "ids", "payloads"}
    assert len(hits) == 2 and not lazy & set(vars(hits))
    for name in lazy:
        assert getattr(hits, name) is getattr(hits, name)  # built once, on the first read
    assert hits.session_ids == ("s", "s")
    assert hits.ids == ("w000000", "w000001") and hits.payloads == ("ja", "nein")


def test_query_requires_both_modalities():
    words = words_stream("s", [("x", 0, 1)])
    with pytest.raises(ModalityAbsent):
        query_crossmodal([words], Modality.TEXT, lambda e: True, Modality.DERIVED)
    with pytest.raises(ModalityAbsent):
        query_crossmodal([words], Modality.DERIVED, lambda e: True, Modality.TEXT)
    with pytest.raises(ModalityAbsent, match="no derived stream"):  # both absent: where first
        query_crossmodal([], Modality.TEXT, lambda e: True, Modality.DERIVED)


def test_query_matches_brute_force_randomized():
    rng = np.random.default_rng(3)
    for trial in range(25):
        # words laid end to end over the segments' span, some of zero length
        lengths = rng.exponential(1.0, size=40) * (rng.uniform(size=40) >= 0.2)
        ends = np.cumsum(lengths + rng.exponential(0.3, size=40))
        words = stream_from_columns(Modality.TEXT, "s", ends - lengths, ends, ["x"] * 40)
        marks = rng.uniform(size=30) < 0.4
        segs = derived(
            random_spans(rng, 30), labels=["hit" if m else "miss" for m in marks]
        )
        got = query_crossmodal([words, segs], Modality.TEXT, lambda e: e.payload == "hit", Modality.DERIVED)
        matched = [e for e in segs if e.payload == "hit"]
        expected = sorted(
            (
                w.id
                for w in words
                if any(
                    min(w.end, g.end) - max(w.start, g.start) > 0
                    for g in matched
                )
            ),
        )
        assert sorted(e.id for e in got) == expected


# --- columnar results ------------------------------------------------------

def _text_stream(session, gaps_lengths):
    """A TEXT stream of words laid end to end: each gap, then a word of that length."""
    ends = np.cumsum([g + d for g, d in gaps_lengths])
    starts = ends - [d for _, d in gaps_lengths]
    tokens = [f"t{k % 3}" for k in range(len(starts))]
    return stream_from_columns(Modality.TEXT, session, starts, ends, tokens)


# quarter-second grid steps, so words of the two streams often share bounds
_STEP = st.integers(0, 4).map(lambda k: k * 0.25)
_WORDS = st.lists(st.tuples(_STEP, _STEP), min_size=1, max_size=12)
_SESSION = st.tuples(
    _WORDS,
    st.lists(st.tuples(_STEP, _STEP, st.booleans()), min_size=1, max_size=6),
)


@settings(max_examples=200, deadline=None)
@given(st.lists(_SESSION, min_size=1, max_size=3))
def test_query_result_is_a_sequence_equal_to_brute_force(sessions):
    corpus, expected, expected_sessions = [], [], []
    for n, (words, segs) in enumerate(sessions):
        sid = f"s{n}"
        text = _text_stream(sid, words)
        marks = derived([(a, a + d) for a, d, _ in segs], session=sid,
                        labels=["hit" if hit else "miss" for _, _, hit in segs])
        corpus += [text, marks]
        matched = [g for g in marks if g.payload == "hit"]
        found = [w for w in text
                 if any(overlap((w.start, w.end), (g.start, g.end)) > 0 for g in matched)]
        expected += found
        expected_sessions += [sid] * len(found)

        amap = join_streams(text, marks)
        assert len(amap) == len(amap.pairs)
        got = [((p.source_id, p.target_id), p.overlap) for p in amap.pairs]
        assert got == list(brute_force_join(text, marks).items())  # in (source, target) order
        assert amap.pairs is amap.pairs  # built once, on the first read

    hits = query_crossmodal(corpus, Modality.TEXT, lambda e: e.payload == "hit", Modality.DERIVED)
    assert len(hits) == len(expected)
    assert list(hits) == expected
    assert [hits[k] for k in range(-len(hits), len(hits))] == expected + expected
    for k in (len(hits), -len(hits) - 1):
        with pytest.raises(IndexError):
            hits[k]
    assert list(hits.session_ids) == expected_sessions


def test_join_and_query_results_are_columnar(tmp_path):
    # One 4000-word session joined with its address segments and queried by
    # them: 1237 pairs and 1237 hits.  Kept as columns, the two calls peak at
    # 0.23 MB; one AlignedPair per pair and one Element per hit peaked at
    # 0.65 MB.
    spec = SynthSpec(seed=1, speakers=1, words_per_speech=4000, sample_rate=8000)
    root = build_index(synth_corpus(spec, tmp_path / "raw"), tmp_path / "idx")
    words, segs = session_streams(CorpusIndex(root), RunConfig())["sess000"]

    def afd(e):
        return e.payload == "AfD"

    # First calls outside the trace: numpy imports modules lazily on first use.
    join_streams(words, segs)
    query_crossmodal([words, segs], Modality.TEXT, afd, Modality.DERIVED)
    tracemalloc.start()
    try:
        amap = join_streams(words, segs)
        hits = query_crossmodal([words, segs], Modality.TEXT, afd, Modality.DERIVED)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(amap) == len(hits) > 1000
    assert peak < 400_000, f"peak {peak / 1e6:.2f} MB"
