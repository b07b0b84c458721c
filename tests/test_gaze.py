"""Address-segment detection from head-pose traces."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from modalign.errors import SessionMismatch, UnsortedSamples, ValidationError
from modalign.gaze import (
    AddressRule,
    AddressSegment,
    GazeSample,
    as_trace,
    detect_address_segments,
    enforce_min_words,
    segments_to_stream,
)
from modalign.timeline import Element, Modality, TimeInterval, build_stream

from _oracles import detect_loop

RULE = AddressRule()


def in_band(t, yaw=55.0):
    return GazeSample(t, yaw, 0.0, True)


def away(t, yaw=10.0):
    return GazeSample(t, yaw, 0.0, True)


def notes(t, yaw=10.0, pitch=-30.0):
    return GazeSample(t, yaw, pitch, True)


def backturned(t, yaw=55.0):
    return GazeSample(t, yaw, 0.0, False)


def spans(segments):
    return [(s.interval.start, s.interval.end) for s in segments]


# --- detection -------------------------------------------------------------

def test_constant_in_band_trace_is_one_segment():
    trace = [in_band(k * 0.125) for k in range(40)]  # 5 s at 8 Hz
    segs = detect_address_segments(trace, RULE)
    assert spans(segs) == [(0.0, 5.0)]
    assert segs[0].label == "AfD"


def test_entry_and_exit():
    trace = [away(k * 0.125) for k in range(8)]
    trace += [in_band(1.0 + k * 0.125) for k in range(8)]
    trace += [away(2.0 + k * 0.125) for k in range(8)]
    assert spans(detect_address_segments(trace, RULE)) == [(1.0, 2.0)]


def test_yaw_band_edges_are_inclusive():
    segs = detect_address_segments([in_band(0.0, yaw=45.0), in_band(0.125, yaw=70.0)], RULE)
    assert spans(segs) == [(0.0, 0.25)]
    assert detect_address_segments([in_band(0.0, yaw=44.9), in_band(0.125, yaw=70.1)], RULE) == []


def test_notes_look_bridges_a_gap():
    trace = [in_band(k * 0.125) for k in range(8)]
    trace += [notes(1.0 + k * 0.125) for k in range(8)]  # glancing down
    trace += [in_band(2.0 + k * 0.125) for k in range(8)]
    assert spans(detect_address_segments(trace, RULE)) == [(0.0, 3.0)]


def test_out_of_band_gap_splits():
    trace = [in_band(k * 0.125) for k in range(8)]
    trace += [away(1.0 + k * 0.125) for k in range(8)]  # pitch 0: not a notes look
    trace += [in_band(2.0 + k * 0.125) for k in range(8)]
    assert spans(detect_address_segments(trace, RULE)) == [(0.0, 1.0), (2.0, 3.0)]


def test_notes_look_cannot_open_a_segment():
    trace = [notes(k * 0.125) for k in range(8)]
    trace += [in_band(1.0 + k * 0.125) for k in range(8)]
    assert spans(detect_address_segments(trace, RULE)) == [(1.0, 2.0)]


def test_trailing_notes_extend_the_open_segment():
    trace = [in_band(k * 0.125) for k in range(8)]
    trace += [notes(1.0 + k * 0.125) for k in range(4)]
    assert spans(detect_address_segments(trace, RULE)) == [(0.0, 1.5)]


def test_notes_threshold_is_strict():
    # pitch exactly at the threshold does not count as a notes look
    trace = [in_band(0.0), GazeSample(0.125, 10.0, -20.0, True), in_band(0.25)]
    assert spans(detect_address_segments(trace, RULE)) == [(0.0, 0.125), (0.25, 0.375)]
    trace = [in_band(0.0), GazeSample(0.125, 10.0, -20.001, True), in_band(0.25)]
    assert spans(detect_address_segments(trace, RULE)) == [(0.0, 0.375)]


def test_non_frontal_always_breaks():
    # an in-band yaw away from the camera terminates the run
    trace = [in_band(0.0), backturned(0.125), in_band(0.25)]
    assert spans(detect_address_segments(trace, RULE)) == [(0.0, 0.125), (0.25, 0.375)]
    # ... even at a notes-like pitch angle
    trace = [in_band(0.0), GazeSample(0.125, 10.0, -40.0, False), in_band(0.25)]
    assert len(detect_address_segments(trace, RULE)) == 2


def test_notes_timeout_trims_to_last_in_band():
    rule = AddressRule(max_notes_seconds=0.5)
    trace = [in_band(k * 0.125) for k in range(8)]
    trace += [notes(1.0 + k * 0.125) for k in range(16)]  # 2 s of notes
    trace += [in_band(3.0 + k * 0.125) for k in range(8)]
    assert spans(detect_address_segments(trace, rule)) == [(0.0, 1.0), (3.0, 4.0)]
    # without the cap the whole stretch is bridged
    assert spans(detect_address_segments(trace, RULE)) == [(0.0, 4.0)]


def test_empty_and_single_sample_traces():
    assert detect_address_segments([], RULE) == []
    segs = detect_address_segments([in_band(2.0)], RULE)
    assert spans(segs) == [(2.0, 2.0)]  # zero period: a point segment


def test_unsorted_samples_rejected():
    with pytest.raises(UnsortedSamples):
        detect_address_segments([in_band(1.0), in_band(0.5)], RULE)
    with pytest.raises(UnsortedSamples):
        detect_address_segments([in_band(1.0), in_band(1.0)], RULE)


def test_rule_validation():
    with pytest.raises(ValidationError):
        AddressRule(yaw_min=70.0, yaw_max=45.0)
    with pytest.raises(ValidationError):
        AddressRule(min_words=-1)
    for bad in [{"yaw_min": math.nan}, {"yaw_max": math.nan}, {"yaw_min": -math.inf},
                {"yaw_max": math.inf}, {"notes_pitch_threshold": math.nan},
                {"max_notes_seconds": math.nan}, {"max_notes_seconds": -1.0}]:
        with pytest.raises(ValidationError):
            AddressRule(**bad)
    AddressRule(notes_pitch_threshold=-math.inf, max_notes_seconds=0.0)  # both allowed


def test_matches_plain_run_detection_when_notes_disabled():
    rng = np.random.default_rng(5)
    rule = AddressRule(notes_pitch_threshold=-math.inf)  # notes correction off
    for trial in range(30):
        n = int(rng.integers(2, 120))
        trace = [
            GazeSample(
                k * 0.125,
                float(rng.uniform(0, 90)),
                float(rng.uniform(-45, 10)),
                bool(rng.uniform() < 0.8),
            )
            for k in range(n)
        ]
        flags = [s.frontal and 45.0 <= s.yaw <= 70.0 for s in trace]
        expected = []
        k = 0
        while k < n:  # maximal runs of in-band samples
            if flags[k]:
                j = k
                while j + 1 < n and flags[j + 1]:
                    j += 1
                expected.append((trace[k].t, trace[j].t + 0.125))
                k = j + 1
            else:
                k += 1
        assert spans(detect_address_segments(trace, rule)) == expected


@given(st.integers(-40, 40))
def test_time_translation_equivariance(shift_eighths):
    shift = shift_eighths * 0.125 + 5.0  # keep times nonnegative, exactly representable
    trace = [in_band(0.0), in_band(0.125), away(0.25), in_band(0.5), notes(0.625), in_band(0.75)]
    moved = [GazeSample(s.t + shift, s.yaw, s.pitch, s.frontal) for s in trace]
    base = spans(detect_address_segments(trace, RULE))
    assert spans(detect_address_segments(moved, RULE)) == [(a + shift, b + shift) for a, b in base]


# one sample: the gap since the previous one (regular or not), yaw (in band,
# on a band edge, just outside one, far out), pitch (notes-look, just under
# and on the threshold, level) and frontal (mostly)
_SAMPLE = st.tuples(
    st.sampled_from([0.125, 0.25]) | st.floats(0.001, 2.0),
    st.sampled_from([10.0, 44.999, 45.0, 55.0, 70.0, 70.001]),
    st.sampled_from([-30.0, -20.001, -20.0, 0.0]),
    st.sampled_from([True, True, True, False]),
)


@settings(max_examples=400, deadline=None)
@given(st.lists(_SAMPLE, max_size=60), st.sampled_from([None, 0.0, 0.125, 0.3, 1.0]))
def test_matches_loop_oracle(rows, max_notes):
    rule = AddressRule(max_notes_seconds=max_notes)
    trace, t = [], 0.0
    for gap, yaw, pitch, frontal in rows:
        t += gap
        trace.append(GazeSample(t, yaw, pitch, frontal))
    expected = detect_loop(trace, rule)
    assert spans(detect_address_segments(trace, rule)) == expected
    assert spans(detect_address_segments(as_trace(trace), rule)) == expected


# --- word filter -----------------------------------------------------------

def words_at(count, start=0.0, width=0.375):
    elems = [
        Element(f"w{i:03d}", TimeInterval(start + i * width, start + (i + 1) * width), "tok")
        for i in range(count)
    ]
    return build_stream(Modality.TEXT, "s", elems)


def seg(a, b, label="AfD"):
    return AddressSegment(TimeInterval(a, b), label)


def test_min_words_keeps_and_drops():
    words = words_at(30)
    long_enough = seg(0.0, 10 * 0.375)  # exactly 10 words
    too_short = seg(0.0, 9 * 0.375)
    kept = enforce_min_words([long_enough, too_short], words, RULE)
    assert spans(kept) == [(0.0, 3.75)]
    assert kept[0].word_count == 10


def test_partial_word_overlap_counts():
    words = words_at(30)
    # covers 8 words fully plus slivers of the ones on each side
    partial = seg(0.375 - 0.01, 9 * 0.375 + 0.01)
    assert enforce_min_words([partial], words, RULE)[0].word_count == 10


def test_touching_word_does_not_count():
    words = words_at(30)
    touching = seg(0.375, 11 * 0.375)  # word w000 ends exactly at 0.375
    assert enforce_min_words([touching], words, RULE)[0].word_count == 10


def test_point_segment_covers_nothing():
    words = words_at(5)
    assert enforce_min_words([seg(1.0, 1.0)], words, AddressRule(min_words=0)) != []
    assert enforce_min_words([seg(1.0, 1.0)], words, AddressRule(min_words=1)) == []


def test_word_filter_matches_brute_force_count():
    rng = np.random.default_rng(51)
    for trial in range(60):
        # words tiling time on a quarter-second grid, with gaps and zero-length words
        elems, t = [], 0.0
        for i in range(int(rng.integers(1, 40))):
            width = float(rng.integers(0, 4)) * 0.25
            elems.append(Element(f"w{i:03d}", TimeInterval(t, t + width), "tok"))
            t += width + float(rng.integers(0, 2)) * 0.25
        words = build_stream(Modality.TEXT, "s", elems)
        # segments in any order, overlapping one another, some of zero length
        segs = []
        for _ in range(int(rng.integers(0, 8))):
            a = float(rng.integers(0, int(4 * t) + 2)) * 0.25
            segs.append(seg(a, a + float(rng.integers(0, 12)) * 0.25))
        rule = AddressRule(min_words=int(rng.integers(0, 4)))

        expected = []
        for s in segs:
            count = sum(
                1
                for w in words
                if min(s.interval.end, w.interval.end) > max(s.interval.start, w.interval.start)
            )
            if count >= rule.min_words:
                expected.append(AddressSegment(s.interval, s.label, count))
        assert enforce_min_words(segs, words, rule) == expected


def test_word_filter_session_check():
    words = words_at(12)
    with pytest.raises(SessionMismatch):
        enforce_min_words([seg(0, 5)], words, RULE, session_id="other")
    assert enforce_min_words([seg(0, 5)], words, RULE, session_id="s")


def test_word_filter_requires_text():
    stream = build_stream(Modality.DERIVED, "s", [Element("d0", TimeInterval(0, 1), 1.0)])
    with pytest.raises(ValidationError):
        enforce_min_words([seg(0, 5)], stream, RULE)


def test_segments_to_stream():
    stream = segments_to_stream([seg(0, 1), seg(2, 3, label="CDU")], "sess01", speaker_id="spk")
    assert stream.modality is Modality.DERIVED
    assert [e.id for e in stream] == ["seg0000", "seg0001"]
    assert [e.payload for e in stream] == ["AfD", "CDU"]
    assert stream.speaker_id == "spk"
