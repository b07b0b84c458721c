"""Address-segment detection from head-pose traces."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from modalign.errors import UnsortedSamples, ValidationError
from modalign.gaze import (
    AddressRule,
    AddressSegments,
    detect_address_segments,
    enforce_min_words,
    segments_to_stream,
)
from modalign.timeline import Modality, stream_from_columns

from _oracles import detect_loop, gaze_trace

RULE = AddressRule()


# one gaze sample as a (t, yaw, pitch, frontal) row; ``detect`` stacks the rows

def in_band(t, yaw=55.0):
    return (t, yaw, 0.0, True)


def away(t, yaw=10.0):
    return (t, yaw, 0.0, True)


def notes(t, yaw=10.0, pitch=-30.0):
    return (t, yaw, pitch, True)


def backturned(t, yaw=55.0):
    return (t, yaw, 0.0, False)


def detect(rows, rule=RULE):
    return detect_address_segments(gaze_trace(rows), rule)


def spans(segments):
    return list(zip(segments.starts.tolist(), segments.ends.tolist()))


# --- detection -------------------------------------------------------------

def test_constant_in_band_trace_is_one_segment():
    trace = [in_band(k * 0.125) for k in range(40)]  # 5 s at 8 Hz
    segs = detect(trace)
    assert spans(segs) == [(0.0, 5.0)]
    assert segs.label == "AfD" and segs.word_counts.tolist() == [0]


def test_entry_and_exit():
    trace = [away(k * 0.125) for k in range(8)]
    trace += [in_band(1.0 + k * 0.125) for k in range(8)]
    trace += [away(2.0 + k * 0.125) for k in range(8)]
    assert spans(detect(trace)) == [(1.0, 2.0)]


def test_yaw_band_edges_are_inclusive():
    segs = detect([in_band(0.0, yaw=45.0), in_band(0.125, yaw=70.0)])
    assert spans(segs) == [(0.0, 0.25)]
    assert len(detect([in_band(0.0, yaw=44.9), in_band(0.125, yaw=70.1)])) == 0


def test_notes_look_bridges_a_gap():
    trace = [in_band(k * 0.125) for k in range(8)]
    trace += [notes(1.0 + k * 0.125) for k in range(8)]  # glancing down
    trace += [in_band(2.0 + k * 0.125) for k in range(8)]
    assert spans(detect(trace)) == [(0.0, 3.0)]


def test_out_of_band_gap_splits():
    trace = [in_band(k * 0.125) for k in range(8)]
    trace += [away(1.0 + k * 0.125) for k in range(8)]  # pitch 0: not a notes look
    trace += [in_band(2.0 + k * 0.125) for k in range(8)]
    assert spans(detect(trace)) == [(0.0, 1.0), (2.0, 3.0)]


def test_notes_look_cannot_open_a_segment():
    trace = [notes(k * 0.125) for k in range(8)]
    trace += [in_band(1.0 + k * 0.125) for k in range(8)]
    assert spans(detect(trace)) == [(1.0, 2.0)]


def test_trailing_notes_extend_the_open_segment():
    trace = [in_band(k * 0.125) for k in range(8)]
    trace += [notes(1.0 + k * 0.125) for k in range(4)]
    assert spans(detect(trace)) == [(0.0, 1.5)]


def test_notes_threshold_is_strict():
    # pitch exactly at the threshold does not count as a notes look
    trace = [in_band(0.0), (0.125, 10.0, -20.0, True), in_band(0.25)]
    assert spans(detect(trace)) == [(0.0, 0.125), (0.25, 0.375)]
    trace = [in_band(0.0), (0.125, 10.0, -20.001, True), in_band(0.25)]
    assert spans(detect(trace)) == [(0.0, 0.375)]


def test_non_frontal_always_breaks():
    # an in-band yaw away from the camera terminates the run
    trace = [in_band(0.0), backturned(0.125), in_band(0.25)]
    assert spans(detect(trace)) == [(0.0, 0.125), (0.25, 0.375)]
    # ... even at a notes-like pitch angle
    trace = [in_band(0.0), (0.125, 10.0, -40.0, False), in_band(0.25)]
    assert len(detect(trace)) == 2


def test_notes_timeout_trims_to_last_in_band():
    rule = AddressRule(max_notes_seconds=0.5)
    trace = [in_band(k * 0.125) for k in range(8)]
    trace += [notes(1.0 + k * 0.125) for k in range(16)]  # 2 s of notes
    trace += [in_band(3.0 + k * 0.125) for k in range(8)]
    assert spans(detect(trace, rule)) == [(0.0, 1.0), (3.0, 4.0)]
    # without the cap the whole stretch is bridged
    assert spans(detect(trace)) == [(0.0, 4.0)]


def test_empty_and_single_sample_traces():
    for nothing in (detect([]), detect([away(0.0), notes(0.125)], AddressRule(label="CDU"))):
        assert len(nothing) == 0 and not nothing
        assert spans(nothing) == [] and nothing.word_counts.size == 0
    assert nothing.label == "CDU"
    segs = detect([in_band(2.0)])
    assert spans(segs) == [(2.0, 2.0)]  # zero period: a point segment


def test_unsorted_samples_rejected():
    with pytest.raises(UnsortedSamples):
        detect([in_band(1.0), in_band(0.5)])
    with pytest.raises(UnsortedSamples):
        detect([in_band(1.0), in_band(1.0)])


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
            (
                k * 0.125,
                float(rng.uniform(0, 90)),
                float(rng.uniform(-45, 10)),
                bool(rng.uniform() < 0.8),
            )
            for k in range(n)
        ]
        flags = [frontal and 45.0 <= yaw <= 70.0 for _, yaw, _, frontal in trace]
        expected = []
        k = 0
        while k < n:  # maximal runs of in-band samples
            if flags[k]:
                j = k
                while j + 1 < n and flags[j + 1]:
                    j += 1
                expected.append((trace[k][0], trace[j][0] + 0.125))
                k = j + 1
            else:
                k += 1
        assert spans(detect(trace, rule)) == expected


@given(st.integers(-40, 40))
def test_time_translation_equivariance(shift_eighths):
    shift = shift_eighths * 0.125 + 5.0  # keep times nonnegative, exactly representable
    trace = [in_band(0.0), in_band(0.125), away(0.25), in_band(0.5), notes(0.625), in_band(0.75)]
    moved = [(t + shift, yaw, pitch, frontal) for t, yaw, pitch, frontal in trace]
    base = spans(detect(trace))
    assert spans(detect(moved)) == [(a + shift, b + shift) for a, b in base]


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
    samples, t = [], 0.0
    for gap, yaw, pitch, frontal in rows:
        t += gap
        samples.append((t, yaw, pitch, frontal))
    trace = gaze_trace(samples)
    assert spans(detect_address_segments(trace, rule)) == detect_loop(trace, rule)


# --- word filter -----------------------------------------------------------

def words_at(count, start=0.0, width=0.375):
    ids = [f"w{i:03d}" for i in range(count)]
    starts = [start + i * width for i in range(count)]
    ends = [start + (i + 1) * width for i in range(count)]
    return stream_from_columns(Modality.TEXT, "s", ids, starts, ends, ["tok"] * count)


def segs(*spans, label="AfD"):
    """Hand-built segments with zero word counts, in the order given."""
    starts, ends = np.array(spans, dtype=float).reshape(-1, 2).T
    return AddressSegments(starts, ends, np.zeros(len(spans), dtype=np.intp), label)


def test_min_words_keeps_and_drops():
    words = words_at(30)
    long_enough = (0.0, 10 * 0.375)  # exactly 10 words
    too_short = (0.0, 9 * 0.375)
    kept = enforce_min_words(segs(long_enough, too_short), words, RULE)
    assert spans(kept) == [(0.0, 3.75)]
    assert kept.word_counts.tolist() == [10]
    assert kept.label == "AfD"


def test_partial_word_overlap_counts():
    words = words_at(30)
    # covers 8 words fully plus slivers of the ones on each side
    partial = (0.375 - 0.01, 9 * 0.375 + 0.01)
    assert enforce_min_words(segs(partial), words, RULE).word_counts.tolist() == [10]


def test_touching_word_does_not_count():
    words = words_at(30)
    touching = (0.375, 11 * 0.375)  # word w000 ends exactly at 0.375
    assert enforce_min_words(segs(touching), words, RULE).word_counts.tolist() == [10]


def test_point_segment_covers_nothing():
    words = words_at(5)
    assert len(enforce_min_words(segs((1.0, 1.0)), words, AddressRule(min_words=0))) == 1
    assert len(enforce_min_words(segs((1.0, 1.0)), words, AddressRule(min_words=1))) == 0


def test_no_segments_pass_the_word_filter():
    for rule in (RULE, AddressRule(min_words=0)):
        kept = enforce_min_words(segs(label="CDU"), words_at(5), rule)
        assert len(kept) == 0 and kept.word_counts.size == 0 and kept.label == "CDU"


def test_word_filter_matches_brute_force_count():
    rng = np.random.default_rng(51)
    for trial in range(60):
        # words tiling time on a quarter-second grid, with gaps and zero-length words
        starts, ends, t = [], [], 0.0
        for _ in range(int(rng.integers(1, 40))):
            width = float(rng.integers(0, 4)) * 0.25
            starts.append(t)
            ends.append(t + width)
            t += width + float(rng.integers(0, 2)) * 0.25
        ids = [f"w{i:03d}" for i in range(len(starts))]
        words = stream_from_columns(Modality.TEXT, "s", ids, starts, ends, ["tok"] * len(ids))
        # segments in any order, overlapping one another, some of zero length
        pieces = []
        for _ in range(int(rng.integers(0, 8))):
            a = float(rng.integers(0, int(4 * t) + 2)) * 0.25
            pieces.append((a, a + float(rng.integers(0, 12)) * 0.25))
        rule = AddressRule(min_words=int(rng.integers(0, 4)))

        expected = []
        for a, b in pieces:
            count = sum(1 for w in words if min(b, w.end) > max(a, w.start))
            if count >= rule.min_words:
                expected.append((a, b, count))
        kept = enforce_min_words(segs(*pieces), words, rule)
        assert list(zip(kept.starts.tolist(), kept.ends.tolist(),
                        kept.word_counts.tolist())) == expected


def test_word_filter_requires_text():
    stream = stream_from_columns(Modality.DERIVED, "s", ["d0"], [0], [1], ["AfD"])
    with pytest.raises(ValidationError):
        enforce_min_words(segs((0, 5)), stream, RULE)


def test_segments_to_stream():
    stream = segments_to_stream(segs((2, 3), (0, 1), label="CDU"), "sess01", speaker_id="spk")
    assert stream.modality is Modality.DERIVED
    assert [(e.id, e.start, e.end) for e in stream] == [("seg0001", 0.0, 1.0),
                                                       ("seg0000", 2.0, 3.0)]
    assert [e.payload for e in stream] == ["CDU", "CDU"]
    assert stream.speaker_id == "spk"
