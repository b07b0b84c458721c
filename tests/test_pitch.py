"""f0 estimation on known signals, word aggregation, speaker z-scores."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from modalign import pitch
from modalign.errors import (
    AudioTooShort,
    DegenerateSpeaker,
    InvalidRange,
    SessionMismatch,
    ValidationError,
)
from modalign.pitch import (
    PITCH_RANGE_BY_GENDER,
    AudioBuffer,
    PitchRange,
    PitchTrack,
    WordPitch,
    _block_size,
    _difference_chunk,
    _fft_size,
    estimate_pitch_track,
    missing_count,
    speaker_statistics,
    standardize_by_speaker,
    word_pitch,
)
from modalign.timeline import Modality, stream_from_columns

from _oracles import direct_difference

SR = 16000
WIDE = PitchRange(75.0, 500.0)


def sine(freq, seconds=1.0, sr=SR, amp=0.4):
    t = np.arange(int(seconds * sr)) / sr
    return AudioBuffer(amp * np.sin(2 * np.pi * freq * t), sr)


def text_stream(spans, session="s", speaker=None):
    ids = [f"w{i:03d}" for i in range(len(spans))]
    starts, ends = [a for a, _ in spans], [b for _, b in spans]
    return stream_from_columns(
        Modality.TEXT, session, ids, starts, ends, ["tok"] * len(ids), speaker_id=speaker
    )


# --- estimation ------------------------------------------------------------

@pytest.mark.parametrize("freq", [110.0, 220.0, 440.0])
def test_pure_sine_within_one_percent(freq):
    track = estimate_pitch_track(sine(freq), WIDE)
    assert track.voiced.all()
    rel = np.abs(track.f0 - freq) / freq
    assert np.median(rel) < 0.01


def test_tone_outside_band_is_unvoiced():
    # 220 Hz has no period inside a 300-500 Hz search band
    track = estimate_pitch_track(sine(220.0), PitchRange(300.0, 500.0))
    assert track.voiced_count == 0
    assert np.isnan(track.f0).all()


def test_silence_is_unvoiced():
    track = estimate_pitch_track(AudioBuffer(np.zeros(SR), SR), WIDE)
    assert track.voiced_count == 0


def test_estimates_stay_inside_band():
    rng = np.random.default_rng(0)
    noisy = sine(150.0).samples + 0.05 * rng.standard_normal(SR)
    track = estimate_pitch_track(AudioBuffer(noisy, SR), WIDE)
    f0 = track.f0[track.voiced]
    assert ((f0 >= WIDE.floor) & (f0 <= WIDE.ceiling)).all()


def test_amplitude_scaling_is_bit_identical():
    # doubling is exact in binary floating point, so the normalized
    # difference — and therefore the whole track — must not move at all
    quiet = estimate_pitch_track(sine(180.0, amp=0.2), WIDE)
    loud = estimate_pitch_track(sine(180.0, amp=0.4), WIDE)
    assert quiet.f0.tobytes() == loud.f0.tobytes()
    assert (quiet.voiced == loud.voiced).all()


def test_track_is_deterministic():
    a = estimate_pitch_track(sine(137.0), WIDE)
    b = estimate_pitch_track(sine(137.0), WIDE)
    assert a.f0.tobytes() == b.f0.tobytes()


def test_frame_times_are_centers():
    track = estimate_pitch_track(sine(150.0), WIDE, frame_length=2048, hop=512)
    assert track.frame_times[0] == pytest.approx(1024 / SR)
    assert np.allclose(np.diff(track.frame_times), 512 / SR)


def test_chunking_does_not_change_results(monkeypatch):
    # batched FFTs may differ in the last bit between batch shapes, so
    # chunk size must not move anything beyond float noise
    audio = sine(205.0, seconds=1.5)
    whole = estimate_pitch_track(audio, WIDE)
    monkeypatch.setattr(pitch, "CHUNK_FRAMES", 7)
    chunked = estimate_pitch_track(audio, WIDE)
    assert (whole.voiced == chunked.voiced).all()
    assert np.allclose(whole.f0, chunked.f0, rtol=1e-9, atol=0, equal_nan=True)


@pytest.mark.parametrize("frame_length", [1024, 2048, 1500])
def test_difference_function_matches_direct_sum(frame_length):
    # an FFT too short for the lags it returns would wrap and corrupt the
    # correlation, and a frame summing the wrong blocks (or rows already
    # overwritten) would be off; check every returned lag against the
    # definition, for the full lag range and for a trimmed one, on frames
    # either side of a chunk boundary, for hops that tile each frame's head
    # with 1, 2 and 4 blocks
    rng = np.random.default_rng(frame_length)
    max_lag = frame_length // 2
    n_frames = 9
    cut = 4
    tilings = set()
    # 317 divides no window here; W // 2 and W // 4 tile it with 2 and 4
    # blocks when they divide W and reach the last lag; a hop of W or more
    # leaves one block per frame
    for hop in (317, max_lag // 2, max_lag // 4, max_lag, max_lag + 50):
        t = np.arange(frame_length + hop * (n_frames - 1)) / SR
        x = 0.3 * np.sin(2 * np.pi * 143.0 * t) + 0.2 * rng.standard_normal(t.size)
        for last_lag in (max_lag, 107):
            tilings.add(max_lag // _block_size(max_lag, hop, last_lag))
            got = np.vstack(
                [
                    _difference_chunk(x, 0, cut, hop, max_lag, last_lag),
                    _difference_chunk(x, cut, n_frames - cut, hop, max_lag, last_lag),
                ]
            )
            assert got.shape == (n_frames, last_lag + 1)
            for i, row in enumerate(got):
                start = i * hop
                ref = direct_difference(x[start : start + frame_length], max_lag, last_lag)
                # d(0) is exactly 0, so the tolerance is relative to the frame's scale
                np.testing.assert_allclose(row, ref, rtol=1e-9, atol=1e-9 * ref.max())
    assert {1, 2} <= tilings
    if frame_length != 1500:  # 750 // 4 does not divide 750
        assert 4 in tilings


@pytest.mark.parametrize(
    "window, hop, last_lag, blk",
    [
        (512, 256, 107, 256),     # the bench framing: two blocks per frame
        (1024, 512, 214, 512),    # the command-line default
        (1024, 128, 214, 256),    # the smallest multiple of the hop that reaches the last lag
        (1024, 1, 214, 256),
        (1024, 317, 107, 1024),   # the hop divides no block: one block per frame
        (1024, 1024, 107, 1024),
        (1024, 2000, 107, 1024),
        (512, 256, 512, 512),     # a block must cover the last lag
        (750, 125, 107, 125),
    ],
)
def test_block_size(window, hop, last_lag, blk):
    assert _block_size(window, hop, last_lag) == blk


def test_fft_size_is_smallest_one_three_or_five_times_a_power_of_two():
    allowed = sorted(c << a for c in (1, 3, 5) for a in range(16))
    for n in range(1, 5000):
        assert _fft_size(n) == next(m for m in allowed if m >= n)
    assert [_fft_size(n) for n in (363, 619, 726, 1238)] == [384, 640, 768, 1280]


def test_quiet_and_silent_stretches_after_a_loud_tone():
    # energies restart at each block, so the rounding of a loud stretch
    # cannot land on the quiet tone after it (which tracks as it does
    # alone) or on the digital silence after that (which stays unvoiced)
    n = 64 * 256  # whole hops, so the quiet tone's frames line up with its own track's
    t = np.arange(n) / SR
    loud = 1e3 * np.sin(2 * np.pi * 180.0 * t)
    quiet = 1e-6 * np.sin(2 * np.pi * 240.0 * t)
    audio = AudioBuffer(np.concatenate([loud, quiet, np.zeros(n)]), SR)
    track = estimate_pitch_track(audio, WIDE, frame_length=1024, hop=256)
    alone = estimate_pitch_track(AudioBuffer(quiet, SR), WIDE, frame_length=1024, hop=256)
    inside = track.f0[64 : 64 + len(alone)]
    assert alone.voiced.all()
    np.testing.assert_allclose(inside, alone.f0, rtol=1e-9, atol=0)
    silent = track.frame_times - 512 / SR >= 2 * n / SR  # frames starting inside the silence
    assert silent.sum() > 50
    assert not track.voiced[silent].any()


def test_short_audio_rejected():
    with pytest.raises(AudioTooShort, match="session 'sess009': 1000 samples"):
        estimate_pitch_track(AudioBuffer(np.zeros(1000), SR), WIDE, session_id="sess009")


def test_frame_must_cover_two_periods_at_floor():
    with pytest.raises(InvalidRange):
        estimate_pitch_track(sine(200.0), PitchRange(75.0, 300.0), frame_length=256)
    # a band with no whole-sample lag between sr/ceiling and sr/floor
    for sr in (8000, 16000):
        with pytest.raises(InvalidRange, match="no whole-sample lag"):
            estimate_pitch_track(sine(100.5, sr=sr), PitchRange(100.3, 100.6))


def test_range_validation():
    with pytest.raises(InvalidRange):
        PitchRange(300.0, 100.0)
    with pytest.raises(InvalidRange):
        PitchRange(0.0, 100.0)


def test_gender_bands():
    assert PITCH_RANGE_BY_GENDER["m"] == PitchRange(75.0, 300.0)
    assert PITCH_RANGE_BY_GENDER["f"] == PitchRange(100.0, 500.0)


def test_audio_buffer_validation():
    with pytest.raises(ValidationError):
        AudioBuffer(np.zeros((10, 2)), SR)
    with pytest.raises(ValidationError):
        AudioBuffer(np.zeros(10), 4000)


# --- word aggregation ------------------------------------------------------

def hand_track(times, f0, session=None):
    f0 = np.asarray(f0, float)
    return PitchTrack(
        frame_times=np.asarray(times, float),
        f0=f0,
        voiced=~np.isnan(f0),
        session_id=session,
    )


def test_word_mean_over_voiced_frames():
    track = hand_track([0.1, 0.2, 0.3, 0.4], [200.0, 210.0, np.nan, 999.0])
    words = text_stream([(0.05, 0.35), (0.35, 0.5)])
    wp = word_pitch(track, words)
    assert wp[0].mean_f0 == pytest.approx(205.0)
    assert wp[0].voiced_frame_count == 2
    assert wp[1].mean_f0 == pytest.approx(999.0)


def test_word_without_voiced_frames():
    track = hand_track([0.1], [np.nan])
    wp = word_pitch(track, text_stream([(0.0, 0.2), (0.5, 0.6)]))
    assert wp[0].mean_f0 is None and wp[0].voiced_frame_count == 0
    assert wp[1].mean_f0 is None
    assert missing_count(wp) == 2


def test_word_boundaries_are_half_open():
    track = hand_track([0.5, 1.0], [100.0, 200.0])
    # frame at 0.5 belongs to the word starting at 0.5; frame at 1.0 does not
    wp = word_pitch(track, text_stream([(0.5, 1.0)]))
    assert wp[0].mean_f0 == pytest.approx(100.0)


def test_word_membership_matches_brute_force():
    rng = np.random.default_rng(11)
    times = np.sort(rng.uniform(0, 10, size=200))
    f0 = rng.uniform(100, 300, size=200)
    f0[rng.uniform(size=200) < 0.3] = np.nan
    track = hand_track(times, f0)
    edges = np.sort(rng.uniform(0, 10, size=40))
    words = text_stream(list(zip(edges[::2], edges[1::2])))
    for word, wp in zip(words, word_pitch(track, words)):
        inside = [
            v
            for t, v in zip(times, f0)
            if word.start <= t < word.end and not np.isnan(v)
        ]
        if inside:
            assert wp.mean_f0 == pytest.approx(np.mean(inside))
            assert wp.voiced_frame_count == len(inside)
        else:
            assert wp.mean_f0 is None


def test_word_pitch_requires_text_stream():
    track = hand_track([0.1], [100.0])
    segments = stream_from_columns(Modality.DERIVED, "s", ["g0"], [0], [1], ["AfD"])
    with pytest.raises(ValidationError):
        word_pitch(track, segments)


def test_word_pitch_session_check():
    track = hand_track([0.1], [100.0], session="other")
    with pytest.raises(SessionMismatch):
        word_pitch(track, text_stream([(0.0, 0.2)], session="s"))
    # a track without session metadata joins anything
    free = hand_track([0.1], [100.0])
    assert word_pitch(free, text_stream([(0.0, 0.2)], session="s"))


def test_end_to_end_words_over_tones():
    # two 0.5 s tones at 200 and 260 Hz separated by 0.25 s of silence
    sr = SR
    gap = np.zeros(int(0.25 * sr))
    audio = np.concatenate([sine(200.0, 0.5).samples, gap, sine(260.0, 0.5).samples])
    track = estimate_pitch_track(AudioBuffer(audio, sr), WIDE)
    words = text_stream([(0.0, 0.5), (0.75, 1.25)])
    wp = word_pitch(track, words)
    assert wp[0].mean_f0 == pytest.approx(200.0, rel=0.01)
    assert wp[1].mean_f0 == pytest.approx(260.0, rel=0.01)


# --- standardization -------------------------------------------------------

def wp_list(speaker, values, session="s"):
    return [
        WordPitch(f"w{i:03d}", session, speaker, v, 1 if v is not None else 0)
        for i, v in enumerate(values)
    ]


def test_z_scores_simple():
    out = standardize_by_speaker(wp_list("a", [100.0, 200.0, 300.0]))
    assert [w.z for w in out] == pytest.approx([-1.0, 0.0, 1.0])


def test_z_skips_missing_observations():
    out = standardize_by_speaker(wp_list("a", [100.0, None, 300.0]))
    assert out[1].z is None
    assert out[0].z == pytest.approx(-np.sqrt(0.5))


def test_degenerate_speakers_rejected():
    with pytest.raises(DegenerateSpeaker):
        standardize_by_speaker(wp_list("a", [100.0]))
    with pytest.raises(DegenerateSpeaker):
        standardize_by_speaker(wp_list("a", [100.0, 100.0, 100.0]))


def test_statistics_use_sample_sd():
    stats = speaker_statistics(wp_list("a", [100.0, 200.0, 300.0]))
    mean, sd, n = stats["a"]
    assert (mean, n) == (200.0, 3)
    assert sd == pytest.approx(100.0)  # ddof=1


def test_per_session_standardization():
    corpus = wp_list("a", [100.0, 110.0], session="s1") + wp_list(
        "a", [300.0, 330.0], session="s2"
    )
    pooled = standardize_by_speaker(corpus)
    split = standardize_by_speaker(corpus, per_session=True)
    # pooled: session means far from the speaker mean; split: centered per session
    assert abs(pooled[0].z) > 0.9
    assert split[0].z == pytest.approx(-np.sqrt(0.5))
    assert split[2].z == pytest.approx(-np.sqrt(0.5))


@settings(deadline=None, max_examples=40)
@given(
    st.lists(
        st.lists(
            st.floats(50, 500, allow_nan=False),
            min_size=3,
            max_size=30,
        ).filter(lambda vs: np.std(vs) > 1e-6),
        min_size=1,
        max_size=5,
    )
)
def test_z_moments_per_speaker(groups):
    corpus = []
    for i, values in enumerate(groups):
        corpus.extend(wp_list(f"spk{i}", values))
    out = standardize_by_speaker(corpus)
    for i in range(len(groups)):
        zs = np.array([w.z for w in out if w.speaker_id == f"spk{i}"])
        assert abs(zs.mean()) < 1e-9
        assert abs(zs.std(ddof=1) - 1.0) < 1e-9
