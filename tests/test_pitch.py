"""f0 estimation on known signals, word aggregation, speaker z-scores."""

import re
import sys
import threading
import time
import tracemalloc

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
    PitchSettings,
    PitchTrack,
    WordPitch,
    _block_size,
    _difference_chunk,
    estimate_pitch_track,
    missing_count,
    standardize_by_speaker,
    word_pitch,
)
from modalign.ingest import pcm16_wav, read_wav
from modalign.timeline import Modality, stream_from_columns

from _oracles import direct_difference, pcm16, standardize_loop, word_pitch_loop

SR = 16000
WIDE = PitchRange(75.0, 500.0)


def sine(freq, seconds=1.0, sr=SR, amp=0.4):
    t = np.arange(int(seconds * sr)) / sr
    return AudioBuffer(amp * np.sin(2 * np.pi * freq * t), sr)


def text_stream(spans, session="s", speaker=None):
    starts, ends = [a for a, _ in spans], [b for _, b in spans]
    return stream_from_columns(
        Modality.TEXT, session, starts, ends, ["tok"] * len(spans), speaker_id=speaker
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
    track = estimate_pitch_track(sine(150.0), WIDE, PitchSettings(frame_length=2048, hop=512))
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


@pytest.mark.parametrize("chunk_frames", [7, pitch.CHUNK_FRAMES])
def test_threads_do_not_change_the_track(monkeypatch, chunk_frames):
    # chunks write disjoint slices of the track, so no bit may move with the thread count
    monkeypatch.setattr(pitch, "CHUNK_FRAMES", chunk_frames)
    rng = np.random.default_rng(3)
    t = np.arange(5 * SR) / SR
    glide = 0.3 * np.sin(2 * np.pi * (150.0 + 40.0 * t) * t) * (t % 1.0 < 0.6)  # gaps of noise
    audio = AudioBuffer(glide + 0.05 * rng.standard_normal(t.size), SR)
    framings = [PitchSettings(frame_length=1024, hop=64, threads=n) for n in (1, 2, 4, 8)]
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # threads trade the interpreter often, so a race would show
    try:
        tracks = [estimate_pitch_track(audio, WIDE, framing) for framing in framings]
    finally:
        sys.setswitchinterval(switch)
    assert len(tracks[0]) > 4 * chunk_frames  # every thread count gets several chunks
    assert 0 < tracks[0].voiced_count < len(tracks[0])
    for track in tracks[1:]:
        assert np.array_equal(track.f0, tracks[0].f0, equal_nan=True)
        assert np.array_equal(track.voiced, tracks[0].voiced)


def test_lanes_share_one_pool_and_never_outnumber_the_chunks(monkeypatch):
    # one pool per process, replaced only by a larger one; at most min(threads, chunks)
    # chunks in flight; one thread or one chunk is tracked by the caller alone
    made = []

    class Pool(pitch.ThreadPoolExecutor):
        def __init__(self, max_workers, **kwargs):
            made.append(max_workers)
            super().__init__(max_workers, **kwargs)

    monkeypatch.setattr(pitch, "ThreadPoolExecutor", Pool)
    monkeypatch.setattr(pitch, "_LANES", pitch._Lanes())
    lock, now, calls = threading.Lock(), [0], []  # chunks in flight; (in flight, thread) per chunk
    real = pitch._difference_chunk

    def counted(*args):
        with lock:
            now[0] += 1
            calls.append((now[0], threading.get_ident()))
        try:
            time.sleep(0.002)  # long enough for lanes to overlap
            return real(*args)
        finally:
            with lock:
                now[0] -= 1

    monkeypatch.setattr(pitch, "_difference_chunk", counted)
    audio = sine(205.0, seconds=0.5)  # 12 frames at 2048/512
    running = threading.active_count()
    plan = [  # CHUNK_FRAMES, threads, pools made so far
        (1, 1, []), (12, 4, []),  # one thread; one chunk
        (7, 4, [1]),              # two chunks: the caller and one pool thread
        (1, 3, [1, 2]),           # a larger pool replaces it
        (1, 2, [1, 2]), (3, 3, [1, 2]), (1, 3, [1, 2]), (1, 1, [1, 2]),
    ]
    for chunk_frames, threads, pools in plan:
        monkeypatch.setattr(pitch, "CHUNK_FRAMES", chunk_frames)
        calls.clear()
        estimate_pitch_track(audio, WIDE, PitchSettings(threads=threads))
        chunks = -(-12 // chunk_frames)
        assert len(calls) == chunks
        assert max(n for n, _ in calls) <= min(threads, chunks)
        assert made == pools
        if min(threads, chunks) == 1:
            assert {who for _, who in calls} == {threading.get_ident()}
        if not made:
            assert threading.active_count() == running


def test_lane_work_arrays_leave_no_trace_across_framings(monkeypatch):
    # lanes keep their work arrays from call to call, grown to the largest chunk so far;
    # framings and rates in turn, each at 1, 2 and 4 threads, must track bit for bit as a
    # thread that never tracked before, and as that framing's first call
    monkeypatch.setattr(pitch, "CHUNK_FRAMES", 7)  # chunks of 7 frames and a shorter last one

    def fresh_thread(audio, settings):
        out = []
        worker = threading.Thread(target=lambda: out.append(estimate_pitch_track(audio, WIDE, settings)))
        worker.start()
        worker.join(timeout=60)
        assert not worker.is_alive()
        return out[0]

    rng = np.random.default_rng(8)
    for sr in (8000, 16000):
        t = np.arange(2 * sr) / sr
        glide = 0.3 * np.sin(2 * np.pi * (150.0 + 40.0 * t) * t) * (t % 1.0 < 0.6)
        audio = AudioBuffer(glide + 0.05 * rng.standard_normal(t.size), sr)
        # 2048/160 is the one-block fallback: no multiple of 160 divides 1024
        for frame_length, hop in ((1024, 256), (2048, 512), (1024, 64), (2048, 160)):
            tracks = [estimate_pitch_track(audio, WIDE, PitchSettings(frame_length, hop, threads=n))
                      for n in (1, 2, 4)]
            tracks.append(fresh_thread(audio, PitchSettings(frame_length, hop, threads=1)))
            assert 0 < tracks[0].voiced_count < len(tracks[0])
            for track in tracks[1:]:
                assert track.f0.tobytes() == tracks[0].f0.tobytes()
                assert np.array_equal(track.voiced, tracks[0].voiced)


def test_tracking_memory_does_not_grow_with_session_length(tmp_path):
    # audio is read one chunk's span at a time, so a 4-minute session peaks where a
    # 1-minute one does, give or take its track of a few bytes per frame; the whole
    # session as float64 took 8 bytes per sample, 23 MB more at 4 minutes and 16 kHz
    sr, settings = 16000, PitchSettings(threads=1)
    for minutes in (1, 4):
        with pcm16_wav(tmp_path / f"{minutes}.wav", sr, minutes * 60 * sr) as write:
            for second in range(minutes * 60):
                t = second + np.arange(sr) / sr
                write(pcm16(0.3 * np.sin(2 * np.pi * 180.0 * t) * (t % 1.0 < 0.6)))

    def peak(minutes):
        tracemalloc.start()
        try:
            with read_wav(tmp_path / f"{minutes}.wav") as audio:
                track = estimate_pitch_track(audio, WIDE, settings)
            return tracemalloc.get_traced_memory()[1], track
        finally:
            tracemalloc.stop()

    peak(1)  # the calling thread's work arrays now exist, for both sessions alike
    (short, short_track), (long, long_track) = peak(1), peak(4)
    assert len(long_track) > 3.9 * len(short_track) and long_track.voiced_count > 0
    chunk_samples = (pitch.CHUNK_FRAMES - 1) * settings.hop + settings.frame_length
    assert abs(long - short) < 8 * chunk_samples, (short, long)  # one chunk's float64 samples


@pytest.mark.parametrize("n, size", [(1, 1), (7, 8), (9, 10), (11, 12), (13, 16),
                                     (1280, 1280), (1281, 1536), (2155, 2560)])
def test_fft_size_is_the_smallest_1_3_or_5_times_a_power_of_two(n, size):
    assert pitch._fft_size(n) == size


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
                    _difference_chunk(x, cut, hop, max_lag, last_lag),
                    _difference_chunk(x[cut * hop :], n_frames - cut, hop, max_lag, last_lag),
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


@st.composite
def framings(draw):
    """``(frame_length, hop, last_lag)``: any hop, or one whose multiples tile the head."""
    if draw(st.booleans()):
        hop, step, q = draw(st.integers(1, 40)), draw(st.integers(1, 4)), draw(st.integers(1, 4))
        window = hop * step * q
        last_lag = draw(st.integers(1, hop * step))
    else:
        window = draw(st.integers(1, 300))
        last_lag = draw(st.integers(1, window))
        hop = draw(st.integers(1, 2 * window))
    return 2 * window + draw(st.integers(0, 1)), hop, last_lag


@settings(max_examples=200, deadline=None)
@given(framings(), st.integers(1, 6), st.data())
def test_difference_chunk_matches_direct_sum_for_any_framing(framing, n_frames, data):
    # blocks of one or several hops, and the one-block fallback when no
    # multiple of the hop tiles the head, across a random chunk boundary
    frame_length, hop, last_lag = framing
    window = frame_length // 2
    cut = data.draw(st.integers(1, n_frames))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    x = rng.standard_normal(frame_length + hop * (n_frames - 1))
    got = np.vstack(
        [
            _difference_chunk(x[first * hop :], count, hop, window, last_lag)
            for first, count in ((0, cut), (cut, n_frames - cut))
            if count
        ]
    )
    assert got.shape == (n_frames, last_lag + 1)
    for i, row in enumerate(got):
        frame = x[i * hop : i * hop + frame_length]
        ref = direct_difference(frame, window, last_lag)
        # each d is energies less twice a correlation, so its rounding error scales with the
        # frame's energy; ref.max() can be far smaller (a one-sample head next to a near-equal one)
        np.testing.assert_allclose(row, ref, rtol=1e-9, atol=1e-9 * np.dot(frame, frame))


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


def test_quiet_and_silent_stretches_after_a_loud_tone():
    # energies restart at each block, so the rounding of a loud stretch
    # cannot land on the quiet tone after it (which tracks as it does
    # alone) or on the digital silence after that (which stays unvoiced)
    n = 64 * 256  # whole hops, so the quiet tone's frames line up with its own track's
    t = np.arange(n) / SR
    loud = 1e3 * np.sin(2 * np.pi * 180.0 * t)
    quiet = 1e-6 * np.sin(2 * np.pi * 240.0 * t)
    audio = AudioBuffer(np.concatenate([loud, quiet, np.zeros(n)]), SR)
    framing = PitchSettings(frame_length=1024, hop=256)
    track = estimate_pitch_track(audio, WIDE, framing)
    alone = estimate_pitch_track(AudioBuffer(quiet, SR), WIDE, framing)
    inside = track.f0[64 : 64 + len(alone)]
    assert alone.voiced.all()
    np.testing.assert_allclose(inside, alone.f0, rtol=1e-9, atol=0)
    silent = track.frame_times - 512 / SR >= 2 * n / SR  # frames starting inside the silence
    assert silent.sum() > 50
    assert not track.voiced[silent].any()


def test_quiet_and_silent_stretches_after_a_loud_tone_at_two_hops_per_block():
    # as above at hop 128, where a block spans two hops and its tail is the
    # head of the block two hops on: the energies still restart per block
    n = 64 * 256
    t = np.arange(n) / SR
    loud = 1e3 * np.sin(2 * np.pi * 180.0 * t)
    quiet = 1e-6 * np.sin(2 * np.pi * 240.0 * t)
    audio = AudioBuffer(np.concatenate([loud, quiet, np.zeros(n)]), SR)
    framing = PitchSettings(frame_length=1024, hop=128)
    assert _block_size(512, 128, 214) == 256
    track = estimate_pitch_track(audio, WIDE, framing)
    alone = estimate_pitch_track(AudioBuffer(quiet, SR), WIDE, framing)
    inside = track.f0[128 : 128 + len(alone)]
    assert alone.voiced.all()
    np.testing.assert_allclose(inside, alone.f0, rtol=1e-9, atol=0)
    silent = track.frame_times - 512 / SR >= 2 * n / SR  # frames starting inside the silence
    assert silent.sum() > 100
    assert not track.voiced[silent].any()


def test_short_audio_rejected():
    with pytest.raises(AudioTooShort, match="session 'sess009': 1000 samples"):
        estimate_pitch_track(AudioBuffer(np.zeros(1000), SR), WIDE, session_id="sess009")


def test_frame_must_cover_two_periods_at_floor():
    with pytest.raises(InvalidRange):
        estimate_pitch_track(sine(200.0), PitchRange(75.0, 300.0), PitchSettings(frame_length=256, hop=256))
    # a band with no whole-sample lag between sr/ceiling and sr/floor
    for sr in (8000, 16000):
        with pytest.raises(InvalidRange, match="no whole-sample lag"):
            estimate_pitch_track(sine(100.5, sr=sr), PitchRange(100.3, 100.6))


def test_settings_checked_when_built():
    assert PitchSettings() == PitchSettings(2048, 512, 0.15, None, None, False, pitch.usable_cpus())
    PitchSettings(frame_length=256, hop=256, floor=100.0)
    PitchSettings(ceiling=400.0)
    for bad in (dict(threshold=0.0), dict(threshold=-1.0), dict(threshold=float("nan")),
                dict(threshold=float("inf"))):
        with pytest.raises(ValidationError, match="threshold must be finite and > 0"):
            PitchSettings(**bad)
    for bad in (dict(hop=0), dict(hop=-3), dict(frame_length=1024, hop=2048)):
        with pytest.raises(ValidationError, match=r"hop must be in \[1, frame_length\]"):
            PitchSettings(**bad)
    for bad in (dict(floor=0.0), dict(floor=float("nan")), dict(ceiling=-5.0),
                dict(floor=300.0, ceiling=100.0), dict(floor=200.0, ceiling=200.0)):
        with pytest.raises(InvalidRange):
            PitchSettings(**bad)
    for threads in (0, -3):
        with pytest.raises(ValidationError, match="threads must be >= 1"):
            PitchSettings(threads=threads)


def test_settings_band_replaces_the_given_ends():
    # a 220 Hz tone lies outside 300-500 Hz (test_tone_outside_band_is_unvoiced)
    narrow = PitchRange(300.0, 500.0)
    widened = estimate_pitch_track(sine(220.0), narrow, PitchSettings(floor=75.0))
    np.testing.assert_array_equal(widened.f0, estimate_pitch_track(sine(220.0), WIDE).f0)
    with pytest.raises(InvalidRange):  # the set ceiling falls below the band's floor
        estimate_pitch_track(sine(220.0), narrow, PitchSettings(ceiling=250.0))


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


@settings(max_examples=200, deadline=None)
@given(
    frames=st.integers(0, 60),
    seed=st.integers(0, 2**32 - 1),
    voiced_frac=st.sampled_from([0.0, 0.3, 0.7, 1.0]),
    n_words=st.integers(1, 12),
)
def test_word_pitch_is_the_per_word_mean_bit_for_bit(frames, seed, voiced_frac, n_words):
    rng = np.random.default_rng(seed)
    times = (np.arange(frames) + 0.5) * 0.01
    # runs of voiced and unvoiced frames, f0 with as many digits as a tracker gives
    voiced = np.repeat(rng.uniform(size=frames) < voiced_frac, rng.integers(1, 4, frames))[:frames]
    f0 = np.where(voiced, rng.uniform(75.0, 500.0, frames), np.nan)
    track = PitchTrack(times, f0, voiced, session_id="s")
    # edges past the last frame centre, shared edges (zero-length and touching words) included
    edges = np.sort(rng.choice(np.round(rng.uniform(0, 0.01 * frames + 0.1, 3 * n_words), 3),
                               2 * n_words))
    words = text_stream(list(zip(edges[0::2].tolist(), edges[1::2].tolist())), speaker="spk")
    got, want = word_pitch(track, words), word_pitch_loop(track, words)
    assert got == want
    assert [type(w.mean_f0) for w in got] == [type(w.mean_f0) for w in want]


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 40), per_session=st.booleans())
def test_standardize_is_the_per_word_loop_bit_for_bit(seed, n, per_session):
    rng = np.random.default_rng(seed)
    corpus = [
        WordPitch(f"w{k:03d}", f"s{rng.integers(2)}", f"spk{rng.integers(3)}",
                  None if rng.uniform() < 0.2 else float(rng.uniform(75.0, 500.0)), 1)
        for k in range(n)
    ]
    try:
        want = standardize_loop(corpus, per_session=per_session)
    except DegenerateSpeaker as e:
        with pytest.raises(DegenerateSpeaker, match=re.escape(str(e))):
            standardize_by_speaker(corpus, per_session=per_session)
    else:
        assert standardize_by_speaker(corpus, per_session=per_session) == want


def test_word_pitch_requires_text_stream():
    track = hand_track([0.1], [100.0])
    segments = stream_from_columns(Modality.DERIVED, "s", [0], [1], ["AfD"])
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
    # mean 200 and sample SD 100 (ddof=1); the population SD would give +-1.22
    out = standardize_by_speaker(wp_list("a", [100.0, 200.0, 300.0]))
    assert [w.z for w in out] == [-1.0, 0.0, 1.0]


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
