"""Fundamental-frequency estimation and per-word pitch aggregation.

The estimator is the cumulative-mean-normalized difference method: for each
analysis frame the squared difference function ``d(tau)`` is normalized by
its running mean, the first lag inside the search band whose normalized
value drops below an absolute threshold is chosen (descending to the
adjacent local minimum), and the lag is refined by parabolic interpolation.
``f0 = sample_rate / lag``.  Frames with no qualifying lag are unvoiced.

``d(tau)`` sums over a frame's first half, which overlapping frames share:
it is computed once per block of samples on the hop grid (an FFT
cross-correlation plus energies per block), and each frame adds up the
blocks that tile its half.  Each block is transformed once, at twice its
length, and its spectrum also serves the block before it.

A session's frames are tracked in chunks of :data:`CHUNK_FRAMES`, small
enough for their arrays to take a few MB.  A chunk reads only its own span
of samples, so a session is never held in memory whole.  Chunks are
independent and each writes its own slice of the track, so several lanes
can share them out: the calling thread and the threads of one pool the
process keeps.  The lanes run only numpy arithmetic, which releases the
GIL, each refills work arrays of its own instead of allocating them per
chunk, and the track is the same whatever the thread count.

The normalization makes the track invariant to loudness: scaling the
waveform scales numerator and denominator alike.

Downstream, words collect the voiced frames whose centers fall inside the
word interval, and per-speaker z-scores put speakers with different
baseline voices on a common scale.
"""

from __future__ import annotations

import itertools
import math
import os
import threading
from concurrent.futures import Future, ThreadPoolExecutor, wait
from dataclasses import dataclass, field
from typing import Callable, Iterable, Protocol, Sequence

import numpy as np

from .errors import (
    AudioTooShort,
    DegenerateSpeaker,
    InvalidRange,
    SessionMismatch,
    ValidationError,
)
from .timeline import ElementStream, Modality

@dataclass(frozen=True)
class PitchRange:
    """Closed search band [floor, ceiling] in Hz."""

    floor: float
    ceiling: float

    def __post_init__(self):
        if not (0 < self.floor < self.ceiling):
            raise InvalidRange(f"need 0 < floor < ceiling, got [{self.floor}, {self.ceiling}]")


#: Conventional search bands for adult speaking voice, keyed by gender code.
PITCH_RANGE_BY_GENDER = {
    "m": PitchRange(75.0, 300.0),
    "f": PitchRange(100.0, 500.0),
}

def usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask where the OS has one, else the CPU count."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity mask on this OS
        return os.cpu_count() or 1


@dataclass(frozen=True)
class PitchSettings:
    """Framing, voicing threshold, band override, z-score grouping, threads; checked when built."""

    frame_length: int = 2048      # samples per analysis frame
    hop: int = 512                # samples between frames
    threshold: float = 0.15       # voicing threshold on the normalized difference
    floor: float | None = None    # Hz; overrides per-gender band when set
    ceiling: float | None = None  # Hz; overrides per-gender band when set
    per_session: bool = False     # standardize within session instead of corpus-wide
    threads: int = field(default_factory=usable_cpus)  # tracker lanes; the track does not depend on it

    def __post_init__(self):
        if not (self.threshold > 0 and math.isfinite(self.threshold)):
            raise ValidationError(f"threshold must be finite and > 0, got {self.threshold}")
        if not 1 <= self.hop <= self.frame_length:
            raise ValidationError(f"hop must be in [1, frame_length], got {self.hop}")
        for name, hz in (("floor", self.floor), ("ceiling", self.ceiling)):
            if hz is not None and not hz > 0:
                raise InvalidRange(f"need {name} > 0, got {hz}")
        if self.floor is not None and self.ceiling is not None:
            PitchRange(self.floor, self.ceiling)
        if self.threads < 1:
            raise ValidationError(f"threads must be >= 1, got {self.threads}")


#: Frames :func:`estimate_pitch_track` tracks as one unit of work; it bounds
#: memory and sets the grain the lanes share, not results.  At 256 a chunk's
#: arrays peak at a few MB (about 4 MB at 1024/256 and 8 kHz); 2048 took tens
#: of MB, which the allocator mapped and page-faulted afresh on every call,
#: and ran slower.
CHUNK_FRAMES = 256

#: Lowest sample rate the tracker takes, in Hz.
MIN_SAMPLE_RATE = 8000


class AudioSource(Protocol):
    """Mono float64 samples read a span at a time: what :func:`estimate_pitch_track` reads.

    :class:`AudioBuffer` holds them in memory; :class:`modalign.ingest.WavSource`
    reads them from a WAV file.
    """

    sample_rate: int

    def __len__(self) -> int: ...

    def span(self, lo: int, hi: int) -> np.ndarray: ...


@dataclass(frozen=True)
class AudioBuffer:
    """Mono waveform, float samples nominally in [-1, 1]."""

    samples: np.ndarray
    sample_rate: int

    def __post_init__(self):
        object.__setattr__(self, "samples", np.asarray(self.samples, dtype=np.float64))
        if self.samples.ndim != 1 or self.samples.size == 0:
            raise ValidationError("audio must be a non-empty 1-d array")
        if self.sample_rate < MIN_SAMPLE_RATE:
            raise ValidationError(f"sample_rate must be >= {MIN_SAMPLE_RATE}, got {self.sample_rate}")

    def __len__(self) -> int:
        return self.samples.size

    def span(self, lo: int, hi: int) -> np.ndarray:
        """Samples ``[lo, hi)``: a view, not a copy."""
        return self.samples[lo:hi]


@dataclass(frozen=True)
class PitchTrack:
    """Frame-level f0 track.

    ``f0`` holds NaN where ``voiced`` is False.  Frame times are the frame
    centers, spaced ``hop / sample_rate`` apart.
    """

    frame_times: np.ndarray
    f0: np.ndarray
    voiced: np.ndarray
    session_id: str | None = None

    def __len__(self) -> int:
        return len(self.frame_times)

    @property
    def voiced_count(self) -> int:
        return int(self.voiced.sum())


@dataclass(frozen=True)
class WordPitch:
    """Mean f0 of one word; ``mean_f0`` is None when no voiced frame landed inside."""

    word_id: str
    session_id: str
    speaker_id: str | None
    mean_f0: float | None
    voiced_frame_count: int
    z: float | None = None


@dataclass
class SpeakerProfile:
    """Per-speaker metadata."""

    speaker_id: str
    party: str
    gender_range: PitchRange


def _fft_size(n: int) -> int:
    """Smallest ``c * 2^a >= n`` with ``c`` in {1, 3, 5}, lengths pocketfft transforms fastest."""
    return min(c << (-(-n // c) - 1).bit_length() for c in (1, 3, 5))


def _block_size(window: int, hop: int, last_lag: int) -> int:
    """Length of the blocks that tile each frame's integration window.

    The smallest multiple of ``hop`` that divides ``window`` and is at least
    ``last_lag``; ``window`` itself when there is none.  Blocks on the hop
    grid then tile every frame's head, and the floor at ``last_lag`` keeps a
    tiny hop from costing hundreds of block rows per frame.
    """
    for blk in range(hop, window, hop):
        if window % blk == 0 and blk >= last_lag:
            return blk
    return window


_lane = threading.local()  # each thread's work arrays, refilled chunk after chunk


def _work(name: str, shape: tuple[int, int], dtype) -> np.ndarray:
    """The calling thread's work array ``name``, viewed as ``shape``.

    It is kept from call to call and replaced by a larger one only when
    ``shape`` needs more, so a thread tracking chunk after chunk allocates
    nothing after its largest chunk.  Its contents are whatever the last
    call left there: callers overwrite every element they read.
    """
    size = shape[0] * shape[1]
    buf = getattr(_lane, name, None)
    if buf is None or buf.size < size:
        buf = np.empty(size, dtype)
        setattr(_lane, name, buf)
    return buf[:size].reshape(shape)


def _difference_chunk(x: np.ndarray, count: int, hop: int, window: int, last_lag: int) -> np.ndarray:
    """Squared difference function of frames ``0 .. count-1`` of ``x``, lags 0..last_lag.

    Frame ``i`` starts at sample ``i * hop``, and ``d(tau) = sum_{j<W}
    (x[j] - x[j+tau])^2`` over its ``W = window`` head samples (callers
    guarantee ``2 * window <= frame_length`` and ``last_lag <= window``).

    That sum splits over blocks of ``blk`` samples (:func:`_block_size`)
    that start on the hop grid and tile the head, so ``d`` is computed once
    per block and each frame adds the ``q = W // blk`` blocks of its head.
    A block's ``d`` reads its head ``h`` of ``blk`` samples and the tail
    ``t`` of ``last_lag`` samples after it: ``d = E_head + E_shift(tau) - 2
    * corr(tau)``, with ``E_shift(tau) = E_head + sum_{j<tau} (t[j]^2 -
    h[j]^2)``, so the energies restart at each block.  When ``blk`` is a
    multiple of the hop, the correlation is taken with transforms of length
    ``2 * blk``: it never wraps, a tail that starts ``blk`` samples in has
    spectrum ``(-1)^k * T``, exactly, and that tail starts the head of the
    block ``step = blk // hop`` further on, so each block is transformed
    once and its spectrum serves the block ``step`` before it as well.
    Otherwise (``blk = W``, one block per frame) each block's span of ``blk
    + last_lag`` samples and its head are transformed at
    :func:`_fft_size` of that span, which also never wraps.

    The spectra, the energies and the inverse transform are written into
    the calling thread's work arrays (:func:`_work`); the result is a fresh
    array.
    """
    blk = _block_size(window, hop, last_lag)
    step, q = blk // hop, window // blk
    n_blocks = count + (q - 1) * step
    rows = np.lib.stride_tricks.sliding_window_view(x, blk)
    heads = rows[: n_blocks * hop : hop]
    tails = rows[blk : blk + n_blocks * hop : hop, :last_lag]
    if blk % hop == 0:
        nfft = 2 * blk
        spec = np.fft.rfft(rows[: (n_blocks + step) * hop : hop], nfft, axis=1,
                           out=_work("spec", (n_blocks + step, blk + 1), np.complex128))
        spec, tail_spec = spec[:n_blocks], spec[step:]
        cross = np.multiply(tail_spec, np.resize([1.0, -1.0], blk + 1),  # spectrum of head then tail
                            out=_work("cross", (n_blocks, blk + 1), np.complex128))
        cross += spec
    else:
        nfft = _fft_size(blk + last_lag)
        spans = np.lib.stride_tricks.sliding_window_view(x, blk + last_lag)
        bins = (n_blocks, nfft // 2 + 1)
        cross = np.fft.rfft(spans[: n_blocks * hop : hop], nfft, axis=1,
                            out=_work("cross", bins, np.complex128))
        spec = np.fft.rfft(heads, nfft, axis=1, out=_work("spec", bins, np.complex128))

    energy = _work("energy", (n_blocks, last_lag + 1), np.float64)
    energy[:, 0] = 0.0
    np.square(tails, out=energy[:, 1:])
    energy[:, 1:] -= np.square(heads[:, :last_lag])
    np.cumsum(energy[:, 1:], axis=1, out=energy[:, 1:])
    energy += 2.0 * np.einsum("ij,ij->i", heads, heads)[:, None]

    cross *= np.conjugate(spec, out=spec)  # in place: ``tail_spec``, which may share its rows, was read
    diff = np.fft.irfft(cross, nfft, axis=1, out=_work("corr", (n_blocks, nfft), np.float64))
    diff = diff[:, : last_lag + 1]
    diff *= -2.0
    diff += energy

    # a fresh array, never a view of the work arrays the next chunk refills; and a
    # fresh sum: adding into ``diff`` in place would read rows already overwritten
    out = diff[:count].copy()
    for r in range(1, q):
        out += diff[r * step : r * step + count]
    return out


def _normalize(diff: np.ndarray) -> np.ndarray:
    """Cumulative-mean normalization of ``diff``, in place; lag 0 is defined as 1."""
    tail = diff[:, 1:]
    denom = np.cumsum(tail, axis=1, out=_work("denom", tail.shape, np.float64))
    tail *= np.arange(1, diff.shape[1])
    np.divide(tail, denom, out=tail, where=denom > 0)
    tail[denom <= 0] = 1.0
    diff[:, 0] = 1.0
    return diff


class _Lanes:
    """The process's one thread pool for the tracker's lanes beside the calling thread.

    It is made on first use and replaced only when a call asks for more
    lanes than it holds, so its threads, and their work arrays, serve every
    call.  A forked child starts with none (see the ``register_at_fork``
    below): the parent's threads do not exist there.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._pool: ThreadPoolExecutor | None = None
        self._size = 0

    def start(self, lane: Callable[[], None], n: int) -> list[Future]:
        """``lane`` submitted ``n`` times to the pool, which then holds at least ``n`` threads."""
        if n == 0:
            return []
        with self._lock:  # submitted under the lock, so a pool being replaced takes none
            if n > self._size:
                if self._pool is not None:
                    self._pool.shutdown(wait=False)  # its lanes finish; its idle threads exit
                self._pool = ThreadPoolExecutor(n, thread_name_prefix="modalign-pitch")
                self._size = n
            return [self._pool.submit(lane) for _ in range(n)]


_LANES = _Lanes()
os.register_at_fork(after_in_child=_LANES.__init__)


def estimate_pitch_track(
    audio: AudioSource,
    band: PitchRange,
    settings: PitchSettings = PitchSettings(),
    *,
    session_id: str | None = None,
) -> PitchTrack:
    """Estimate f0 per frame.

    Parameters
    ----------
    audio:
        Mono waveform: an :class:`AudioBuffer`, or a
        :class:`modalign.ingest.WavSource` read a chunk's span at a time.
    band:
        Band of admissible f0 in Hz, with its floor or ceiling replaced by
        the one ``settings`` sets; lags searched are
        ``[sample_rate/ceiling, sample_rate/floor]``.
    settings:
        Framing in samples, the absolute voicing threshold on the
        normalized difference and the thread count.  ``min(threads,
        chunks)`` lanes share the chunks of :data:`CHUNK_FRAMES` frames,
        each taking the next chunk until none is left: the calling thread
        and the others from the process's one pool (with one chunk or one
        thread the caller tracks them all and starts none).
        ``frame_length`` must be at least twice the longest admissible
        period (``2 * sample_rate / floor``).

    The dip search and the parabolic refinement read no lag past
    ``tau_hi + 1`` (``tau_hi = sample_rate/floor``), and the cumulative mean
    at a lag depends only on the lags before it, so lags beyond
    ``min(tau_hi + 1, frame_length // 2)`` are neither computed nor
    normalized.  Overlapping frames share work: the difference function is
    computed once per hop-aligned block of the waveform, one chunk of
    :data:`CHUNK_FRAMES` frames at a time, and each frame sums the blocks
    that tile its window.  Each block takes one forward FFT, at twice its
    length, shared with the block before it (see :func:`_difference_chunk`).

    Raises :class:`AudioTooShort` when the signal is shorter than one
    frame, and :class:`InvalidRange` when the band is empty, framing cannot
    cover it, or it holds no whole-sample lag of at least 2.
    """
    band = PitchRange(settings.floor or band.floor, settings.ceiling or band.ceiling)  # set ends are > 0
    sr = audio.sample_rate
    frame_length, hop = settings.frame_length, settings.hop
    if frame_length < 2 * sr / band.floor:
        raise InvalidRange(
            f"frame_length {frame_length} cannot hold two periods at floor "
            f"{band.floor} Hz (need >= {2 * sr / band.floor:.0f})"
        )
    n_samples = len(audio)
    if n_samples < frame_length:
        raise AudioTooShort(f"session {session_id!r}: {n_samples} samples < one frame of {frame_length}")

    max_lag = frame_length // 2
    tau_lo = max(2, math.ceil(sr / band.ceiling))
    tau_hi = min(max_lag, math.floor(sr / band.floor))
    if tau_lo > tau_hi:
        raise InvalidRange(f"{band} holds no whole-sample lag >= 2 at {sr} Hz")
    last_lag = min(tau_hi + 1, max_lag)

    starts = np.arange(0, n_samples - frame_length + 1, hop)
    times = (starts + frame_length / 2) / sr
    f0 = np.full(starts.size, np.nan)
    voiced = np.zeros(starts.size, dtype=bool)

    def track_chunk(lo: int) -> None:
        """Fill the chunk of frames starting at ``lo``; chunks write disjoint slices."""
        count = min(CHUNK_FRAMES, starts.size - lo)
        x = audio.span(lo * hop, (lo + count - 1) * hop + frame_length)  # the chunk's frames
        cmnd = _normalize(_difference_chunk(x, count, hop, max_lag, last_lag))

        searched = cmnd[:, tau_lo : tau_hi + 1]
        # Value at tau+1, with +inf past the band edge so a dip that is
        # still falling at the edge is accepted there.
        nxt = np.full_like(searched, np.inf)
        nxt[:, :-1] = searched[:, 1:]
        stop = (searched < settings.threshold) & (nxt >= searched)
        has = stop.any(axis=1)
        tau = np.argmax(stop, axis=1) + tau_lo

        # Parabolic refinement on the normalized difference around tau.
        shift = np.zeros(tau.size)
        ok = has & (tau + 1 <= last_lag)
        if ok.any():
            rows = np.nonzero(ok)[0]
            t = tau[rows]
            y0 = cmnd[rows, t - 1]
            y1 = cmnd[rows, t]
            y2 = cmnd[rows, t + 1]
            denom = y0 - 2.0 * y1 + y2
            good = denom > 0
            s = np.zeros(rows.size)
            np.divide(0.5 * (y0 - y2), denom, out=s, where=good)
            s[np.abs(s) > 1] = 0.0
            shift[rows] = s

        est = sr / (tau + shift)
        est = np.clip(est, band.floor, band.ceiling)
        f0[lo : lo + count] = np.where(has, est, np.nan)
        voiced[lo : lo + count] = has

    chunks = range(0, starts.size, CHUNK_FRAMES)
    taken, taking, failed = itertools.count(), threading.Lock(), threading.Event()

    def lane() -> None:
        """Track the next chunk no lane has taken, until none is left or a lane has failed."""
        try:
            while not failed.is_set():
                with taking:
                    k = next(taken)
                if k >= len(chunks):
                    return
                track_chunk(chunks[k])
        except BaseException:
            failed.set()  # the other lanes stop at their next chunk
            raise

    others = _LANES.start(lane, min(settings.threads, len(chunks)) - 1)
    try:
        lane()
    finally:
        wait(others)  # they read ``audio`` and write the track: none outlives the call
    for done in others:
        done.result()  # a lane's exception is raised here

    return PitchTrack(times, f0, voiced, session_id)


def word_pitch(track: PitchTrack, words: ElementStream) -> list[WordPitch]:
    """Mean f0 per word, averaging voiced frames whose centers fall in the word.

    Words that catch no voiced frame come back with ``mean_f0 = None`` and
    a zero count; callers drop or tally them (see :func:`missing_count`).
    """
    if words.modality is not Modality.TEXT:
        raise ValidationError(f"expected a text stream, got {words.modality.value}")
    if track.session_id is not None and track.session_id != words.session_id:
        raise SessionMismatch(
            f"track session {track.session_id!r} != words session {words.session_id!r}"
        )
    # the voiced frames whose centres fall in a word are one run of all voiced frames
    voiced_at = np.flatnonzero(track.voiced)
    voiced_times, voiced_f0 = track.frame_times[voiced_at], track.f0[voiced_at]
    los = np.searchsorted(voiced_times, words.starts, side="left")
    his = np.searchsorted(voiced_times, words.ends, side="left")
    counts = his - los
    # each run's np.add.reduce over its count is the bytes of its .mean(); np.add.reduceat
    # would add in another order
    runs = map(voiced_f0.__getitem__, map(slice, los.tolist(), his.tolist()))
    sums = np.fromiter(map(np.add.reduce, runs), np.float64, counts.size)
    means = np.divide(sums, counts, out=sums, where=counts > 0).astype(object)
    means[counts == 0] = None
    session, speaker = itertools.repeat(words.session_id), itertools.repeat(words.speaker_id)
    return list(map(WordPitch, words.ids, session, speaker, means.tolist(), counts.tolist()))


def missing_count(word_pitches: Iterable[WordPitch]) -> int:
    """How many words carry no pitch observation."""
    return sum(1 for wp in word_pitches if wp.mean_f0 is None)


def standardize_by_speaker(
    word_pitches: Sequence[WordPitch],
    *,
    per_session: bool = False,
) -> list[WordPitch]:
    """Fill ``z = (mean_f0 - speaker mean) / speaker SD`` for every observed word.

    The speaker mean and sample SD (ddof=1) are taken over everything passed
    in — hand this the whole corpus for corpus-wide baselines, or set
    ``per_session=True`` to re-center within each session.  Words without an
    observation pass through with ``z = None``.  Raises
    :class:`DegenerateSpeaker` when a speaker has fewer than two
    observations or zero variance.
    """
    groups: dict = {}
    for i, wp in enumerate(word_pitches):
        if wp.mean_f0 is not None:
            key = (wp.speaker_id, wp.session_id) if per_session else wp.speaker_id
            groups.setdefault(key, []).append(i)
    out = list(word_pitches)
    for key, rows in groups.items():
        if len(rows) < 2:
            raise DegenerateSpeaker(f"speaker {key!r} has {len(rows)} pitch observation(s)")
        arr = np.asarray([out[i].mean_f0 for i in rows])
        mean, sd = float(arr.mean()), float(arr.std(ddof=1))
        if sd == 0.0:
            raise DegenerateSpeaker(f"speaker {key!r} has zero pitch variance")
        for i, z in zip(rows, ((arr - mean) / sd).tolist()):
            wp = out[i]
            out[i] = WordPitch(wp.word_id, wp.session_id, wp.speaker_id, wp.mean_f0,
                               wp.voiced_frame_count, z)
    return out
