"""Independent reference implementations the test suite checks against.

Each oracle deliberately takes a different route than the package code:
brute force instead of plane sweeps, explicit path enumeration instead of
dynamic programming, generalized eigenproblems instead of whitened SVDs,
dummy variables instead of demeaning, arbitrary precision instead of
float64.  Slow is fine here; being obviously correct is the point.

The loop oracles (``sweep_loop``, ``detect_loop``, ``dtw_loop``, the
loaders ``transcript_loop`` to ``panel_loop``, ``word_pitch_loop``,
``standardize_loop`` and ``split_loop``) are the
one-step-per-item versions that vectorised package code replaced; with the
same arithmetic, the package must match them exactly.
"""

from __future__ import annotations

import json
import math
import struct
from collections import Counter
from dataclasses import replace
from itertools import compress
from pathlib import Path

import numpy as np

from modalign.errors import AngleOutOfRange, DegenerateSpeaker, ParseError, UnsortedSamples
from modalign.gaze import GazeTrace
from modalign.ingest import _fmt, _read_text
from modalign.pitch import PITCH_RANGE_BY_GENDER, SpeakerProfile, WordPitch
from modalign.stats import FourWaySplit, PanelRow
from modalign.timeline import Modality, covered, stream_from_columns


# --- interval joins --------------------------------------------------------

def overlap(a, b):
    """Overlap in seconds of two ``(start, end)`` intervals; 0 when disjoint or touching."""
    return max(0.0, min(a[1], b[1]) - max(a[0], b[0]))


def brute_force_join(source, target, min_overlap=0.0):
    """Every pair checked directly, O(n*m).  Returns {(source_id, target_id): overlap}."""
    out = {}
    for ea in source:
        for eb in target:
            ov = overlap((ea.start, ea.end), (eb.start, eb.end))
            if ov > min_overlap:
                out[(ea.id, eb.id)] = ov
    return out


def brute_force_join_arrays(starts_a, ends_a, starts_b, ends_b, min_overlap=0.0):
    """Same check vectorized over the full n*m grid; for large randomized trials."""
    ov = np.minimum(ends_a[:, None], ends_b[None, :]) - np.maximum(
        starts_a[:, None], starts_b[None, :]
    )
    ov = np.maximum(ov, 0.0)
    i, j = np.nonzero(ov > min_overlap)
    return i, j, ov[i, j]


def sweep_loop(a, b, min_overlap):
    """All index pairs with ``overlap > min_overlap`` between two sorted ``(start, end)`` lists.

    The forward-scan plane sweep ``timeline.overlap_pairs`` replaced:
    whichever side opens earlier scans the other side while start times
    stay below its end, one Python step per candidate.  Returns
    ``[(i, j, overlap)]`` in discovery order.
    """
    pairs = []
    i = j = 0
    na, nb = len(a), len(b)
    while i < na and j < nb:
        if a[i] <= b[j]:
            end = a[i][1]
            k = j
            while k < nb and b[k][0] < end:
                ov = overlap(a[i], b[k])
                if ov > min_overlap:
                    pairs.append((i, k, ov))
                k += 1
            i += 1
        else:
            end = b[j][1]
            k = i
            while k < na and a[k][0] < end:
                ov = overlap(a[k], b[j])
                if ov > min_overlap:
                    pairs.append((k, j, ov))
                k += 1
            j += 1
    return pairs


# --- gaze segmentation -----------------------------------------------------

def gaze_trace(rows) -> GazeTrace:
    """Hand-written ``(t, yaw, pitch, frontal)`` rows stacked into a :class:`GazeTrace`."""
    t, yaw, pitch, frontal = np.array(rows, dtype=np.float64).reshape(-1, 4).T
    return GazeTrace(t, yaw, pitch, frontal != 0)


def detect_loop(trace, rule):
    """``gaze.detect_address_segments`` as the per-sample state machine.

    One Python step per sample of the :class:`GazeTrace`, carrying the open
    run, its last sample, its last in-band sample and the start of the
    current notes-look.  Returns ``[(start, end)]``; samples must be
    strictly increasing in time.
    """
    t, yaw, pitch, frontal = (c.tolist() for c in (trace.t, trace.yaw, trace.pitch, trace.frontal))
    diffs = sorted(t[i + 1] - t[i] for i in range(len(t) - 1))
    period = diffs[len(diffs) // 2] if diffs else 0.0
    segments = []
    start_idx = None
    last_idx = -1            # last sample belonging to the open run
    last_in_band = -1        # last in-band sample of the open run
    notes_since = None

    def close(end_idx):
        nonlocal start_idx, notes_since
        if start_idx is not None and end_idx >= start_idx:
            segments.append((t[start_idx], t[end_idx] + period))
        start_idx = None
        notes_since = None

    for i in range(len(t)):
        in_band = frontal[i] and rule.yaw_min <= yaw[i] <= rule.yaw_max
        if in_band:
            if start_idx is None:
                start_idx = i
            last_idx = i
            last_in_band = i
            notes_since = None
            continue
        at_notes = frontal[i] and pitch[i] < rule.notes_pitch_threshold
        if at_notes and start_idx is not None:
            if notes_since is None:
                notes_since = t[i]
            if rule.max_notes_seconds is not None and t[i] - notes_since > rule.max_notes_seconds:
                close(last_in_band)
            else:
                last_idx = i
            continue
        close(last_idx)
    close(last_idx)
    return segments


# --- dynamic time warping --------------------------------------------------

_PATH_CACHE: dict[tuple[int, int], np.ndarray] = {}


def _all_monotone_paths(n: int, m: int) -> np.ndarray:
    """All step paths (0,0)->(n-1,m-1) as a padded matrix of flat cell indices.

    Padding points at a sentinel cell (index ``n*m``) that evaluators must
    assign zero cost.
    """
    paths: list[list[int]] = []

    def walk(i, j, acc):
        acc.append(i * m + j)
        if i == n - 1 and j == m - 1:
            paths.append(list(acc))
        else:
            if i + 1 < n and j + 1 < m:
                walk(i + 1, j + 1, acc)
            if i + 1 < n:
                walk(i + 1, j, acc)
            if j + 1 < m:
                walk(i, j + 1, acc)
        acc.pop()

    walk(0, 0, [])
    longest = max(len(p) for p in paths)
    out = np.full((len(paths), longest), n * m, dtype=np.int64)
    for r, p in enumerate(paths):
        out[r, : len(p)] = p
    return out


def exhaustive_dtw_cost(cost_matrix: np.ndarray) -> float:
    """Minimum total cost over *every* monotone warping path, by enumeration."""
    n, m = cost_matrix.shape
    key = (n, m)
    if key not in _PATH_CACHE:
        _PATH_CACHE[key] = _all_monotone_paths(n, m)
    cells = np.append(np.asarray(cost_matrix, float).ravel(), 0.0)
    return float(cells[_PATH_CACHE[key]].sum(axis=1).min())


def dtw_loop(c):
    """Cheapest warp over cost matrix ``c`` by the row-by-row cell loop.

    Same recurrence, tie order and ``best + cost`` addition as
    ``latent.dtw_align``, one Python step per cell.  Returns
    ``(pairs, total_cost)``; the total must be finite.
    """
    n, m = c.shape
    # acc[i, j] is the cheapest warp ending at (i-1, j-1), behind an inf border
    acc = np.full((n + 1, m + 1), np.inf)
    acc[0, 0] = 0.0
    # step taken to ENTER each cell: 0 diagonal, 1 from (i-1, j), 2 from (i, j-1)
    move = np.zeros((n + 1, m + 1), dtype=np.int8)
    for i in range(1, n + 1):
        row = acc[i]
        prev = acc[i - 1]
        for j in range(1, m + 1):
            best = prev[j - 1]
            step = 0
            if prev[j] < best:
                best = prev[j]
                step = 1
            if row[j - 1] < best:
                best = row[j - 1]
                step = 2
            row[j] = best + c[i - 1, j - 1]
            move[i, j] = step
    if not np.isfinite(acc[n, m]):
        raise ValueError(f"warp cost is {acc[n, m]}")

    path = []
    i, j = n, m
    while True:
        path.append((i - 1, j - 1))
        if i == 1 and j == 1:
            break
        step = move[i, j]
        if step == 0:
            i, j = i - 1, j - 1
        elif step == 1:
            i -= 1
        else:
            j -= 1
    path.reverse()
    return tuple(path), float(acc[n, m])


# --- pitch difference function ---------------------------------------------

def direct_difference(frame, window, last_lag):
    """``d(tau) = sum_{j<W} (x[j] - x[j+tau])^2`` for tau = 0..last_lag, summed term by term."""
    x = np.asarray(frame, float)
    return np.array(
        [np.sum((x[:window] - x[tau : tau + window]) ** 2) for tau in range(last_lag + 1)]
    )


# --- synthetic audio -------------------------------------------------------

def word_tones(freqs, sr, slot_samples, tone_fraction):
    """A synthetic session's audio, built one word slot at a time.

    Each slot is a 0.4-amplitude tone over its leading ``tone_fraction``,
    with raised-cosine ends of up to 80 samples, then silence.
    """
    tone_samples = int(slot_samples * tone_fraction)
    t = np.arange(tone_samples) / sr
    ramp = min(80, tone_samples // 4)
    window = 0.5 * (1.0 - np.cos(np.pi * np.arange(ramp) / ramp))
    slots = []
    for freq in freqs:
        tone = 0.4 * np.sin(2.0 * np.pi * freq * t)
        if ramp > 0:
            tone[:ramp] *= window
            tone[-ramp:] *= window[::-1]
        slot = np.zeros(slot_samples)
        slot[:tone_samples] = tone
        slots.append(slot)
    return np.concatenate(slots)


# --- file writers ----------------------------------------------------------
# The whole-array and one-call-per-item writers that the block and
# column-at-a-time writers replaced, and an index session file written from its
# layout; the package must write their bytes.

def pcm16(samples):
    """16-bit PCM of a whole float array at once: scale, round half to even, clip, cast."""
    return np.clip(np.rint(np.asarray(samples, float) * 32768.0), -32768, 32767).astype("<i2")


def transcript_text(stream):
    """A transcript file's text: one ``json.dumps`` per word."""
    sid = stream.speaker_id or ""
    return "".join(
        json.dumps({"word": word, "start": start, "end": end, "speaker_id": sid}, sort_keys=True)
        + "\n"
        for word, start, end in zip(stream.payloads, stream.starts.tolist(), stream.ends.tolist())
    )


def csv_text(header, rows):
    """A CSV file's text: one ``_fmt`` call per cell."""
    return "".join(line + "\n" for line in [header] + [",".join(map(_fmt, row)) for row in rows])


DROP = object()  # a ``session_file`` header value that leaves its key out


def session_file(words=((0.0, 1.0, 0),), gaze=((0.0, 50.0, 0.0, 1), (0.125, 50.0, 0.0, 1)),
                 vocab=("ja",), header=None) -> bytes:
    """An index session file of ``(start, end, code)`` word rows and ``(t, yaw, pitch, frontal)``
    gaze rows, written from the layout's description with one ``struct`` call per column.

    The header line is the compact JSON object ``{"gaze": ..., "vocab": ..., "words": ...}``
    with sorted keys, padded with spaces before its line break to a multiple of 64 bytes; then
    ``start``, ``end``, ``t``, ``yaw`` and ``pitch`` as little-endian doubles, ``code`` as
    little-endian uint32 (absent when the word rows hold only ``(start, end)``) and
    ``frontal`` as bytes.  ``header`` is a dict of header keys to set, the counts included,
    whatever the rows hold; a key set to :data:`DROP` is left out.
    """
    doc = {"gaze": len(gaze), "vocab": list(vocab), "words": len(words), **(header or {})}
    line = json.dumps({k: v for k, v in doc.items() if v is not DROP},
                      sort_keys=True, separators=(",", ":"))
    line += " " * (-(len(line) + 1) % 64) + "\n"
    start, end, *code = zip(*words) if words else ((),) * 3
    code = code[0] if code else ()  # word rows of two leave the code column out
    t, yaw, pitch, frontal = zip(*gaze) if gaze else ((),) * 4
    columns = [(start, "d"), (end, "d"), (t, "d"), (yaw, "d"), (pitch, "d"), (code, "I"),
               (frontal, "B")]
    return line.encode("ascii") + b"".join(
        struct.pack(f"<{len(column)}{kind}", *column) for column, kind in columns
    )


# --- file loaders ----------------------------------------------------------
# The line-by-line loaders that the column-at-a-time ones replaced.  They read
# text with the package's ``_read_text``; the package must return their
# values, or raise the same error at the same line with the same message.

def csv_lines(path, header):
    """``(line_no, fields)`` for every non-blank line of a CSV file after its header."""
    lines = _read_text(path).split("\n")
    first = lines[0].strip()
    if header is None:
        yield 1, first.split(",")
    elif first != header:
        raise ParseError(path, 1, f"expected header {header!r}, got {first!r}")
    width = first.count(",") + 1
    for line_no, line in enumerate(lines[1:], start=2):
        line = line.strip()
        if not line:
            continue
        parts = line.split(",")
        if len(parts) != width:
            raise ParseError(path, line_no, f"expected {width} fields, got {len(parts)}")
        yield line_no, parts


def finite_cell(path, line_no, text):
    try:
        value = float(text)
    except ValueError as e:
        raise ParseError(path, line_no, f"bad number: {e}") from e
    if not math.isfinite(value):
        raise ParseError(path, line_no, f"number must be finite, got {text!r}")
    return value


def transcript_loop(path, session_id=None):
    """``ingest.load_transcript``, one ``json.loads`` and one set of checks per line."""
    path = Path(path)
    starts, ends, words = [], [], []
    speakers = set()
    for line_no, line in enumerate(_read_text(path).split("\n"), start=1):
        line = line.strip()
        if not line:
            continue
        try:
            obj = json.loads(line)
        except (ValueError, RecursionError) as e:
            raise ParseError(path, line_no, f"bad JSON: {getattr(e, 'msg', e)}") from e
        if not isinstance(obj, dict):
            raise ParseError(path, line_no, "expected a JSON object")
        missing = {"word", "start", "end", "speaker_id"} - obj.keys()
        if missing:
            raise ParseError(path, line_no, f"missing keys {sorted(missing)}")
        word, start, end = obj["word"], obj["start"], obj["end"]
        if not isinstance(word, str) or not word:
            raise ParseError(path, line_no, "word must be a non-empty string")
        try:
            word.encode("utf-8")
        except UnicodeEncodeError:
            raise ParseError(path, line_no, f"word {word!r} holds a lone surrogate") from None
        if type(start) not in (int, float) or type(end) not in (int, float):
            raise ParseError(path, line_no, "start/end must be numbers")
        if not 0 <= start <= end < math.inf:
            raise ParseError(path, line_no, f"bad word interval [{start}, {end})")
        try:
            starts.append(float(start))
            ends.append(float(end))
        except OverflowError:
            raise ParseError(path, line_no, "start/end too large for a float") from None
        words.append(word)
        speakers.add(str(obj["speaker_id"]))
    if not words:
        raise ParseError(path, 0, "transcript has no words")
    return stream_from_columns(
        Modality.TEXT, session_id if session_id is not None else path.stem,
        starts, ends, words, speaker_id=speakers.pop() if len(speakers) == 1 else None,
    )


def gaze_loop(path):
    """``ingest.load_gaze``, one set of checks per line, then one sort of the rows by time."""
    rows = []
    for line_no, parts in csv_lines(path, "t,yaw_deg,pitch_deg,frontal"):
        try:
            t, yaw, pitch = (float(v) for v in parts[:3])
            frontal = int(parts[3])
        except ValueError as e:
            raise ParseError(path, line_no, f"bad field: {e}") from e
        if not 0.0 <= t < math.inf:
            raise ParseError(path, line_no, f"t must be finite and >= 0, got {parts[0]!r}")
        if not -180.0 <= yaw <= 180.0:
            raise AngleOutOfRange(path, line_no, f"yaw {yaw} outside [-180, 180]")
        if not -90.0 <= pitch <= 90.0:
            raise AngleOutOfRange(path, line_no, f"pitch {pitch} outside [-90, 90]")
        if frontal not in (0, 1):
            raise ParseError(path, line_no, f"frontal must be 0 or 1, got {parts[3]}")
        rows.append((t, yaw, pitch, frontal, line_no))
    rows.sort(key=lambda row: row[0])
    t, yaw, pitch, frontal, line = np.array(rows, dtype=np.float64).reshape(-1, 5).T
    try:
        return GazeTrace(t, yaw, pitch, frontal != 0)
    except UnsortedSamples:
        k = int(np.flatnonzero(t[1:] == t[:-1])[0])
        message = f"t={t[k]} repeats line {int(line[k])}'s time"
        raise ParseError(path, int(line[k + 1]), message) from None


def speakers_loop(path):
    """``ingest.load_speakers``, one profile per line."""
    profiles = {}
    for line_no, (sid, party, gender) in csv_lines(path, "speaker_id,party,gender"):
        if gender not in PITCH_RANGE_BY_GENDER:
            raise ParseError(
                path, line_no,
                f"gender must be one of {sorted(PITCH_RANGE_BY_GENDER)}, got {gender!r}",
            )
        if sid in profiles:
            raise ParseError(path, line_no, f"duplicate speaker_id {sid!r}")
        profiles[sid] = SpeakerProfile(sid, party, PITCH_RANGE_BY_GENDER[gender])
    return profiles


def counts_loop(path):
    """``ingest.load_counts``, adding each line's count to its word's total."""
    counts = {}
    for line_no, (word, text) in csv_lines(path, "word,count"):
        count = finite_cell(path, line_no, text)
        if count < 0:
            raise ParseError(path, line_no, f"count must be >= 0, got {text!r}")
        counts[word] = counts.get(word, 0) + count
    return counts


def panel_loop(path, y_col, group_col, regressors=None):
    """``ingest.load_panel`` less its header checks, one :class:`PanelRow` per line."""
    lines = csv_lines(path, None)
    _, header = next(lines)
    regs = list(regressors) if regressors else [c for c in header if c not in (y_col, group_col)]
    y_at, group_at = header.index(y_col), header.index(group_col)
    reg_at = {c: header.index(c) for c in regs}
    return [
        PanelRow(
            finite_cell(path, line_no, parts[y_at]),
            parts[group_at],
            {c: finite_cell(path, line_no, parts[i]) for c, i in reg_at.items()},
        )
        for line_no, parts in lines
    ]


# --- word pitch ------------------------------------------------------------

def word_pitch_loop(track, words):
    """``pitch.word_pitch`` as one ``vals.mean()`` per word over its frames by index."""
    los = np.searchsorted(track.frame_times, words.starts, side="left").tolist()
    his = np.searchsorted(track.frame_times, words.ends, side="left").tolist()
    out = []
    for word_id, lo, hi in zip(words.ids, los, his):
        vals = track.f0[lo:hi][track.voiced[lo:hi]]
        out.append(
            WordPitch(
                word_id=word_id,
                session_id=words.session_id,
                speaker_id=words.speaker_id,
                mean_f0=float(vals.mean()) if vals.size else None,
                voiced_frame_count=int(vals.size),
            )
        )
    return out


def standardize_loop(word_pitches, *, per_session=False):
    """``pitch.standardize_by_speaker``, one ``dataclasses.replace`` per observed word."""
    groups = {}
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
        for i in rows:
            out[i] = replace(out[i], z=(out[i].mean_f0 - mean) / sd)
    return out


# --- canonical correlation -------------------------------------------------

def cca_correlations_eig(x, y, k, ridge=0.0):
    """First k canonical correlations from the generalized eigenproblem.

    Solves ``Sxy Syy^-1 Syx w = rho^2 Sxx w`` with :func:`scipy.linalg.eigh`
    — no whitening, no SVD, so a genuinely different numerical path.
    """
    import scipy.linalg

    x = np.asarray(x, float)
    y = np.asarray(y, float)
    x = x - x.mean(axis=0)
    y = y - y.mean(axis=0)
    n = x.shape[0]
    sxx = x.T @ x / (n - 1)
    syy = y.T @ y / (n - 1)
    sxy = x.T @ y / (n - 1)
    if ridge:
        sxx = sxx + ridge * np.trace(sxx) / sxx.shape[0] * np.eye(sxx.shape[0])
        syy = syy + ridge * np.trace(syy) / syy.shape[0] * np.eye(syy.shape[0])
    m = sxy @ np.linalg.solve(syy, sxy.T)
    eigvals = scipy.linalg.eigh(m, sxx, eigvals_only=True)
    rho2 = np.clip(eigvals[::-1][:k], 0.0, 1.0)
    return np.sqrt(rho2)


# --- fixed-effects regression ----------------------------------------------

def dummy_variable_ols(y, groups, x, names):
    """The fixed-effects model fit the long way: one dummy per group, lstsq.

    Returns (coefficients, standard errors, rss) for the named regressors
    only, dropping the dummy estimates.
    """
    y = np.asarray(y, float)
    x = np.asarray(x, float)
    labels = sorted(set(groups))
    dummies = np.zeros((len(y), len(labels)))
    for row, grp in enumerate(groups):
        dummies[row, labels.index(grp)] = 1.0
    design = np.hstack([x, dummies])
    beta, *_ = np.linalg.lstsq(design, y, rcond=None)
    resid = y - design @ beta
    rss = float(resid @ resid)
    dof = len(y) - design.shape[1]
    sigma2 = rss / dof
    cov = sigma2 * np.linalg.inv(design.T @ design)
    se = np.sqrt(np.diag(cov))
    k = x.shape[1]
    return (
        dict(zip(names, beta[:k].tolist())),
        dict(zip(names, se[:k].tolist())),
        rss,
    )


# --- lexical log-odds ------------------------------------------------------

def fightin_words_mp(counts_a, counts_b, prior_scale=1.0):
    """Word z-scores from the log-odds formulas evaluated at 50 digits."""
    import mpmath

    with mpmath.workdps(50):
        vocab = sorted(
            w
            for w in set(counts_a) | set(counts_b)
            if counts_a.get(w, 0) + counts_b.get(w, 0) > 0
        )
        na = mpmath.mpf(sum(counts_a.get(w, 0) for w in vocab))
        nb = mpmath.mpf(sum(counts_b.get(w, 0) for w in vocab))
        grand = na + nb
        alpha0 = mpmath.mpf(prior_scale)
        out = {}
        for w in vocab:
            ya = mpmath.mpf(counts_a.get(w, 0))
            yb = mpmath.mpf(counts_b.get(w, 0))
            aw = alpha0 * (ya + yb) / grand
            delta = (
                mpmath.log(ya + aw)
                - mpmath.log(na + alpha0 - ya - aw)
                - mpmath.log(yb + aw)
                + mpmath.log(nb + alpha0 - yb - aw)
            )
            variance = 1 / (ya + aw) + 1 / (yb + aw)
            out[w] = float(delta / mpmath.sqrt(variance))
        return out


def split_loop(text_streams, segments_by_session, party_by_speaker, *, target_party="AfD"):
    """The cells of ``four_situation_split`` counted a token at a time from each stream's payloads.

    Takes well-formed input: every stream is a text stream whose speaker has a party.
    """
    split = FourWaySplit(Counter(), Counter(), Counter(), Counter())
    for stream in text_streams:
        if party_by_speaker[stream.speaker_id] == target_party:
            to_target, to_others = split.target_to_target, split.target_to_others
        else:
            to_target, to_others = split.others_to_target, split.others_to_others
        segs = segments_by_session.get(stream.session_id)
        bounds = (segs.starts, segs.ends) if segs is not None else (np.empty(0), np.empty(0))
        addressed = covered(*bounds, stream.starts, stream.ends)
        for cell, mask in ((to_target, addressed), (to_others, ~addressed)):
            for payload, count in Counter(compress(stream.payloads, mask.tolist())).items():
                cell[payload.lower()] += count
    return split
