"""File ingestion and the on-disk corpus index.

Input formats
-------------
* Transcripts: JSON Lines, one object per word:
  ``{"word": str, "start": seconds, "end": seconds, "speaker_id": str}``.
* Gaze traces: CSV with header ``t,yaw_deg,pitch_deg,frontal``; rows may
  come in any order, but no two may share a time.
* Speaker metadata: CSV with header ``speaker_id,party,gender``.
* Regression panels: CSV with an outcome, a group and regressor columns.
* Word counts: CSV with header ``word,count``.
* Audio: WAV, 16-bit PCM little-endian; stereo is averaged to mono and
  sample values map to ``value / 32768``.

A corpus manifest (JSON) lists sessions and points at the per-session
files; :func:`build_index` parses everything once into a versioned
directory that later commands load lazily.  Its manifest holds one row
of strings per session: the ids and the audio path, relative to the
index.  The session's files are named by its id: a JSON blob holds its
words, and its numbers (word times, gaze samples) sit beside it in
structured ``.npy`` tables, which load as float64 arrays.  The
speakers CSV is kept as ingested.  The index directory is written to a
temporary sibling and renamed into place, and rebuilding from unchanged
inputs is byte-identical.  What it replaces must be an earlier index or an
empty directory.

Loaders reject rather than repair: every parse failure carries the file
path and 1-based line number.  Every input file is read through :func:`_opened`.
"""

from __future__ import annotations

import io
import json
import math
import os
import re
import shutil
import tempfile
import wave
import weakref
from contextlib import contextmanager
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii
from pathlib import Path
from typing import BinaryIO, Callable, Iterator, Sequence

import numpy as np

from .errors import (
    AngleOutOfRange,
    EngineError,
    MissingFile,
    ParseError,
    UnsortedSamples,
    ValidationError,
    VersionMismatch,
)
from .gaze import GazeTrace
from .pitch import MIN_SAMPLE_RATE, PITCH_RANGE_BY_GENDER, SpeakerProfile
from .stats import PanelRow
from .timeline import ElementStream, Modality, stream_from_columns
from .timeline import word_element_id  # noqa: F401  re-exported for callers of ingest

MANIFEST_FORMAT_VERSION = 1  # corpus manifests, the input of ``ingest``
INDEX_FORMAT_VERSION = 6     # index directories: version 6 stores no word ids

# The numeric tables of an index session, one structured .npy file each; a flag is a 0/1 byte.
_WORDS_DTYPE = np.dtype([("start", "<f8"), ("end", "<f8")])
_GAZE_DTYPE = np.dtype([("t", "<f8"), ("yaw", "<f8"), ("pitch", "<f8"), ("frontal", "u1")])
# The string fields of an index manifest's session row, and no others.
_ROW_KEYS = ("session_id", "speaker_id", "audio")


@contextmanager
def _opened(path) -> Iterator[BinaryIO]:
    """``path`` open to read bytes; an :class:`OSError` is a :class:`MissingFile` saying why."""
    try:
        with open(path, "rb") as fh:
            yield fh
    except (OSError, ValueError) as e:  # ValueError: a NUL byte in the path
        raise MissingFile(f"{path}: {getattr(e, 'strerror', None) or e}") from None


def _read_text(path) -> str:
    """The text of a UTF-8 file; any other byte is a :class:`ParseError` naming its line."""
    with _opened(path) as fh:
        data = fh.read()
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as e:
        line_no = data.count(b"\n", 0, e.start) + 1
        raise ParseError(path, line_no, f"not UTF-8 text: {e.reason}") from None


def _csv_lines(path, header: str | None) -> Iterator[tuple[int, list[str]]]:
    """``(line_no, fields)`` for every non-blank line of a CSV file after its header.

    The first line must equal ``header``; with ``header=None`` any header
    is accepted and comes first, as line 1.  Every line must have as many
    fields as the header (:class:`ParseError` otherwise).
    """
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


_NEEDS_QUOTES = re.compile(r'[,"\r\n]')


def _fmt(value) -> str:
    """A CSV cell: empty for None, ``float.__repr__`` of a float, ``str`` of anything else.

    A string holding a comma, a quote or a line break goes in quotes, its
    quotes doubled; every other cell is written bare.
    """
    if value is None:
        return ""
    if isinstance(value, float):  # numpy's float64 too, whose own repr names its type
        return float.__repr__(value)
    if isinstance(value, str) and _NEEDS_QUOTES.search(value):
        return '"' + value.replace('"', '""') + '"'
    return str(value)


def _column_cells(column: tuple) -> Iterator[str]:
    """The :func:`_fmt` cells of one column; one call per cell only where types mix."""
    kinds = set(map(type, column))
    if kinds == {float}:
        return map(float.__repr__, column)
    if kinds == {int}:
        return map(int.__repr__, column)
    return map(_fmt, column)


def write_csv(path, header: str, rows) -> None:
    """``header``, then a line per row of :func:`_fmt` cells; see :func:`writing` for errors.

    Cells are formatted a column at a time.  Rows of unequal length raise
    :class:`ValueError`.
    """
    columns = [_column_cells(column) for column in zip(*rows, strict=True)]
    text = "\n".join([header, *map(",".join, zip(*columns)), ""])
    with writing(path):
        Path(path).parent.mkdir(parents=True, exist_ok=True)
        Path(path).write_text(text, encoding="utf-8")


def _finite(path, line_no: int, text: str) -> float:
    try:
        value = float(text)
    except ValueError as e:
        raise ParseError(path, line_no, f"bad number: {e}") from e
    if not math.isfinite(value):
        raise ParseError(path, line_no, f"number must be finite, got {text!r}")
    return value


def _read_json_file(path: Path, parse: Callable):
    """``parse`` applied to the JSON document at ``path``.

    A file that is not UTF-8 JSON, or lacks a key or has a value of the
    wrong shape, raises :class:`ParseError` naming it.
    """
    try:
        doc = json.loads(_read_text(path))
    except (ValueError, RecursionError) as e:  # JSONDecodeError, or nesting too deep
        raise ParseError(path, getattr(e, "lineno", 0), f"bad JSON: {e}") from e
    try:
        return parse(doc)
    except (AttributeError, KeyError, TypeError) as e:
        raise ParseError(path, 0, f"unexpected document shape: {type(e).__name__}: {e}") from e


# --- transcripts -----------------------------------------------------------

def load_transcript(path, session_id: str | None = None) -> ElementStream:
    """Parse a JSONL transcript into a text stream.

    Words are sorted by ``(start, end)``, ties keeping their line order, and
    a word's id is its position (``w000000`` ...), so a write/load round
    trip is the identity.  The stream's speaker is the file's unique
    ``speaker_id`` (None when files mix speakers).
    """
    path = Path(path)
    starts, ends, words = [], [], []
    speakers = set()
    for line_no, line in enumerate(_read_text(path).split("\n"), start=1):
        line = line.strip()
        if not line:
            continue
        try:
            obj = json.loads(line)
        except ValueError as e:  # JSONDecodeError, or an integer of more digits than Python reads
            raise ParseError(path, line_no, f"bad JSON: {getattr(e, 'msg', e)}") from e
        if not isinstance(obj, dict):
            raise ParseError(path, line_no, "expected a JSON object")
        missing = {"word", "start", "end", "speaker_id"} - obj.keys()
        if missing:
            raise ParseError(path, line_no, f"missing keys {sorted(missing)}")
        word, start, end = obj["word"], obj["start"], obj["end"]
        if not isinstance(word, str) or not word:
            raise ParseError(path, line_no, "word must be a non-empty string")
        if type(start) not in (int, float) or type(end) not in (int, float):
            raise ParseError(path, line_no, "start/end must be numbers")
        if not 0 <= start <= end < math.inf:  # the stream rule, checked here to name the line
            raise ParseError(path, line_no, f"bad word interval [{start}, {end})")
        try:
            starts.append(float(start))
            ends.append(float(end))
        except OverflowError:  # an integer no float holds
            raise ParseError(path, line_no, "start/end too large for a float") from None
        words.append(word)
        speakers.add(str(obj["speaker_id"]))
    if not words:
        raise ParseError(path, 0, "transcript has no words")
    return stream_from_columns(
        Modality.TEXT,
        session_id if session_id is not None else path.stem,
        None,
        starts,
        ends,
        words,
        speaker_id=speakers.pop() if len(speakers) == 1 else None,
    )


def write_transcript(stream: ElementStream, path) -> None:
    """One JSON object per word, with the bytes of ``json.dumps(..., sort_keys=True)``."""
    # a stream's times are finite, and json writes those as float.__repr__ does
    sid = encode_basestring_ascii(stream.speaker_id or "")
    lines = zip(
        map(float.__repr__, stream.ends.tolist()),
        map(float.__repr__, stream.starts.tolist()),
        map(encode_basestring_ascii, stream.payloads),
        strict=True,
    )
    Path(path).write_text(
        "".join(f'{{"end": {end}, "speaker_id": {sid}, "start": {start}, "word": {word}}}\n'
                for end, start, word in lines),
        encoding="utf-8",
    )


# --- gaze traces -----------------------------------------------------------

_GAZE_HEADER = "t,yaw_deg,pitch_deg,frontal"


def load_gaze(path) -> GazeTrace:
    """Parse a gaze CSV; samples come back sorted by time.

    Times must be finite, >= 0 and distinct, in any row order; yaw must lie
    in [-180, 180] and pitch in [-90, 90] degrees (:class:`AngleOutOfRange`
    otherwise); ``frontal`` is 0 or 1.
    """
    rows = []
    for line_no, parts in _csv_lines(path, _GAZE_HEADER):
        try:
            t, yaw, pitch = (float(v) for v in parts[:3])
            frontal = int(parts[3])
        except ValueError as e:
            raise ParseError(path, line_no, f"bad field: {e}") from e
        if not 0.0 <= t < math.inf:  # also false for nan
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
    except UnsortedSamples:  # the times are sorted, finite and >= 0, so one repeats
        k = int(np.flatnonzero(t[1:] == t[:-1])[0])
        message = f"t={t[k]} repeats line {int(line[k])}'s time"
        raise ParseError(path, int(line[k + 1]), message) from None


def write_gaze(trace: GazeTrace, path) -> None:
    frontal = trace.frontal.astype(int)  # 0/1, where a bool cell would read True/False
    columns = (trace.t.tolist(), trace.yaw.tolist(), trace.pitch.tolist(), frontal.tolist())
    write_csv(path, _GAZE_HEADER, zip(*columns))


# --- speaker metadata ------------------------------------------------------

def load_speakers(path) -> dict[str, SpeakerProfile]:
    """Parse ``speaker_id,party,gender`` CSV into profiles with gender pitch bands."""
    profiles: dict[str, SpeakerProfile] = {}
    for line_no, (sid, party, gender) in _csv_lines(path, "speaker_id,party,gender"):
        if gender not in PITCH_RANGE_BY_GENDER:
            raise ParseError(
                path, line_no,
                f"gender must be one of {sorted(PITCH_RANGE_BY_GENDER)}, got {gender!r}",
            )
        if sid in profiles:
            raise ParseError(path, line_no, f"duplicate speaker_id {sid!r}")
        profiles[sid] = SpeakerProfile(sid, party, PITCH_RANGE_BY_GENDER[gender])
    return profiles


def write_speakers(rows: Sequence[tuple[str, str, str]], path) -> None:
    write_csv(path, "speaker_id,party,gender", rows)


# --- regression panels and word counts -------------------------------------

def load_panel(
    path, y_col: str, group_col: str, regressors: Sequence[str] | None = None
) -> list[PanelRow]:
    """Parse a panel CSV into regression rows.

    ``regressors`` defaults to every column other than the outcome and the
    group.  A repeated header name is a :class:`ParseError`; a column the
    header lacks, or named twice among outcome, group and regressors, is a
    :class:`ValidationError`.  Outcome and regressor values must be finite.
    """
    lines = _csv_lines(path, None)
    _, header = next(lines)
    if len(set(header)) < len(header):
        raise ParseError(path, 1, f"a column name repeats in the header {header}")
    regs = list(regressors) if regressors else [c for c in header if c not in (y_col, group_col)]
    named = [y_col, group_col, *regs]
    for col in named:
        if col not in header:
            raise ValidationError(f"panel {path} has no column {col!r}")
    if len(set(named)) < len(named):
        raise ValidationError(f"outcome, group and regressor columns must differ, got {named}")
    if not regs:
        raise ValidationError("no regressor columns")
    y_at, group_at = header.index(y_col), header.index(group_col)
    reg_at = {c: header.index(c) for c in regs}
    return [
        PanelRow(
            _finite(path, line_no, parts[y_at]),
            parts[group_at],
            {c: _finite(path, line_no, parts[i]) for c, i in reg_at.items()},
        )
        for line_no, parts in lines
    ]


def load_counts(path) -> dict[str, float]:
    """Parse a ``word,count`` CSV; counts must be finite and >= 0, repeated words add up."""
    counts: dict[str, float] = {}
    for line_no, (word, text) in _csv_lines(path, "word,count"):
        count = _finite(path, line_no, text)
        if count < 0:
            raise ParseError(path, line_no, f"count must be >= 0, got {text!r}")
        counts[word] = counts.get(word, 0) + count
    return counts


# --- audio -----------------------------------------------------------------

class WavSource:
    """The mono samples of a checked 16-bit PCM WAV file, read a span at a time.

    Made by :func:`read_wav`.  It holds the file open until :meth:`close`,
    the end of a ``with`` block or its collection.  :meth:`span` reads with
    ``os.pread``, so threads reading spans at once share no file position.
    """

    def __init__(self, path, fd: int, offset: int, frames: int, channels: int, sample_rate: int):
        self.path = path
        self.sample_rate = sample_rate
        self._fd, self._offset, self._frames, self._channels = fd, offset, frames, channels
        self.close = weakref.finalize(self, os.close, fd)  # closes once, whichever comes first

    def __len__(self) -> int:
        return self._frames

    def __enter__(self) -> "WavSource":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def span(self, lo: int, hi: int) -> np.ndarray:
        """Samples ``[lo, hi)`` of ``len(self)``, as float64 ``value / 32768`` averaged over channels.

        A file cut short since :func:`read_wav` checked it is a :class:`ParseError`.
        """
        if not 0 <= lo <= hi <= self._frames:
            raise ValueError(f"span [{lo}, {hi}) is not inside [0, {self._frames})")
        if not self.close.alive:  # its descriptor's number may name another file by now
            raise ValueError(f"{self.path} is closed")
        width = 2 * self._channels
        want = (hi - lo) * width
        try:
            raw = os.pread(self._fd, want, self._offset + lo * width)
        except OSError as e:
            raise MissingFile(f"{self.path}: {e.strerror or e}") from None
        if len(raw) != want:
            raise ParseError(self.path, 0, f"cut short: frames [{lo}, {hi}) need {want} bytes, "
                                           f"read {len(raw)}")
        data = np.frombuffer(raw, dtype="<i2") / 32768.0
        if self._channels > 1:
            data = data.reshape(-1, self._channels).mean(axis=1)
        return data


def read_wav(path) -> WavSource:
    """Open a 16-bit PCM WAV file whose samples are then read a span at a time.

    The header is checked here: 16-bit samples, a rate of at least
    :data:`~modalign.pitch.MIN_SAMPLE_RATE` and at least one frame, and a
    file long enough for the frames the header declares.  Any of these
    failing is a :class:`ParseError`.  Stereo is averaged to mono and values
    are scaled by 1/32768 (see :meth:`WavSource.span`).
    """
    with _opened(path) as fh:
        try:
            with wave.open(fh) as wf:
                width, channels, sr = wf.getsampwidth(), wf.getnchannels(), wf.getframerate()
                frames = wf.getnframes()
                offset = fh.tell()  # ``wave`` stops reading at the start of the samples
        except (wave.Error, EOFError) as e:  # EOFError: a header cut short
            raise ParseError(path, 0, f"not a readable WAV file: {str(e) or 'cut short'}") from e
        need = frames * channels * 2
        present = min(max(os.fstat(fh.fileno()).st_size - offset, 0), need)  # bytes of samples held
        if width != 2 or present != need:  # not 16-bit, or cut short
            raise ParseError(path, 0, f"need {frames} frames of 16-bit PCM, got {present} bytes of "
                                      f"{8 * width}-bit")
        if frames == 0:
            raise ParseError(path, 0, "no audio frames")
        if sr < MIN_SAMPLE_RATE:
            raise ParseError(path, 0, f"sample_rate must be >= {MIN_SAMPLE_RATE}, got {sr}")
        return WavSource(path, os.dup(fh.fileno()), offset, frames, channels, sr)


# Audio is quantized and written in blocks of this many samples, so no float or
# PCM array the size of a session is made: 64k float64 samples are 512 KB.
AUDIO_BLOCK_SAMPLES = 1 << 16


def quantize_pcm16(block: np.ndarray, out: np.ndarray) -> None:
    """16-bit PCM of float samples into ``out``, an int16 array of ``block``'s shape.

    ``block`` (float64) is scaled by 32768 in place, rounded half to even,
    and clipped to [-32768, 32767] before the cast, so ±inf is full scale.
    """
    np.multiply(block, 32768.0, out=block)
    np.rint(block, out=block)
    np.clip(block, -32768, 32767, out=block)
    out[...] = block


@contextmanager
def pcm16_wav(path, sample_rate: int, frames: int) -> Iterator[Callable[[np.ndarray], None]]:
    """A mono 16-bit WAV of ``frames`` frames open at ``path``; yields its block writer.

    Call the writer with C-contiguous int16 blocks, in order, that add up to
    ``frames`` samples; the header is written once, for ``frames``.  A rate
    the header cannot hold is a :class:`ValidationError` before the file opens.
    """
    if not 1 <= sample_rate < 2**31:  # the header's byte rate, 2 * rate, is 32 bits
        raise ValidationError(f"sample rate must be in [1, 2**31) Hz, got {sample_rate}")
    with wave.open(str(path), "wb") as wf:
        wf.setnchannels(1)
        wf.setsampwidth(2)
        wf.setframerate(sample_rate)
        wf.setnframes(frames)
        yield wf.writeframesraw  # writeframes would patch the header after every block


def write_wav(samples: np.ndarray, sample_rate: int, path) -> None:
    """Write mono float samples as 16-bit PCM, one block of samples at a time.

    A sample maps to ``rint(value * 32768)`` clipped to [-32768, 32767], so
    values beyond [-1, 1], ±inf included, are written at full scale.  A NaN
    sample is a :class:`ValidationError` naming its index, and the file is
    removed.  A rate outside [1, 2**31) Hz is a :class:`ValidationError`
    before the file is opened.
    """
    samples = np.asarray(samples).reshape(-1)
    n = samples.size
    buf = np.empty(min(n, AUDIO_BLOCK_SAMPLES))
    pcm = np.empty(buf.size, np.int16)
    nan_at = None
    with pcm16_wav(path, sample_rate, n) as write:
        for lo in range(0, n, AUDIO_BLOCK_SAMPLES):
            block = buf[: min(n - lo, AUDIO_BLOCK_SAMPLES)]
            block[...] = samples[lo : lo + block.size]
            if np.isnan(block.min()):  # min is NaN iff a sample is
                nan_at = lo + int(np.flatnonzero(np.isnan(block))[0])
                break
            quantize_pcm16(block, pcm[: block.size])
            write(pcm[: block.size])
    if nan_at is not None:
        Path(path).unlink()
        raise ValidationError(f"cannot write {path}: sample {nan_at} is NaN")


# --- corpus manifest and index ---------------------------------------------

@dataclass(frozen=True)
class SessionEntry:
    session_id: str
    speaker_id: str
    transcript: Path
    audio: Path
    gaze: Path


@dataclass(frozen=True)
class CorpusManifest:
    sessions: tuple[SessionEntry, ...]
    speakers_path: Path


def load_manifest(path) -> CorpusManifest:
    """Parse and validate a corpus manifest; of the files it names, only the audio must exist."""
    path = Path(path)
    return _read_json_file(path, lambda doc: _parse_manifest(path, doc))


def _parse_manifest(path: Path, doc) -> CorpusManifest:
    if doc.get("format_version") != MANIFEST_FORMAT_VERSION:
        raise VersionMismatch(
            f"{path}: format_version {doc.get('format_version')!r} != {MANIFEST_FORMAT_VERSION}"
        )
    base = path.parent
    speakers = base / doc["speakers"]
    entries = []
    seen = set()
    for i, sess in enumerate(doc.get("sessions", [])):
        missing = {"session_id", "speaker_id", "transcript", "audio", "gaze"} - sess.keys()
        if missing:
            raise ParseError(path, 0, f"session #{i} missing keys {sorted(missing)}")
        sid, speaker = sess["session_id"], sess["speaker_id"]
        if not (isinstance(sid, str) and isinstance(speaker, str)):
            raise ParseError(path, 0, f"session #{i}: session_id and speaker_id must be strings")
        _check_session_id(path, sid)
        if sid in seen:
            raise ParseError(path, 0, f"duplicate session_id {sid!r}")
        seen.add(sid)
        paths = {key: base / sess[key] for key in ("transcript", "audio", "gaze")}
        if not os.path.isfile(paths["audio"]):  # the one file build_index does not open
            raise MissingFile(f"{paths['audio']}: not a file")
        entries.append(SessionEntry(sid, speaker, **paths))
    if not entries:
        raise ParseError(path, 0, "manifest lists no sessions")
    return CorpusManifest(tuple(entries), speakers)


def _check_session_id(path: Path, sid: str) -> None:
    """Raise a :class:`ParseError` naming ``path`` unless ``sid`` is a plain file name."""
    if sid in ("", ".", "..") or set(sid) & set("/\\\0"):
        raise ParseError(path, 0, f"session_id {sid!r} is not a plain file name")


def _json_bytes(obj, *, compact: bool = False) -> bytes:
    """Deterministic JSON bytes with sorted keys.

    Files people read are indented; index files, which only
    :class:`CorpusIndex` reads, are written ``compact``.
    """
    if compact:
        text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    else:
        text = json.dumps(obj, sort_keys=True, indent=2)
    return (text + "\n").encode("utf-8")


@contextmanager
def writing(path):
    """Re-raise an :class:`OSError` from the block as a one-line :class:`ValidationError`.

    An output path that cannot be written (a directory where a file goes, a
    file where a directory goes, no permission) is a bad argument, not bad data.
    """
    try:
        yield
    except OSError as e:
        raise ValidationError(f"cannot write {path}: {e.strerror or e}") from None


def _is_index(out_dir: Path) -> bool:
    """Does ``out_dir`` look like an index :func:`build_index` wrote?

    Every index format version has a ``speakers.json`` (versions 1-3) or a
    ``speakers.csv`` (4-6) beside a ``manifest.json`` whose session rows
    each hold exactly :data:`_ROW_KEYS` (5-6) or name a ``blob`` (1-4); a
    corpus manifest's rows, at its version 1, name no blob.
    """
    doc = json.loads((out_dir / "manifest.json").read_text(encoding="utf-8"))
    rows, current = doc["sessions"], doc["format_version"] in (5, INDEX_FORMAT_VERSION)
    speakers = (out_dir / "speakers.json").is_file() or (out_dir / "speakers.csv").is_file()
    return speakers and bool(rows) and all(
        isinstance(row, dict) and (row.keys() == set(_ROW_KEYS) if current else "blob" in row)
        for row in rows
    )


@contextmanager
def replacing(out_dir: Path, ours: Callable[[Path], bool], what: str) -> Iterator[Path]:
    """A new directory for the block to fill, renamed into place as ``out_dir`` after it.

    ``out_dir`` must be absent, an empty directory, or a directory that
    ``ours`` recognizes as ``what`` an earlier run wrote; anything else,
    a symbolic link included, raises :class:`ValidationError` before the
    block runs and is left untouched.  The block writes into a temporary
    sibling, which then replaces ``out_dir`` whole, so nothing the old
    directory held stays behind.  An :class:`OSError` is re-raised as in
    :func:`writing`.
    """
    if os.path.islink(out_dir):
        raise ValidationError(f"cannot write {out_dir}: it is a symbolic link")
    try:
        replaceable = not out_dir.exists() or (
            out_dir.is_dir() and (not any(out_dir.iterdir()) or ours(out_dir))
        )
    except (OSError, ValueError, LookupError, TypeError, AttributeError):
        replaceable = False
    if not replaceable:
        raise ValidationError(
            f"cannot write {out_dir}: it exists and is neither {what} nor an empty directory"
        )
    with writing(out_dir):
        out_dir.parent.mkdir(parents=True, exist_ok=True)
        with tempfile.TemporaryDirectory(prefix=out_dir.name + ".tmp", dir=out_dir.parent) as tmp:
            new = Path(tmp) / out_dir.name
            yield new
            if out_dir.exists():
                shutil.rmtree(out_dir)
            os.rename(new, out_dir)


def build_index(manifest_path, out_dir) -> Path:
    """Parse every session and write the index directory.

    Every session's speaker must have a line in the speakers file
    (:class:`ParseError` naming the manifest otherwise), and every word of
    its transcript must carry that speaker (:class:`ParseError` naming the
    transcript otherwise).  Audio paths are stored relative to the real path
    of ``out_dir``, so a corpus and its index move together.  ``out_dir`` must
    be new, an empty directory, or an earlier index (of any format
    version), which is replaced; anything else raises
    :class:`ValidationError` and is left untouched (see :func:`replacing`).
    Building twice from unchanged inputs produces byte-identical files.
    """
    manifest = load_manifest(manifest_path)
    out_dir = Path(out_dir)
    profiles = load_speakers(manifest.speakers_path)
    unlisted = sorted({entry.speaker_id for entry in manifest.sessions} - profiles.keys())
    if unlisted:
        raise ParseError(manifest_path, 0, f"speakers not in {manifest.speakers_path}: {unlisted}")
    sessions = []
    for entry in manifest.sessions:
        words = load_transcript(entry.transcript, session_id=entry.session_id)
        if words.speaker_id != entry.speaker_id:
            raise ParseError(
                entry.transcript, 0,
                f"every word's speaker_id must be the manifest's {entry.speaker_id!r}",
            )
        audio = os.path.relpath(os.path.realpath(entry.audio), os.path.realpath(out_dir))
        sessions.append((entry, audio, words, load_gaze(entry.gaze)))
    with replacing(out_dir, _is_index, "an index") as root:
        _write_index(root, sessions)
        shutil.copyfile(manifest.speakers_path, root / "speakers.csv")
    return out_dir


def _session_files(root: Path, session_id: str) -> tuple[Path, Path, Path]:
    """The blob, word table and gaze table of a session in the index at ``root``."""
    sessions = root / "sessions"
    return tuple(sessions / (session_id + ext) for ext in (".json", ".words.npy", ".gaze.npy"))


def _write_index(root: Path, sessions) -> None:
    """Write the files and manifest of an index of ``(entry, audio, words, trace)`` sessions."""
    (root / "sessions").mkdir(parents=True)
    session_rows = []
    for entry, audio, words, trace in sessions:
        blob, words_path, gaze_path = _session_files(root, entry.session_id)
        blob.write_bytes(_json_bytes({"word": list(words.payloads)}, compact=True))
        _write_table(words_path, _WORDS_DTYPE, start=words.starts, end=words.ends)
        _write_table(
            gaze_path, _GAZE_DTYPE,
            t=trace.t, yaw=trace.yaw, pitch=trace.pitch, frontal=trace.frontal,
        )
        session_rows.append(dict(zip(_ROW_KEYS, (entry.session_id, entry.speaker_id, audio))))
    (root / "manifest.json").write_bytes(
        _json_bytes(
            {
                "format_version": INDEX_FORMAT_VERSION,
                "sessions": sorted(session_rows, key=lambda r: r["session_id"]),
            },
            compact=True,
        )
    )


def _write_table(path: Path, dtype: np.dtype, **columns) -> None:
    """Save equal-length ``columns`` as one flat ``.npy`` table of ``dtype``."""
    table = np.empty(len(columns[dtype.names[0]]), dtype=dtype)
    for name in dtype.names:
        table[name] = columns[name]
    np.save(path, table, allow_pickle=False)


def _table_header(dtype: np.dtype, rows: int) -> bytes:
    """The ``.npy`` header :func:`numpy.save` writes before a flat table of ``rows`` rows."""
    buf = io.BytesIO()
    np.lib.format.write_array_header_1_0(
        buf, {"descr": np.lib.format.dtype_to_descr(dtype), "fortran_order": False, "shape": (rows,)}
    )
    return buf.getvalue()


_SHAPE = re.compile(rb"'shape': \((\d{1,18}),\)")


def _read_table(path: Path, dtype: np.dtype) -> dict[str, np.ndarray]:
    """The columns of a table :func:`_write_table` saved, each as its own array.

    The file's header must be byte for byte the one :func:`numpy.save`
    writes for a flat array of ``dtype``, its data exactly as many rows as
    the header gives, its floats finite and its flags 0 or 1.
    Checking the header whole takes the place of :func:`numpy.load`, whose
    lenient header parser can print a warning or raise a tokenizer error on
    a damaged file, and it never unpickles.  A file that cannot be read is
    :class:`MissingFile`; anything else wrong is a :class:`ParseError`
    naming it.
    """
    with _opened(path) as fh:
        data = fh.read()
    end = data.find(b"\n") + 1
    shape = _SHAPE.search(data, 0, end)
    count = int(shape[1]) if shape else -1
    if not shape or data[:end] != _table_header(dtype, count):
        raise ParseError(path, 0, f"header is not numpy.save's for a flat table of {dtype}")
    if len(data) - end != count * dtype.itemsize:
        raise ParseError(
            path, 0, f"holds {len(data) - end} data bytes, its header promises {count} rows"
        )
    table = np.frombuffer(data, dtype=dtype, count=count, offset=end)
    columns = {name: np.array(table[name]) for name in dtype.names}
    for name, values in columns.items():
        if values.dtype.kind == "f" and not np.isfinite(values).all():
            raise ParseError(path, 0, f"column {name!r} holds non-finite numbers")
        if values.dtype.kind == "u" and (values > 1).any():
            raise ParseError(path, 0, f"column {name!r} must hold only 0 and 1")
    return columns


def _blob_words(doc) -> list:
    """A blob's ``word`` list, unchecked but for being a list and the blob's one key."""
    if doc.keys() != {"word"}:
        raise TypeError(f"a blob holds the one key 'word', got {sorted(doc)}")
    if not isinstance(doc["word"], list):
        raise TypeError("'word' must be a list")
    return doc["word"]


@dataclass(frozen=True)
class SessionData:
    session_id: str
    speaker_id: str
    words: ElementStream
    gaze: GazeTrace
    audio_path: Path


class CorpusIndex:
    """Lazy, read-only view of an index directory built by :func:`build_index`."""

    def __init__(self, root):
        self.root = Path(root)
        self._rows: dict[str, dict[str, str]] = _read_json_file(
            self.root / "manifest.json", self._parse_manifest
        )
        self._cache: dict[str, SessionData] = {}
        self._profiles: dict[str, SpeakerProfile] | None = None

    def _parse_manifest(self, doc) -> dict[str, dict[str, str]]:
        if doc.get("format_version") != INDEX_FORMAT_VERSION:
            raise VersionMismatch(
                f"index {self.root} has format_version {doc.get('format_version')!r}, "
                f"this build reads {INDEX_FORMAT_VERSION}; rebuild it with `modalign ingest`"
            )
        path, rows = self.root / "manifest.json", doc["sessions"]
        for row in rows:
            if row.keys() != set(_ROW_KEYS) or {type(value) for value in row.values()} != {str}:
                raise ParseError(path, 0, f"a row must hold the fields {_ROW_KEYS}, all strings")
            _check_session_id(path, row["session_id"])
        by_id = {row["session_id"]: row for row in rows}
        if len(by_id) != len(rows):
            raise ParseError(path, 0, "a session_id is repeated")
        return by_id

    def session_ids(self) -> list[str]:
        return sorted(self._rows)

    def speakers(self) -> dict[str, SpeakerProfile]:
        """Profiles from ``speakers.csv``, which must list every session's speaker."""
        if self._profiles is None:
            path = self.root / "speakers.csv"
            profiles = load_speakers(path)
            unlisted = sorted({row["speaker_id"] for row in self._rows.values()} - profiles.keys())
            if unlisted:
                raise ParseError(path, 0, f"no line for the sessions' speakers {unlisted}")
            self._profiles = profiles
        return self._profiles

    def load_session(self, session_id: str) -> SessionData:
        if session_id in self._cache:
            return self._cache[session_id]
        if session_id not in self._rows:
            raise ValidationError(f"index has no session {session_id!r}")
        row = self._rows[session_id]
        blob, words_path, gaze_path = _session_files(self.root, session_id)
        tokens = _read_json_file(blob, _blob_words)
        w = _read_table(words_path, _WORDS_DTYPE)
        g = _read_table(gaze_path, _GAZE_DTYPE)
        try:
            gaze = GazeTrace(g["t"], g["yaw"], g["pitch"], g["frontal"] == 1)
        except UnsortedSamples as e:
            raise ParseError(gaze_path, 0, f"gaze of session {session_id!r}: {e}") from None
        try:
            words = stream_from_columns(
                Modality.TEXT, session_id, None, w["start"], w["end"], tokens,
                speaker_id=row["speaker_id"],
            )
        except EngineError as e:
            raise ParseError(
                words_path, 0, f"words of session {session_id!r}: {e} (words from {blob})"
            ) from None
        data = SessionData(session_id, row["speaker_id"], words, gaze, self.root / row["audio"])
        self._cache[session_id] = data
        return data
