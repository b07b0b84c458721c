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
index.  Each session is one file named by its id: a JSON header line
with its counts and its vocabulary, each distinct word once, then its
numbers (word times and codes into that vocabulary, gaze samples) as
whole columns (see :func:`_session_bytes`).  The
speakers CSV is kept as ingested, less a byte-order mark.  The index
directory is written to a temporary sibling and renamed into place, and
rebuilding from unchanged inputs is byte-identical.  What it replaces must
be an earlier index or an empty directory.

Loaders reject rather than repair: every parse failure carries the file
path and 1-based line number.  Every input file is read through :func:`_opened`.
"""

from __future__ import annotations

import itertools
import json
import math
import operator
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
from .timeline import ElementStream, Modality, not_utf8, stream_from_columns
from .timeline import word_element_id  # noqa: F401  re-exported for callers of ingest

MANIFEST_FORMAT_VERSION = 1  # corpus manifests, the input of ``ingest``
INDEX_FORMAT_VERSION = 8     # index directories: version 8 stores each session in one file

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
    """The text of a UTF-8 file, less one leading byte-order mark.

    A byte that is not UTF-8 is a :class:`ParseError` naming its line.
    """
    with _opened(path) as fh:
        data = fh.read()
    try:
        return data.decode("utf-8").removeprefix("\ufeff")
    except UnicodeDecodeError as e:
        line_no = data.count(b"\n", 0, e.start) + 1
        raise ParseError(path, line_no, f"not UTF-8 text: {e.reason}") from None


class _Rows:
    """The non-blank lines of a text file, checked a column at a time.

    A loader runs its checks in the order it states them for one line.
    Each check looks only at the rows before :attr:`limit`, the earliest
    row failed so far, and a failure moves the limit up to its row.  The
    error that stands is the one a line-by-line parse raises first: the
    earliest line's, and within that line the first check's.
    """

    def __init__(self, path, lines: list[str], first_line: int):
        self.path = path
        self._stripped = list(map(str.strip, lines))
        self._first_line = first_line
        self.text = list(filter(None, self._stripped))  # one row per non-blank line
        self.limit = len(self.text)
        self._error: tuple[type, str] | None = None

    def line_no(self, row: int) -> int:
        """The 1-based line number of ``row``."""
        return list(itertools.compress(itertools.count(self._first_line), self._stripped))[row]

    def fail(self, row: int, message: str, kind: type = ParseError) -> None:
        """Record the failure of ``row``, which lies before the limit, as the error that stands."""
        self.limit, self._error = row, (kind, message)

    def check(self, ok, message: Callable[[int], str], kind: type = ParseError) -> None:
        """Fail the first row before the limit whose flag in ``ok`` is false."""
        ok = np.asarray(ok[: self.limit], dtype=bool)
        if not ok.all():
            row = int(np.argmin(ok))
            self.fail(row, message(row), kind)

    def apply(self, fn: Callable, values, message: Callable, errors=ValueError) -> list:
        """``fn`` of each value before the limit; the first it refuses fails its row.

        ``message(row, error)`` words the failure.
        """
        out: list = []
        try:
            out.extend(map(fn, values[: self.limit]))  # what was appended before a raise stays
        except errors as e:
            self.fail(len(out), message(len(out), e))
        return out

    def raise_first(self) -> None:
        """Raise the error that stands, naming the file and its line, if any does."""
        if self._error is not None:
            kind, message = self._error
            raise kind(self.path, self.line_no(self.limit), message)


def _csv_rows(path, header: str | None) -> tuple[_Rows, list[str], list[list[str]]]:
    """The rows of a CSV file after its header, its header fields, and its columns of cells.

    The first line must equal ``header`` (a :class:`ParseError` otherwise);
    ``header=None`` takes any.  A line with more or fewer fields than the
    header fails its row, and the columns hold only the rows before it.
    """
    lines = _read_text(path).split("\n")
    first = lines[0].strip()
    if header is not None and first != header:
        raise ParseError(path, 1, f"expected header {header!r}, got {first!r}")
    fields = first.split(",")
    width = len(fields)
    rows = _Rows(path, lines[1:], first_line=2)
    commas = np.fromiter(map(str.count, rows.text, itertools.repeat(",")), np.intp, rows.limit)
    rows.check(commas == width - 1, lambda k: f"expected {width} fields, got {commas[k] + 1}")
    cells = ",".join(rows.text[: rows.limit]).split(",") if rows.limit else []
    return rows, fields, [cells[k::width] for k in range(width)]


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


def _finite_column(rows: _Rows, cells) -> list[float]:
    """The floats of a column of cells; a cell that is no finite number fails its row."""
    values = rows.apply(float, cells, lambda k, e: f"bad number: {e}")
    rows.check(np.isfinite(values), lambda k: f"number must be finite, got {cells[k]!r}")
    return values


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

_WORD_KEYS = ("word", "start", "end", "speaker_id")
_word_fields = operator.itemgetter(*_WORD_KEYS)
# The C scanner behind ``raw_decode``, called without its Python wrapper: it
# returns ``(value, end)`` for the one JSON value at an index and raises
# StopIteration where none starts.  It does no BOM check, so a line is good JSON
# iff it decodes the line whole: a stripped line has no JSON whitespace at its ends.
_scan_once = json.JSONDecoder().scan_once


def _in_order(start, end) -> bool:
    return 0 <= start <= end < math.inf


def _json_error(line: str) -> str:
    """The message of the error :func:`json.loads` raises on a line :data:`_scan_once` refused."""
    try:
        json.loads(line)
    except (ValueError, RecursionError) as e:  # JSONDecodeError, too many digits or too deep
        return f"bad JSON: {getattr(e, 'msg', e)}"
    raise AssertionError(f"json.loads took a line the scanner refused: {line!r}")


def load_transcript(path, session_id: str | None = None) -> ElementStream:
    """Parse a JSONL transcript into a text stream.

    Words are sorted by ``(start, end)``, ties keeping their line order, and
    a word's id is its position (``w000000`` ...), so a write/load round
    trip is the identity.  The stream's speaker is the file's unique
    ``speaker_id`` (None when files mix speakers).  Each non-blank line is
    decoded alone, and its fields are checked a column at a time (see
    :class:`_Rows`).
    """
    path = Path(path)
    rows = _Rows(path, _read_text(path).split("\n"), first_line=1)
    decoded: list = []
    try:
        # what was appended before a raise stays; where no value starts, the StopIteration
        # ends the map quietly, and the check below fails that line with json.loads's message
        decoded.extend(map(_scan_once, rows.text, itertools.repeat(0)))
    except (ValueError, RecursionError):
        pass
    whole = list(map(operator.eq, map(operator.itemgetter(1), decoded), map(len, rows.text)))
    rows.check(whole + [False], lambda k: _json_error(rows.text[k]))
    objs = list(map(operator.itemgetter(0), decoded))
    rows.check(list(map(isinstance, objs, itertools.repeat(dict))),
               lambda k: "expected a JSON object")
    fields = rows.apply(
        _word_fields, objs,
        lambda k, e: f"missing keys {sorted(set(_WORD_KEYS) - objs[k].keys())}", KeyError,
    )
    words, starts, ends, speakers = zip(*fields) if fields else ((),) * 4
    rows.check(
        list(map(operator.and_, map(isinstance, words, itertools.repeat(str)), map(bool, words))),
        lambda k: "word must be a non-empty string",
    )
    held = words[: rows.limit]  # each a non-empty string
    if not_utf8(set(held)) is not None:  # each distinct word checked once; its line sought after
        rows.apply(str.encode, held, lambda k, e: f"word {held[k]!r} holds a lone surrogate",
                   UnicodeEncodeError)
    number = {int, float}.__contains__  # of a type: bool is not a number here
    typed = map(operator.and_, map(number, map(type, starts)), map(number, map(type, ends)))
    rows.check(list(typed), lambda k: "start/end must be numbers")
    # the stream rule, checked here to name the line; an int compares exactly, as no float would
    numbers = starts[: rows.limit], ends[: rows.limit]
    rows.check(
        list(map(_in_order, *numbers)), lambda k: f"bad word interval [{starts[k]}, {ends[k]})"
    )
    start_s, end_s = (
        rows.apply(float, column, lambda k, e: "start/end too large for a float", OverflowError)
        for column in numbers
    )
    rows.raise_first()
    if not words:
        raise ParseError(path, 0, "transcript has no words")
    speaker_ids = set(map(str, speakers))
    return stream_from_columns(
        Modality.TEXT,
        session_id if session_id is not None else path.stem,
        start_s,
        end_s,
        words,
        speaker_id=speaker_ids.pop() if len(speaker_ids) == 1 else None,
    )


def write_transcript(stream: ElementStream, path) -> None:
    """One JSON object per word, with the bytes of ``json.dumps(..., sort_keys=True)``."""
    # a stream's times are finite, and json writes those as float.__repr__ does
    sid = encode_basestring_ascii(stream.speaker_id or "")
    words = list(map(encode_basestring_ascii, stream.vocab))  # each distinct word once
    lines = zip(
        map(float.__repr__, stream.ends.tolist()),
        map(float.__repr__, stream.starts.tolist()),
        map(words.__getitem__, stream.codes.tolist()),
        strict=True,
    )
    Path(path).write_text(
        "".join(f'{{"end": {end}, "speaker_id": {sid}, "start": {start}, "word": {word}}}\n'
                for end, start, word in lines),
        encoding="utf-8",
    )


# --- gaze traces -----------------------------------------------------------

_GAZE_HEADER = "t,yaw_deg,pitch_deg,frontal"
# The head-pose bounds in degrees, |yaw| and |pitch| at most these, in a gaze CSV and an index alike.
_YAW_LIMIT, _PITCH_LIMIT = 180, 90


def _bad_field(row: int, error: ValueError) -> str:
    return f"bad field: {error}"


def load_gaze(path) -> GazeTrace:
    """Parse a gaze CSV; samples come back sorted by time.

    Times must be finite, >= 0 and distinct, in any row order; yaw must lie
    in [-180, 180] and pitch in [-90, 90] degrees (:class:`AngleOutOfRange`
    otherwise); ``frontal`` is 0 or 1.  Cells are checked a column at a time
    (see :class:`_Rows`).
    """
    rows, _, (t_cells, yaw_cells, pitch_cells, frontal_cells) = _csv_rows(path, _GAZE_HEADER)
    t, yaw, pitch = [rows.apply(float, cells, _bad_field)
                     for cells in (t_cells, yaw_cells, pitch_cells)]
    frontal = rows.apply(int, frontal_cells, _bad_field)
    t, yaw, pitch = (np.array(column[: rows.limit], dtype=np.float64) for column in (t, yaw, pitch))
    rows.check((0.0 <= t) & (t < np.inf),
               lambda k: f"t must be finite and >= 0, got {t_cells[k]!r}")
    for name, angle, limit in (("yaw", yaw, _YAW_LIMIT), ("pitch", pitch, _PITCH_LIMIT)):
        rows.check(np.abs(angle) <= limit,  # NaN fails
                   lambda k: f"{name} {float(angle[k])} outside [-{limit}, {limit}]", AngleOutOfRange)
    rows.check(list(map({0, 1}.__contains__, frontal)),
               lambda k: f"frontal must be 0 or 1, got {frontal_cells[k]}")
    rows.raise_first()
    order = np.argsort(t, kind="stable")
    t = t[order]
    try:
        return GazeTrace(t, yaw[order], pitch[order], np.array(frontal, dtype=bool)[order])
    except UnsortedSamples:  # the times are sorted, finite and >= 0, so one repeats
        k = int(np.flatnonzero(t[1:] == t[:-1])[0])
        message = f"t={t[k]} repeats line {rows.line_no(int(order[k]))}'s time"
        raise ParseError(path, rows.line_no(int(order[k + 1])), message) from None


def write_gaze(trace: GazeTrace, path) -> None:
    frontal = trace.frontal.astype(int)  # 0/1, where a bool cell would read True/False
    columns = (trace.t.tolist(), trace.yaw.tolist(), trace.pitch.tolist(), frontal.tolist())
    write_csv(path, _GAZE_HEADER, zip(*columns))


# --- speaker metadata ------------------------------------------------------

def load_speakers(path) -> dict[str, SpeakerProfile]:
    """Parse ``speaker_id,party,gender`` CSV into profiles with gender pitch bands."""
    rows, _, (sids, parties, genders) = _csv_rows(path, "speaker_id,party,gender")
    rows.check(
        list(map(PITCH_RANGE_BY_GENDER.__contains__, genders)),
        lambda k: f"gender must be one of {sorted(PITCH_RANGE_BY_GENDER)}, got {genders[k]!r}",
    )
    first_row = dict(zip(reversed(sids), reversed(range(len(sids)))))  # the earliest row wins
    rows.check(
        np.fromiter(map(first_row.get, sids), np.intp, len(sids)) == np.arange(len(sids)),
        lambda k: f"duplicate speaker_id {sids[k]!r}",
    )
    rows.raise_first()
    bands = map(PITCH_RANGE_BY_GENDER.__getitem__, genders)
    return dict(zip(sids, map(SpeakerProfile, sids, parties, bands)))


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
    rows, header, columns = _csv_rows(path, None)
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
    y, *xs = (_finite_column(rows, columns[header.index(c)]) for c in (y_col, *regs))
    rows.raise_first()
    groups = columns[header.index(group_col)]
    return [PanelRow(y_, group, dict(zip(regs, x))) for y_, group, *x in zip(y, groups, *xs)]


def load_counts(path) -> dict[str, float]:
    """Parse a ``word,count`` CSV; counts must be finite and >= 0, repeated words add up."""
    rows, _, (words, cells) = _csv_rows(path, "word,count")
    counts = _finite_column(rows, cells)
    rows.check(np.greater_equal(counts, 0), lambda k: f"count must be >= 0, got {cells[k]!r}")
    rows.raise_first()
    slots = dict(zip(dict.fromkeys(words), itertools.count()))  # in the order words first appear
    totals = np.zeros(len(slots))
    np.add.at(totals, np.fromiter(map(slots.get, words), np.intp, len(words)), counts)  # row order
    return dict(zip(slots, totals.tolist()))


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
        _check_ids(path, sid, speaker)
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


def _check_ids(path: Path, sid: str, speaker: str) -> None:
    """Raise a :class:`ParseError` naming ``path`` unless ``sid`` is a plain file name and
    neither id holds a lone surrogate."""
    bad = not_utf8((sid, speaker))
    if bad is not None:
        raise ParseError(path, 0, f"id {bad!r} holds a lone surrogate")
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
    ``speakers.csv`` (4-8) beside a ``manifest.json`` whose session rows
    each hold exactly :data:`_ROW_KEYS` (5-8) or name a ``blob`` (1-4); a
    corpus manifest's rows, at its version 1, name no blob.
    """
    doc = json.loads((out_dir / "manifest.json").read_text(encoding="utf-8"))
    rows, current = doc["sessions"], doc["format_version"] in (5, 6, 7, INDEX_FORMAT_VERSION)
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
    transcript otherwise).  The index holds ``manifest.json``, ``speakers.csv``
    and one ``sessions/<id>.session`` file per session (see
    :func:`_session_bytes`).  Audio paths are stored relative to the real path
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
        # as ingested, less a byte-order mark
        (root / "speakers.csv").write_bytes(_read_text(manifest.speakers_path).encode("utf-8"))
    return out_dir


def _session_path(root: Path, session_id: str) -> Path:
    """The file of a session in the index at ``root``."""
    return root / "sessions" / (session_id + ".session")


# A session file's header: the word count, the gaze sample count and the vocab, nothing else.
_HEADER_TYPES = {"gaze": int, "vocab": list, "words": int}


def _session_bytes(words: ElementStream, trace: GazeTrace) -> bytes:
    """A session's file: a header line, then its columns whole.

    The header is the compact JSON object of :data:`_HEADER_TYPES` with
    sorted keys, padded with spaces before its line break to a multiple of
    64 bytes.  The columns follow: ``start``, ``end``, ``t``, ``yaw`` and
    ``pitch`` as ``<f8``, then the word codes as ``<u4`` and the ``frontal``
    flags as 0/1 bytes, so each starts at a multiple of its item size.
    """
    header = _json_bytes(
        {"gaze": len(trace), "vocab": list(words.vocab), "words": len(words)}, compact=True
    )
    header = header[:-1] + b" " * (-len(header) % 64) + b"\n"
    floats = (words.starts, words.ends, trace.t, trace.yaw, trace.pitch)
    return b"".join([
        header,
        *(np.asarray(column, "<f8").tobytes() for column in floats),
        np.asarray(words.codes, "<u4").tobytes(),
        np.asarray(trace.frontal, "u1").tobytes(),
    ])


def _write_index(root: Path, sessions) -> None:
    """Write the files and manifest of an index of ``(entry, audio, words, trace)`` sessions."""
    (root / "sessions").mkdir(parents=True)
    session_rows = []
    for entry, audio, words, trace in sessions:
        _session_path(root, entry.session_id).write_bytes(_session_bytes(words, trace))
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


def _read_session(path: Path, session_id: str, speaker_id: str) -> tuple[ElementStream, GazeTrace]:
    """The words and gaze trace of the session file at ``path`` (see :func:`_session_bytes`).

    The file is read once.  The header must be one UTF-8 JSON line holding
    exactly :data:`_HEADER_TYPES` (counts >= 0), the rest exactly the bytes
    its counts promise and every flag 0 or 1, checked on views of the bytes
    read.  The gaze columns are then copied out, the three float columns as
    one block, and yaw must lie in [-180, 180] and pitch in [-90, 90] (NaN
    fails), as in a gaze CSV; the bounds of the times are the trace's rule
    and those of the word intervals the stream's.  A file that cannot be
    read is a :class:`MissingFile`; any other break is a :class:`ParseError`
    naming the file and the session.
    """
    def bad(line_no: int, message: str) -> ParseError:
        return ParseError(path, line_no, f"session {session_id!r}: {message}")

    with _opened(path) as fh:
        data = fh.read()
    body = data.find(b"\n") + 1
    try:
        header = json.loads(data[:body].decode("utf-8"))
    except (ValueError, RecursionError) as e:  # not UTF-8, not JSON, or nested too deep
        raise bad(1, f"header is not a UTF-8 JSON line: {e}") from None
    if not (
        type(header) is dict
        and header.keys() == _HEADER_TYPES.keys()
        and all(type(header[key]) is kind for key, kind in _HEADER_TYPES.items())
        and min(header["words"], header["gaze"]) >= 0
    ):
        raise bad(1, "header must hold exactly the counts 'words' and 'gaze' (ints >= 0) "
                     "and the list 'vocab'")
    n, m = header["words"], header["gaze"]
    need = 8 * (2 * n + 3 * m) + 4 * n + m
    if len(data) - body != need:
        raise bad(0, f"holds {len(data) - body} bytes after its header, "
                     f"{n} words and {m} gaze samples need {need}")
    floats = np.frombuffer(data, "<f8", 2 * n + 3 * m, body)
    codes = np.frombuffer(data, "<u4", n, body + floats.nbytes)
    frontal = np.frombuffer(data, "u1", m, body + floats.nbytes + codes.nbytes)
    if (frontal > 1).any():
        raise bad(0, "column 'frontal' must hold only 0 and 1")
    starts, ends = floats[: 2 * n].reshape(2, n)
    gaze = floats[2 * n :].reshape(3, m).copy()  # a view would keep the whole read alive
    for name, angle, limit in (("yaw", gaze[1], _YAW_LIMIT), ("pitch", gaze[2], _PITCH_LIMIT)):
        if not np.abs(angle).max(initial=0) <= limit:  # NaN fails
            value = angle[np.argmin(np.abs(angle) <= limit)]
            raise bad(0, f"column {name!r} holds {value}, outside [-{limit}, {limit}]")
    try:
        trace = GazeTrace(*gaze, frontal.astype(bool))
    except UnsortedSamples as e:
        raise bad(0, f"gaze: {e}") from None
    try:
        words = stream_from_columns(
            Modality.TEXT, session_id, starts, ends, codes,
            speaker_id=speaker_id, vocab=header["vocab"],
        )
    except EngineError as e:
        raise bad(0, f"words: {e}") from None
    return words, trace


@dataclass(frozen=True)
class SessionData:
    session_id: str
    speaker_id: str
    words: ElementStream
    gaze: GazeTrace
    audio_path: Path


class CorpusIndex:
    """Lazy, read-only view of an index directory built by :func:`build_index`.

    A session's file is read when the session is first loaded, and the
    session kept (see :func:`_read_session`).
    """

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
            _check_ids(path, row["session_id"], row["speaker_id"])
        by_id = {row["session_id"]: row for row in rows}
        if len(by_id) != len(rows):
            raise ParseError(path, 0, "a session_id is repeated")
        return by_id

    def session_ids(self) -> list[str]:
        return sorted(self._rows)

    def speakers(self) -> dict[str, SpeakerProfile]:
        """Profiles of the sessions' speakers, in ``speakers.csv`` order.

        ``speakers.csv`` must list every session's speaker; its lines for
        other speakers are checked and left out.
        """
        if self._profiles is None:
            path = self.root / "speakers.csv"
            profiles = load_speakers(path)
            speaking = {row["speaker_id"] for row in self._rows.values()}
            unlisted = sorted(speaking - profiles.keys())
            if unlisted:
                raise ParseError(path, 0, f"no line for the sessions' speakers {unlisted}")
            self._profiles = {spk: p for spk, p in profiles.items() if spk in speaking}
        return self._profiles

    def load_session(self, session_id: str) -> SessionData:
        if session_id in self._cache:
            return self._cache[session_id]
        if session_id not in self._rows:
            raise ValidationError(f"index has no session {session_id!r}")
        row = self._rows[session_id]
        words, gaze = _read_session(
            _session_path(self.root, session_id), session_id, row["speaker_id"]
        )
        data = SessionData(session_id, row["speaker_id"], words, gaze, self.root / row["audio"])
        self._cache[session_id] = data
        return data
