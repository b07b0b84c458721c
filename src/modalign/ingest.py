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
of strings per session; a JSON blob holds the session's words, and its
numbers (word times, gaze samples) sit beside it in structured ``.npy``
tables, which load as float64 arrays without going through text.  The
speakers CSV is kept as ingested.  The index directory is written to a
temporary sibling and renamed into place, and rebuilding from unchanged
inputs is byte-identical.  What it replaces must be an earlier index or an
empty directory.

Loaders reject rather than repair: every parse failure carries the file
path and 1-based line number.
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
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterator, Sequence

import numpy as np

from .errors import (
    AngleOutOfRange,
    MissingFile,
    NegativeInterval,
    OverlappingWords,
    ParseError,
    ValidationError,
    VersionMismatch,
)
from .gaze import GazeTrace
from .pitch import PITCH_RANGE_BY_GENDER, AudioBuffer, SpeakerProfile
from .stats import PanelRow
from .timeline import ElementStream, Modality, stream_from_columns

MANIFEST_FORMAT_VERSION = 1  # corpus manifests, the input of ``ingest``
INDEX_FORMAT_VERSION = 4     # index directories: version 4 keeps the speakers CSV, each fact once

# The numeric tables of an index session, one structured .npy file each; a flag is a 0/1 byte.
_WORDS_DTYPE = np.dtype([("start", "<f8"), ("end", "<f8")])
_GAZE_DTYPE = np.dtype([("t", "<f8"), ("yaw", "<f8"), ("pitch", "<f8"), ("frontal", "u1")])
# The string fields of an index manifest's session row.
_ROW_KEYS = ("session_id", "speaker_id", "audio", "blob", "words", "gaze")


def word_element_id(position: int) -> str:
    """Stable id for the word at a 0-based position in time order."""
    return f"w{position:06d}"


def _text_lines(path) -> list[str]:
    """The lines of a UTF-8 text file, split at ``\n``.

    A missing file is :class:`MissingFile`; bytes that are not UTF-8 raise
    a :class:`ParseError` naming the file and line.
    """
    path = Path(path)
    if not path.is_file():
        raise MissingFile(str(path))
    data = path.read_bytes()
    try:
        return data.decode("utf-8").split("\n")
    except UnicodeDecodeError as e:
        line_no = data.count(b"\n", 0, e.start) + 1
        raise ParseError(path, line_no, f"not UTF-8 text: {e.reason}") from None


def _csv_lines(path, header: str | None) -> Iterator[tuple[int, list[str]]]:
    """``(line_no, fields)`` for every non-blank line of a CSV file after its header.

    The first line must equal ``header``; with ``header=None`` any header
    is accepted and comes first, as line 1.  Every line must have as many
    fields as the header (:class:`ParseError` otherwise).
    """
    lines = _text_lines(path)
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


def _fmt(value) -> str:
    """A CSV cell: empty for None, ``repr`` of a float, ``str`` of anything else."""
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def write_csv(path, header: str, rows) -> None:
    """``header``, then a line per row of :func:`_fmt` cells; see :func:`writing` for errors."""
    lines = [header] + [",".join(map(_fmt, row)) for row in rows]
    with writing(path):
        Path(path).parent.mkdir(parents=True, exist_ok=True)
        Path(path).write_text("".join(line + "\n" for line in lines), encoding="utf-8")


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
    if not path.is_file():
        raise MissingFile(str(path))
    try:
        doc = json.loads(path.read_text(encoding="utf-8"))
    except ValueError as e:  # JSONDecodeError, UnicodeDecodeError
        raise ParseError(path, getattr(e, "lineno", 0), f"bad JSON: {e}") from e
    try:
        return parse(doc)
    except (AttributeError, KeyError, TypeError) as e:
        raise ParseError(path, 0, f"unexpected document shape: {type(e).__name__}: {e}") from e


# --- transcripts -----------------------------------------------------------

def load_transcript(path, session_id: str | None = None) -> ElementStream:
    """Parse a JSONL transcript into a text stream.

    Element ids are assigned by time order (``w000000`` ...), so a
    write/load round trip is the identity.  The stream's speaker is the
    file's unique ``speaker_id`` (None when files mix speakers).
    """
    path = Path(path)
    rows = []
    speakers = set()
    for line_no, line in enumerate(_text_lines(path), start=1):
        line = line.strip()
        if not line:
            continue
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as e:
            raise ParseError(path, line_no, f"bad JSON: {e.msg}") from e
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
        if not (math.isfinite(start) and math.isfinite(end)):
            raise ParseError(path, line_no, f"start/end must be finite, got [{start}, {end})")
        if start < 0 or end < start:
            raise ParseError(path, line_no, f"bad word interval [{start}, {end})")
        rows.append((float(start), float(end), word))
        speakers.add(str(obj["speaker_id"]))
    if not rows:
        raise ParseError(path, 0, "transcript has no words")
    rows.sort()
    starts, ends, words = zip(*rows)
    return stream_from_columns(
        Modality.TEXT,
        session_id if session_id is not None else path.stem,
        [word_element_id(i) for i in range(len(rows))],
        starts,
        ends,
        words,
        speaker_id=speakers.pop() if len(speakers) == 1 else None,
    )


def write_transcript(stream: ElementStream, path) -> None:
    sid = stream.speaker_id or ""
    with open(path, "w", encoding="utf-8") as fh:
        for word, start, end in zip(stream.payloads, stream.starts.tolist(), stream.ends.tolist()):
            fh.write(
                json.dumps(
                    {"word": word, "start": start, "end": end, "speaker_id": sid}, sort_keys=True
                )
                + "\n"
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
    repeat = np.flatnonzero(t[1:] == t[:-1])
    if repeat.size:
        k = int(repeat[0])
        raise ParseError(path, int(line[k + 1]), f"t={t[k]} repeats line {int(line[k])}'s time")
    return GazeTrace(t, yaw, pitch, frontal != 0)


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
    group.  Naming a column the header lacks is a :class:`ValidationError`;
    outcome and regressor values must be finite numbers.
    """
    lines = _csv_lines(path, None)
    _, header = next(lines)
    regs = list(regressors) if regressors else [c for c in header if c not in (y_col, group_col)]
    for col in [y_col, group_col, *regs]:
        if col not in header:
            raise ValidationError(f"panel {path} has no column {col!r}")
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

def read_wav(path) -> AudioBuffer:
    """Read 16-bit PCM WAV; stereo is averaged to mono; values scaled by 1/32768."""
    path = Path(path)
    if not path.is_file():
        raise MissingFile(str(path))
    try:
        with wave.open(str(path), "rb") as wf:
            if wf.getsampwidth() != 2:
                raise ParseError(path, 0, f"need 16-bit PCM, got {8 * wf.getsampwidth()}-bit")
            channels = wf.getnchannels()
            sr = wf.getframerate()
            raw = wf.readframes(wf.getnframes())
    except wave.Error as e:
        raise ParseError(path, 0, f"not a readable WAV file: {e}") from e
    data = np.frombuffer(raw, dtype="<i2").astype(np.float64) / 32768.0
    if channels > 1:
        data = data.reshape(-1, channels).mean(axis=1)
    try:
        return AudioBuffer(data, sr)
    except ValidationError as e:  # no frames, or a rate below 8000 Hz
        raise ParseError(path, 0, str(e)) from None


def write_wav(samples: np.ndarray, sample_rate: int, path) -> None:
    """Write mono float samples (clipped to [-1, 1]) as 16-bit PCM."""
    pcm = np.clip(np.round(np.asarray(samples) * 32768.0), -32768, 32767).astype("<i2")
    with wave.open(str(path), "wb") as wf:
        wf.setnchannels(1)
        wf.setsampwidth(2)
        wf.setframerate(sample_rate)
        wf.writeframes(pcm.tobytes())


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
    """Parse and validate a corpus manifest; all referenced files must exist."""
    path = Path(path)
    return _read_json_file(path, lambda doc: _parse_manifest(path, doc))


def _parse_manifest(path: Path, doc) -> CorpusManifest:
    if doc.get("format_version") != MANIFEST_FORMAT_VERSION:
        raise VersionMismatch(
            f"{path}: format_version {doc.get('format_version')!r} != {MANIFEST_FORMAT_VERSION}"
        )
    base = path.parent
    speakers = base / doc["speakers"]
    if not speakers.is_file():
        raise MissingFile(str(speakers))
    entries = []
    seen = set()
    for i, sess in enumerate(doc.get("sessions", [])):
        missing = {"session_id", "speaker_id", "transcript", "audio", "gaze"} - sess.keys()
        if missing:
            raise ParseError(path, 0, f"session #{i} missing keys {sorted(missing)}")
        sid, speaker = sess["session_id"], sess["speaker_id"]
        if not (isinstance(sid, str) and isinstance(speaker, str)):
            raise ParseError(path, 0, f"session #{i}: session_id and speaker_id must be strings")
        if sid in ("", ".", "..") or set(sid) & set("/\\\0"):
            raise ParseError(path, 0, f"session_id {sid!r} is not a plain file name")
        if sid in seen:
            raise ParseError(path, 0, f"duplicate session_id {sid!r}")
        seen.add(sid)
        paths = {key: base / sess[key] for key in ("transcript", "audio", "gaze")}
        for p in paths.values():
            if not p.is_file():
                raise MissingFile(str(p))
        entries.append(SessionEntry(sid, speaker, **paths))
    if not entries:
        raise ParseError(path, 0, "manifest lists no sessions")
    return CorpusManifest(tuple(entries), speakers)


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
    ``speakers.csv`` (4) beside a ``manifest.json`` whose session rows each
    name a ``blob``; a corpus manifest's rows name none.
    """
    rows = json.loads((out_dir / "manifest.json").read_text(encoding="utf-8"))["sessions"]
    speakers = (out_dir / "speakers.json").is_file() or (out_dir / "speakers.csv").is_file()
    return speakers and bool(rows) and all(isinstance(row, dict) and "blob" in row for row in rows)


@contextmanager
def replacing(out_dir: Path, ours: Callable[[Path], bool], what: str) -> Iterator[Path]:
    """A new directory for the block to fill, renamed into place as ``out_dir`` after it.

    ``out_dir`` must be absent, an empty directory, or a directory that
    ``ours`` recognizes as ``what`` an earlier run wrote; anything else
    raises :class:`ValidationError` before the block runs and is left
    untouched.  The block writes into a temporary sibling, which then
    replaces ``out_dir`` whole, so nothing the old directory held stays
    behind.  An :class:`OSError` is re-raised as in :func:`writing`.
    """
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
    (:class:`ParseError` naming the manifest otherwise).  ``out_dir`` must
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
    sessions = [
        (entry, load_transcript(entry.transcript, session_id=entry.session_id), load_gaze(entry.gaze))
        for entry in manifest.sessions
    ]
    with replacing(out_dir, _is_index, "an index") as root:
        _write_index(root, sessions)
        shutil.copyfile(manifest.speakers_path, root / "speakers.csv")
    return out_dir


def _write_index(root: Path, sessions) -> None:
    """Write the session files and manifest of an index of ``(entry, words, trace)`` sessions."""
    (root / "sessions").mkdir(parents=True)
    session_rows = []
    for entry, words, trace in sessions:
        row = {
            "session_id": entry.session_id,
            "speaker_id": entry.speaker_id,
            "audio": str(entry.audio.resolve()),
            "blob": f"sessions/{entry.session_id}.json",
            "words": f"sessions/{entry.session_id}.words.npy",
            "gaze": f"sessions/{entry.session_id}.gaze.npy",
        }
        blob = {"id": list(words.ids), "word": list(words.payloads)}
        (root / row["blob"]).write_bytes(_json_bytes(blob, compact=True))
        _write_table(root / row["words"], _WORDS_DTYPE, start=words.starts, end=words.ends)
        _write_table(
            root / row["gaze"], _GAZE_DTYPE,
            t=trace.t, yaw=trace.yaw, pitch=trace.pitch, frontal=trace.frontal,
        )
        session_rows.append(row)
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


def _read_table(path: Path, dtype: np.dtype, rows: int | None = None) -> dict[str, np.ndarray]:
    """The columns of a table :func:`_write_table` saved, each as its own array.

    The file's header must be byte for byte the one :func:`numpy.save`
    writes for a flat array of ``dtype`` (with ``rows`` rows when given),
    its data exactly that many rows, its floats finite and its flags 0 or 1.
    Checking the header whole takes the place of :func:`numpy.load`, whose
    lenient header parser can print a warning or raise a tokenizer error on
    a damaged file, and it never unpickles.  A missing file is
    :class:`MissingFile`; anything else wrong is a :class:`ParseError`
    naming it.
    """
    if not path.is_file():
        raise MissingFile(str(path))
    data = path.read_bytes()
    end = data.find(b"\n") + 1
    shape = _SHAPE.search(data, 0, end)
    count = int(shape[1]) if shape else -1
    if not shape or data[:end] != _table_header(dtype, count):
        raise ParseError(path, 0, f"header is not numpy.save's for a flat table of {dtype}")
    if len(data) - end != count * dtype.itemsize:
        raise ParseError(
            path, 0, f"holds {len(data) - end} data bytes, its header promises {count} rows"
        )
    if rows is not None and count != rows:
        raise ParseError(path, 0, f"table has {count} rows, the blob lists {rows}")
    table = np.frombuffer(data, dtype=dtype, count=count, offset=end)
    columns = {name: np.array(table[name]) for name in dtype.names}
    for name, values in columns.items():
        if values.dtype.kind == "f" and not np.isfinite(values).all():
            raise ParseError(path, 0, f"column {name!r} holds non-finite numbers")
        if values.dtype.kind == "u" and (values > 1).any():
            raise ParseError(path, 0, f"column {name!r} must hold only 0 and 1")
    return columns


def _strings(path: Path, table: dict, name: str) -> list[str]:
    """The JSON list ``table[name]`` of a blob, which must hold only strings."""
    values = table[name]
    if not isinstance(values, list) or set(map(type, values)) - {str}:
        raise ParseError(path, 0, f"column {name!r} is not a list of strings")
    return values


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
        if any({type(row[key]) for key in _ROW_KEYS} != {str} for row in rows):
            raise ParseError(path, 0, f"row fields {_ROW_KEYS} must be strings")
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
        blob = self.root / row["blob"]
        ids, tokens = _read_json_file(
            blob, lambda doc: (_strings(blob, doc, "id"), _strings(blob, doc, "word"))
        )
        if len(tokens) != len(ids):
            raise ParseError(blob, 0, f"{len(ids)} word ids for {len(tokens)} words")
        words_path, gaze_path = self.root / row["words"], self.root / row["gaze"]
        w = _read_table(words_path, _WORDS_DTYPE, rows=len(ids))
        g = _read_table(gaze_path, _GAZE_DTYPE)
        if (g["t"][:1] < 0).any() or (g["t"][1:] <= g["t"][:-1]).any():
            raise ParseError(gaze_path, 0, "column 't' must rise strictly from a time >= 0")
        try:
            words = stream_from_columns(
                Modality.TEXT, session_id, ids, w["start"], w["end"], tokens,
                speaker_id=row["speaker_id"],
            )
        except (NegativeInterval, OverlappingWords) as e:
            raise ParseError(words_path, 0, f"words of session {session_id!r}: {e}") from None
        gaze = GazeTrace(g["t"], g["yaw"], g["pitch"], g["frontal"] == 1)
        data = SessionData(session_id, row["speaker_id"], words, gaze, Path(row["audio"]))
        self._cache[session_id] = data
        return data
