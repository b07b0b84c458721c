"""File loaders, the corpus index, and the synthetic-corpus generator."""

import itertools
import json
import os
import shutil
import struct
import tracemalloc
import wave
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from modalign.cli import RunConfig, main, session_segments
from modalign.errors import (
    AngleOutOfRange,
    InvalidSpec,
    MissingFile,
    NegativeInterval,
    OverlappingWords,
    ParseError,
    ValidationError,
    VersionMismatch,
)
from modalign.gaze import AddressRule, detect_address_segments, enforce_min_words
from modalign.ingest import (
    AUDIO_BLOCK_SAMPLES,
    CorpusIndex,
    build_index,
    load_counts,
    load_gaze,
    load_manifest,
    load_panel,
    load_speakers,
    load_transcript,
    pcm16_wav,
    quantize_pcm16,
    read_wav,
    word_element_id,
    write_csv,
    write_gaze,
    write_speakers,
    write_transcript,
)
from modalign import pitch
from modalign.pitch import PITCH_RANGE_BY_GENDER, PitchSettings, estimate_pitch_track
from modalign.synth import MAX_SAMPLE_RATE, TONE_FRACTION, WORD_SLOT, SynthSpec, synth_corpus
from modalign.timeline import Modality, stream_from_columns

from _e2e import interaction_name, planted_run
from _oracles import (
    DROP,
    counts_loop,
    csv_text,
    gaze_loop,
    gaze_trace,
    panel_loop,
    pcm16,
    session_file,
    speakers_loop,
    transcript_loop,
    transcript_text,
    word_tones,
)


# --- transcripts -----------------------------------------------------------

def write_lines(path, lines):
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def word_line(word, start, end, speaker="s1"):
    return json.dumps({"word": word, "start": start, "end": end, "speaker_id": speaker})


@pytest.mark.parametrize("loader", [load_transcript, load_gaze])
def test_bytes_that_are_not_utf8_name_file_and_line(tmp_path, loader):
    p = tmp_path / "bad.txt"
    first = word_line("ja", 0.0, 0.4) if loader is load_transcript else "t,yaw_deg,pitch_deg,frontal"
    p.write_bytes(first.encode() + b"\n" + b"\xff\xfe" + b"\n")
    with pytest.raises(ParseError) as info:
        loader(p)
    assert (info.value.path, info.value.line_no) == (str(p), 2)
    assert "not UTF-8" in str(info.value)


def test_transcript_two_lines(tmp_path):
    p = tmp_path / "t.jsonl"
    write_lines(p, [word_line("guten", 0.0, 0.4), word_line("tag", 0.4, 0.8)])
    stream = load_transcript(p)
    assert stream.modality is Modality.TEXT
    assert stream.session_id == "t"
    assert stream.speaker_id == "s1"
    assert [(e.id, e.payload) for e in stream] == [("w000000", "guten"), ("w000001", "tag")]


def test_transcript_sorts_unsorted_rows(tmp_path):
    p = tmp_path / "t.jsonl"
    write_lines(p, [word_line("b", 1.0, 2.0), word_line("a", 0.0, 1.0)])
    assert [e.payload for e in load_transcript(p)] == ["a", "b"]


def test_transcript_reversed_interval(tmp_path):
    p = tmp_path / "t.jsonl"
    nan, inf = float("nan"), float("inf")
    bad = [(2.0, 1.0), (nan, 1.0), (1.0, nan), (1.0, inf), (-inf, 1.0), (False, True)]
    for start, end in bad:
        write_lines(p, [word_line("ok", 0.0, 0.4), word_line("bad", start, end)])
        with pytest.raises(ParseError) as exc:
            load_transcript(p)
        assert exc.value.line_no == 2
        assert str(p) in str(exc.value)


def test_transcript_bad_json_and_missing_keys(tmp_path):
    p = tmp_path / "t.jsonl"
    write_lines(p, [word_line("ok", 0.0, 0.4), "{not json"])
    with pytest.raises(ParseError) as exc:
        load_transcript(p)
    assert exc.value.line_no == 2
    write_lines(p, ['{"word": "x", "start": 0.0}'])
    with pytest.raises(ParseError, match="missing keys"):
        load_transcript(p)
    p.write_text("", encoding="utf-8")
    with pytest.raises(ParseError, match="no words"):
        load_transcript(p)


def test_transcript_overlap_rejected(tmp_path):
    p = tmp_path / "t.jsonl"
    write_lines(p, [word_line("a", 0.0, 1.0), word_line("b", 0.5, 1.5)])
    with pytest.raises(OverlappingWords):
        load_transcript(p)


def test_transcript_mixed_speakers_have_no_stream_speaker(tmp_path):
    p = tmp_path / "t.jsonl"
    write_lines(p, [word_line("a", 0, 1, "s1"), word_line("b", 1, 2, "s2")])
    assert load_transcript(p).speaker_id is None


def test_transcript_round_trip(tmp_path):
    stream = stream_from_columns(
        Modality.TEXT, "rt", [0.0, 0.5, 1.0], [0.5, 1.0, 1.5], ["ich", "rede", "jetzt"],
        speaker_id="s9",
    )
    p = tmp_path / "rt.jsonl"
    write_transcript(stream, p)
    again = load_transcript(p, session_id="rt")
    assert list(again) == list(stream)
    assert again.speaker_id == "s9"


# every kind of character json escapes, and some it writes as they are
_HARD_CHARS = ['"', "\\", "\x00", "\x1f", "\x7f", "\u2028", "\u2029", "\ud800", "\udfff",
               "\u00e4", "\U0001f600", ",", "\n", "\r", "\t", "/"]
# any text, lone surrogates included: st.characters() leaves them out unless asked
_words = st.text(st.characters() | st.characters(categories=["Cs"]) | st.sampled_from(_HARD_CHARS),
                 min_size=1)


def holds_surrogate(text: str) -> bool:
    return any("\ud800" <= c <= "\udfff" for c in text)


def text_stream_or_refusal(session_id, starts, ends, words, speaker_id=None):
    """The stream of ``words``, or None when one holds a lone surrogate and the build refused it."""
    if any(map(holds_surrogate, words)):
        with pytest.raises(ValidationError, match="holds a lone surrogate"):
            stream_from_columns(Modality.TEXT, session_id, starts, ends, words,
                                speaker_id=speaker_id)
        return None
    return stream_from_columns(Modality.TEXT, session_id, starts, ends, words,
                               speaker_id=speaker_id)


@settings(max_examples=200, deadline=None)
@given(words=st.lists(_words, min_size=1, max_size=8), speaker=st.one_of(st.none(), _words))
@example(words=["\ud800\udfff"], speaker=None)  # JSON would read its two escapes as one character
def test_transcripts_round_trip_any_text_or_refuse_it(tmp_path_factory, words, speaker):
    stream = text_stream_or_refusal("s", range(len(words)), range(1, len(words) + 1), words,
                                    speaker_id=speaker)
    if stream is None:
        return
    p = tmp_path_factory.mktemp("tx") / "t.jsonl"
    write_transcript(stream, p)
    again = load_transcript(p, session_id="s")
    assert again.vocab == stream.vocab and again.payloads == tuple(words)
    assert again.codes.tobytes() == stream.codes.tobytes()
    assert again.starts.tobytes() == stream.starts.tobytes()
    assert again.ends.tobytes() == stream.ends.tobytes()


@settings(max_examples=200, deadline=None)
@given(
    words=st.lists(_words, min_size=1, max_size=8),
    gaps=st.lists(st.floats(0.0, 1e6), min_size=16, max_size=16),
    speaker=st.one_of(st.none(), _words),
)
def test_transcript_bytes_equal_one_json_dumps_per_word(tmp_path_factory, words, gaps, speaker):
    edges = np.cumsum(gaps[: 2 * len(words)]).tolist()  # 5e-324 and 17-digit sums included
    stream = text_stream_or_refusal("s", edges[0::2], edges[1::2], words, speaker_id=speaker)
    if stream is None:
        return
    p = tmp_path_factory.mktemp("tx") / "t.jsonl"
    write_transcript(stream, p)
    assert p.read_bytes() == transcript_text(stream).encode("utf-8")


def test_transcript_writes_times_json_writes(tmp_path):
    # a stream holds only finite times, which json writes as float.__repr__ does
    nan, inf = float("nan"), float("inf")
    for starts, ends in (([0.0, 5e-324], [5e-324, inf]), ([nan], [1.0]), ([0.0], [nan])):
        with pytest.raises(NegativeInterval):
            stream_from_columns(Modality.TEXT, "s", starts, ends, ["ja"] * len(starts))
    stream = stream_from_columns(Modality.TEXT, "s", [-0.0, 5e-324, 1e308],
                                 [5e-324, 5e-324, 1e308], ["ja"] * 3, speaker_id="s1")
    write_transcript(stream, tmp_path / "t.jsonl")
    assert (tmp_path / "t.jsonl").read_bytes() == transcript_text(stream).encode("utf-8")
    assert (tmp_path / "t.jsonl").read_bytes().splitlines() == [
        b'{"end": 5e-324, "speaker_id": "s1", "start": -0.0, "word": "ja"}',
        b'{"end": 5e-324, "speaker_id": "s1", "start": 5e-324, "word": "ja"}',
        b'{"end": 1e+308, "speaker_id": "s1", "start": 1e+308, "word": "ja"}',
    ]


# --- gaze traces -----------------------------------------------------------

def gaze_rows(trace):
    """A trace's samples as ``(t, yaw, pitch, frontal)`` tuples."""
    return list(zip(*(c.tolist() for c in (trace.t, trace.yaw, trace.pitch, trace.frontal))))


def test_gaze_basic_row(tmp_path):
    p = tmp_path / "g.csv"
    write_lines(p, ["t,yaw_deg,pitch_deg,frontal", "0.0,50,0,1"])
    assert gaze_rows(load_gaze(p)) == [(0.0, 50.0, 0.0, True)]


def test_gaze_sorts_shuffled_rows(tmp_path):
    p = tmp_path / "g.csv"
    write_lines(p, ["t,yaw_deg,pitch_deg,frontal", "2.0,10,0,0", "1.0,20,0,1"])
    assert gaze_rows(load_gaze(p)) == [(1.0, 20.0, 0.0, True), (2.0, 10.0, 0.0, False)]


def test_gaze_angle_limits(tmp_path):
    p = tmp_path / "g.csv"
    write_lines(p, ["t,yaw_deg,pitch_deg,frontal", "0.0,200,0,1"])
    with pytest.raises(AngleOutOfRange) as exc:
        load_gaze(p)
    assert exc.value.line_no == 2
    write_lines(p, ["t,yaw_deg,pitch_deg,frontal", "0.0,0,95,1"])
    with pytest.raises(AngleOutOfRange):
        load_gaze(p)


def test_gaze_format_errors(tmp_path):
    p = tmp_path / "g.csv"
    write_lines(p, ["time,yaw,pitch,front", "0.0,0,0,1"])
    with pytest.raises(ParseError) as exc:
        load_gaze(p)
    assert exc.value.line_no == 1
    write_lines(p, ["t,yaw_deg,pitch_deg,frontal", "0.0,0,0"])
    with pytest.raises(ParseError, match="4 fields"):
        load_gaze(p)
    write_lines(p, ["t,yaw_deg,pitch_deg,frontal", "0.0,0,0,2"])
    with pytest.raises(ParseError, match="frontal"):
        load_gaze(p)
    write_lines(p, ["t,yaw_deg,pitch_deg,frontal", "zero,0,0,1"])
    with pytest.raises(ParseError, match="bad field"):
        load_gaze(p)
    for t in ("nan", "inf", "-inf", "-0.5"):
        write_lines(p, ["t,yaw_deg,pitch_deg,frontal", "0.0,26,-3,1", f"{t},26,-3,1"])
        with pytest.raises(ParseError, match="finite and >= 0") as exc:
            load_gaze(p)
        assert exc.value.line_no == 3 and exc.value.path == str(p)
    # rows may come in any order, but a time may not repeat: the later row is named
    write_lines(p, ["t,yaw_deg,pitch_deg,frontal", "0.5,0,0,1", "0.0,0,0,1", "0.5,0,0,1"])
    with pytest.raises(ParseError, match="repeats line 2") as exc:
        load_gaze(p)
    assert exc.value.line_no == 4


def test_gaze_round_trip(tmp_path):
    rows = [(k * 0.1, 47.25, -21.5, k % 2 == 0) for k in range(5)]
    p = tmp_path / "g.csv"
    write_gaze(gaze_trace(rows), p)
    assert gaze_rows(load_gaze(p)) == rows


# --- speakers --------------------------------------------------------------

def test_speakers_round_trip_and_bands(tmp_path):
    p = tmp_path / "s.csv"
    write_speakers([("s1", "AfD", "m"), ("s2", "SPD", "f")], p)
    profiles = load_speakers(p)
    assert profiles["s1"].party == "AfD"
    assert profiles["s1"].gender_range == PITCH_RANGE_BY_GENDER["m"]
    assert profiles["s2"].gender_range == PITCH_RANGE_BY_GENDER["f"]


def test_speakers_errors(tmp_path):
    p = tmp_path / "s.csv"
    write_lines(p, ["speaker_id,party,gender", "s1,AfD,x"])
    with pytest.raises(ParseError, match="gender"):
        load_speakers(p)
    write_lines(p, ["speaker_id,party,gender", "s1,AfD,m", "s1,SPD,f"])
    with pytest.raises(ParseError, match="duplicate"):
        load_speakers(p)
    write_lines(p, ["wrong,header,here", "s1,AfD,m"])
    with pytest.raises(ParseError):
        load_speakers(p)
    with pytest.raises(MissingFile):
        load_speakers(tmp_path / "absent.csv")


# --- loaders against their line-by-line oracles ----------------------------
# Valid files, mutated; each loader must return what its oracle returns, or
# raise the same error type at the same line with the same message.

_CELLS = ["nan", "inf", "-inf", "1_0", "True", "", "1" * 401, " 7 ", "-0.0", "0", "1", "2", "-1",
          "999", "-91", "1e400", "x", "f", "m", "spk0", "0.04"]
_JSON_VALUES = ["NaN", "Infinity", "-Infinity", "true", "false", "null", '""', '"ja"', "1" * 401,
                "-1", "0", "1e400", "0.04", "[]", "{}", '"s1"', "1" * 5000,
                str(2**53 + 1), "9007199254740992.0", '"j\\ud800"']
_NOT_OBJECTS = ["[1, 2]", "3", '"w"', "null", "\ufeff{}", "{", '{"word": "a"} x']
_MERGE = ['{"a": [{}', "{}]}", '{"x": 1}, {"y": 2}']
_mutations = st.lists(
    st.tuples(
        st.sampled_from(["cell"] * 4 + ["copy"] * 2 + ["comma+", "comma-", "blank", "crlf",
                         "swap", "drop", "not_object", "two_objects", "merge", "cut"]),
        st.integers(0, 999), st.integers(0, 999), st.integers(0, 999),
    ),
    max_size=5,
)


def _mutate(lines, mutations, *, json_lines):
    """``lines`` with each ``(op, i, j, k)`` applied; a line is a list of cells or a string.

    A CSV line's cells join with commas; a transcript line is a list of
    ``[key, raw JSON value]`` pairs.
    """
    lines = [list(map(list, line)) if json_lines else list(line) for line in lines]
    for op, i, j, k in mutations:
        if not lines:
            lines.append("")
        i %= len(lines)
        line, other = lines[i], lines[j % len(lines)]
        if op == "blank":
            lines.insert(i, ["", "  ", "\t", "\r"][k % 4])
        elif op == "swap":
            lines[i], lines[j % len(lines)] = other, line
        elif op == "merge" and json_lines:
            lines[i:i] = _MERGE
        elif op == "not_object" and json_lines:
            lines[i] = _NOT_OBJECTS[k % len(_NOT_OBJECTS)]
        elif isinstance(line, str) or not line:
            continue
        elif op == "cell":
            if json_lines:
                line[j % len(line)][1] = _JSON_VALUES[k % len(_JSON_VALUES)]
            else:
                line[j % len(line)] = _CELLS[k % len(_CELLS)]
        elif op == "copy" and other and not isinstance(other, str):  # a repeated time or speaker
            cell = other[j % len(other)]
            line[j % len(line)] = list(cell) if json_lines else cell
        elif op == "drop" and json_lines:
            del line[j % len(line)]
        elif op == "two_objects" and json_lines:
            lines[i] = _render(line, True) + [" ", ", ", ""][k % 3] + _render(line, True)
        else:
            text = _render(line, json_lines)
            if op == "comma+":
                text = text[: k % (len(text) + 1)] + "," + text[k % (len(text) + 1):]
            elif op == "comma-":
                text = text.replace(",", "", 1)
            elif op == "crlf":
                text += "\r"
            elif op == "cut":
                text = text[: k % (len(text) + 1)]
            lines[i] = text
    return "".join(_render(line, json_lines) + "\n" for line in lines)


def _render(line, json_lines):
    if isinstance(line, str):
        return line
    if json_lines:
        return "{" + ", ".join(f'"{key}": {value}' for key, value in line) + "}"
    return ",".join(line)


def _outcome(load, *args):
    """What ``load`` returned, in comparable form, or the type, line and text of its error."""
    try:
        out = load(*args)
    except Exception as e:  # whatever it is, both sides must raise the same
        return type(e), getattr(e, "line_no", None), str(e)
    if hasattr(out, "frontal"):
        return [(c.dtype.str, c.tobytes()) for c in (out.t, out.yaw, out.pitch, out.frontal)]
    if hasattr(out, "payloads"):
        return (out.session_id, out.speaker_id, out.starts.tobytes(), out.ends.tobytes(),
                out.payloads, list(out.ids))
    return repr(out)  # dicts in order, and floats by their repr, -0.0 included


def _valid_lines(kind, n, rng):
    if kind == "transcript":
        edges = np.cumsum(rng.uniform(0.0, 0.5, 2 * n)).tolist()
        return [[["word", json.dumps(f"w{k}")], ["start", repr(edges[2 * k])],
                 ["end", repr(edges[2 * k + 1])], ["speaker_id", '"s1"']] for k in range(n)]
    if kind == "gaze":
        return [[repr(0.04 * k), repr(float(rng.uniform(-180, 180))),
                 repr(float(rng.uniform(-90, 90))), str(k % 2)] for k in range(n)]
    if kind == "speakers":
        return [[f"spk{k}", ["AfD", "SPD"][k % 2], ["m", "f"][k % 2]] for k in range(n)]
    if kind == "counts":
        return [[f"w{k % 3}", repr(float(rng.uniform(0, 5)))] for k in range(n)]
    return [[repr(float(rng.normal())), f"g{k % 2}", repr(float(rng.normal())), str(k)]
            for k in range(n)]


_LOADERS = {
    "transcript": (None, load_transcript, transcript_loop, ()),
    "gaze": ("t,yaw_deg,pitch_deg,frontal", load_gaze, gaze_loop, ()),
    "speakers": ("speaker_id,party,gender", load_speakers, speakers_loop, ()),
    "counts": ("word,count", load_counts, counts_loop, ()),
    "panel": ("y,g,x1,x2", load_panel, panel_loop, ("y", "g")),
}


@pytest.mark.parametrize("kind", sorted(_LOADERS))
@settings(max_examples=150, deadline=None)
@given(n=st.integers(1, 8), seed=st.integers(0, 2**32 - 1), mutations=_mutations)
def test_loaders_match_their_line_by_line_oracles(tmp_path_factory, kind, n, seed, mutations):
    header, load, oracle, args = _LOADERS[kind]
    json_lines = header is None
    text = _mutate(_valid_lines(kind, n, np.random.default_rng(seed)), mutations,
                   json_lines=json_lines)
    p = tmp_path_factory.mktemp(kind) / "in.txt"
    p.write_text(text if json_lines else header + "\n" + text, encoding="utf-8")
    assert _outcome(load, p, *args) == _outcome(oracle, p, *args)


_W = '{"word": %s, "start": %s, "end": %s, "speaker_id": "s1"}'


@pytest.mark.parametrize("kind, body, message", [
    # two failures in one line: the first check in line order stands
    ("gaze", ["0.1,0,0,1", "0.2,999,999,1"], "yaw 999.0"),
    ("gaze", ["-1,999,0,1"], "t must be finite"),
    ("gaze", ["-1,999,x,1"], "bad field"),
    ("gaze", ["x,999,0,7"], "bad field"),
    # the earliest line stands, whichever column fails in the later ones
    ("gaze", ["0.0,0,0,1", "0.1,0,95,1", "0.2,0", "x,0,0,1"], "pitch 95.0"),
    ("gaze", ["0.1,0,0,7", "0.2,0,0"], "frontal must be 0 or 1"),
    ("gaze", ["0.2,0,0,1", "0.1,0,0,1", "0.2,0,0,0", "0.1,0,0,0"], "t=0.1 repeats line 3's time"),
    ("gaze", [f"{(7 * k) % 5}.0,0,0,1" for k in range(1000)], "t=0.0 repeats line 2's time"),
    ("transcript", [_W % ('""', '"a"', "1")], "word must be"),
    ("transcript", [_W % ('"a"', "1e999", "true")], "start/end must be numbers"),
    ("transcript", [_W % ('"a"', "1" * 400, "1")], "bad word interval"),
    ("transcript", [_W % ('"a"', 2**53 + 1, "9007199254740992.0")], "bad word interval"),
    ("transcript", [_W % ('"a"', "0", 2**53 + 1)], None),
    ("transcript", [_W % ('"a"', "0", "1" * 400)], "too large"),
    ("transcript", ['{"word": "a"}', "[1]"], "missing keys ['end', 'speaker_id', 'start']"),
    # joined into one JSON array these lines decode as three objects; line 2 alone is not JSON
    ("transcript", [_W % ('"ok"', "0", "0.4"), *_MERGE], "bad JSON"),
    ("counts", ["a,1", "b,-1", "c,nan"], "count must be >= 0"),
    ("speakers", ["s1,AfD,m", "s2,AfD,x", "s1,AfD,m"], "gender must be"),
    ("speakers", ["s1,AfD,m", "s1,AfD,x"], "gender must be"),
    ("panel", ["1,a,1,1", "2,a,inf,x"], "must be finite"),
    # nested deeper than the recursion limit: json.loads raises RecursionError, not ValueError
    ("transcript", [_W % ('"ok"', "0", "0.4"), "[" * 100_000 + "]" * 100_000], "bad JSON"),
    # a lone surrogate fails its word's line, checked after the word's type and before its times
    ("transcript", [_W % ('"ok"', "0", "0.4"), _W % ('"a\\udfff"', "1", "0"),
                    _W % ('"\\ud800"', "2", "3")], "word 'a\\udfff' holds a lone surrogate"),
    ("transcript", [_W % ('"ok"', "0", "0.4"), _W % ('"ja"', "true", "1"),
                    _W % ('"\\ud800"', "2", "3")], "start/end must be numbers"),
    ("transcript", [_W % ('"\\ud800"', "0", "0.4"), _W % ('7', "1", "2")], "lone surrogate"),
])
def test_loaders_keep_the_line_by_line_error_order(tmp_path, kind, body, message):
    header, load, oracle, args = _LOADERS[kind]
    p = tmp_path / "in.txt"
    write_lines(p, body if header is None else [header, *body])
    got = _outcome(load, p, *args)
    assert got == _outcome(oracle, p, *args)
    assert message is None or message in got[2]


def test_a_leading_byte_order_mark_is_dropped(tmp_path):
    bom = "\ufeff"
    p = tmp_path / "s.csv"
    p.write_text(bom + "speaker_id,party,gender\ns1,AfD,m\n", encoding="utf-8")
    assert load_speakers(p)["s1"].party == "AfD"
    p.write_text(bom + word_line("ja", 0.0, 0.4) + "\n", encoding="utf-8")
    assert load_transcript(p).payloads == ("ja",)
    # only one, and only at the start of the file
    p.write_text(bom + bom + "speaker_id,party,gender\n", encoding="utf-8")
    with pytest.raises(ParseError, match="expected header"):
        load_speakers(p)
    p.write_text(word_line("ja", 0.0, 0.4) + "\n" + bom + word_line("nein", 0.4, 0.8) + "\n",
                 encoding="utf-8")
    with pytest.raises(ParseError, match="BOM") as exc:
        load_transcript(p)
    assert exc.value.line_no == 2


def test_an_index_of_files_with_byte_order_marks_equals_the_plain_one(tmp_path):
    manifest_path = synth_corpus(SynthSpec(seed=3, speakers=2, words_per_speech=20,
                                           sample_rate=8000), tmp_path / "raw")
    raw = manifest_path.parent
    manifest = json.loads(manifest_path.read_text(encoding="utf-8"))

    def with_bom(name):  # a copy of the corpus file ``name`` that starts with a BOM
        (raw / ("bom_" + name)).parent.mkdir(parents=True, exist_ok=True)
        (raw / ("bom_" + name)).write_bytes(b"\xef\xbb\xbf" + (raw / name).read_bytes())
        return "bom_" + name

    manifest["speakers"] = with_bom(manifest["speakers"])
    for session in manifest["sessions"]:
        for key in ("gaze", "transcript"):
            session[key] = with_bom(session[key])
    (raw / "bom_manifest.json").write_bytes(b"\xef\xbb\xbf" + json.dumps(manifest).encode())
    plain = build_index(manifest_path, tmp_path / "plain.idx")
    marked = build_index(raw / "bom_manifest.json", tmp_path / "marked.idx")
    files = sorted(f.relative_to(plain) for f in plain.rglob("*") if f.is_file())
    assert files == sorted(f.relative_to(marked) for f in marked.rglob("*") if f.is_file())
    for name in files:
        assert (marked / name).read_bytes() == (plain / name).read_bytes(), name


# --- CSV output ------------------------------------------------------------

_ODD_FLOATS = [float("nan"), float("inf"), float("-inf"), -0.0, 0.0, 5e-324, 0.1 + 0.2, 1e308]
_floats = st.one_of(st.floats(), st.sampled_from(_ODD_FLOATS))
_quoted = st.sampled_from(["a,b", 'say "ja"', "line\nbreak", "cr\r", "", "plain", "\u00e4"])
_any_cell = st.one_of(
    _floats, st.integers(), st.booleans(), st.none(), _floats.map(np.float64), _quoted, st.text(),
)
_column = st.sampled_from([_floats, st.integers(), _any_cell])


@settings(max_examples=200, deadline=None)
@given(data=st.data(), width=st.integers(1, 4), n=st.integers(0, 12))
def test_csv_bytes_equal_one_fmt_call_per_cell(tmp_path_factory, data, width, n):
    kinds = [data.draw(_column) for _ in range(width)]
    columns = [data.draw(st.lists(kind, min_size=n, max_size=n)) for kind in kinds]
    rows = list(zip(*columns))
    p = tmp_path_factory.mktemp("csv") / "out.csv"
    write_csv(p, "h", iter(rows))
    assert p.read_bytes() == csv_text("h", rows).encode("utf-8")


def test_csv_writes_numpy_floats_as_python_floats(tmp_path):
    # numpy 2 spells np.float64(0.1) with its type; the oracle above shares _fmt, so check bytes
    write_csv(tmp_path / "np.csv", "a,b", [(np.float64(0.1), 1.0), (1.0, np.float64(-0.0))])
    assert (tmp_path / "np.csv").read_bytes() == b"a,b\n0.1,1.0\n1.0,-0.0\n"


def test_csv_rows_of_unequal_length_are_refused(tmp_path):
    for rows in ([(1, 2), (3,)], [(1,), (2, 3)]):
        with pytest.raises(ValueError):
            write_csv(tmp_path / "ragged.csv", "a,b", rows)
    assert not (tmp_path / "ragged.csv").exists()


# --- audio -----------------------------------------------------------------

def write_pcm16(path, samples, rate=16000) -> None:
    """A mono WAV of float ``samples`` at ``rate`` Hz, quantized by the rule written audio keeps."""
    block = np.array(samples, dtype=np.float64)
    pcm = np.empty(block.size, np.int16)
    quantize_pcm16(block, pcm)
    with pcm16_wav(path, rate, pcm.size) as write:
        write(pcm)


def test_wav_round_trip(tmp_path):
    rng = np.random.default_rng(41)
    samples = rng.uniform(-0.9, 0.9, size=4000)
    p = tmp_path / "a.wav"
    write_pcm16(p, samples)
    buf = read_wav(p)
    assert buf.sample_rate == 16000
    assert len(buf) == 4000
    assert np.max(np.abs(buf.span(0, 4000) - samples)) <= 0.5 / 32768 + 1e-12


def test_wav_clips_out_of_range(tmp_path):
    p = tmp_path / "a.wav"
    write_pcm16(p, [1.5, -1.5])
    buf = read_wav(p)
    assert buf.span(0, 2).tolist() == [32767 / 32768, -1.0]


def wav_frames(path):
    with wave.open(str(path)) as wf:
        return np.frombuffer(wf.readframes(wf.getnframes()), dtype="<i2")


# ±1 and ±1.5 full scale, ties at ±0.5, ±1.5 and 2.5 LSB, the ties just past
# the int16 range, ±0, and values far out of range
_PCM_EDGES = np.array([1.0, -1.0, 1.5, -1.5, 0.5, -0.5, 1.5, -1.5, 2.5, 32767.5, -32768.5,
                       0.0, -0.0, 1e9, -1e9, np.inf, -np.inf])
_PCM_EDGES[4:11] /= 32768.0


@pytest.mark.parametrize("n", [0, 1, AUDIO_BLOCK_SAMPLES - 1, AUDIO_BLOCK_SAMPLES,
                               AUDIO_BLOCK_SAMPLES + 1, 2 * AUDIO_BLOCK_SAMPLES + 1])
def test_wav_blocks_quantize_as_one_array(tmp_path, n):
    # blocks quantized and written one at a time, as synth writes audio, make the file that
    # quantizing the whole array at once makes
    rng = np.random.default_rng(n)
    samples = rng.uniform(-1.2, 1.2, n)
    for at in (0, AUDIO_BLOCK_SAMPLES - 8, 2 * AUDIO_BLOCK_SAMPLES - 8, n - len(_PCM_EDGES)):
        if 0 <= at and at + len(_PCM_EDGES) <= n:  # at both ends, and across each block seam
            samples[at : at + len(_PCM_EDGES)] = _PCM_EDGES
    p = tmp_path / "q.wav"
    pcm = np.empty(AUDIO_BLOCK_SAMPLES, np.int16)
    with pcm16_wav(p, 16000, n) as write:
        for lo in range(0, n, AUDIO_BLOCK_SAMPLES):
            block = samples[lo : lo + AUDIO_BLOCK_SAMPLES].copy()
            quantize_pcm16(block, pcm[: block.size])
            write(pcm[: block.size])
    np.testing.assert_array_equal(wav_frames(p), pcm16(samples))
    with wave.open(str(p)) as wf:
        assert wf.getnframes() == n


def test_wav_edge_values_and_inputs(tmp_path):
    want = [32767, -32768, 32767, -32768, 0, 0, 2, -2, 2, 32767, -32768,
            0, 0, 32767, -32768, 32767, -32768]
    out = np.empty(_PCM_EDGES.size, np.int16)
    quantize_pcm16(_PCM_EDGES.copy(), out)
    assert out.tolist() == want == pcm16(_PCM_EDGES).tolist()
    p = tmp_path / "e.wav"
    write_pcm16(p, _PCM_EDGES)
    assert wav_frames(p).tolist() == want


def test_wav_refuses_rates_its_header_cannot_hold(tmp_path):
    p = tmp_path / "r.wav"
    for rate in (0, -8000, 2**31, 2**32, float("nan")):
        with pytest.raises(ValidationError, match="sample rate"):
            with pcm16_wav(p, rate, 4):
                pass
        assert not p.exists()
    for rate in (1, 4000, 2**31 - 1):  # rates below 8000 Hz stay writable; read_wav refuses them
        write_pcm16(p, np.zeros(4), rate)
        with wave.open(str(p)) as wf:
            assert wf.getframerate() == rate


def test_wav_stereo_averaged(tmp_path):
    p = tmp_path / "st.wav"
    left = np.array([8192, 0, -8192], dtype="<i2")
    right = np.array([0, 8192, 8192], dtype="<i2")
    inter = np.empty(6, dtype="<i2")
    inter[0::2], inter[1::2] = left, right
    with wave.open(str(p), "wb") as wf:
        wf.setnchannels(2)
        wf.setsampwidth(2)
        wf.setframerate(16000)
        wf.writeframes(inter.tobytes())
    buf = read_wav(p)
    assert np.allclose(buf.span(0, 3), [0.125, 0.125, 0.0])


def _riff(channels: int, rate: int, pcm: bytes, before_data: bytes = b"") -> bytes:
    """A 16-bit PCM WAV file's bytes, with any chunks given between its format and its samples."""
    fmt = struct.pack("<HHIIHH", 1, channels, rate, 2 * channels * rate, 2 * channels, 16)
    body = b"WAVE" + b"fmt " + struct.pack("<I", len(fmt)) + fmt + before_data
    body += b"data" + struct.pack("<I", len(pcm)) + pcm
    return b"RIFF" + struct.pack("<I", len(body)) + body


@pytest.mark.parametrize("channels", [1, 2])
def test_wav_spans_match_the_whole_file_decode(tmp_path, channels):
    # any span, read on its own, holds the bits the whole file decoded at once gives;
    # an odd-sized chunk before the samples moves where they start
    rng = np.random.default_rng(channels)
    pcm = rng.integers(-32768, 32768, size=(5000, channels)).astype("<i2")
    pcm[:3] = [[-32768], [32767], [-1]]
    p = tmp_path / "s.wav"
    p.write_bytes(_riff(channels, 16000, pcm.tobytes(), b"LIST" + struct.pack("<I", 5) + b"notes\0"))
    whole = np.frombuffer(pcm.tobytes(), dtype="<i2").astype(np.float64) / 32768.0
    whole = whole.reshape(-1, channels).mean(axis=1)  # the whole-file decode read_wav used to do
    with read_wav(p) as src:
        assert (len(src), src.sample_rate) == (5000, 16000)
        for lo, hi in ((0, 5000), (0, 1), (4999, 5000), (1234, 3210), (7, 7)):
            assert src.span(lo, hi).tobytes() == whole[lo:hi].tobytes()
        with pytest.raises(ValueError):
            src.span(4000, 5001)  # past the samples: the bytes after them are not audio
    with pytest.raises(ValueError, match="closed"):
        src.span(0, 1)


def test_wav_cut_after_opening_is_a_parse_error(tmp_path, monkeypatch):
    # read_wav checks the length once; a span the file no longer holds is a ParseError,
    # for a caller reading spans and for the tracker's lanes alike
    monkeypatch.setattr(pitch, "CHUNK_FRAMES", 4)  # seven chunks of a second at 2048/512
    p = tmp_path / "cut.wav"
    t = np.arange(16000) / 16000
    write_pcm16(p, 0.3 * np.sin(2 * np.pi * 180.0 * t))
    for threads in (1, 2):
        with read_wav(p) as src:
            src.span(15000, 16000)
            os.truncate(p, p.stat().st_size - 2001)  # cuts frame 14999 in half
            assert len(src.span(0, 14999)) == 14999  # the frames before the cut still read
            with pytest.raises(ParseError, match="cut short"):
                src.span(14990, 15000)
            with pytest.raises(ParseError, match="cut short"):
                estimate_pitch_track(src, PITCH_RANGE_BY_GENDER["m"], PitchSettings(threads=threads))
        write_pcm16(p, 0.3 * np.sin(2 * np.pi * 180.0 * t))


def test_wav_rejects_other_encodings(tmp_path):
    p = tmp_path / "b.wav"
    with wave.open(str(p), "wb") as wf:
        wf.setnchannels(1)
        wf.setsampwidth(1)  # 8-bit
        wf.setframerate(16000)
        wf.writeframes(b"\x00\x01\x02")
    with pytest.raises(ParseError, match="16-bit"):
        read_wav(p)
    garbage = tmp_path / "g.wav"
    garbage.write_bytes(b"RIFFnope")
    with pytest.raises(ParseError):
        read_wav(garbage)
    garbage.write_bytes(p.read_bytes()[:30])  # cut inside the format chunk
    with pytest.raises(ParseError, match="cut short"):
        read_wav(garbage)
    with pytest.raises(MissingFile):
        read_wav(tmp_path / "absent.wav")
    for rate, samples in ((16000, 0), (4000, 100)):  # no frames; a rate below 8000 Hz
        write_pcm16(p, np.zeros(samples), rate)
        with pytest.raises(ParseError) as exc:
            read_wav(p)
        assert exc.value.path == str(p)


# --- manifest and index ----------------------------------------------------

def tiny_corpus(root, sessions=("sessA", "sessB")):
    root.mkdir(parents=True, exist_ok=True)
    write_speakers([("s1", "AfD", "m")], root / "speakers.csv")
    rows = []
    for sid in sessions:
        write_lines(root / f"{sid}.jsonl", [word_line("hallo", 0.0, 0.5), word_line("welt", 0.5, 1.0)])
        write_pcm16(root / f"{sid}.wav", np.zeros(16000))
        write_gaze(gaze_trace([(0.0, 50.0, 0.0, True)]), root / f"{sid}.csv")
        rows.append(
            {
                "session_id": sid,
                "speaker_id": "s1",
                "transcript": f"{sid}.jsonl",
                "audio": f"{sid}.wav",
                "gaze": f"{sid}.csv",
            }
        )
    doc = {"format_version": 1, "speakers": "speakers.csv", "sessions": rows}
    (root / "manifest.json").write_text(json.dumps(doc), encoding="utf-8")
    return root / "manifest.json"


def tree_bytes(root):
    return {
        str(p.relative_to(root)): p.read_bytes() for p in sorted(Path(root).rglob("*")) if p.is_file()
    }


def test_build_index_layout_and_round_trip(tmp_path):
    manifest = tiny_corpus(tmp_path / "raw")
    out = build_index(manifest, tmp_path / "idx")
    names = {p.name for p in out.rglob("*") if p.is_file()}
    assert names == {"manifest.json", "speakers.csv", "sessA.session", "sessB.session"}
    doc = json.loads((out / "manifest.json").read_text())
    assert doc["format_version"] == 8
    assert doc["sessions"][0] == {"session_id": "sessA", "speaker_id": "s1", "audio": "../raw/sessA.wav"}
    assert (out / "speakers.csv").read_bytes() == (tmp_path / "raw" / "speakers.csv").read_bytes()
    # each distinct word once, a code per word and no ids; a word's id is its position
    session = (out / "sessions" / "sessA.session").read_bytes()
    assert session == session_file(words=[(0.0, 0.5, 0), (0.5, 1.0, 1)],
                                   gaze=[(0.0, 50.0, 0.0, 1)], vocab=["hallo", "welt"])
    assert session.startswith(b'{"gaze":1,"vocab":["hallo","welt"],"words":2}     ')
    # the header line padded to 64 bytes, then 2 words and 1 gaze sample: 2 + 2 + 1 + 1 + 1
    # doubles, 2 codes and 1 flag
    assert session.index(b"\n") == 63 and len(session) == 64 + 7 * 8 + 2 * 4 + 1
    index = CorpusIndex(out)
    assert index.session_ids() == ["sessA", "sessB"]
    data = index.load_session("sessA")
    fresh = load_transcript(tmp_path / "raw" / "sessA.jsonl", session_id="sessA")
    assert list(data.words) == list(fresh)
    assert gaze_rows(data.gaze) == gaze_rows(load_gaze(tmp_path / "raw" / "sessA.csv"))
    # the gaze columns are copied out of the read, which is not kept
    assert all(column.base is None or column.base.base is None
               for column in (data.gaze.t, data.gaze.yaw, data.gaze.pitch, data.gaze.frontal))
    assert data.audio_path.is_file()
    assert index.speakers()["s1"].party == "AfD"
    with pytest.raises(ValidationError):
        index.load_session("nope")


def test_index_rebuild_is_byte_identical(tmp_path):
    manifest = tiny_corpus(tmp_path / "raw")
    a = build_index(manifest, tmp_path / "idx_a")
    b = build_index(manifest, tmp_path / "idx_b")
    assert tree_bytes(a) == tree_bytes(b)
    # rebuilding over an existing index replaces it cleanly
    again = build_index(manifest, tmp_path / "idx_a")
    assert tree_bytes(again) == tree_bytes(b)


def test_ingest_replaces_only_an_index_or_an_empty_directory(tmp_path, capsys):
    manifest = tiny_corpus(tmp_path / "raw")

    def ingest(out):
        rc = main(["ingest", "--manifest", str(manifest), "--out", str(out)])
        return rc, capsys.readouterr().err

    user = tmp_path / "user"
    (user / "sub").mkdir(parents=True)
    (user / "notes.txt").write_text("keep me\n")
    (user / "sub" / "data.bin").write_bytes(b"\x00\x01")
    (tmp_path / "file.txt").write_text("keep me too\n")
    # a corpus whose rows hold only the keys of an index row
    bare = tmp_path / "bare"
    bare.mkdir()
    doc = json.loads(manifest.read_text())
    doc["sessions"] = [{k: row[k] for k in ("session_id", "speaker_id", "audio")}
                       for row in doc["sessions"]]
    (bare / "manifest.json").write_text(json.dumps(doc))
    shutil.copyfile(tmp_path / "raw" / "speakers.csv", bare / "speakers.csv")
    before = tree_bytes(tmp_path)
    for out in (user, tmp_path / "file.txt", tmp_path / "raw", bare, user / "notes.txt" / "idx"):
        rc, err = ingest(out)
        assert rc == 2, out
        assert len(err.splitlines()) == 1 and err.startswith("ValidationError: ")
        assert str(out) in err
    assert tree_bytes(tmp_path) == before  # the corpus included, nothing touched or added

    empty = tmp_path / "empty"
    empty.mkdir()
    assert ingest(empty) == (0, "")
    fresh = tree_bytes(empty)
    doc = json.loads((empty / "manifest.json").read_text())
    # older layouts keep a speakers.json (1-3) and name each session's files in its row: rows
    # of 1 and 2 name only a blob, rows of 3 and 4 also tables; 5 stores word ids in its blobs;
    # up to 6 blobs hold every word, and word tables have no code column; 3 to 7 keep a blob
    # and two .npy tables per session, 1 and 2 the blob alone
    old = {"blob": ".json", "words": ".words.npy", "gaze": ".gaze.npy"}
    words = ["hallo", "welt"]  # each session of tiny_corpus
    word_fields = [("start", "<f8"), ("end", "<f8"), ("code", "<u4")]
    gaze_fields = [("t", "<f8"), ("yaw", "<f8"), ("pitch", "<f8"), ("frontal", "u1")]
    for version, keys in ((1, ["blob"]), (2, ["blob"]), (3, old), (4, old), (5, []), (6, []),
                          (7, [])):
        rows = [row | {k: f"sessions/{row['session_id']}{old[k]}" for k in keys}
                for row in doc["sessions"]]
        (empty / "manifest.json").write_text(json.dumps({"format_version": version, "sessions": rows}))
        for row in doc["sessions"]:
            files = empty / "sessions" / row["session_id"]
            files.with_suffix(".session").unlink()
            ids = {"id": [word_element_id(k) for k in range(len(words))]} if version < 6 else {}
            blob = {"vocab": words} if version == 7 else {**ids, "word": words}
            files.with_suffix(".json").write_text(json.dumps(blob))
            if version >= 3:
                fields = word_fields if version == 7 else word_fields[:2]
                np.save(files.with_suffix(".words.npy"), np.zeros(len(words), fields))
                np.save(files.with_suffix(".gaze.npy"), np.zeros(1, gaze_fields))
        if version < 4:
            (empty / "speakers.csv").unlink()
            (empty / "speakers.json").write_text('{"s1": {"party": "AfD", "floor": 75, "ceiling": 300}}')
        with pytest.raises(VersionMismatch):
            CorpusIndex(empty)
        assert ingest(empty) == (0, "")
        assert tree_bytes(empty) == fresh


def test_manifest_missing_audio(tmp_path):
    manifest = tiny_corpus(tmp_path / "raw")
    (tmp_path / "raw" / "sessB.wav").unlink()
    with pytest.raises(MissingFile, match="sessB.wav"):
        load_manifest(manifest)


def test_manifest_validation(tmp_path):
    root = tmp_path / "raw"
    manifest = tiny_corpus(root)
    doc = json.loads(manifest.read_text())
    doc["format_version"] = 99
    manifest.write_text(json.dumps(doc))
    with pytest.raises(VersionMismatch):
        load_manifest(manifest)
    doc["format_version"] = 1
    doc["sessions"].append(dict(doc["sessions"][0]))  # duplicate id
    manifest.write_text(json.dumps(doc))
    with pytest.raises(ParseError, match="duplicate"):
        load_manifest(manifest)
    doc["sessions"] = []
    manifest.write_text(json.dumps(doc))
    with pytest.raises(ParseError, match="no sessions"):
        load_manifest(manifest)
    manifest.write_bytes(b'{"format_version": 1, "speakers": "\xff"}')
    with pytest.raises(ParseError, match=r"manifest\.json:1: not UTF-8 text"):
        load_manifest(manifest)
    manifest.write_text(json.dumps({"format_version": 1, "sessions": []}))
    with pytest.raises(ParseError, match="'speakers'"):
        load_manifest(manifest)


@pytest.mark.parametrize(
    "field, value, message",
    [
        ("session_id", 5, "must be strings"),
        ("speaker_id", None, "must be strings"),
        ("session_id", "", "not a plain file name"),
        ("session_id", ".", "not a plain file name"),
        ("session_id", "..", "not a plain file name"),
        ("session_id", "../../../escaped", "not a plain file name"),
        ("session_id", "a\\b", "not a plain file name"),
        ("session_id", "a\0b", "not a plain file name"),
        ("speaker_id", "nobody", r"speakers not in .*speakers\.csv: \['nobody'\]"),
    ],
)
def test_manifest_ids_are_checked_before_anything_is_written(tmp_path, field, value, message):
    manifest = tiny_corpus(tmp_path / "raw")
    doc = json.loads(manifest.read_text())
    doc["sessions"][1][field] = value
    manifest.write_text(json.dumps(doc))
    before = tree_bytes(tmp_path)
    with pytest.raises(ParseError, match=message) as info:
        build_index(manifest, tmp_path / "out" / "idx")
    assert info.value.path == str(manifest)
    assert tree_bytes(tmp_path) == before and not (tmp_path / "out").exists()


@pytest.mark.parametrize("speakers", [("s2", "s2"), ("s1", "s2")], ids=["other", "mixed"])
def test_transcript_speakers_must_be_the_rows(tmp_path, speakers):
    manifest = tiny_corpus(tmp_path / "raw")
    transcript = tmp_path / "raw" / "sessB.jsonl"
    write_lines(transcript, [word_line("hallo", 0.0, 0.5, speakers[0]),
                             word_line("welt", 0.5, 1.0, speakers[1])])
    with pytest.raises(ParseError, match="speaker_id must be the manifest's 's1'") as info:
        build_index(manifest, tmp_path / "idx")
    assert info.value.path == str(transcript) and not (tmp_path / "idx").exists()


def test_index_rows_and_speakers_are_checked(tmp_path):
    out = build_index(tiny_corpus(tmp_path / "raw"), tmp_path / "idx")
    doc = json.loads((out / "manifest.json").read_text())
    keys = ("session_id", "speaker_id", "audio")
    cases = (
        [(k, 3, "all strings") for k in keys]
        + [("blob", "sessions/sessA.json", "all strings"), ("session_id", "sessA", "repeated")]
        + [("session_id", sid, "not a plain file name")
           for sid in ("..", "../sessA", "/etc/hostname", "", "a\\b")]
    )
    for key, value, message in cases:
        bad = json.loads(json.dumps(doc))
        bad["sessions"][1][key] = value
        (out / "manifest.json").write_text(json.dumps(bad))
        with pytest.raises(ParseError, match=message) as info:
            CorpusIndex(out)
        assert info.value.path == str(out / "manifest.json")
    (out / "manifest.json").write_text(json.dumps(doc))
    speakers = out / "speakers.csv"
    for text, message in [("speaker_id,party,gender\ns1,AfD,x\n", "gender must be one of"),
                          ("speaker_id,party,gender\ns2,AfD,m\n", r"speakers \['s1'\]")]:
        speakers.write_text(text)
        with pytest.raises(ParseError, match=message) as info:
            CorpusIndex(out).speakers()
        assert info.value.path == str(speakers)


def test_damaged_session_tables_name_table_and_session(tmp_path):
    # session files that pass the format checks but break a stream or trace rule
    out = build_index(tiny_corpus(tmp_path / "raw"), tmp_path / "idx")
    path = out / "sessions" / "sessA.session"
    good = path.read_bytes()
    vocab, words, gaze = ["hallo", "welt"], _TWO_ROWS, [(0.0, 50.0, 0.0, 1)]
    nan, inf = float("nan"), float("inf")
    for damaged, message in [
        (session_file([(-5.0, 0.5, 0), words[1]], gaze, vocab), "words: bad interval"),
        (session_file([words[0], (nan, 1.0, 1)], gaze, vocab), r"words: bad interval \[nan"),
        (session_file([words[0], (0.25, 1.0, 1)], gaze, vocab), "words: words"),
        (session_file(words, gaze * 2, vocab), "gaze: sample"),
        (session_file(words, [(inf, 50.0, 0.0, 1)], vocab), "gaze: sample 0 at t=inf"),
        # the angle bounds of a gaze CSV hold in an index too
        (session_file(words, [(0.0, 999.0, 0.0, 1)], vocab),
         r"column 'yaw' holds 999.0, outside \[-180, 180\]"),
        (session_file(words, [(0.0, 50.0, -91.0, 1)], vocab),
         r"column 'pitch' holds -91.0, outside \[-90, 90\]"),
        (session_file(words, [(0.0, 50.0, 0.0, 1), (0.125, nan, 0.0, 1)], vocab),
         "column 'yaw' holds nan"),
    ]:
        path.write_bytes(damaged)
        with pytest.raises(ParseError, match="session 'sessA': " + message) as info:
            CorpusIndex(out).load_session("sessA")
        assert info.value.path == str(path)
    path.write_bytes(good)
    assert len(CorpusIndex(out).load_session("sessA").words) == 2


_TWO_ROWS = [(0.0, 0.5, 0), (0.5, 1.0, 1)]
_HALLO_WELT = ["hallo", "welt"]
_SHAPE = "header must hold exactly the counts"


@pytest.mark.parametrize(
    "vocab, rows, header, message",
    [
        ([], [], None, "words: stream .* has no elements"),
        (_HALLO_WELT, _TWO_ROWS + [(1.0, 1.5, 2)], None, "code 2 .* outside its vocab of 2"),
        (["hallo"], _TWO_ROWS, None, "code 1 .* outside its vocab of 1"),
        (["hallo", None], _TWO_ROWS, None, "must be strings"),
        (["hallo", 7], _TWO_ROWS, None, "must be strings"),
        (_HALLO_WELT, [(0.0, 0.5, 0), (0.5, 1.0, 2**32 - 1)], None, "code 4294967295 "),
        (["hallo", "hallo"], _TWO_ROWS, None, "holds 'hallo' twice"),
        (_HALLO_WELT, _TWO_ROWS, {"word": _HALLO_WELT}, _SHAPE),
        (_HALLO_WELT, _TWO_ROWS, {"vocab": DROP, "word": _HALLO_WELT}, _SHAPE),
        (_HALLO_WELT, [(0.0, 0.5), (0.5, 1.0)], None,
         "holds 57 bytes after its header, 2 words and 1 gaze samples need 65"),
        (["hallo", "welt", "tschuess"], _TWO_ROWS, None,
         "vocab entry 'tschuess' of session 'sessA' is unused"),
        (_HALLO_WELT, [(0.0, 0.5, 1), (0.5, 1.0, 0)], None, "lists 'hallo' before 'welt'"),
    ],
    ids=["empty-session", "table-row-extra", "word-missing", "word-null", "word-number",
         "code-past-vocab", "vocab-repeats", "blob-leftover-word", "blob-without-vocab",
         "table-without-code", "vocab-unused-entry", "vocab-out-of-order"],
)
def test_damaged_word_columns_name_session_and_files(tmp_path, vocab, rows, header, message):
    out = build_index(tiny_corpus(tmp_path / "raw"), tmp_path / "idx")
    path = out / "sessions" / "sessA.session"
    path.write_bytes(session_file(rows, [(0.0, 50.0, 0.0, 1)], vocab, header))
    with pytest.raises(ParseError, match=message) as info:
        CorpusIndex(out).load_session("sessA")
    assert info.value.path == str(path) and "session 'sessA': " in str(info.value)


@pytest.mark.parametrize(
    "header",
    [
        {"gaze": 1, "id": ["w000000", "w000001"], "vocab": ["hallo", "welt"], "words": 2},
        {"gaze": 1, "id": "ab", "vocab": ["hallo", "welt"], "words": 2},
        {"gaze": 1, "word": ["hallo", "welt"], "words": 2},  # format 6's blob key
        {"gaze": 1, "vocab": "hallo welt", "words": 2},
        {"gaze": 1, "vocab": {"0": "hallo", "1": "welt"}, "words": 2},
        ["hallo", "welt"],
    ],
    ids=["leftover-id", "leftover-id-string", "other-key", "word-string", "word-object",
         "blob-list"],
)
def test_blob_other_than_one_word_list_names_the_blob(tmp_path, header):
    # the header line of a session file takes the place of format 7's word blob
    out = build_index(tiny_corpus(tmp_path / "raw"), tmp_path / "idx")
    path = out / "sessions" / "sessA.session"
    data = path.read_bytes()
    path.write_bytes(json.dumps(header).encode() + data[data.index(b"\n") :])
    with pytest.raises(ParseError, match=_SHAPE) as info:
        CorpusIndex(out).load_session("sessA")
    assert info.value.path == str(path) and info.value.line_no == 1


def test_index_version_gate(tmp_path):
    manifest = tiny_corpus(tmp_path / "raw")
    out = build_index(manifest, tmp_path / "idx")
    doc = json.loads((out / "manifest.json").read_text())
    # 1: rows of objects, 2: JSON columns, 3: speakers.json, 4: file names in rows, 5: word
    # ids in blobs, 6: every word in blobs, 7: three files per session; all must be rebuilt,
    # and so must a later version
    for version in (1, 2, 3, 4, 5, 6, 7, 9):
        doc["format_version"] = version
        (out / "manifest.json").write_text(json.dumps(doc))
        with pytest.raises(VersionMismatch, match="rebuild it with `modalign ingest`"):
            CorpusIndex(out)
    with pytest.raises(MissingFile):
        CorpusIndex(tmp_path / "not_an_index")



def test_session_load_memory_is_columnar(tmp_path):
    # One 4000-word session with 12000 gaze samples.  Loaded from binary
    # tables and segmented on arrays, the peak is 1.2 MB; decoding the same
    # numbers from JSON columns peaked at 2.8 MB, and one object per word
    # and per sample at 6.8 MB.
    spec = SynthSpec(seed=1, speakers=1, words_per_speech=4000, sample_rate=8000)
    root = build_index(synth_corpus(spec, tmp_path / "raw"), tmp_path / "idx")
    tracemalloc.start()
    try:
        segments = session_segments(CorpusIndex(root), RunConfig())
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert segments["sess000"]
    assert peak < 1_600_000, f"peak {peak / 1e6:.2f} MB"


@settings(max_examples=60, deadline=None)
@given(
    words=st.lists(st.tuples(_words, st.integers(0, 2), st.integers(0, 1)), min_size=1,
                   max_size=10),
    data=st.data(),
)
def test_index_words_equal_the_transcript_with_positional_ids(tmp_path_factory, words, data):
    # Each word lasts 0 to 2 quarter-seconds after an optional gap, so zero-length words tie
    # with each other and with the start of the next word.
    starts, ends, cursor = [], [], 0.0
    for _, quarters, gap in words:
        starts.append(cursor + 0.25 * gap)
        cursor = starts[-1] + 0.25 * quarters
        ends.append(cursor)
    stream = text_stream_or_refusal("sessA", starts, ends, [w for w, _, _ in words], "s1")
    if stream is None:
        return
    root = tmp_path_factory.mktemp("rt") / "raw"
    tiny_corpus(root, sessions=("sessA",))
    transcript = root / "sessA.jsonl"
    write_transcript(stream, transcript)
    lines = transcript.read_text(encoding="utf-8").split("\n")[:-1]
    write_lines(transcript, data.draw(st.permutations(lines)))

    fresh = load_transcript(transcript, session_id="sessA")
    index = CorpusIndex(build_index(root / "manifest.json", root.parent / "idx"))
    loaded = index.load_session("sessA").words
    assert list(loaded) == list(fresh)  # element for element, ids included
    assert loaded.ids == tuple(word_element_id(k) for k in range(len(words)))
    spans = list(zip(loaded.starts.tolist(), loaded.ends.tolist()))
    assert spans == sorted(spans)


def test_index_numbers_round_trip_bit_for_bit(tmp_path):
    # Values whose shortest decimal needs 17 significant digits, the smallest
    # subnormal and a near-maximal double come back with the ingested bits.
    root = tmp_path / "raw"
    tiny_corpus(root, sessions=("sessA",))
    starts = [5e-324, 0.1 + 0.2, 0.7, 1e308]
    ends = [1e-2 / 3, 0.7, 1.0000000000000002, 1e308]
    write_lines(root / "sessA.jsonl", [word_line(f"w{k}", a, b)
                                       for k, (a, b) in enumerate(zip(starts, ends))])
    t = [5e-324, 0.1 + 0.2, 2.0 / 3.0, 1e308]
    yaw = [179.99999999999997, -0.1 - 0.2, 5e-324, 1 / 3]
    pitch = [-89.99999999999999, 0.30000000000000004, -5e-324, 2 / 7]
    write_gaze(gaze_trace([(*row, k % 2) for k, row in enumerate(zip(t, yaw, pitch))]),
               root / "sessA.csv")
    fresh_words = load_transcript(root / "sessA.jsonl", session_id="sessA")
    fresh_gaze = load_gaze(root / "sessA.csv")

    data = CorpusIndex(build_index(root / "manifest.json", tmp_path / "idx")).load_session("sessA")
    for got, want in [(data.words.starts, fresh_words.starts), (data.words.ends, fresh_words.ends),
                      (data.gaze.t, fresh_gaze.t), (data.gaze.yaw, fresh_gaze.yaw),
                      (data.gaze.pitch, fresh_gaze.pitch)]:
        assert got.tobytes() == want.tobytes()
    assert data.gaze.frontal.tolist() == [False, True, False, True]
    assert data.words.starts.tolist() == starts and data.words.ends.tolist() == ends
    assert data.gaze.t.tolist() == t


_GAZE_ROWS = st.lists(
    st.tuples(st.floats(0.0, 1e6), st.floats(-180.0, 180.0), st.floats(-90.0, 90.0),
              st.booleans()),
    max_size=30, unique_by=lambda row: row[0],
)


@settings(max_examples=40, deadline=None)
@given(
    words=st.lists(st.tuples(_words, st.integers(0, 2), st.integers(0, 1)), min_size=1,
                   max_size=30),
    wide=st.booleans(),
    gaze=_GAZE_ROWS,
)
@example(words=[("ja", 1, 0)], wide=False, gaze=[])
def test_sessions_round_trip_through_the_index_bit_for_bit(tmp_path_factory, words, wide, gaze):
    # Words of 0 to 2 quarter-seconds after an optional gap, so some tie; ``wide`` adds 1500
    # more, each a distinct non-ASCII word, for a vocab of over 1500 entries.
    starts, ends, cursor = [], [], 0.0
    for _, quarters, gap in words:
        starts.append(cursor + 0.25 * gap)
        cursor = starts[-1] + 0.25 * quarters
        ends.append(cursor)
    tokens = [w for w, _, _ in words]
    if wide:
        starts += [cursor + k for k in range(1500)]
        ends += [cursor + k + 0.5 for k in range(1500)]
        tokens += [f"wört{k}" for k in range(1500)]
    stream = text_stream_or_refusal("sessA", starts, ends, tokens, speaker_id="s1")
    if stream is None:
        return
    trace = gaze_trace(sorted(gaze))
    root = tmp_path_factory.mktemp("rt") / "raw"
    tiny_corpus(root, sessions=("sessA",))
    write_transcript(stream, root / "sessA.jsonl")
    write_gaze(trace, root / "sessA.csv")

    words_in = load_transcript(root / "sessA.jsonl", session_id="sessA")
    gaze_in = load_gaze(root / "sessA.csv")

    index = CorpusIndex(build_index(root / "manifest.json", root.parent / "idx"))
    data = index.load_session("sessA")
    assert data.words.vocab == words_in.vocab == stream.vocab and data.words.speaker_id == "s1"
    for got, want in [(data.words.starts, words_in.starts), (data.words.ends, words_in.ends),
                      (data.words.codes, words_in.codes), (data.gaze.t, gaze_in.t),
                      (data.gaze.yaw, gaze_in.yaw), (data.gaze.pitch, gaze_in.pitch),
                      (data.gaze.frontal, gaze_in.frontal), (gaze_in.t, trace.t),
                      (words_in.starts, stream.starts), (words_in.ends, stream.ends),
                      (words_in.codes, stream.codes)]:
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()

# --- synthetic corpora -----------------------------------------------------

def test_synth_spec_validation():
    with pytest.raises(InvalidSpec):
        SynthSpec(speakers=0)
    with pytest.raises(InvalidSpec):
        SynthSpec(words_per_speech=0)
    with pytest.raises(InvalidSpec):
        SynthSpec(segment_density=1.5)
    with pytest.raises(InvalidSpec):
        SynthSpec(segment_density=-0.1)
    with pytest.raises(InvalidSpec):
        SynthSpec(sample_rate=4000)
    for rate in (MAX_SAMPLE_RATE + 8, 10**9, 2**31, 2**32):  # refused before any audio is made
        with pytest.raises(InvalidSpec, match="sample_rate"):
            SynthSpec(sample_rate=rate)
    assert SynthSpec(sample_rate=MAX_SAMPLE_RATE).sample_rate == 192000
    # speakers.csv is read unquoted, so no party name may need CSV quoting
    for name in ("A,B", 'A"B', "A\nB", "A\rB"):
        with pytest.raises(InvalidSpec, match="party"):
            SynthSpec(target_party=name)
        with pytest.raises(InvalidSpec, match="party"):
            SynthSpec(other_party=name)


def test_synth_is_deterministic(tmp_path):
    spec = SynthSpec(seed=7, speakers=2, words_per_speech=40, planted_pitch_effect=0.1)
    a = synth_corpus(spec, tmp_path / "a")
    b = synth_corpus(spec, tmp_path / "b")
    assert tree_bytes(a.parent) == tree_bytes(b.parent)
    c = synth_corpus(SynthSpec(seed=8, speakers=2, words_per_speech=40), tmp_path / "c")
    assert tree_bytes(c.parent) != tree_bytes(a.parent)


def test_synth_replaces_only_a_corpus_or_an_empty_directory(tmp_path, capsys):
    def synth(out, speakers):
        rc = main(["synth", "--out", str(out), "--speakers", str(speakers), "--words", "10"])
        return rc, capsys.readouterr().err

    user = tmp_path / "user"
    user.mkdir()
    (user / "notes.txt").write_text("keep me\n")
    (tmp_path / "file.txt").write_text("keep me too\n")
    before = tree_bytes(tmp_path)
    for out in (user, tmp_path / "file.txt"):
        rc, err = synth(out, 2)
        assert rc == 2, out
        assert len(err.splitlines()) == 1 and err.startswith(f"ValidationError: cannot write {out}")
    assert tree_bytes(tmp_path) == before

    corpus = tmp_path / "corpus"
    assert synth(corpus, 3) == (0, "")
    assert synth(corpus, 1) == (0, "")  # a corpus synth wrote is replaced whole
    assert sorted(p.name for p in (corpus / "sessions").iterdir()) == [
        "sess000.csv", "sess000.jsonl", "sess000.wav"
    ]
    fresh = tmp_path / "fresh"
    assert synth(fresh, 1) == (0, "")
    assert tree_bytes(corpus) == tree_bytes(fresh)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["corpus", "file.txt", "fresh", "user"]


def test_synth_passes_every_loader(planted_corpus):
    manifest = load_manifest(planted_corpus.manifest)
    assert len(manifest.sessions) == 4
    profiles = load_speakers(manifest.speakers_path)
    for entry in manifest.sessions:
        words = load_transcript(entry.transcript, session_id=entry.session_id)
        assert words.speaker_id == entry.speaker_id
        assert entry.speaker_id in profiles
        load_gaze(entry.gaze)
        buf = read_wav(entry.audio)
        assert buf.sample_rate == 16000


def test_synth_audio_is_one_tapered_tone_per_word(tmp_path):
    # 30 words fit in one block of audio; 100 and 250 span several, the last one part full
    for sr, words in itertools.product((8000, 16000), (30, 100, 250)):
        spec = SynthSpec(seed=12, speakers=2, words_per_speech=words, sample_rate=sr)
        manifest = synth_corpus(spec, tmp_path / f"{sr}_{words}")
        truth = json.loads((tmp_path / f"{sr}_{words}" / "ground_truth.json").read_text())
        for entry in load_manifest(manifest).sessions:
            freqs = truth["sessions"][entry.session_id]["word_freqs"]
            expected = word_tones(freqs, sr, int(round(WORD_SLOT * sr)), TONE_FRACTION)
            quantized = np.clip(np.round(expected * 32768.0), -32768, 32767) / 32768.0
            buf = read_wav(entry.audio)
            assert buf.sample_rate == sr
            np.testing.assert_array_equal(buf.span(0, len(buf)), quantized)


def test_synth_memory_is_one_block_of_audio(tmp_path):
    # One 4000-word session at 8 kHz is 12M samples.  Rendered and written a
    # block at a time, the peak is 5.5 MB; a float array of the whole session,
    # then its scaled copy, peaked at 241 MB.
    spec = SynthSpec(seed=1, speakers=1, words_per_speech=4000, sample_rate=8000)
    tracemalloc.start()
    try:
        synth_corpus(spec, tmp_path / "raw")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16_000_000, f"peak {peak / 1e6:.2f} MB"


def test_detected_segments_equal_planted_truth(planted_corpus):
    truth = json.loads(planted_corpus.ground_truth.read_text())
    index = CorpusIndex(planted_corpus.index)
    rule = AddressRule()
    for sid in index.session_ids():
        data = index.load_session(sid)
        segs = enforce_min_words(detect_address_segments(data.gaze, rule), data.words, rule)
        expected = truth["sessions"][sid]["segments_time"]
        assert [list(s) for s in zip(segs.starts.tolist(), segs.ends.tolist())] == expected
        planted_words = truth["sessions"][sid]["segments_words"]
        assert segs.word_counts.tolist() == [b - a for a, b in planted_words]


def test_recovers_planted_effect_at_example_scale(tmp_path):
    # 10 speeches of 2,000 words with a +0.15 SD in-segment boost: the fitted
    # interaction's 95% interval should cover the planted value.
    spec = SynthSpec(
        seed=3, speakers=10, words_per_speech=2000, planted_pitch_effect=0.15, sample_rate=8000
    )
    res = planted_run(spec, tmp_path)
    name = interaction_name(spec)
    est, se = res.coefficients[name], res.standard_errors[name]
    assert est - 1.96 * se <= 0.15 <= est + 1.96 * se
    assert est > 0  # and the point estimate sits on the right side of zero


def test_null_effect_stays_null(tmp_path):
    # 20 seeded corpora with no planted effect: no interaction |z| reaches 3
    for seed in range(20):
        spec = SynthSpec(
            seed=seed, speakers=3, words_per_speech=100,
            planted_pitch_effect=0.0, sample_rate=8000,
        )
        res = planted_run(spec, tmp_path / f"s{seed}")
        name = interaction_name(spec)
        z = res.coefficients[name] / res.standard_errors[name]
        assert abs(z) < 3.0, f"seed {seed}: z={z:.2f}"
