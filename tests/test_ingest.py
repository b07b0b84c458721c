"""File loaders, the corpus index, and the synthetic-corpus generator."""

import json
import tracemalloc
import wave
from pathlib import Path

import numpy as np
import pytest

from modalign.cli import RunConfig, main, session_segments
from modalign.errors import (
    AngleOutOfRange,
    InvalidSpec,
    MissingFile,
    OverlappingWords,
    ParseError,
    ValidationError,
    VersionMismatch,
)
from modalign.gaze import AddressRule, detect_address_segments, enforce_min_words
from modalign.ingest import (
    CorpusIndex,
    build_index,
    load_gaze,
    load_manifest,
    load_speakers,
    load_transcript,
    read_wav,
    word_element_id,
    write_gaze,
    write_speakers,
    write_transcript,
    write_wav,
)
from modalign.pitch import PITCH_RANGE_BY_GENDER
from modalign.synth import TONE_FRACTION, WORD_SLOT, SynthSpec, synth_corpus
from modalign.timeline import Modality, stream_from_columns

from _e2e import interaction_name, planted_run
from _oracles import gaze_trace, word_tones


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
    ids = [word_element_id(i) for i in range(3)]
    stream = stream_from_columns(
        Modality.TEXT, "rt", ids, [0.0, 0.5, 1.0], [0.5, 1.0, 1.5], ["ich", "rede", "jetzt"],
        speaker_id="s9",
    )
    p = tmp_path / "rt.jsonl"
    write_transcript(stream, p)
    again = load_transcript(p, session_id="rt")
    assert list(again) == list(stream)
    assert again.speaker_id == "s9"


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


# --- audio -----------------------------------------------------------------

def test_wav_round_trip(tmp_path):
    rng = np.random.default_rng(41)
    samples = rng.uniform(-0.9, 0.9, size=4000)
    p = tmp_path / "a.wav"
    write_wav(samples, 16000, p)
    buf = read_wav(p)
    assert buf.sample_rate == 16000
    assert len(buf.samples) == 4000
    assert np.max(np.abs(buf.samples - samples)) <= 0.5 / 32768 + 1e-12


def test_wav_clips_out_of_range(tmp_path):
    p = tmp_path / "a.wav"
    write_wav(np.array([1.5, -1.5]), 16000, p)
    buf = read_wav(p)
    assert buf.samples[0] == 32767 / 32768
    assert buf.samples[1] == -1.0


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
    assert np.allclose(buf.samples, [0.125, 0.125, 0.0])


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
    with pytest.raises(MissingFile):
        read_wav(tmp_path / "absent.wav")
    for rate, samples in ((16000, 0), (4000, 100)):  # no frames; a rate below 8000 Hz
        write_wav(np.zeros(samples), rate, p)
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
        write_wav(np.zeros(16000), 16000, root / f"{sid}.wav")
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
    assert names == {"manifest.json", "speakers.csv"} | {
        f"{sid}.{kind}" for sid in ("sessA", "sessB") for kind in ("json", "words.npy", "gaze.npy")
    }
    doc = json.loads((out / "manifest.json").read_text())
    assert doc["format_version"] == 4
    assert doc["sessions"][0] == {
        "session_id": "sessA", "speaker_id": "s1",
        "audio": str((tmp_path / "raw" / "sessA.wav").resolve()),
        "blob": "sessions/sessA.json", "words": "sessions/sessA.words.npy",
        "gaze": "sessions/sessA.gaze.npy",
    }
    blob = json.loads((out / "sessions" / "sessA.json").read_text())
    assert blob == {"id": ["w000000", "w000001"], "word": ["hallo", "welt"]}
    assert (out / "speakers.csv").read_bytes() == (tmp_path / "raw" / "speakers.csv").read_bytes()
    words = np.load(out / "sessions" / "sessA.words.npy", allow_pickle=False)
    assert words.dtype.names == ("start", "end") and words.tolist() == [(0.0, 0.5), (0.5, 1.0)]
    gaze = np.load(out / "sessions" / "sessA.gaze.npy", allow_pickle=False)
    assert gaze.dtype.names == ("t", "yaw", "pitch", "frontal") and gaze.shape == (1,)
    index = CorpusIndex(out)
    assert index.session_ids() == ["sessA", "sessB"]
    data = index.load_session("sessA")
    fresh = load_transcript(tmp_path / "raw" / "sessA.jsonl", session_id="sessA")
    assert list(data.words) == list(fresh)
    assert gaze_rows(data.gaze) == gaze_rows(load_gaze(tmp_path / "raw" / "sessA.csv"))
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
    before = tree_bytes(tmp_path)
    for out in (user, tmp_path / "file.txt", tmp_path / "raw", user / "notes.txt" / "idx"):
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
    # older layouts keep a speakers.json; rows of 1 and 2 name only a blob, rows of 3 also tables
    for version, keys in ((1, ("blob",)), (2, ("blob",)), (3, ("blob", "words", "gaze"))):
        rows = [{k: row[k] for k in ("session_id", "speaker_id", *keys)} for row in doc["sessions"]]
        (empty / "manifest.json").write_text(json.dumps({"format_version": version, "sessions": rows}))
        (empty / "speakers.csv").unlink()
        (empty / "speakers.json").write_text('{"s1": {"party": "AfD", "floor": 75, "ceiling": 300}}')
        if version < 3:
            for table in (empty / "sessions").glob("*.npy"):
                table.unlink()
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
    with pytest.raises(ParseError, match="bad JSON"):
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


def test_index_rows_and_speakers_are_checked(tmp_path):
    out = build_index(tiny_corpus(tmp_path / "raw"), tmp_path / "idx")
    doc = json.loads((out / "manifest.json").read_text())
    keys = ("session_id", "speaker_id", "audio", "blob", "words", "gaze")
    for key, value, message in [*((k, 3, "must be strings") for k in keys),
                                ("session_id", "sessA", "repeated")]:
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
    # tables that pass the format checks but break a stream or trace rule
    out = build_index(tiny_corpus(tmp_path / "raw"), tmp_path / "idx")
    words, gaze = out / "sessions" / "sessA.words.npy", out / "sessions" / "sessA.gaze.npy"
    negative, overlapping, repeated = np.load(words), np.load(words), np.load(gaze)
    negative["start"][0] = -5.0
    overlapping["start"][1] = 0.25
    repeated = np.concatenate([repeated, repeated])
    for path, table, message in [(words, negative, "words of session 'sessA': bad interval"),
                                 (words, overlapping, "words of session 'sessA': words"),
                                 (gaze, repeated, "must rise strictly")]:
        good = path.read_bytes()
        np.save(path, table)
        with pytest.raises(ParseError, match=message) as info:
            CorpusIndex(out).load_session("sessA")
        assert info.value.path == str(path)
        path.write_bytes(good)
    assert len(CorpusIndex(out).load_session("sessA").words) == 2


def test_index_version_gate(tmp_path):
    manifest = tiny_corpus(tmp_path / "raw")
    out = build_index(manifest, tmp_path / "idx")
    doc = json.loads((out / "manifest.json").read_text())
    # 1: rows of objects, 2: JSON columns, 3: speakers.json; all must be rebuilt
    for version in (1, 2, 3, 5):
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

# --- synthetic corpora -----------------------------------------------------

def test_synth_spec_validation():
    with pytest.raises(InvalidSpec):
        SynthSpec(speakers=0).validated()
    with pytest.raises(InvalidSpec):
        SynthSpec(words_per_speech=0).validated()
    with pytest.raises(InvalidSpec):
        SynthSpec(segment_density=1.5).validated()
    with pytest.raises(InvalidSpec):
        SynthSpec(segment_density=-0.1).validated()
    with pytest.raises(InvalidSpec):
        SynthSpec(sample_rate=4000).validated()


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
    for sr in (8000, 16000):
        spec = SynthSpec(seed=12, speakers=2, words_per_speech=30, sample_rate=sr)
        manifest = synth_corpus(spec, tmp_path / str(sr))
        truth = json.loads((tmp_path / str(sr) / "ground_truth.json").read_text())
        for entry in load_manifest(manifest).sessions:
            freqs = truth["sessions"][entry.session_id]["word_freqs"]
            expected = word_tones(freqs, sr, int(round(WORD_SLOT * sr)), TONE_FRACTION)
            quantized = np.clip(np.round(expected * 32768.0), -32768, 32767) / 32768.0
            buf = read_wav(entry.audio)
            assert buf.sample_rate == sr
            np.testing.assert_array_equal(buf.samples, quantized)


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
