"""End-to-end command-line runs against a planted synthetic corpus."""

import contextlib
import io
import json
import math
import shutil
import tempfile
import wave
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from modalign import cli, errors
from modalign.cli import main
from modalign.ingest import INDEX_FORMAT_VERSION, CorpusIndex
from modalign.stats import PanelRow, fe_regress, fightin_words

ADDRESS_VOCAB = {"zuruf", "emport", "skandal", "widerspruch", "aufregung"}
NEUTRAL_VOCAB = {"bericht", "haushalt", "antrag", "ausschuss", "verfahren"}


def run(*argv):
    return main([str(a) for a in argv])


def read_csv(path):
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    header = lines[0].split(",")
    return header, [dict(zip(header, line.split(","))) for line in lines[1:]]


def truth(paths):
    return json.loads(paths.ground_truth.read_text(encoding="utf-8"))


# --- synth + ingest --------------------------------------------------------

def test_synth_and_ingest(tmp_path, capsys):
    raw = tmp_path / "raw"
    rc = run("synth", "--out", raw, "--seed", 3, "--speakers", 2, "--words", 40,
             "--effect", 0.1)
    assert rc == 0
    manifest = Path(capsys.readouterr().out.strip())
    assert manifest == raw / "manifest.json"
    assert (raw / "ground_truth.json").is_file()

    rc = run("ingest", "--manifest", manifest, "--out", tmp_path / "idx")
    assert rc == 0
    assert (tmp_path / "idx" / "manifest.json").is_file()
    blobs = sorted(p.name for p in (tmp_path / "idx" / "sessions").iterdir())
    assert blobs == [f"sess00{k}.{kind}" for k in (0, 1)
                     for kind in ("gaze.npy", "json", "words.npy")]


def test_synth_spec_file_with_flag_override(tmp_path, capsys):
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps({"seed": 5, "speakers": 2, "words_per_speech": 30}))
    assert run("synth", "--out", tmp_path / "a", "--spec", spec_path) == 0
    assert run("synth", "--out", tmp_path / "b", "--spec", spec_path, "--seed", 6) == 0
    capsys.readouterr()
    truth_a = json.loads((tmp_path / "a" / "ground_truth.json").read_text())
    truth_b = json.loads((tmp_path / "b" / "ground_truth.json").read_text())
    assert truth_a["spec"]["seed"] == 5
    assert truth_b["spec"]["seed"] == 6
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"seeds": 5}))
    assert run("synth", "--out", tmp_path / "c", "--spec", bad) == 2


# --- per-stage commands ----------------------------------------------------

def test_pitch_command(planted_corpus, tmp_path, capsys):
    out = tmp_path / "wp.csv"
    assert run("pitch", "--index", planted_corpus.index, "--out", out) == 0
    assert "words" in capsys.readouterr().out
    header, rows = read_csv(out)
    assert header == ["session_id", "word_id", "word", "start", "end",
                      "speaker_id", "mean_f0", "voiced_frames", "z"]
    assert len(rows) == 4 * 120
    for row in rows[:10]:
        assert float(row["mean_f0"]) > 0
        assert row["z"] == "" or math.isfinite(float(row["z"]))
        assert int(row["voiced_frames"]) > 0


def test_segments_command_matches_truth(planted_corpus, tmp_path, capsys):
    out = tmp_path / "segs.csv"
    assert run("segments", "--index", planted_corpus.index, "--out", out) == 0
    capsys.readouterr()
    header, rows = read_csv(out)
    assert header == ["session_id", "label", "start", "end", "word_count"]
    got = {}
    for row in rows:
        assert row["label"] == "AfD"
        assert int(row["word_count"]) >= 10
        got.setdefault(row["session_id"], []).append(
            [float(row["start"]), float(row["end"])]
        )
    expected = {
        sid: sess["segments_time"] for sid, sess in truth(planted_corpus)["sessions"].items()
    }
    assert got == expected


@pytest.mark.parametrize(
    "flags", [["--yaw-min", "89", "--yaw-max", "90"], ["--min-words", "100000"]],
    ids=["none-in-band", "none-with-enough-words"],
)
def test_segments_command_without_segments_writes_the_header(planted_corpus, tmp_path, capsys,
                                                             flags):
    out = tmp_path / "segs.csv"
    assert run("segments", "--index", planted_corpus.index, "--out", out, *flags) == 0
    assert capsys.readouterr().out == f"0 segments -> {out}\n"
    assert out.read_text(encoding="utf-8") == "session_id,label,start,end,word_count\n"


def test_align_command(planted_corpus, tmp_path, capsys):
    out = tmp_path / "pairs.csv"
    assert run("align", "--index", planted_corpus.index, "--out", out) == 0
    stdout = capsys.readouterr().out
    assert "pairs" in stdout
    header, rows = read_csv(out)
    assert header == ["session_id", "source_id", "target_id", "overlap_seconds"]
    planted = truth(planted_corpus)["sessions"]
    for sid, sess in planted.items():
        ours = [r for r in rows if r["session_id"] == sid]
        # every in-segment word aligns to exactly one segment, and nothing else does
        assert sorted(r["source_id"] for r in ours) == sess["in_segment_word_ids"]
        assert all(float(r["overlap_seconds"]) > 0 for r in ours)


def test_query_returns_exactly_planted_words(planted_corpus, tmp_path, capsys):
    out = tmp_path / "q.csv"
    rc = run("query", "--index", planted_corpus.index, "--select", "text",
             "--where", "gaze.label==AfD", "--out", out)
    assert rc == 0
    capsys.readouterr()
    _, rows = read_csv(out)
    got = {}
    for row in rows:
        got.setdefault(row["session_id"], []).append(row["id"])
    expected = {
        sid: sess["in_segment_word_ids"]
        for sid, sess in truth(planted_corpus)["sessions"].items()
        if sess["in_segment_word_ids"]
    }
    assert got == expected


def test_regress_command_covers_planted_effect(planted_corpus, tmp_path, capsys):
    out = tmp_path / "reg"
    assert run("regress", "--index", planted_corpus.index, "--out", out) == 0
    capsys.readouterr()
    doc = json.loads((out / "regression.json").read_text())
    assert doc["n_groups"] == 4
    inter = doc["coefficients"]["addressing_x_SPD"]
    assert inter["ci_low"] <= 0.15 <= inter["ci_high"]
    table = (out / "regression.txt").read_text()
    assert "addressing_x_SPD" in table and "observations" in table

    header, rows = read_csv(out / "margins.csv")
    assert header == ["party", "addressing", "predicted", "ci_low", "ci_high"]
    cells = {(r["party"], r["addressing"]): float(r["predicted"]) for r in rows}
    assert set(cells) == {("AfD", "0"), ("AfD", "1"), ("SPD", "0"), ("SPD", "1")}
    assert cells[("AfD", "0")] == 0.0 and cells[("SPD", "0")] == 0.0
    coef = doc["coefficients"]
    assert math.isclose(
        cells[("SPD", "1")],
        coef["addressing"]["estimate"] + coef["addressing_x_SPD"]["estimate"],
        rel_tol=1e-12,
    )
    assert math.isclose(cells[("AfD", "1")], coef["addressing"]["estimate"], rel_tol=1e-12)


def test_regress_panel_mode(tmp_path, capsys):
    panel = tmp_path / "panel.csv"
    lines = ["y,group,x0,x1"]
    rows = []
    vals = [(1.0, "a", 0.5, 1.0), (2.0, "a", 1.5, 0.0), (1.5, "a", 1.0, 1.0),
            (3.0, "b", 0.5, 0.0), (4.5, "b", 2.0, 1.0), (4.0, "b", 1.5, 0.5),
            (2.5, "b", 1.0, 0.25)]
    for y, g, x0, x1 in vals:
        lines.append(f"{y},{g},{x0},{x1}")
        rows.append(PanelRow(y, g, {"x0": x0, "x1": x1}))
    panel.write_text("\n".join(lines) + "\n")
    out = tmp_path / "reg"
    assert run("regress", "--panel", panel, "--out", out) == 0
    capsys.readouterr()
    doc = json.loads((out / "regression.json").read_text())
    direct = fe_regress(rows)
    for nm in ("x0", "x1"):
        assert math.isclose(doc["coefficients"][nm]["estimate"], direct.coefficients[nm],
                            rel_tol=1e-12)
    assert not (out / "margins.csv").exists()  # margins are index-mode only

    # --x restricts the regressor set
    out2 = tmp_path / "reg2"
    assert run("regress", "--panel", panel, "--x", "x0", "--out", out2) == 0
    capsys.readouterr()
    doc2 = json.loads((out2 / "regression.json").read_text())
    assert list(doc2["coefficients"]) == ["x0"]


def test_fw_command(planted_corpus, tmp_path, capsys):
    out = tmp_path / "fw.csv"
    assert run("fw", "--index", planted_corpus.index, "--out", out) == 0
    capsys.readouterr()
    header, rows = read_csv(out)
    assert header == ["situation", "word", "count", "count_rest", "delta", "variance", "z"]
    situations = {r["situation"] for r in rows}
    assert situations == {"AfD_to_AfD", "AfD_to_others", "others_to_AfD", "others_to_others"}
    per_situation = {}
    for r in rows:
        per_situation.setdefault(r["situation"], []).append(r)
    for rows_here in per_situation.values():
        zs = [float(r["z"]) for r in rows_here]
        assert zs == sorted(zs, reverse=True)
    # interjection-style tokens only ever occur inside address segments, so in
    # the addressed-speech cell they score positive and procedure words negative
    to_afd = {r["word"]: float(r["z"]) for r in per_situation["others_to_AfD"]}
    assert max(z for w, z in to_afd.items() if w in ADDRESS_VOCAB) > 0
    assert all(z < 0 for w, z in to_afd.items() if w in NEUTRAL_VOCAB)


def test_fw_counts_mode(tmp_path, capsys):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    a.write_text("word,count\nja\n", encoding="utf-8")
    assert run("fw", "--counts-a", a, "--counts-b", b, "--out", tmp_path / "o.csv") == 3
    a.write_text("word,count\nja,30\nnein,5\n", encoding="utf-8")
    b.write_text("word,count\nja,10\nnein,20\n", encoding="utf-8")
    assert run("fw", "--counts-a", a, "--counts-b", b, "--prior", "0.5",
               "--out", tmp_path / "o.csv") == 0
    capsys.readouterr()
    _, rows = read_csv(tmp_path / "o.csv")
    assert [r["situation"] for r in rows] == ["a_vs_b", "a_vs_b"]
    direct = {
        s.word: s.z
        for s in fightin_words({"ja": 30, "nein": 5}, {"ja": 10, "nein": 20}, prior_scale=0.5)
    }
    for r in rows:
        assert math.isclose(float(r["z"]), direct[r["word"]], rel_tol=1e-15)


def test_advise_command(capsys):
    assert run("advise", "--data", "continuous") == 0
    out = capsys.readouterr().out.splitlines()
    assert [line.split(" — ")[0] for line in out] == [
        "adversarial training", "dynamic time warping"
    ]
    assert run("advise", "--data", "discrete", "--representation", "non-semantic",
               "--integration", "implicit") == 0
    out = capsys.readouterr().out.splitlines()
    assert [line.split(" — ")[0] for line in out] == ["late fusion", "hidden Markov models"]


# --- config file and precedence --------------------------------------------

def test_config_precedence(planted_corpus, tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"address": {"min_words": 9999}}))
    out = tmp_path / "none.csv"
    assert run("--config", cfg, "segments", "--index", planted_corpus.index, "--out", out) == 0
    assert len(Path(out).read_text().splitlines()) == 1  # header only: nothing survives
    out2 = tmp_path / "some.csv"
    assert run("--config", cfg, "segments", "--index", planted_corpus.index,
               "--out", out2, "--min-words", 10) == 0
    assert len(Path(out2).read_text().splitlines()) > 1  # flag beats config
    capsys.readouterr()


def test_config_validation(planted_corpus, tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"addresss": {}}))
    assert run("--config", bad, "segments", "--index", planted_corpus.index,
               "--out", tmp_path / "x.csv") == 2
    bad.write_text(json.dumps({"address": {"min_wordz": 3}}))
    assert run("--config", bad, "segments", "--index", planted_corpus.index,
               "--out", tmp_path / "x.csv") == 2
    assert run("--config", tmp_path / "absent.json", "segments",
               "--index", planted_corpus.index, "--out", tmp_path / "x.csv") == 2
    assert "ValidationError" in capsys.readouterr().err


def test_threads_do_not_change_output(planted_corpus, tmp_path, capsys):
    one = tmp_path / "one.csv"
    two = tmp_path / "two.csv"
    assert run("pitch", "--index", planted_corpus.index, "--out", one) == 0
    assert run("--threads", 3, "pitch", "--index", planted_corpus.index, "--out", two) == 0
    capsys.readouterr()
    assert one.read_bytes() == two.read_bytes()


def test_reruns_are_byte_identical(planted_corpus, tmp_path, capsys):
    for name, argv in {
        "segs": ("segments", "--index", planted_corpus.index),
        "pairs": ("align", "--index", planted_corpus.index),
        "fw": ("fw", "--index", planted_corpus.index),
    }.items():
        a, b = tmp_path / f"{name}_a.csv", tmp_path / f"{name}_b.csv"
        assert run(*argv, "--out", a) == 0
        assert run(*argv, "--out", b) == 0
        assert a.read_bytes() == b.read_bytes(), name
    capsys.readouterr()


# --- failure modes ---------------------------------------------------------

def test_exit_codes(planted_corpus, tmp_path, capsys):
    # data errors: exit 3
    assert run("ingest", "--manifest", tmp_path / "absent.json", "--out", tmp_path / "i") == 3
    assert run("pitch", "--index", tmp_path / "not_an_index", "--out", tmp_path / "p.csv") == 3
    assert "MissingFile" in capsys.readouterr().err
    # validation errors: exit 2
    assert run("regress", "--out", tmp_path / "r") == 2  # neither --index nor --panel
    assert run("regress", "--index", planted_corpus.index, "--panel", "x.csv",
               "--out", tmp_path / "r") == 2
    assert run("query", "--index", planted_corpus.index, "--select", "text",
               "--where", "nonsense", "--out", tmp_path / "q.csv") == 2
    assert run("query", "--index", planted_corpus.index, "--select", "text",
               "--where", "smell.label==AfD", "--out", tmp_path / "q.csv") == 2
    assert run("synth", "--out", tmp_path / "s", "--density", 2.0) == 2
    assert run("pitch", "--index", planted_corpus.index, "--out", tmp_path / "p.csv",
               "--floor", 100.3, "--ceiling", 100.6) == 2
    assert run("fw", "--counts-a", tmp_path / "only_a.csv", "--out", tmp_path / "f.csv") == 2
    err = capsys.readouterr().err
    assert "ValidationError" in err or "InvalidSpec" in err


_BLOB = "idx/sessions/sess000.json"
_F8 = "<f8"


def _npy(fields, rows, allow_pickle=False) -> bytes:
    """``.npy`` bytes of a flat table with these ``(name, dtype)`` fields and rows."""
    buf = io.BytesIO()
    np.save(buf, np.array(rows, dtype=fields), allow_pickle=allow_pickle)
    return buf.getvalue()


def _words_npy(start=_F8, rows=((0.0, 1.0),)) -> dict:
    """sess000's word table, with ``start`` stored as this dtype."""
    return {"idx/sessions/sess000.words.npy": _npy([("start", start), ("end", _F8)], list(rows))}


def _gaze_npy(t=_F8, rows=((0.0, 50.0, 0.0, 1), (0.125, 50.0, 0.0, 1))) -> dict:
    """sess000's gaze table, with ``t`` stored as this dtype."""
    fields = [("t", t), ("yaw", _F8), ("pitch", _F8), ("frontal", "u1")]
    return {"idx/sessions/sess000.gaze.npy": _npy(fields, list(rows))}


_GAZE_FILE = "idx/sessions/sess000.gaze.npy"
_GAZE_OBJECT = {_GAZE_FILE: _npy(object, [None, 0.125], allow_pickle=True)}
_GAZE_SHORT = {_GAZE_FILE: _gaze_npy()[_GAZE_FILE][:-10]}


_PANEL = "y,group,x\n1,a,0\n2,a,1\n3,b,0\n{y},b,{x}\n"
_SPEAKERS = {"s.csv": "speaker_id,party,gender\nspk000,AfD,m\n"}
_SESSION = '{"session_id": "a", "speaker_id": "spk000", "transcript": 5, "audio": "x", "gaze": "y"}'
_WORD = b'{"word": "ja", "start": 0, "end": 1, "speaker_id": "spk000"}\n'
_GAZE_HEADER = "t,yaw_deg,pitch_deg,frontal\n"


def _corpus(session_id='"a"', speaker_id='"spk000"', transcript=_WORD, gaze="") -> dict:
    """The files of a one-session corpus whose manifest gives these ids (as JSON text)."""
    session = (f'{{"session_id": {session_id}, "speaker_id": {speaker_id}, '
               '"transcript": "t.jsonl", "audio": "a.wav", "gaze": "g.csv"}')
    return {"m.json": f'{{"format_version": 1, "speakers": "s.csv", "sessions": [{session}]}}',
            **_SPEAKERS, "t.jsonl": transcript, "a.wav": "", "g.csv": _GAZE_HEADER + gaze}


def _sess000_with_wav(rate: int, frames: int) -> dict:
    """An index of sess000 alone whose audio is a silent WAV of ``frames`` frames at ``rate`` Hz."""
    buf = io.BytesIO()
    with wave.open(buf, "wb") as wf:
        wf.setnchannels(1)
        wf.setsampwidth(2)
        wf.setframerate(rate)
        wf.writeframes(b"\0\0" * frames)
    row = {"session_id": "sess000", "speaker_id": "spk000", "audio": "TMP/idx/a.wav",
           "blob": "sessions/sess000.json", "words": "sessions/sess000.words.npy",
           "gaze": "sessions/sess000.gaze.npy"}
    doc = {"format_version": INDEX_FORMAT_VERSION, "sessions": [row]}
    return {"idx/manifest.json": json.dumps(doc), "idx/a.wav": buf.getvalue()}


_MANIFEST = ["ingest", "--manifest", "TMP/m.json"]
_QUERY = ["query", "--index", "IDX", "--where", "gaze.label==AfD"]


@pytest.mark.parametrize(
    "files, argv, error",
    [
        ({}, ["align", "--index", "IDX", "--min-overlap", "-1"], "ValidationError"),
        ({"idx/manifest.json": "{not json"}, ["segments", "--index", "IDX"], "ParseError"),
        ({"idx/speakers.csv": "[1, 2"}, ["fw", "--index", "IDX"], "ParseError"),
        ({_BLOB: "\x00"}, ["segments", "--index", "IDX"], "ParseError"),
        ({_BLOB: '{"id": ["w0"]}'}, ["segments", "--index", "IDX"], "ParseError"),
        ({_BLOB: '{"id": ["w0", "w0"], "word": ["ja", "ja"]}', **_words_npy(rows=[(0, 1), (0, 1)])},
         ["segments", "--index", "IDX"], "DuplicateIds"),
        (_gaze_npy(t="<U5", rows=[("x", 50, 0, 1), ("0.125", 50, 0, 1)]),
         ["segments", "--index", "IDX"], "ParseError"),
        (_GAZE_OBJECT, ["segments", "--index", "IDX"], "ParseError"),
        (_gaze_npy(t="?", rows=[(True, 50, 0, 1), (False, 50, 0, 1)]),
         ["segments", "--index", "IDX"], "ParseError"),
        (_gaze_npy(rows=[(math.nan, 50, 0, 1), (0.125, 50, 0, 1)]),
         ["segments", "--index", "IDX"], "ParseError"),
        (_GAZE_SHORT, ["segments", "--index", "IDX"], "ParseError"),
        (_gaze_npy(rows=[(0.0, 50, 0, 1), (0.125, 50, 0, 2)]),
         ["segments", "--index", "IDX"], "ParseError"),
        (_words_npy(start="<U3"), ["segments", "--index", "IDX"], "ParseError"),
        (_words_npy(rows=[(0, 1), (1, 2)]), ["segments", "--index", "IDX"], "ParseError"),
        ({_BLOB: '{"id": [0], "word": ["ja"]}'}, ["segments", "--index", "IDX"], "ParseError"),
        ({"p.csv": _PANEL.format(y="nan", x=1)}, ["regress", "--panel", "TMP/p.csv"], "ParseError"),
        ({"p.csv": _PANEL.format(y=4, x="inf")}, ["regress", "--panel", "TMP/p.csv"], "ParseError"),
        ({"a.csv": "word,count\nja,nan\n", "b.csv": "word,count\nja,3\n"},
         ["fw", "--counts-a", "TMP/a.csv", "--counts-b", "TMP/b.csv"], "ParseError"),
        ({"a.csv": "word,count\nja,-5\n", "b.csv": "word,count\nja,3\n"},
         ["fw", "--counts-a", "TMP/a.csv", "--counts-b", "TMP/b.csv"], "ParseError"),
        ({"c.json": '{"pitch": {"hop": "x"}}'},
         ["--config", "TMP/c.json", "pitch", "--index", "IDX"], "ValidationError"),
        ({"c.json": '{"threads": "two"}'},
         ["--config", "TMP/c.json", "pitch", "--index", "IDX"], "ValidationError"),
        ({"c.json": '{"address": {"yaw_min": 80}}'},
         ["--config", "TMP/c.json", "pitch", "--index", "IDX"], "ValidationError"),
        ({"m.json": "[1, 2]"}, _MANIFEST, "ParseError"),
        ({"m.json": '{"format_version": 1, "speakers": "s.csv", "sessions": [1]}', **_SPEAKERS},
         _MANIFEST, "ParseError"),
        ({"m.json": f'{{"format_version": 1, "speakers": "s.csv", "sessions": [{_SESSION}]}}',
          **_SPEAKERS}, _MANIFEST, "ParseError"),
        ({"m.json": '{"format_version": 1, "speakers": 7, "sessions": []}'},
         _MANIFEST, "ParseError"),
        ({}, _QUERY + ["--select", "audio"], "ValidationError"),
        ({}, _QUERY + ["--select", "visual"], "ValidationError"),
        ({}, ["fw", "--index", "IDX", "--prior", "nan"], "NonPositivePrior"),
        ({}, ["pitch", "--index", "IDX", "--threshold", "nan"], "ValidationError"),
        ({}, ["pitch", "--index", "IDX", "--threshold", "-1"], "ValidationError"),
        ({}, ["align", "--index", "IDX", "--min-overlap", "nan"], "ValidationError"),
        ({}, ["segments", "--index", "IDX", "--yaw-min", "nan"], "ValidationError"),
        ({}, ["segments", "--index", "IDX", "--notes-pitch", "nan"], "ValidationError"),
        ({}, ["--threads", "0", "pitch", "--index", "IDX"], "ValidationError"),
        ({}, ["--threads", "-3", "pitch", "--index", "IDX"], "ValidationError"),
        ({}, ["synth", "--effect", "nan"], "InvalidSpec"),
        ({}, ["synth", "--effect", "inf"], "InvalidSpec"),
        ({"s.json": '{"jitter_hz": NaN}'}, ["synth", "--spec", "TMP/s.json"], "InvalidSpec"),
        ({"s.json": '{"jitter_hz": Infinity}'}, ["synth", "--spec", "TMP/s.json"], "InvalidSpec"),
        ({"out/notes.txt": "keep\n"}, ["segments", "--index", "IDX"], "ValidationError"),
        ({"out": "keep\n"}, ["synth", "--words", "5"], "ValidationError"),
        ({"p.csv": _PANEL.format(y=4, x=1), "out": "keep\n"},
         ["regress", "--panel", "TMP/p.csv"], "ValidationError"),
        ({"a.csv": "word,count\nja,1\n", "b.csv": "word,count\nja,3\n"},
         ["fw", "--index", "IDX", "--counts-a", "TMP/a.csv", "--counts-b", "TMP/b.csv"],
         "ValidationError"),
        (_corpus(transcript=_WORD + b"\xff\xfe"), _MANIFEST, "ParseError"),
        ({"a.csv": b"word,count\nja\xff,1\n", "b.csv": "word,count\nja,3\n"},
         ["fw", "--counts-a", "TMP/a.csv", "--counts-b", "TMP/b.csv"], "ParseError"),
        ({}, ["fw", "--index", "IDX", "--target-party", "nobody"], "ValidationError"),
        ({}, ["regress", "--index", "IDX", "--target-party", "nobody"], "ValidationError"),
        (_corpus(session_id='"../../../escaped"'), _MANIFEST, "ParseError"),
        (_corpus(session_id="5"), _MANIFEST, "ParseError"),
        (_corpus(speaker_id='"nobody"'), _MANIFEST, "ParseError"),
        ({"idx/speakers.csv": "speaker_id,party,gender\nspk000,AfD,x\n"},
         ["fw", "--index", "IDX"], "ParseError"),
        ({"idx/speakers.csv": "speaker_id,party,gender\nspk000,AfD,m\n"},
         ["pitch", "--index", "IDX"], "ParseError"),
        (_sess000_with_wav(16000, 0), ["pitch", "--index", "IDX"], "ParseError"),
        (_sess000_with_wav(4000, 8000), ["regress", "--index", "IDX"], "ParseError"),
        (_corpus(gaze="-5.0,50,0,1\n"), _MANIFEST, "ParseError"),
        (_gaze_npy(rows=[(-5.0, 50, 0, 1), (0.125, 50, 0, 1)]),
         ["segments", "--index", "IDX"], "ParseError"),
        (_corpus(gaze="0.125,50,0,1\n0.0,50,0,1\n0.125,50,0,1\n"), _MANIFEST, "ParseError"),
        (_gaze_npy(rows=[(0.0, 50, 0, 1), (0.0, 50, 0, 1)]),
         ["segments", "--index", "IDX"], "ParseError"),
        ({_BLOB: '{"id": ["w0"], "word": ["ja"]}', **_words_npy(rows=[(-5.0, 0.375)])},
         ["segments", "--index", "IDX"], "ParseError"),
        ({}, ["pitch", "--index", "IDX", "--hop", "abc"], "ValidationError"),
        ({}, ["pitch"], "ValidationError"),
        ({}, ["nosuch"], "ValidationError"),
    ],
    ids=["negative-min-overlap", "corrupt-manifest", "corrupt-speakers", "corrupt-session",
         "session-missing-key", "duplicate-word-ids", "gaze-string", "gaze-null", "gaze-bool",
         "gaze-nan", "gaze-ragged", "gaze-frontal-2", "words-start-string", "words-ragged",
         "words-id-number", "panel-nan", "panel-inf", "counts-nan",
         "counts-negative", "config-hop-string", "config-threads-string", "config-empty-yaw-band",
         "manifest-list", "manifest-session-number", "manifest-transcript-number",
         "manifest-speakers-number", "query-select-audio", "query-select-visual", "prior-nan",
         "threshold-nan", "threshold-negative", "min-overlap-nan", "yaw-min-nan",
         "notes-pitch-nan", "threads-0", "threads-negative", "effect-nan", "effect-inf",
         "jitter-nan", "jitter-inf", "out-is-dir", "out-is-file", "regress-out-is-file",
         "fw-index-and-counts", "transcript-not-utf8", "counts-not-utf8",
         "fw-unknown-target-party", "regress-unknown-target-party", "manifest-session-id-escapes",
         "manifest-session-id-number", "manifest-speaker-not-listed", "speakers-bad-gender",
         "speakers-missing-speaker", "wav-no-frames", "wav-rate-4000", "gaze-csv-negative-t",
         "gaze-negative-t", "gaze-csv-repeated-t", "gaze-repeated-t", "words-negative-start",
         "hop-not-int", "index-missing", "unknown-command"],
)
def test_bad_input_exits_with_one_line(planted_corpus, tmp_path, capsys, files, argv, error):
    shutil.copytree(planted_corpus.index, tmp_path / "idx")
    for name, content in files.items():
        (tmp_path / name).parent.mkdir(parents=True, exist_ok=True)
        if isinstance(content, bytes):
            (tmp_path / name).write_bytes(content)
        else:
            (tmp_path / name).write_text(content.replace("TMP", str(tmp_path)), encoding="utf-8")
    argv = [a.replace("IDX", str(tmp_path / "idx")).replace("TMP", str(tmp_path)) for a in argv]
    out = tmp_path / "out"
    before = set(tmp_path.rglob("*"))
    rc = run(*argv, "--out", out)
    err = capsys.readouterr().err
    assert all(p == out or out in p.parents for p in set(tmp_path.rglob("*")) - before)
    assert rc == (2 if issubclass(getattr(errors, error), errors.ValidationError) else 3)
    assert len(err.splitlines()) == 1 and err.startswith(f"{error}: ")
    assert "Traceback" not in err
    damaged = [Path(name).name for name in files if name.startswith("idx/")]
    if error == "ParseError" and len(damaged) == 1:
        assert damaged[0] in err
    kept = [name for name in files if name.split("/")[0] == "out"]
    if kept:  # an unwritable --out is named in the error and left as it was
        assert f"cannot write {tmp_path / 'out'}" in err
        assert all((tmp_path / name).read_text() == "keep\n" for name in kept)


@pytest.mark.parametrize("command", ["fw", "regress"])
def test_unknown_target_party_names_the_parties_on_record(planted_corpus, tmp_path, capsys,
                                                          command):
    out = tmp_path / "out"
    assert run(command, "--index", planted_corpus.index, "--out", out,
               "--target-party", "nobody") == 2
    parties = sorted({p.party for p in CorpusIndex(planted_corpus.index).speakers().values()})
    assert capsys.readouterr().err == (
        f"ValidationError: target party 'nobody' has no speaker; "
        f"parties on record: {', '.join(parties)}\n"
    )
    assert not out.exists()


def test_row_layout_index_must_be_rebuilt(planted_corpus, tmp_path, capsys):
    idx = shutil.copytree(planted_corpus.index, tmp_path / "idx")
    doc = json.loads((idx / "manifest.json").read_text(encoding="utf-8"))
    for version in (1, 2, 3):  # rows of objects; numbers as JSON columns; speakers.json
        doc["format_version"] = version
        (idx / "manifest.json").write_text(json.dumps(doc), encoding="utf-8")
        assert run("segments", "--index", idx, "--out", tmp_path / "s.csv") == 3
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and err.startswith("VersionMismatch: ")
        assert "rebuild it with `modalign ingest`" in err


@pytest.mark.parametrize("command", ["segments", "fw"])
@pytest.mark.parametrize(
    "key, value, error, names",
    [("session_id", 3, "ParseError", "manifest.json"),
     ("blob", "sessions/sess001.js\n", "MissingFile", "sess001.js")],
    ids=["session-id-number", "blob-with-line-break"],
)
def test_damaged_index_row_exits_with_one_line(planted_corpus, tmp_path, capsys, command,
                                               key, value, error, names):
    idx = shutil.copytree(planted_corpus.index, tmp_path / "idx")
    doc = json.loads((idx / "manifest.json").read_text(encoding="utf-8"))
    doc["sessions"][1][key] = value
    (idx / "manifest.json").write_text(json.dumps(doc), encoding="utf-8")
    assert run(command, "--index", idx, "--out", tmp_path / "out") == 3
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and err.startswith(f"{error}: {idx}")
    assert names in err and not (tmp_path / "out").exists()


_TABLES = ("sess001.words.npy", "sess001.gaze.npy")
_TEXT = ("manifest.json", "speakers.csv")  # index files outside sessions/, read by fw
_FRACTION = st.floats(0, 1, exclude_max=True)
# Where to flip a byte: within the first 160 bytes, which hold a table's
# whole header, or at a fraction of the file's length.
_OFFSET = st.one_of(st.integers(0, 159), _FRACTION)


def _damage(path: Path, kind: str, detail) -> None:
    """Damage one index file in place."""
    data = path.read_bytes()
    if kind == "truncate":  # always cuts into a JSON blob's closing brace
        path.write_bytes(data[: int(detail * (len(data) - 1))])
    elif kind == "flip":
        buf = bytearray(data)
        for at, mask in detail:
            buf[(at if isinstance(at, int) else int(at * len(buf))) % len(buf)] ^= mask
        path.write_bytes(bytes(buf))
    elif kind == "delete":
        path.unlink()
    else:  # rewrite a table with another dtype, or as pickled objects
        table = np.load(path, allow_pickle=False)
        if kind == "object":
            np.save(path, np.array(table.tolist(), dtype=object), allow_pickle=True)
        else:
            np.save(path, table.astype([(name, detail) for name in table.dtype.names]))


@settings(max_examples=150, deadline=None)
@given(
    damage=st.one_of(
        st.tuples(st.sampled_from(("sess001.json",) + _TABLES + _TEXT),
                  st.sampled_from(("truncate", "delete")), _FRACTION),
        st.tuples(st.sampled_from(("sess001.json",) + _TABLES + _TEXT), st.just("flip"),
                  st.lists(st.tuples(_OFFSET, st.integers(1, 255)), min_size=1, max_size=4)),
        st.tuples(st.sampled_from(_TABLES), st.just("dtype"),
                  st.sampled_from(("<f4", ">f8", "<i8", "<U8", "?"))),
        st.tuples(st.sampled_from(_TABLES), st.just("object"), st.none()),
    )
)
def test_index_corruption_exits_cleanly(planted_corpus, damage):
    """A damaged index file never escapes the exit-code contract.

    Truncating, deleting or retyping a file exits 3 with one line naming it;
    a flipped byte may also yield data that loads (exit 0) or fails a later
    check, but always with one line and no traceback.  ``segments`` reads the
    session files, and ``fw`` also the speakers.
    """
    name, kind, detail = damage
    with tempfile.TemporaryDirectory() as tmp:
        idx = shutil.copytree(planted_corpus.index, Path(tmp) / "idx")
        _damage(idx / name if name in _TEXT else idx / "sessions" / name, kind, detail)
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            rc = run("fw" if name in _TEXT else "segments", "--index", idx,
                     "--out", Path(tmp) / "s.csv")
    err = err.getvalue()
    assert rc in (0, 2, 3)
    assert "Traceback" not in err
    if rc:
        assert len(err.splitlines()) == 1
    if kind != "flip":
        assert rc == 3 and name in err, err


def test_build_panel_finds_its_stages_through_cli(planted_corpus, monkeypatch):
    """The benchmark times the pipeline by patching these names on ``modalign.cli``."""
    for name in ("build_panel", "corpus_word_pitches", "session_segments", "join_streams",
                 "RunConfig", "PitchSettings"):
        assert hasattr(cli, name), name
    seen = []

    def spy(name):
        stage = getattr(cli, name)

        def call(*args, **kwargs):
            seen.append(name)
            return stage(*args, **kwargs)

        return call

    for name in ("corpus_word_pitches", "session_segments", "join_streams"):
        monkeypatch.setattr(cli, name, spy(name))
    rows, parties, skipped = cli.build_panel(CorpusIndex(planted_corpus.index), cli.RunConfig())
    assert seen == ["corpus_word_pitches", "session_segments"]
    assert parties == ["AfD", "SPD"] and len(rows) + skipped == 4 * 120
    assert 0 < sum(row.regressors["addressing"] for row in rows) < len(rows)


def test_missing_out_exits_2_with_one_line(planted_corpus, capsys):
    assert run("segments", "--index", planted_corpus.index) == 2
    assert capsys.readouterr().err == (
        "ValidationError: modalign segments: the following arguments are required: --out\n"
    )


def test_advise_incomplete_query_exits_2(capsys):
    assert run("advise", "--data", "discrete", "--representation", "semantic") == 2
    assert run("advise", "--data", "continuous", "--integration", "implicit") == 2
    assert "IncompleteQuery" in capsys.readouterr().err


def test_help_lists_units(capsys):
    for argv, needles in {
        ("pitch", "--help"): ("SAMPLES", "HZ"),
        ("segments", "--help"): ("DEG", "N"),
        ("align", "--help"): ("SECONDS",),
        ("synth", "--help"): ("SD", "FRACTION"),
    }.items():
        with pytest.raises(SystemExit) as exc:
            run(*argv)
        assert exc.value.code == 0
        text = capsys.readouterr().out
        for needle in needles:
            assert needle in text, (argv, needle)
