"""End-to-end command-line runs against a planted synthetic corpus."""

import contextlib
import csv
import dataclasses
import inspect
import io
import json
import math
import os
import shutil
import tempfile
import wave
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from modalign import cli, errors
from modalign.cli import main
from modalign.ingest import INDEX_FORMAT_VERSION, CorpusIndex
from modalign.stats import PanelRow, fe_regress, fightin_words

from _oracles import DROP, session_file

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
    files = sorted(p.name for p in (tmp_path / "idx" / "sessions").iterdir())
    assert files == ["sess000.session", "sess001.session"]


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
    capsys.readouterr()
    huge = tmp_path / "huge.json"
    huge.write_text(json.dumps({"sample_rate": 2**31}))  # refused before any audio is made
    assert run("synth", "--out", tmp_path / "d", "--spec", huge) == 2
    assert capsys.readouterr().err.startswith("InvalidSpec: sample_rate must be in [8000, 192000]")
    assert not (tmp_path / "d").exists()


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


def test_index_moves_with_its_corpus(planted_corpus, tmp_path, capsys):
    # audio paths are stored relative to the index, so the pair moves as one
    assert run("pitch", "--index", planted_corpus.index, "--out", tmp_path / "here.csv") == 0
    moved = tmp_path / "moved"
    shutil.copytree(planted_corpus.root / "raw", moved / "raw")
    shutil.copytree(planted_corpus.index, moved / "idx")
    assert run("pitch", "--index", moved / "idx", "--out", tmp_path / "there.csv") == 0
    assert (tmp_path / "there.csv").read_bytes() == (tmp_path / "here.csv").read_bytes()
    capsys.readouterr()
    # the index alone loses its audio
    alone = shutil.copytree(planted_corpus.index, tmp_path / "alone" / "idx")
    assert run("pitch", "--index", alone, "--out", tmp_path / "alone.csv") == 3
    err = capsys.readouterr().err
    assert err.startswith(f"MissingFile: {alone / '..' / 'raw' / 'sessions'}")
    assert len(err.splitlines()) == 1


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


def test_regress_without_addressed_words_names_the_rule(planted_corpus, tmp_path, capsys):
    # no head turns as far as 170 degrees, so the addressing column would be all zeros
    out = tmp_path / "reg"
    assert run("regress", "--index", planted_corpus.index, "--out", out,
               "--yaw-min", 170, "--yaw-max", 171, "--min-words", 3) == 3
    assert capsys.readouterr().err == (
        "DataError: no word was addressed: no segment labelled 'AfD' with yaw in "
        "[170.0, 171.0] covers 3 or more words\n"
    )
    assert not out.exists()


def test_regress_with_a_party_never_addressed_names_it(planted_corpus, tmp_path, capsys):
    # every AfD speaker looks straight ahead, out of the yaw band, so addressing_x_SPD would
    # equal addressing: the error names the party and the addressed words per party
    raw = shutil.copytree(planted_corpus.root / "raw", tmp_path / "raw")
    sessions = truth(planted_corpus)["sessions"]
    spd_addressed = sum(len(s["in_segment_word_ids"]) for s in sessions.values()
                        if s["party"] == "SPD")
    assert spd_addressed > 0
    for sid, sess in sessions.items():
        if sess["party"] == "AfD":
            gaze = raw / "sessions" / f"{sid}.csv"
            header, *rows = gaze.read_text(encoding="utf-8").splitlines()
            rows = [row.split(",") for row in rows]
            gaze.write_text("\n".join([header] + [f"{t},0.0,{p},{f}" for t, _, p, f in rows]) + "\n",
                            encoding="utf-8")
    assert run("ingest", "--manifest", raw / "manifest.json", "--out", tmp_path / "idx") == 0
    capsys.readouterr()
    out = tmp_path / "reg"
    assert run("regress", "--index", tmp_path / "idx", "--out", out) == 3
    assert capsys.readouterr().err == (
        "DataError: no word of AfD was addressed: no segment labelled 'AfD' with yaw in "
        "[45.0, 70.0] covers 10 or more of those words; addressed words per party: "
        f"AfD 0, SPD {spd_addressed}\n"
    )
    assert not out.exists()


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


def test_exact_fit_writes_standard_json(tmp_path, capsys):
    """JSON has no infinity, so an exact fit's log-likelihood is written as null."""
    panel = tmp_path / "panel.csv"
    panel.write_text("y,group,x\n1,a,1\n2,a,2\n3,b,3\n5,b,5\n7,c,7\n")
    out = tmp_path / "reg"
    assert run("regress", "--panel", panel, "--out", out) == 0
    capsys.readouterr()

    def refuse(name):
        raise ValueError(f"non-standard JSON constant {name}")

    doc = json.loads((out / "regression.json").read_text(), parse_constant=refuse)
    assert doc["log_likelihood"] is None and doc["deviance"] == 0.0
    assert "log-likelihood         inf" in (out / "regression.txt").read_text()


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


def test_csv_cells_with_commas_quotes_and_line_breaks_are_quoted(tmp_path, capsys):
    tokens = ['ja, "so"', 'sag "nein"', "zwei\nzeilen", "drei\rteile"]
    assert run("synth", "--out", tmp_path / "raw", "--seed", 3, "--speakers", 2,
               "--words", 40, "--effect", 0.1) == 0
    transcript = tmp_path / "raw" / "sessions" / "sess000.jsonl"
    lines = transcript.read_text(encoding="utf-8").splitlines()
    for k, token in enumerate(tokens):
        lines[k] = json.dumps({**json.loads(lines[k]), "word": token})
    transcript.write_text("\n".join(lines) + "\n", encoding="utf-8")
    assert run("ingest", "--manifest", tmp_path / "raw" / "manifest.json",
               "--out", tmp_path / "idx") == 0
    idx = ["--index", tmp_path / "idx"]
    commands = {"pitch.csv": (["pitch", *idx], tokens), "fw.csv": (["fw", *idx], tokens),
                "segments.csv": (["segments", *idx, "--label", "a,b"], ["a,b"])}
    for k, token in enumerate(tokens):
        commands[f"query{k}.csv"] = (
            ["query", *idx, "--select", "text", "--where", f"text.word=={token}"], [token])
    for name, (argv, want) in commands.items():
        assert run(*argv, "--out", tmp_path / name) == 0, name
        with open(tmp_path / name, newline="", encoding="utf-8") as fh:
            header, *rows = csv.reader(fh)
        assert rows and all(len(row) == len(header) for row in rows), name
        assert set(want) <= {cell for row in rows for cell in row}, name
    capsys.readouterr()


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
    # the default runs a lane per usable CPU; --threads 1 tracks in the calling thread alone;
    # --threads 2 and 3, and the config key pitch.threads, add pool threads beside it
    config = tmp_path / "threads.json"
    config.write_text(json.dumps({"pitch": {"threads": 3}}))
    runs = {"default": [], "one": ["--threads", 1], "two": ["--threads", 2],
            "three": ["--threads", 3], "config": ["--config", config]}
    for name, flags in runs.items():
        assert run(*flags, "pitch", "--index", planted_corpus.index,
                   "--out", tmp_path / f"{name}.csv") == 0
        assert run(*flags, "regress", "--index", planted_corpus.index,
                   "--out", tmp_path / f"{name}_reg") == 0
    capsys.readouterr()
    for name in ("one", "two", "three", "config"):
        assert (tmp_path / f"{name}.csv").read_bytes() == (tmp_path / "default.csv").read_bytes()
        assert ((tmp_path / f"{name}_reg" / "regression.json").read_bytes()
                == (tmp_path / "default_reg" / "regression.json").read_bytes())


def test_cli_and_library_share_one_thread_default():
    # the thread count is a pitch setting: the tracker takes no keyword for it beside them
    assert "threads" not in inspect.signature(cli.pitch.estimate_pitch_track).parameters
    assert "threads" not in {f.name for f in dataclasses.fields(cli.RunConfig)}
    assert cli.RunConfig().pitch.threads == cli.PitchSettings().threads == len(os.sched_getaffinity(0))


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


_SESSION_FILE = "idx/sessions/sess000.session"


def _session(**rows) -> dict:
    """sess000's session file: one word ``ja`` and two gaze samples unless ``rows`` say else."""
    return {_SESSION_FILE: session_file(**rows)}


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


def _sess000_with_wav(rate: int, frames: int, drop: int = 0) -> dict:
    """An index of sess000 alone whose audio is a silent WAV of ``frames`` frames at ``rate`` Hz,
    less its last ``drop`` bytes."""
    buf = io.BytesIO()
    with wave.open(buf, "wb") as wf:
        wf.setnchannels(1)
        wf.setsampwidth(2)
        wf.setframerate(rate)
        wf.writeframes(b"\0\0" * frames)
    row = {"session_id": "sess000", "speaker_id": "spk000", "audio": "TMP/idx/a.wav"}
    doc = {"format_version": INDEX_FORMAT_VERSION, "sessions": [row]}
    wav = buf.getvalue()
    return {"idx/manifest.json": json.dumps(doc), "idx/a.wav": wav[: len(wav) - drop]}


def _index_manifest(**row) -> dict:
    """An index manifest of sess000 alone whose row has these fields."""
    row = {"session_id": "sess000", "speaker_id": "spk000", "audio": "a.wav", **row}
    return {"idx/manifest.json": json.dumps({"format_version": INDEX_FORMAT_VERSION,
                                             "sessions": [row]})}


_MANIFEST = ["ingest", "--manifest", "TMP/m.json"]
_QUERY = ["query", "--index", "IDX", "--where", "gaze.label==AfD"]


@pytest.mark.parametrize(
    "files, argv, error",
    [
        ({}, ["align", "--index", "IDX", "--min-overlap", "-1"], "ValidationError"),
        ({"idx/manifest.json": "{not json"}, ["segments", "--index", "IDX"], "ParseError"),
        ({"idx/speakers.csv": "[1, 2"}, ["fw", "--index", "IDX"], "ParseError"),
        ({_SESSION_FILE: "\x00"}, ["segments", "--index", "IDX"], "ParseError"),
        ({_SESSION_FILE: "{}\n"}, ["segments", "--index", "IDX"], "ParseError"),
        (_session(header={"gaze": "2"}), ["segments", "--index", "IDX"], "ParseError"),
        (_session(header={"gaze": None}), ["segments", "--index", "IDX"], "ParseError"),
        (_session(header={"gaze": True}), ["segments", "--index", "IDX"], "ParseError"),
        (_session(gaze=[(math.nan, 50, 0, 1), (0.125, 50, 0, 1)]),
         ["segments", "--index", "IDX"], "ParseError"),
        ({_SESSION_FILE: session_file()[:-10]}, ["segments", "--index", "IDX"], "ParseError"),
        (_session(gaze=[(0.0, 50, 0, 1), (0.125, 50, 0, 2)]),
         ["segments", "--index", "IDX"], "ParseError"),
        (_session(header={"words": 1.0}), ["segments", "--index", "IDX"], "ParseError"),
        (_session(header={"words": 2}), ["segments", "--index", "IDX"], "ParseError"),
        ({"p.csv": _PANEL.format(y="nan", x=1)}, ["regress", "--panel", "TMP/p.csv"], "ParseError"),
        ({"p.csv": _PANEL.format(y=4, x="inf")}, ["regress", "--panel", "TMP/p.csv"], "ParseError"),
        ({"a.csv": "word,count\nja,nan\n", "b.csv": "word,count\nja,3\n"},
         ["fw", "--counts-a", "TMP/a.csv", "--counts-b", "TMP/b.csv"], "ParseError"),
        ({"a.csv": "word,count\nja,-5\n", "b.csv": "word,count\nja,3\n"},
         ["fw", "--counts-a", "TMP/a.csv", "--counts-b", "TMP/b.csv"], "ParseError"),
        ({"a.csv": "word,count\nja,3\n", "b.csv": "word,count\nja,2\n"},
         ["fw", "--counts-a", "TMP/a.csv", "--counts-b", "TMP/b.csv"], "EmptyVocabulary"),
        ({"c.json": '{"pitch": {"hop": "x"}}'},
         ["--config", "TMP/c.json", "pitch", "--index", "IDX"], "ValidationError"),
        ({"c.json": '{"pitch": {"threads": "two"}}'},
         ["--config", "TMP/c.json", "pitch", "--index", "IDX"], "ValidationError"),
        ({"c.json": '{"threads": 2}'},
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
        ({"s.json": '{"target_party": "A,B"}'}, ["synth", "--spec", "TMP/s.json"], "InvalidSpec"),
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
        (_sess000_with_wav(4000, 8000),  # sess000's speaker is of SPD, the one party left
         ["regress", "--index", "IDX", "--target-party", "SPD"], "ParseError"),
        (_corpus(gaze="-5.0,50,0,1\n"), _MANIFEST, "ParseError"),
        (_session(gaze=[(-5.0, 50, 0, 1), (0.125, 50, 0, 1)]),
         ["segments", "--index", "IDX"], "ParseError"),
        (_corpus(gaze="0.125,50,0,1\n0.0,50,0,1\n0.125,50,0,1\n"), _MANIFEST, "ParseError"),
        (_session(gaze=[(0.0, 50, 0, 1), (0.0, 50, 0, 1)]),
         ["segments", "--index", "IDX"], "ParseError"),
        (_session(words=[(-5.0, 0.375, 0)]), ["segments", "--index", "IDX"], "ParseError"),
        ({}, ["pitch", "--index", "IDX", "--hop", "abc"], "ValidationError"),
        ({}, ["pitch", "--index", "IDX", "--hop", "0"], "ValidationError"),
        ({}, ["pitch", "--index", "IDX", "--frame-length", "1024", "--hop", "2048"],
         "ValidationError"),
        ({"c.json": '{"pitch": {"threshold": -1}}'},
         ["--config", "TMP/c.json", "segments", "--index", "IDX"], "ValidationError"),
        ({"c.json": '{"pitch": {"floor": 300, "ceiling": 100}}'},
         ["--config", "TMP/c.json", "fw", "--index", "IDX"], "InvalidRange"),
        ({"a.csv": "word,count\nx,1\n", "b.csv": "word,count\ny,1\n"},
         ["fw", "--counts-a", "TMP/a.csv", "--counts-b", "TMP/b.csv", "--prior", "5e-324"],
         "NonFiniteStatistic"),
        ({"a.csv": "word,count\nx,1e308\ny,1e308\n", "b.csv": "word,count\nx,1e308\ny,1e308\n"},
         ["fw", "--counts-a", "TMP/a.csv", "--counts-b", "TMP/b.csv"], "NonFiniteStatistic"),
        ({"p.csv": "y,group,x\n1e308,a,0\n-1e308,a,1\n1e308,b,0\n-1e308,b,1\n1e308,c,0\n"},
         ["regress", "--panel", "TMP/p.csv"], "NonFiniteStatistic"),
        (_session(words=[], vocab=[]), ["segments", "--index", "IDX"], "ParseError"),
        (_session(header={"id": "abc"}), ["segments", "--index", "IDX"], "ParseError"),
        (_session(header={"id": ["w000000"]}), ["segments", "--index", "IDX"], "ParseError"),
        (_session(header={"vocab": "ja"}), ["segments", "--index", "IDX"], "ParseError"),
        (_session(vocab=[1]), ["segments", "--index", "IDX"], "ParseError"),
        (_session(words=[(0.0, 1.0, 1)]), ["segments", "--index", "IDX"], "ParseError"),
        (_corpus(transcript=_WORD.replace(b"spk000", b"spk001")), _MANIFEST, "ParseError"),
        (_corpus(transcript=_WORD + b'{"word": "nein", "start": 1, "end": 2, "speaker_id": "x"}\n'),
         _MANIFEST, "ParseError"),
        ({}, ["pitch"], "ValidationError"),
        ({}, ["nosuch"], "ValidationError"),
        (_sess000_with_wav(16000, 100, drop=1), ["pitch", "--index", "IDX"], "ParseError"),
        (_sess000_with_wav(16000, 100, drop=214), ["pitch", "--index", "IDX"], "ParseError"),
        ({"p.csv": "y,group,x,x\n1,a,0,0\n2,a,1,1\n3,b,0,0\n4,b,1,1\n"},
         ["regress", "--panel", "TMP/p.csv"], "ParseError"),
        ({"p.csv": _PANEL.format(y=4, x=1)}, ["regress", "--panel", "TMP/p.csv", "--x", "y"],
         "ValidationError"),
        ({"p.csv": _PANEL.format(y=4, x=1)}, ["regress", "--panel", "TMP/p.csv", "--x", "x,x"],
         "ValidationError"),
        ({"p.csv": _PANEL.format(y=4, x=1)}, ["regress", "--panel", "TMP/p.csv", "--group", "y"],
         "ValidationError"),
        ({"idx/manifest.json": "[" * 100_000}, ["segments", "--index", "IDX"], "ParseError"),
        ({"c.json": "[" * 100_000}, ["--config", "TMP/c.json", "segments", "--index", "IDX"],
         "ValidationError"),
        (_corpus(transcript=_WORD.replace(b'"end": 1', b'"end": 1' + b"0" * 400)), _MANIFEST,
         "ParseError"),
        (_corpus(transcript=_WORD.replace(b'"end": 1', b'"end": 1' + b"0" * 5000)), _MANIFEST,
         "ParseError"),
        ({"c.json": '{"pitch": {"threshold": 1' + "0" * 400 + "}}"},
         ["--config", "TMP/c.json", "segments", "--index", "IDX"], "ValidationError"),
        ({"s.json": '{"jitter_hz": 1' + "0" * 400 + "}"}, ["synth", "--spec", "TMP/s.json"],
         "ValidationError"),
        (_corpus(transcript=b"[" * 100_000 + b"]" * 100_000 + b"\n"), _MANIFEST, "ParseError"),
        (_session(words=[(0.0, 1.0, 2**32 - 1)]), ["fw", "--index", "IDX"], "ParseError"),
        (_session(words=[(0.0, 1.0, 0), (1.0, 2.0, 1)], vocab=["ja", "ja"]),
         ["segments", "--index", "IDX"], "ParseError"),
        (_session(words=[(0.0, 1.0, 0), (1.0, 2.0, 1)], vocab=["ja", None]),
         ["query", "--index", "IDX", "--select", "text", "--where", "text.word==ja"], "ParseError"),
        (_session(header={"word": ["ja"]}), ["segments", "--index", "IDX"], "ParseError"),
        (_session(header={"vocab": DROP}), ["segments", "--index", "IDX"], "ParseError"),
        (_session(words=[(0.0, 1.0)]), ["fw", "--index", "IDX"], "ParseError"),
        (_session(vocab=["ja", "nein"]), ["fw", "--index", "IDX"], "ParseError"),
        (_session(words=[(0.0, 1.0, 1), (1.0, 2.0, 0)], vocab=["ja", "nein"]),
         ["segments", "--index", "IDX"], "ParseError"),
        (_corpus(transcript=_WORD + _WORD.replace(b'"ja", "start": 0, "end": 1',
                                                  b'"\\ud800", "start": 1, "end": 2')),
         _MANIFEST, "ParseError"),
        (_corpus(session_id='"\\ud800"'), _MANIFEST, "ParseError"),
        (_corpus(speaker_id='"spk\\udfff"'), _MANIFEST, "ParseError"),
        (_session(vocab=["\ud800"]), ["pitch", "--index", "IDX"], "ParseError"),
        (_index_manifest(session_id="\ud800"), ["segments", "--index", "IDX"], "ParseError"),
        (_index_manifest(speaker_id="\udcff"), ["fw", "--index", "IDX"], "ParseError"),
        ({}, ["segments", "--index", "IDX", "--label", "\udcff"], "ValidationError"),
        ({"c.json": '{"address": {"label": "\\ud800"}}'},
         ["--config", "TMP/c.json", "query", "--index", "IDX", "--select", "text",
          "--where", "gaze.label==AfD"], "ValidationError"),
        ({"s.json": '{"other_party": "\\ud800"}'}, ["synth", "--spec", "TMP/s.json"],
         "InvalidSpec"),
    ],
    ids=["negative-min-overlap", "corrupt-manifest", "corrupt-speakers", "corrupt-session",
         "session-missing-key", "gaze-string", "gaze-null", "gaze-bool",
         "gaze-nan", "gaze-ragged", "gaze-frontal-2", "words-start-string", "words-ragged",
         "panel-nan", "panel-inf", "counts-nan", "counts-negative",
         "fw-counts-one-word", "config-hop-string", "config-threads-string",
         "config-threads-top-level",
         "config-empty-yaw-band", "manifest-list", "manifest-session-number",
         "manifest-transcript-number",
         "manifest-speakers-number", "query-select-audio", "query-select-visual", "prior-nan",
         "threshold-nan", "threshold-negative", "min-overlap-nan", "yaw-min-nan",
         "notes-pitch-nan", "threads-0", "threads-negative", "effect-nan", "effect-inf",
         "jitter-nan", "jitter-inf", "synth-spec-party-comma",
         "out-is-dir", "out-is-file", "regress-out-is-file",
         "fw-index-and-counts", "transcript-not-utf8", "counts-not-utf8",
         "fw-unknown-target-party", "regress-unknown-target-party", "manifest-session-id-escapes",
         "manifest-session-id-number", "manifest-speaker-not-listed", "speakers-bad-gender",
         "speakers-missing-speaker", "wav-no-frames", "wav-rate-4000", "gaze-csv-negative-t",
         "gaze-negative-t", "gaze-csv-repeated-t", "gaze-repeated-t", "words-negative-start",
         "hop-not-int", "hop-0", "hop-over-frame", "config-threshold-on-segments",
         "config-inverted-band-on-fw", "fw-prior-underflows", "fw-counts-overflow",
         "panel-overflow", "empty-session", "blob-id-string", "blob-leftover-id",
         "blob-word-string", "blob-word-number", "blob-word-count", "transcript-other-speaker",
         "transcript-mixed-speakers", "index-missing", "unknown-command", "wav-odd-data-bytes",
         "wav-header-cut", "panel-header-repeats", "panel-x-is-y", "panel-x-twice",
         "panel-group-is-y", "index-manifest-too-deep", "config-too-deep",
         "transcript-time-401-digits", "transcript-time-5001-digits",
         "config-threshold-401-digits", "synth-spec-401-digits", "transcript-too-deep",
         "words-code-past-vocab", "blob-vocab-repeats", "blob-vocab-null", "blob-leftover-word",
         "blob-without-vocab", "words-without-code", "blob-vocab-unused",
         "blob-vocab-out-of-order", "transcript-word-surrogate", "manifest-session-id-surrogate",
         "manifest-speaker-id-surrogate", "blob-vocab-surrogate", "index-session-id-surrogate",
         "index-speaker-id-surrogate", "label-not-utf8", "config-label-surrogate",
         "synth-spec-party-surrogate"],
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
    if error == "ParseError" and any(name.startswith("idx/sessions/") for name in files):
        assert "sess000" in err
    kept = [name for name in files if name.split("/")[0] == "out"]
    if kept:  # an unwritable --out is named in the error and left as it was
        assert f"cannot write {tmp_path / 'out'}" in err
        assert all((tmp_path / name).read_text() == "keep\n" for name in kept)


_LONG_NAME = "x" * 300  # longer than a file name may be


def _index_row(idx: Path, **fields) -> None:
    """Set ``fields`` in the first session row of the index at ``idx``."""
    doc = json.loads((idx / "manifest.json").read_text(encoding="utf-8"))
    doc["sessions"][0].update(fields)
    (idx / "manifest.json").write_text(json.dumps(doc), encoding="utf-8")


def _corpus_row(raw: Path, key: str, bad: Path) -> None:
    """Set ``key`` of the first session, or of the manifest for ``speakers``, to ``bad``."""
    doc = json.loads((raw / "manifest.json").read_text(encoding="utf-8"))
    (doc["sessions"][0] if key != "speakers" else doc)[key] = str(bad)
    (raw / "manifest.json").write_text(json.dumps(doc), encoding="utf-8")


def _table_unreadable(idx: Path, bad: Path) -> Path:
    """Make sess000's session file unreadable in the index at ``idx``; the path that fails."""
    if bad.name == _LONG_NAME:  # a session id too long to name its file
        _index_row(idx, session_id=_LONG_NAME)
        return idx / "sessions" / (_LONG_NAME + ".session")
    table = idx / "sessions" / "sess000.session"
    table.unlink()
    table.mkdir()
    return table


_UNREADABLE = ["manifest", "index", "panel", "counts-a", "counts-b", "config", "spec",
               "transcript", "gaze", "speakers", "audio", "table"]


@pytest.mark.parametrize(
    "case, kind",
    [(case, kind) for case in _UNREADABLE for kind in ("long-name", "directory")]
    # a path from a JSON string may hold a NUL byte, which no file name can
    + [(case, "nul-byte") for case in ("transcript", "gaze", "speakers", "audio")],
    ids=lambda value: value,
)
def test_unreadable_input_exits_with_one_line(planted_corpus, tmp_path, capsys, case, kind):
    """An input that cannot be opened exits with one line naming it: 3 for data, 2 for settings."""
    bad = tmp_path / {"long-name": _LONG_NAME, "directory": "a_dir", "nul-byte": "a\0b"}[kind]
    if kind == "directory":
        bad.mkdir()
    counts = tmp_path / "c.csv"
    counts.write_text("word,count\nja,1\nnein,2\n", encoding="utf-8")
    idx = shutil.copytree(planted_corpus.index, tmp_path / "idx")
    raw = tmp_path / "raw"
    named = bad
    if case in ("transcript", "gaze", "speakers"):
        shutil.copytree(planted_corpus.root / "raw", raw)
        _corpus_row(raw, case, bad)
    elif case == "audio":
        _index_row(idx, audio=str(bad))
    elif case == "index":
        named = bad / "manifest.json"
    elif case == "table":
        named = _table_unreadable(idx, bad)
    argv = {
        "manifest": ["ingest", "--manifest", bad],
        "index": ["segments", "--index", bad],
        "panel": ["regress", "--panel", bad],
        "counts-a": ["fw", "--counts-a", bad, "--counts-b", counts],
        "counts-b": ["fw", "--counts-a", counts, "--counts-b", bad],
        "config": ["--config", bad, "segments", "--index", idx],
        "spec": ["synth", "--spec", bad],
        "audio": ["pitch", "--index", idx],
        "table": ["segments", "--index", idx],
    }.get(case, ["ingest", "--manifest", raw / "manifest.json"])
    out = tmp_path / "out"
    exit_code = 2 if case in ("config", "spec") else 3
    assert run(*argv, "--out", out) == exit_code
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and str(named) in err and "Traceback" not in err
    assert err.startswith("MissingFile: " if exit_code == 3 else "ValidationError: cannot read ")
    assert not out.exists()


def test_ingest_onto_a_symlink_loop_exits_2_and_leaves_it(planted_corpus, tmp_path, capsys):
    loop = tmp_path / "loop"
    loop.symlink_to(loop)
    assert run("ingest", "--manifest", planted_corpus.manifest, "--out", loop) == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and err.startswith(f"ValidationError: cannot write {loop}")
    assert loop.is_symlink() and os.readlink(loop) == str(loop)
    assert [p.name for p in tmp_path.iterdir()] == ["loop"]


def test_ingest_onto_a_symlink_to_an_index_exits_2_before_writing(planted_corpus, tmp_path,
                                                                   capsys, monkeypatch):
    idx = shutil.copytree(planted_corpus.index, tmp_path / "idx")
    before = {p: p.read_bytes() for p in idx.rglob("*") if p.is_file()}
    link = tmp_path / "idxlink"
    link.symlink_to(idx)

    def no_writes(*args):
        raise AssertionError("the index was written before --out was refused")

    monkeypatch.setattr(cli.ingest, "_write_index", no_writes)
    assert run("ingest", "--manifest", planted_corpus.manifest, "--out", link) == 2
    assert capsys.readouterr().err == f"ValidationError: cannot write {link}: it is a symbolic link\n"
    assert link.is_symlink() and os.readlink(link) == str(idx)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["idx", "idxlink"]
    assert {p: p.read_bytes() for p in idx.rglob("*") if p.is_file()} == before


def test_bad_byte_in_a_word_blob_names_its_line(planted_corpus, tmp_path, capsys):
    # the vocabulary sits in the session file's header, its line 1
    idx = shutil.copytree(planted_corpus.index, tmp_path / "idx")
    path = idx / "sessions" / "sess000.session"
    path.write_bytes(session_file(vocab=["ja\u00e4"]).replace(b"\\u00e4", b"\xff     "))
    assert run("segments", "--index", idx, "--out", tmp_path / "out") == 3
    assert capsys.readouterr().err == (
        f"ParseError: {path}:1: session 'sess000': header is not a UTF-8 JSON line: "
        "'utf-8' codec can't decode byte 0xff in position 22: invalid start byte\n"
    )


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


def test_speakers_without_a_session_change_no_regression(planted_corpus, tmp_path, capsys):
    raw = shutil.copytree(planted_corpus.manifest.parent, tmp_path / "raw")
    with open(raw / "speakers.csv", "a", encoding="utf-8") as fh:
        fh.write("spk099,Gruene,f\n")  # a speaker with no session
    assert run("ingest", "--manifest", raw / "manifest.json", "--out", tmp_path / "idx") == 0
    assert run("regress", "--index", tmp_path / "idx", "--out", tmp_path / "extra") == 0
    assert run("regress", "--index", planted_corpus.index, "--out", tmp_path / "plain") == 0
    got, want = (tmp_path / out / "regression.json" for out in ("extra", "plain"))
    assert got.read_bytes() == want.read_bytes()
    parties = sorted({p.party for p in CorpusIndex(planted_corpus.index).speakers().values()})
    capsys.readouterr()
    assert run("regress", "--index", tmp_path / "idx", "--out", tmp_path / "gruene",
               "--target-party", "Gruene") == 2
    assert capsys.readouterr().err == (
        f"ValidationError: target party 'Gruene' has no speaker; "
        f"parties on record: {', '.join(parties)}\n"
    )


def test_row_layout_index_must_be_rebuilt(planted_corpus, tmp_path, capsys):
    idx = shutil.copytree(planted_corpus.index, tmp_path / "idx")
    doc = json.loads((idx / "manifest.json").read_text(encoding="utf-8"))
    # rows of objects; numbers as JSON columns; speakers.json; file names in rows; word ids;
    # every word in the blobs; three files per session
    for version in (1, 2, 3, 4, 5, 6, 7):
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
     ("blob", "sessions/sess001.js\n", "ParseError", "manifest.json"),
     ("session_id", "../sess000", "ParseError", "manifest.json"),
     ("session_id", "/etc/hostname", "ParseError", "manifest.json"),
     ("session_id", "", "ParseError", "manifest.json")],
    ids=["session-id-number", "blob-with-line-break", "session-id-escapes", "session-id-absolute",
         "session-id-empty"],
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


_SESSION_001 = "sess001.session"
_TEXT = ("manifest.json", "speakers.csv")  # index files outside sessions/, read by fw
_FRACTION = st.floats(0, 1, exclude_max=True)
# Where to flip a byte: within the first 640 bytes, which hold a session file's
# whole header, or at a fraction of the file's length.
_OFFSET = st.one_of(st.integers(0, 639), _FRACTION)
# Header damage: a count that disagrees with the body, a key missing, one too
# many, or one of the wrong type.
_HEADER_DAMAGE = st.sampled_from([
    {"words": 121}, {"gaze": 0}, {"words": DROP}, {"gaze": DROP}, {"vocab": DROP},
    {"id": ["w000000"]}, {"words": "120"}, {"gaze": 360.0}, {"vocab": "ja"}, {"words": -1},
])


def _damage(path: Path, kind: str, detail) -> None:
    """Damage one index file in place."""
    data = path.read_bytes()
    if kind == "truncate":  # always drops at least the last byte
        path.write_bytes(data[: int(detail * (len(data) - 1))])
    elif kind == "flip":
        buf = bytearray(data)
        for at, mask in detail:
            buf[(at if isinstance(at, int) else int(at * len(buf))) % len(buf)] ^= mask
        path.write_bytes(bytes(buf))
    elif kind == "delete":
        path.unlink()
    elif kind == "body":  # a body one byte short or long
        path.write_bytes(data[:-1] if detail < 0 else data + b"\0")
    else:  # rewrite the header of a session file
        line = data.index(b"\n") + 1
        doc = {**json.loads(data[:line]), **detail}
        header = json.dumps({k: v for k, v in doc.items() if v is not DROP}).encode()
        path.write_bytes(header + b"\n" + data[line:])


@settings(max_examples=150, deadline=None)
@given(
    damage=st.one_of(
        st.tuples(st.sampled_from((_SESSION_001,) + _TEXT),
                  st.sampled_from(("truncate", "delete")), _FRACTION),
        st.tuples(st.sampled_from((_SESSION_001,) + _TEXT), st.just("flip"),
                  st.lists(st.tuples(_OFFSET, st.integers(1, 255)), min_size=1, max_size=4)),
        st.tuples(st.just(_SESSION_001), st.just("body"), st.sampled_from((-1, 1))),
        st.tuples(st.just(_SESSION_001), st.just("header"), _HEADER_DAMAGE),
    )
)
def test_index_corruption_exits_cleanly(planted_corpus, damage):
    """A damaged index file never escapes the exit-code contract.

    Truncating or deleting a file, a session file's body one byte short or
    long, or its header with a count that disagrees with the body or a key
    missing, extra or of the wrong type, exits 3 with one line naming it; a
    flipped byte may also yield data that loads (exit 0) or fails a later
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
