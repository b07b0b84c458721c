"""Acceptance battery: one test per release gate, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict lines;
the end-to-end gate (number 6) budgets the bulk of the runtime.
"""

import json
import math
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from modalign.cli import main
from modalign.errors import IncompleteQuery
from modalign.gaze import (
    AddressRule,
    detect_address_segments,
    enforce_min_words,
)
from modalign.latent import (
    DataKind,
    Integration,
    Representation,
    StrategyQuery,
    advise,
    cca_align,
    dtw_align,
)
from modalign.pitch import (
    AudioBuffer,
    PitchRange,
    WordPitch,
    estimate_pitch_track,
    standardize_by_speaker,
)
from modalign.stats import PanelRow, fe_regress, fightin_words
from modalign.synth import SynthSpec
from modalign.timeline import Modality, join_streams, stream_from_columns

from _e2e import interaction_name, planted_run
from _oracles import (
    brute_force_join_arrays,
    cca_correlations_eig,
    dummy_variable_ols,
    exhaustive_dtw_cost,
    fightin_words_mp,
    gaze_trace,
)


@contextmanager
def verdict(label):
    try:
        yield
    except BaseException:
        print(f"[FAIL] {label}")
        raise
    else:
        print(f"[PASS] {label}")


def test_01_pitch_accuracy_on_pure_tones():
    with verdict("pitch: pure 110/220/440 Hz tones within 1% median error, < 1 s each"):
        sr, seconds = 16000, 10.0
        t = np.arange(int(sr * seconds)) / sr
        for freq in (110.0, 220.0, 440.0):
            audio = AudioBuffer(0.5 * np.sin(2 * np.pi * freq * t), sr)
            tic = time.perf_counter()
            track = estimate_pitch_track(audio, PitchRange(75.0, 500.0))
            elapsed = time.perf_counter() - tic
            voiced = track.f0[track.voiced]
            assert voiced.size > 0
            median_err = np.median(np.abs(voiced - freq)) / freq
            assert median_err < 0.01, f"{freq} Hz: median error {median_err:.4%}"
            assert elapsed < 1.0, f"{freq} Hz: took {elapsed:.2f} s"


def test_02_speaker_standardization_moments():
    with verdict("standardization: per-speaker z mean within 1e-9 of 0, SD within 1e-9 of 1"):
        rng = np.random.default_rng(90)
        pitches = []
        for s in range(30):
            base = float(rng.uniform(90, 260))
            n = int(rng.integers(2, 60))
            vals = base + rng.normal(scale=12.0, size=n)
            pitches.extend(
                WordPitch(f"w{s:02d}_{i:03d}", "sess", f"spk{s:02d}", float(v), 1)
                for i, v in enumerate(vals)
            )
        out = standardize_by_speaker(pitches)
        by_speaker = {}
        for wp in out:
            by_speaker.setdefault(wp.speaker_id, []).append(wp.z)
        assert len(by_speaker) == 30
        for speaker, zs in by_speaker.items():
            zs = np.array(zs)
            assert abs(zs.mean()) < 1e-9, speaker
            assert abs(zs.std(ddof=1) - 1.0) < 1e-9, speaker


def _random_stream(rng, session, n):
    """A DERIVED stream of ``n`` random, possibly overlapping intervals."""
    starts = np.round(rng.uniform(0, 300, size=n), 3)
    durations = np.round(rng.uniform(0, 2, size=n), 3)
    durations[rng.uniform(size=n) < 0.15] = 0.0  # sprinkle point elements
    payloads = [str(i) for i in range(n)]
    return stream_from_columns(Modality.DERIVED, session, starts, starts + durations, payloads)


def test_03_interval_join_matches_brute_force():
    with verdict("join: 200 randomized trials equal the quadratic oracle; touching never pairs"):
        rng = np.random.default_rng(91)
        for trial in range(200):
            n, m = int(rng.integers(1, 1001)), int(rng.integers(1, 1001))
            a = _random_stream(rng, "s", n)  # the join ignores modality
            b = _random_stream(rng, "s", m)
            min_ov = float(rng.choice([0.0, 0.0, 0.25]))
            amap = join_streams(a, b, min_overlap=min_ov)
            got = {(p.source_id, p.target_id): p.overlap for p in amap.pairs}
            sa = np.array([e.start for e in a])
            ea = np.array([e.end for e in a])
            sb = np.array([e.start for e in b])
            eb = np.array([e.end for e in b])
            ii, jj, ov = brute_force_join_arrays(sa, ea, sb, eb, min_ov)
            expected = {
                (a.ids[i], b.ids[j]): float(o)
                for i, j, o in zip(ii, jj, ov)
            }
            assert got == expected, f"trial {trial}"
        # alternating half-open tiles share only endpoints and never align
        tiles = np.arange(50) * 2.0
        left = stream_from_columns(Modality.TEXT, "s", tiles, tiles + 1, ["x"] * 50)
        right = stream_from_columns(Modality.DERIVED, "s", tiles + 1, tiles + 2, ["0.0"] * 50)
        assert len(join_streams(left, right)) == 0


def test_04_gaze_segmentation_hand_traces():
    with verdict("gaze: yaw-band entry/exit, notes dips, non-frontal breaks, 10-word floor"):
        rule = AddressRule()
        look = lambda t, yaw=55.0, pitch=0.0, frontal=True: (t, yaw, pitch, frontal)
        spans = lambda segs: list(zip(segs.starts.tolist(), segs.ends.tolist()))
        detect = lambda rows: detect_address_segments(gaze_trace(rows), rule)

        # entry and exit at the yaw band edges
        trace = [look(k * 0.125, yaw=10.0) for k in range(8)]
        trace += [look(1.0 + k * 0.125, yaw=45.0) for k in range(8)]
        trace += [look(2.0 + k * 0.125, yaw=80.0) for k in range(8)]
        assert spans(detect(trace)) == [(1.0, 2.0)]

        # a notes dip (pitch below -20 degrees) bridges; a plain look-away splits
        bridged = [look(k * 0.125) for k in range(4)]
        bridged += [look(0.5 + k * 0.125, yaw=5.0, pitch=-30.0) for k in range(4)]
        bridged += [look(1.0 + k * 0.125) for k in range(4)]
        assert spans(detect(bridged)) == [(0.0, 1.5)]
        split = [look(k * 0.125) for k in range(4)]
        split += [look(0.5 + k * 0.125, yaw=5.0, pitch=-19.0) for k in range(4)]
        split += [look(1.0 + k * 0.125) for k in range(4)]
        assert spans(detect(split)) == [(0.0, 0.5), (1.0, 1.5)]

        # a non-frontal sample breaks even at an in-band yaw
        broken = [look(0.0), look(0.125, frontal=False), look(0.25)]
        assert spans(detect(broken)) == [(0.0, 0.125), (0.25, 0.375)]

        # ten-word minimum: 10 covered words keep a segment, 9 drop it
        slots = np.arange(40) * 0.375
        words = stream_from_columns(Modality.TEXT, "s", slots, slots + 0.375, ["tok"] * 40)
        segs = detect([look(k * 0.125) for k in range(31)])
        assert spans(segs) == [(0.0, 31 * 0.125)]  # covers 10 words and a sliver of the 11th
        kept = enforce_min_words(segs, words, rule)
        assert kept.word_counts.tolist() == [11]
        shorter = detect([look(k * 0.125) for k in range(26)])
        assert len(enforce_min_words(shorter, words, rule)) == 0  # 9 words covered


def test_05_fixed_effects_regression_oracle():
    with verdict("regression: 100 random panels match dummy-variable OLS to 1e-8; truth in 3 SE"):
        rng = np.random.default_rng(92)
        for trial in range(100):
            n_groups = int(rng.integers(2, 7))
            k = int(rng.integers(1, 4))
            beta = rng.normal(size=k)
            names = [f"x{j}" for j in range(k)]
            effects = rng.normal(scale=2.0, size=n_groups)
            rows = []
            for gid in range(n_groups):
                for _ in range(int(rng.integers(4, 30))):
                    x = rng.normal(size=k)
                    y = effects[gid] + float(x @ beta) + float(rng.normal(scale=0.4))
                    rows.append(PanelRow(y, f"g{gid}", dict(zip(names, x))))
            res = fe_regress(rows)
            yv = np.array([r.y for r in rows])
            xv = np.array([[r.regressors[nm] for nm in names] for r in rows])
            coef, se, rss = dummy_variable_ols(yv, [r.group for r in rows], xv, names)
            for nm in names:
                assert math.isclose(res.coefficients[nm], coef[nm], rel_tol=1e-8, abs_tol=1e-10)
                assert math.isclose(res.standard_errors[nm], se[nm], rel_tol=1e-8, abs_tol=1e-10)
            assert math.isclose(res.deviance, rss, rel_tol=1e-8)
        # recovery check at a size where the SE is meaningfully small
        beta = np.array([0.8, -1.2, 0.3])
        names = ["x0", "x1", "x2"]
        rows = []
        for gid in range(10):
            shift = float(rng.normal(scale=3.0))
            for _ in range(200):
                x = rng.normal(size=3)
                rows.append(
                    PanelRow(shift + float(x @ beta) + float(rng.normal()),
                             f"g{gid}", dict(zip(names, x)))
                )
        res = fe_regress(rows)
        for nm, b in zip(names, beta):
            assert abs(res.coefficients[nm] - b) < 3 * res.standard_errors[nm]


def test_06_end_to_end_planted_effect(tmp_path):
    with verdict("pipeline: planted +0.15 SD recovered (CI coverage >= 90/100, null >= 99/100, < 60 s)"):
        tic = time.perf_counter()
        covered = 0
        estimates = []
        for seed in range(100):
            spec = SynthSpec(
                seed=seed, speakers=3, words_per_speech=100,
                planted_pitch_effect=0.15, sample_rate=8000,
            )
            res = planted_run(spec, tmp_path)
            est = res.coefficients[interaction_name(spec)]
            se = res.standard_errors[interaction_name(spec)]
            if est - 1.96 * se <= 0.15 <= est + 1.96 * se:
                covered += 1
            estimates.append(est)
        calm = 0
        for seed in range(100):
            spec = SynthSpec(
                seed=1000 + seed, speakers=3, words_per_speech=100,
                planted_pitch_effect=0.0, sample_rate=8000,
            )
            res = planted_run(spec, tmp_path)
            z = res.coefficients[interaction_name(spec)] / res.standard_errors[
                interaction_name(spec)
            ]
            if abs(z) < 3.0:
                calm += 1
        elapsed = time.perf_counter() - tic
        assert covered >= 90, f"CI covered planted effect in only {covered}/100 runs"
        assert calm >= 99, f"null |z| < 3 in only {calm}/100 runs"
        assert elapsed < 60.0, f"battery took {elapsed:.1f} s"
        # the intervals must cover for the right reason: estimates center near truth
        assert abs(float(np.mean(estimates)) - 0.15) < 0.08


def test_07_log_odds_scores_high_precision():
    with verdict("lexicon: z equals 50-digit evaluation to 1e-9; swap negates exactly; equal maps -> 0"):
        rng = np.random.default_rng(93)
        vocab = [f"w{i:03d}" for i in range(60)]
        for trial in range(30):
            ca = {w: int(rng.integers(0, 80)) for w in vocab}
            cb = {w: int(rng.integers(0, 80)) for w in vocab}
            scale = float(rng.choice([0.2, 1.0, 5.0]))
            got = fightin_words(ca, cb, prior_scale=scale)
            ref = fightin_words_mp(ca, cb, scale)
            for s in got:
                assert abs(s.z - ref[s.word]) < 1e-9
            swapped = {s.word: s.z for s in fightin_words(cb, ca, prior_scale=scale)}
            for s in got:
                assert swapped[s.word] == -s.z
        same = {w: int(v) for w, v in zip(vocab, rng.integers(1, 50, size=len(vocab)))}
        assert all(s.z == 0.0 and s.delta == 0.0 for s in fightin_words(same, dict(same)))


def test_08_warping_cost_equals_exhaustive_enumeration():
    with verdict("warping: optimal cost on 500 random short pairs; identity is a free diagonal"):
        rng = np.random.default_rng(94)
        for trial in range(500):
            n, m = int(rng.integers(1, 9)), int(rng.integers(1, 9))
            d = int(rng.integers(1, 4))
            a, b = rng.normal(size=(n, d)), rng.normal(size=(m, d))
            path = dtw_align(a, b)
            diff = a[:, None, :] - b[None, :, :]
            cost = np.sqrt((diff * diff).sum(axis=2))
            assert np.isclose(path.total_cost, exhaustive_dtw_cost(cost), rtol=1e-12)
        x = rng.normal(size=(12, 3))
        identity = dtw_align(x, x)
        assert identity.total_cost == 0.0
        assert identity.pairs == tuple((i, i) for i in range(12))


def test_09_canonical_correlations_oracle():
    with verdict("correlation: self-pair gives 1 to 1e-9; planted factor matches eigensolver to 1e-6"):
        rng = np.random.default_rng(95)
        x = rng.normal(size=(60, 4))
        res = cca_align(x, x, k=4, ridge=0.0)
        assert np.all(np.abs(res.correlations - 1.0) < 1e-9)

        z = rng.normal(size=400)
        xp = np.outer(z, rng.normal(size=3)) + 0.2 * rng.normal(size=(400, 3))
        yp = np.outer(z, rng.normal(size=2)) + 0.2 * rng.normal(size=(400, 2))
        ours = cca_align(xp, yp, k=2)
        ref = cca_correlations_eig(xp, yp, k=2, ridge=1e-8)
        assert abs(ours.correlations[0] - ref[0]) < 1e-6

        for trial in range(25):
            xr = rng.normal(size=(30, 3))
            yr = rng.normal(size=(30, 3))
            c = cca_align(xr, yr, k=3).correlations
            assert np.all((c >= 0.0) & (c <= 1.0))
            assert np.all(np.diff(c) <= 1e-12)


def test_10_strategy_advisor_decision_table():
    with verdict("advisor: all five problem shapes map to their exact strategy sets"):
        table = {
            (DataKind.CONTINUOUS, None, None): [
                "adversarial training", "dynamic time warping"],
            (DataKind.DISCRETE, Representation.SEMANTIC, Integration.EXPLICIT): [
                "adversarial auto-encoders", "deep canonical correlation analysis",
                "optimal transport"],
            (DataKind.DISCRETE, Representation.SEMANTIC, Integration.IMPLICIT): [
                "cross-modal self-attention transformers"],
            (DataKind.DISCRETE, Representation.NON_SEMANTIC, Integration.EXPLICIT): [
                "supervised element labeling"],
            (DataKind.DISCRETE, Representation.NON_SEMANTIC, Integration.IMPLICIT): [
                "late fusion", "hidden Markov models"],
        }
        for (kind, rep, integ), expected in table.items():
            got = advise(StrategyQuery(kind, rep, integ))
            assert [s.name for s in got] == expected
        for bad in (
            (DataKind.DISCRETE,),
            (DataKind.DISCRETE, Representation.SEMANTIC),
            (DataKind.CONTINUOUS, Representation.SEMANTIC),
            (DataKind.CONTINUOUS, None, Integration.EXPLICIT),
        ):
            try:
                advise(StrategyQuery(*bad))
            except IncompleteQuery:
                pass
            else:
                raise AssertionError(f"StrategyQuery{bad} should have been rejected")


def test_11_cli_reruns_are_byte_identical(planted_corpus, tmp_path, capsys):
    with verdict("cli: every command re-run on unchanged inputs emits identical bytes"):
        # file-producing commands, one output location per run
        specs = {
            "pitch.csv": ("pitch", "--index", planted_corpus.index),
            "segments.csv": ("segments", "--index", planted_corpus.index),
            "align.csv": ("align", "--index", planted_corpus.index),
            "query.csv": ("query", "--index", planted_corpus.index,
                          "--select", "text", "--where", "gaze.label==AfD"),
            "fw.csv": ("fw", "--index", planted_corpus.index),
        }
        for name, argv in specs.items():
            first, second = tmp_path / f"a_{name}", tmp_path / f"b_{name}"
            assert main([str(x) for x in argv] + ["--out", str(first)]) == 0
            assert main([str(x) for x in argv] + ["--out", str(second)]) == 0
            assert first.read_bytes() == second.read_bytes(), name

        # regress writes a directory of three files
        ra, rb = tmp_path / "reg_a", tmp_path / "reg_b"
        for out in (ra, rb):
            assert main(["regress", "--index", str(planted_corpus.index), "--out", str(out)]) == 0
        for name in ("regression.json", "regression.txt", "margins.csv"):
            assert (ra / name).read_bytes() == (rb / name).read_bytes(), name

        # index rebuilds and synthetic corpora are reproducible trees
        def tree(root):
            return {
                str(p.relative_to(root)): p.read_bytes()
                for p in sorted(Path(root).rglob("*")) if p.is_file()
            }

        ia, ib = tmp_path / "idx_a", tmp_path / "idx_b"
        for out in (ia, ib):
            assert main(["ingest", "--manifest", str(planted_corpus.manifest),
                         "--out", str(out)]) == 0
        assert tree(ia) == tree(ib)

        sa, sb = tmp_path / "syn_a", tmp_path / "syn_b"
        for out in (sa, sb):
            assert main(["synth", "--out", str(out), "--seed", "11",
                         "--speakers", "2", "--words", "30"]) == 0
        assert tree(sa) == tree(sb)

        # stdout-only command
        capsys.readouterr()
        assert main(["advise", "--data", "continuous"]) == 0
        once = capsys.readouterr().out
        assert main(["advise", "--data", "continuous"]) == 0
        assert capsys.readouterr().out == once
