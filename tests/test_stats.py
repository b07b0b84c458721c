"""Fixed-effects regression, log-odds word scores, situation counting."""

import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from modalign.errors import (
    EmptyPanel,
    EmptyVocabulary,
    MissingPartyMetadata,
    NonFiniteStatistic,
    NonPositivePrior,
    RankDeficientDesign,
    UnknownRegressor,
    ValidationError,
)
from modalign.gaze import AddressSegments
from modalign.stats import (
    PanelRow,
    Z_95,
    fe_regress,
    fightin_words,
    four_situation_split,
    margins,
    render_result_table,
)
from modalign.timeline import Modality, stream_from_columns

from _oracles import dummy_variable_ols, fightin_words_mp, split_loop


# --- fixed-effects regression ----------------------------------------------

def random_panel(rng, n_groups=None, k=None, beta=None):
    n_groups = n_groups or int(rng.integers(2, 7))
    k = k or int(rng.integers(1, 4))
    beta = beta if beta is not None else rng.normal(size=k)
    names = [f"x{j}" for j in range(k)]
    effects = rng.normal(scale=2.0, size=n_groups)
    rows = []
    for gid in range(n_groups):
        for _ in range(int(rng.integers(5, 40))):
            x = rng.normal(size=k)
            y = effects[gid] + float(x @ beta) + float(rng.normal(scale=0.5))
            rows.append(PanelRow(y, f"g{gid}", dict(zip(names, x))))
    return rows, names, beta


def test_matches_dummy_variable_ols():
    rng = np.random.default_rng(21)
    for trial in range(40):
        rows, names, _ = random_panel(rng)
        res = fe_regress(rows)
        y = np.array([r.y for r in rows])
        x = np.array([[r.regressors[nm] for nm in names] for r in rows])
        groups = [r.group for r in rows]
        coef, se, rss = dummy_variable_ols(y, groups, x, names)
        for nm in names:
            assert math.isclose(res.coefficients[nm], coef[nm], rel_tol=1e-8, abs_tol=1e-10)
            assert math.isclose(res.standard_errors[nm], se[nm], rel_tol=1e-8, abs_tol=1e-10)
        assert math.isclose(res.deviance, rss, rel_tol=1e-8)


def test_recovers_planted_coefficients():
    rng = np.random.default_rng(22)
    beta = np.array([1.5, -0.75])
    rows, names, _ = random_panel(rng, n_groups=8, k=2, beta=beta)
    res = fe_regress(rows)
    for nm, true_b in zip(names, beta):
        assert abs(res.coefficients[nm] - true_b) < 3 * res.standard_errors[nm]


def test_single_group_gate():
    rng = np.random.default_rng(23)
    rows = [
        PanelRow(float(rng.normal()), "only", {"x0": float(rng.normal())})
        for _ in range(20)
    ]
    with pytest.raises(ValidationError):
        fe_regress(rows)
    res = fe_regress(rows, allow_single_group=True)
    y = np.array([r.y for r in rows])
    x = np.array([[r.regressors["x0"]] for r in rows])
    coef, se, _ = dummy_variable_ols(y, ["only"] * 20, x, ["x0"])
    assert math.isclose(res.coefficients["x0"], coef["x0"], rel_tol=1e-10)
    assert math.isclose(res.standard_errors["x0"], se["x0"], rel_tol=1e-10)


def test_rank_deficient_designs():
    rng = np.random.default_rng(24)
    rows = []
    for gid in range(3):
        for _ in range(10):
            v = float(rng.normal())
            rows.append(PanelRow(float(rng.normal()), f"g{gid}", {"a": v, "b": 2 * v}))
    with pytest.raises(RankDeficientDesign):
        fe_regress(rows)  # collinear columns
    rows = [
        PanelRow(float(rng.normal()), f"g{gid}", {"flag": float(gid)})
        for gid in range(3)
        for _ in range(10)
    ]
    with pytest.raises(RankDeficientDesign):
        fe_regress(rows)  # constant within every group: absorbed by the fixed effects
    tiny = [PanelRow(1.0, "g0", {"x": 0.5}), PanelRow(2.0, "g1", {"x": 1.5})]
    with pytest.raises(RankDeficientDesign):
        fe_regress(tiny)  # n - k - G = -1


def test_empty_and_inconsistent_panels():
    with pytest.raises(EmptyPanel):
        fe_regress([])
    rows = [PanelRow(1.0, "a", {"x": 1.0}), PanelRow(2.0, "b", {"z": 1.0})]
    with pytest.raises(ValidationError):
        fe_regress(rows)


def test_perfect_fit_likelihood():
    # outcome explained entirely by the group effects: residuals are exactly zero
    rows = []
    for gid, shift in (("g0", 0.0), ("g1", 10.0)):
        for x in (1.0, 2.0, 3.0):
            rows.append(PanelRow(shift, gid, {"x": x}))
    res = fe_regress(rows)
    assert res.coefficients["x"] == 0.0
    assert res.deviance == 0.0
    assert res.log_likelihood == math.inf
    # an exact linear fit leaves only solver-level noise
    rows = [
        PanelRow(shift + 2.0 * x, gid, {"x": x})
        for gid, shift in (("g0", 0.0), ("g1", 10.0))
        for x in (1.0, 2.0, 3.0)
    ]
    res = fe_regress(rows)
    assert math.isclose(res.coefficients["x"], 2.0, rel_tol=1e-12)
    assert res.deviance < 1e-24


def test_fe_regress_refuses_what_float64_cannot_hold():
    rows = [PanelRow(y, g, {"x": x}) for y, g, x in
            ((1e308, "a", 0.0), (-1e308, "a", 1.0), (1e308, "b", 0.0), (-1e308, "b", 1.0),
             (1e308, "c", 0.0))]
    with pytest.raises(NonFiniteStatistic, match="^fe_regress is not finite"):
        fe_regress(rows)


def test_likelihood_matches_formula():
    rng = np.random.default_rng(25)
    rows, _, _ = random_panel(rng, n_groups=3, k=1)
    res = fe_regress(rows)
    n = res.n_obs
    expected = -0.5 * n * (math.log(2 * math.pi) + math.log(res.deviance / n) + 1.0)
    assert math.isclose(res.log_likelihood, expected, rel_tol=1e-12)


def test_margins_hand_computed():
    rng = np.random.default_rng(26)
    rows, names, _ = random_panel(rng, n_groups=4, k=2)
    res = fe_regress(rows)
    cells = [("base", {"x0": 0.0}), ("treated", {"x0": 1.0, "x1": 0.5})]
    got = margins(res, cells)
    for m, (_, setting) in zip(got, cells):
        c = np.array([setting.get(nm, 0.0) for nm in names])
        beta = np.array([res.coefficients[nm] for nm in names])
        pred = float(c @ beta)
        half = Z_95 * math.sqrt(float(c @ res.covariance @ c))
        assert math.isclose(m.predicted, pred, rel_tol=1e-12)
        assert math.isclose(m.ci_low, pred - half, rel_tol=1e-12)
        assert math.isclose(m.ci_high, pred + half, rel_tol=1e-12)
    with pytest.raises(UnknownRegressor):
        margins(res, [("bad", {"nope": 1.0})])


def test_result_table_renders():
    rng = np.random.default_rng(27)
    rows, names, _ = random_panel(rng, n_groups=2, k=2)
    text = render_result_table(fe_regress(rows))
    for nm in names:
        assert nm in text
    assert "observations" in text and "(" in text


# --- fightin' words --------------------------------------------------------

def random_counts(rng, vocab):
    return {w: int(rng.integers(0, 60)) for w in vocab}


def test_matches_high_precision_reference():
    rng = np.random.default_rng(31)
    vocab = [f"w{i}" for i in range(40)]
    for trial in range(20):
        ca, cb = random_counts(rng, vocab), random_counts(rng, vocab)
        ca["onlya"] = 5
        cb["onlyb"] = 7
        scale = float(rng.choice([0.1, 1.0, 10.0]))
        got = fightin_words(ca, cb, prior_scale=scale)
        ref = fightin_words_mp(ca, cb, scale)
        assert len(got) == len(ref)
        for s in got:
            assert abs(s.z - ref[s.word]) < 1e-9


def test_swap_negates_scores_exactly():
    rng = np.random.default_rng(32)
    vocab = [f"w{i}" for i in range(30)]
    ca, cb = random_counts(rng, vocab), random_counts(rng, vocab)
    fwd = {s.word: s for s in fightin_words(ca, cb)}
    rev = {s.word: s for s in fightin_words(cb, ca)}
    assert set(fwd) == set(rev)
    for w in fwd:
        assert rev[w].z == -fwd[w].z
        assert rev[w].delta == -fwd[w].delta
        assert rev[w].variance == fwd[w].variance


def test_identical_corpora_score_zero():
    counts = {"alpha": 4, "beta": 9, "gamma": 1}
    for s in fightin_words(counts, dict(counts)):
        assert s.delta == 0.0 and s.z == 0.0


def test_sorted_by_z_then_word():
    ca = {"bb": 5, "aa": 5, "cc": 1}
    cb = {"bb": 1, "aa": 1, "cc": 9}
    res = fightin_words(ca, cb)
    words = [s.word for s in res]
    assert words == ["aa", "bb", "cc"]  # aa and bb tie on z; alphabetical breaks it
    zs = [s.z for s in res]
    assert zs == sorted(zs, reverse=True)
    assert zs[0] == zs[1]


def test_one_sided_words_kept_absent_words_dropped():
    res = fightin_words({"a": 3, "ghost": 0}, {"a": 1, "b": 2})
    assert {s.word for s in res} == {"a", "b"}
    assert sum(s.count_a for s in res) == 3.0 and sum(s.count_b for s in res) == 3.0


def test_prior_validation():
    with pytest.raises(NonPositivePrior):
        fightin_words({"a": 1}, {"a": 2}, prior_scale=0.0)
    with pytest.raises(NonPositivePrior):
        fightin_words({"a": 1}, {"a": 2}, prior_scale=-1.0)
    with pytest.raises(EmptyVocabulary):
        fightin_words({"a": 0}, {"b": 0})


def test_fightin_words_refuses_what_float64_cannot_hold():
    # the smallest prior underflows to zero mass on a word one group lacks
    with pytest.raises(NonFiniteStatistic, match="^fightin_words is not finite.*divide by zero"):
        fightin_words({"x": 1}, {"y": 1}, prior_scale=5e-324)
    with pytest.raises(NonFiniteStatistic, match="^fightin_words is not finite.*overflow"):
        fightin_words({"x": 1e308, "y": 1e308}, {"x": 1e308, "y": 1e308})
    # underflow alone is no error: every word keeps a count in both groups
    res = fightin_words({"x": 1, "y": 1}, {"x": 2, "y": 1}, prior_scale=5e-324)
    assert all(math.isfinite(s.z) for s in res)


def test_one_word_has_nothing_to_be_compared_against():
    for ca, cb in (({"ja": 3}, {"ja": 2}), ({"ja": 3}, {"nein": 0}), ({}, {"ja": 1})):
        with pytest.raises(EmptyVocabulary, match="at least 2 distinct words, got 1"):
            fightin_words(ca, cb)


def test_two_word_example_by_hand():
    ca, cb = {"x": 9, "y": 1}, {"x": 4, "y": 6}
    res = {s.word: s for s in fightin_words(ca, cb, prior_scale=2.0)}
    grand = 20.0
    for w, ya, yb in (("x", 9.0, 4.0), ("y", 1.0, 6.0)):
        aw = 2.0 * (ya + yb) / grand
        la = math.log(ya + aw) - math.log(10.0 + 2.0 - ya - aw)
        lb = math.log(yb + aw) - math.log(10.0 + 2.0 - yb - aw)
        var = 1.0 / (ya + aw) + 1.0 / (yb + aw)
        assert math.isclose(res[w].delta, la - lb, rel_tol=1e-12)
        assert math.isclose(res[w].z, (la - lb) / math.sqrt(var), rel_tol=1e-12)


# --- four-situation split --------------------------------------------------

def make_stream(session, speaker, words):
    """A TEXT stream of ``(start, end, token)`` words."""
    starts, ends, tokens = zip(*words)
    return stream_from_columns(Modality.TEXT, session, starts, ends, tokens, speaker_id=speaker)


def segs(*spans, label="AfD"):
    """Hand-built segments with zero word counts, in the order given."""
    starts, ends = np.array(spans, dtype=float).reshape(-1, 2).T
    return AddressSegments(starts, ends, np.zeros(len(spans), dtype=np.intp), label)


PARTIES = {"s1": "AfD", "s2": "SPD", "s3": "SPD"}


def test_known_small_split():
    streams = [
        make_stream("a", "s1", [(0, 1, "Hallo"), (1, 2, "welt")]),
        make_stream("b", "s2", [(0, 1, "guten"), (1, 2, "tag")]),
    ]
    by_session = {"a": segs((0.5, 1.5)), "b": segs((1.2, 3.0))}
    split = four_situation_split(streams, by_session, PARTIES, target_party="AfD")
    assert split.target_to_target == Counter({"hallo": 1, "welt": 1})
    assert split.target_to_others == Counter()
    assert split.others_to_target == Counter({"tag": 1})
    assert split.others_to_others == Counter({"guten": 1})
    assert sum(sum(c.values()) for c in split.cells().values()) == 4


def test_touching_segment_does_not_address():
    streams = [make_stream("a", "s1", [(0, 1, "rand")])]
    # a touching segment, no segments, and no entry for the session all address nobody
    for by_session in ({"a": segs((1.0, 2.0))}, {"a": segs()}, {}):
        split = four_situation_split(streams, by_session, PARTIES)
        assert split.target_to_others == Counter({"rand": 1})
        assert split.target_to_target == Counter()


def test_missing_party_metadata():
    anonymous = make_stream("a", None, [(0, 1, "x")])
    with pytest.raises(MissingPartyMetadata):
        four_situation_split([anonymous], {}, PARTIES)
    unknown = make_stream("a", "nobody", [(0, 1, "x")])
    with pytest.raises(MissingPartyMetadata):
        four_situation_split([unknown], {}, PARTIES)


def test_rejects_non_text_streams():
    gaze = stream_from_columns(Modality.DERIVED, "a", [0], [1], ["AfD"])
    with pytest.raises(ValidationError):
        four_situation_split([gaze], {}, PARTIES)


def test_matches_naive_recount():
    rng = np.random.default_rng(33)
    tokens = [f"tok{i}" for i in range(12)]
    for trial in range(40):
        streams, spans_by_session = [], {}
        for s_idx in range(int(rng.integers(1, 4))):
            session = f"sess{s_idx}"
            speaker = f"s{int(rng.integers(1, 4))}"
            words, t = [], 0.0
            for _ in range(int(rng.integers(1, 60))):
                width = float(rng.integers(0, 4)) * 0.25  # zero-length words too
                words.append((t, t + width, str(rng.choice(tokens))))
                t += width + float(rng.integers(0, 2)) * 0.25
            streams.append(make_stream(session, speaker, words))
            # segments in any order, overlapping one another, some of zero length
            spans = []
            for _ in range(int(rng.integers(0, 6))):
                a = float(rng.integers(0, int(4 * t) + 2)) * 0.25
                spans.append((a, a + float(rng.integers(0, 12)) * 0.25))
            spans_by_session[session] = spans

        split = four_situation_split(
            streams, {sid: segs(*spans) for sid, spans in spans_by_session.items()}, PARTIES
        )
        reordered = {sid: segs(*spans[::-1]) for sid, spans in spans_by_session.items()}
        assert four_situation_split(streams, reordered, PARTIES) == split

        expected = {name: Counter() for name in split.cells()}
        for stream in streams:
            from_target = PARTIES[stream.speaker_id] == "AfD"
            for w in stream:
                hit = any(
                    min(b, w.end) > max(a, w.start) for a, b in spans_by_session[stream.session_id]
                )
                key = ("target" if from_target else "others") + "_to_" + (
                    "target" if hit else "others"
                )
                expected[key][str(w.payload).lower()] += 1
        assert split.cells() == expected
        assert sum(sum(c.values()) for c in split.cells().values()) == sum(map(len, streams))



# Words whose lowercase forms merge: "ẞ" lowers to "ß", and "İ" to "i" and a combining dot.
_MERGING = st.sampled_from(["Zuruf", "zuruf", "ZURUF", "ẞ", "ß", "İ", "i\u0307", "i", "Antrag", "ja"])


@st.composite
def split_inputs(draw):
    """Text streams, some rebuilt from index codes, and their sessions' segments, if any."""
    streams, by_session = [], {}
    for k in range(draw(st.integers(1, 4))):
        sid = f"sess{k}"
        tokens = draw(st.lists(_MERGING, min_size=1, max_size=30))
        widths = draw(st.lists(st.sampled_from([0.25, 0.5]), min_size=len(tokens),
                               max_size=len(tokens)))
        ends = np.cumsum(widths)
        starts = ends - widths
        speaker = draw(st.sampled_from(sorted(PARTIES)))
        stream = make_stream(sid, speaker, list(zip(starts.tolist(), ends.tolist(), tokens)))
        if draw(st.booleans()):  # the same words as an index stores them
            rebuilt = stream_from_columns(Modality.TEXT, sid, starts, ends,
                                          stream.codes.astype("<u4"), speaker_id=stream.speaker_id,
                                          vocab=list(stream.vocab))
            assert rebuilt.payloads == stream.payloads
            stream = rebuilt
        streams.append(stream)
        cover = draw(st.sampled_from(["no entry", "none", "all", "some"]))
        if cover == "none":
            by_session[sid] = segs()
        elif cover == "all":
            by_session[sid] = segs((0.0, float(ends[-1])))
        elif cover == "some":
            edges = draw(st.lists(st.integers(0, 4 * int(ends[-1]) + 4), min_size=2, max_size=8))
            pairs = (sorted(edges[i : i + 2]) for i in range(0, len(edges) - 1, 2))
            by_session[sid] = segs(*((0.25 * a, 0.25 * b) for a, b in pairs))
    return streams, by_session


@settings(max_examples=300, deadline=None)
@given(split_inputs(), st.sampled_from(["AfD", "SPD"]))
def test_split_matches_the_token_loop(inputs, target):
    streams, by_session = inputs
    split = four_situation_split(streams, by_session, PARTIES, target_party=target)
    assert split == split_loop(streams, by_session, PARTIES, target_party=target)
    assert sum(sum(c.values()) for c in split.cells().values()) == sum(map(len, streams))
