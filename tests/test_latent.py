"""Time warping, canonical correlation, and the strategy advisor."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from modalign.errors import DimensionMismatch, IncompleteQuery, RankDeficient, ValidationError
from modalign.latent import (
    _TILE_BYTES,
    _TILE_DIAGONALS,
    CcaResult,
    DataKind,
    Integration,
    Representation,
    Strategy,
    StrategyQuery,
    advise,
    cca_align,
    dtw_align,
)

from _oracles import cca_correlations_eig, dtw_loop, exhaustive_dtw_cost


# --- dynamic time warping --------------------------------------------------

def euclid_matrix(a, b):
    """Euclidean cell costs, each adding its squares in feature order as dtw_align does."""
    d = a[:, None, :] - b[None, :, :]
    sq = d * d
    total = sq[:, :, 0].copy()
    for f in range(1, sq.shape[2]):
        total += sq[:, :, f]
    return np.sqrt(total)


def assert_valid_path(path, n, m):
    assert path.pairs[0] == (0, 0)
    assert path.pairs[-1] == (n - 1, m - 1)
    for (i0, j0), (i1, j1) in zip(path.pairs, path.pairs[1:]):
        assert (i1 - i0, j1 - j0) in {(1, 1), (1, 0), (0, 1)}


def test_identity_warp_is_free_diagonal():
    x = np.random.default_rng(0).normal(size=(6, 2))
    path = dtw_align(x, x)
    assert path.pairs == tuple((i, i) for i in range(6))
    assert path.total_cost == 0.0


def test_classic_stutter_alignment():
    path = dtw_align([0.0, 0.0, 1.0, 2.0], [0.0, 1.0, 2.0])
    assert path.total_cost == 0.0
    assert path.pairs == ((0, 0), (1, 0), (2, 1), (3, 2))


def test_matches_exhaustive_search_on_small_pairs():
    rng = np.random.default_rng(11)
    for trial in range(200):
        n, m = int(rng.integers(1, 8)), int(rng.integers(1, 8))
        d = int(rng.integers(1, 4))
        a, b = rng.normal(size=(n, d)), rng.normal(size=(m, d))
        path = dtw_align(a, b)
        assert_valid_path(path, n, m)
        c = euclid_matrix(a, b)
        assert np.isclose(path.total_cost, sum(c[p] for p in path.pairs))
        assert np.isclose(path.total_cost, exhaustive_dtw_cost(c), rtol=1e-12)


def test_stutter_in_second_sequence():
    path = dtw_align([0.0, 5.0], [0.0, 5.0, 5.0])
    assert path.total_cost == 0.0
    assert path.pairs == ((0, 0), (1, 1), (1, 2))


def test_tie_break_prefers_diagonal():
    path = dtw_align(np.zeros((3, 1)), np.zeros((5, 1)))  # every cell costs 0
    assert len(path.pairs) == 5  # diagonal-first backtracking gives the shortest path
    assert path.pairs == ((0, 0), (0, 1), (0, 2), (1, 3), (2, 4))


def test_matches_loop_oracle_bit_for_bit():
    rng = np.random.default_rng(12)
    shapes = [(1, 1), (1, 2), (2, 1), (1, 7), (6, 1), (2, 2), (5, 9), (9, 5), (13, 13),
              (40, 31), (3, 60), (60, 3)]
    features = {
        "random": lambda n, d: rng.normal(size=(n, d)),
        "zero": lambda n, d: np.zeros((n, d)),  # every step ties
        "binary": lambda n, d: rng.integers(0, 2, size=(n, d)).astype(float),
    }
    cases = [(n, m, d, kind) for n, m in shapes for d in (1, 3, 13) for kind in features]
    cases += [(200, 300, 13, "random"), (300, 200, 13, "random"), (800, 700, 13, "random")]
    # lengths around one band of anti-diagonals, at several dims
    K = _TILE_DIAGONALS
    for d in (7, 8, 9, 16, 17, 129, 200):
        cases += [(n, m, d, "random") for n in (K - 1, K, K + 1) for m in (K - 1, K, K + 1)]
        cases += [(K + 1, K, d, "binary")]
    # one row past the row chunk, and very unequal lengths
    for d in (13, 129, 200):
        past = _TILE_BYTES // (8 * d * K) + 1
        cases += [(past, 9, d, "random"), (9, past, d, "random"), (past, K, d, "zero")]
    cases += [(120, 120, 200, "random"), (400, 2, 3, "random"), (2, 400, 3, "random")]
    for n, m, d, kind in cases:
        a, b = features[kind](n, d), features[kind](m, d)
        path = dtw_align(a, b)
        pairs, total = dtw_loop(euclid_matrix(a, b))
        assert path.pairs == pairs, (n, m, d, kind)
        assert path.total_cost == total, (n, m, d, kind)


def test_tie_heavy_features_match_loop_oracle_across_tile_edges():
    # features in {0, 1, 2} make U == L < D and every other tie common; lengths
    # up to 39 put n, m and n+m on both sides of multiples of the tile height
    rng = np.random.default_rng(14)
    for trial in range(300):
        n, m, d = int(rng.integers(1, 40)), int(rng.integers(1, 40)), int(rng.integers(1, 4))
        a = rng.integers(0, 3, size=(n, d)).astype(float)
        b = rng.integers(0, 3, size=(m, d)).astype(float)
        path = dtw_align(a, b)
        pairs, total = dtw_loop(euclid_matrix(a, b))
        assert path.pairs == pairs, (trial, n, m, d)
        assert path.total_cost == total, (trial, n, m, d)


def test_overflowing_costs_off_the_warp_match_loop_oracle():
    # b repeats rows of a, so a zero-cost warp exists while most other cells
    # square a difference of 1e200 or 2e200 and cost inf
    rng = np.random.default_rng(15)
    for trial in range(60):
        n, d = int(rng.integers(1, 25)), int(rng.integers(1, 4))
        a = rng.choice([0.0, 1e200, -1e200], size=(n, d))
        b = a[np.repeat(np.arange(n), rng.integers(1, 4, size=n))]
        path = dtw_align(a, b)
        with np.errstate(over="ignore", invalid="ignore"):
            pairs, total = dtw_loop(euclid_matrix(a, b))
        assert path.pairs == pairs, (trial, n, d)
        assert path.total_cost == total == 0.0, (trial, n, d)


def test_non_finite_features_always_rejected():
    # a non-finite feature makes a whole row or column of costs inf or nan,
    # and every warp crosses it
    rng = np.random.default_rng(16)
    for trial in range(200):
        n, m, d = int(rng.integers(1, 20)), int(rng.integers(1, 20)), int(rng.integers(1, 4))
        a, b = rng.normal(size=(n, d)), rng.normal(size=(m, d))
        for _ in range(int(rng.integers(1, 4))):
            seq = a if rng.integers(2) else b
            seq[rng.integers(len(seq)), rng.integers(d)] = rng.choice([np.inf, -np.inf, np.nan])
        with pytest.raises(ValidationError, match="finite"):
            dtw_align(a, b)


def test_huge_equal_features_cost_nothing_without_overflow():
    # every real cell's difference is 0; a tile cell outside the grid must be too
    path = dtw_align(np.full((50, 3), 1e200), np.full((50, 3), 1e200))
    assert path.total_cost == 0.0
    assert path.pairs == tuple((i, i) for i in range(50))


def test_memory_is_linear_in_sequence_lengths():
    rng = np.random.default_rng(13)
    a, b = rng.normal(size=(600, 13)), rng.normal(size=(500, 13))
    tracemalloc.start()
    try:
        dtw_align(a, b)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4_000_000  # a 600x500 cost matrix alone is 2.4 MB, its 13-dim tensor 31 MB


def test_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        dtw_align(np.zeros((4, 2)), np.zeros((4, 3)))


def test_non_finite_warp_cost_rejected():
    for bad in (np.inf, np.nan):
        a = np.zeros((3, 1))
        a[1, 0] = bad  # every warp crosses row 1
        with pytest.raises(ValidationError, match="finite"):
            dtw_align(a, np.zeros((4, 1)))


def test_sequence_validation():
    with pytest.raises(ValidationError):
        dtw_align(np.zeros((0, 3)), np.zeros((2, 3)))
    with pytest.raises(ValidationError):
        dtw_align(np.zeros((2, 2, 2)), np.zeros((2, 2)))
    # 1-d promotes to a column
    assert dtw_align([1.0, 2.0], [[1.0], [2.0]]).pairs == ((0, 0), (1, 1))


@given(
    hnp.arrays(np.float64, st.tuples(st.integers(1, 5), st.just(2)),
               elements=st.floats(-5, 5)),
    hnp.arrays(np.float64, st.tuples(st.integers(1, 5), st.just(2)),
               elements=st.floats(-5, 5)),
)
@settings(max_examples=60, deadline=None)
def test_warp_cost_never_beats_exhaustive(a, b):
    path = dtw_align(a, b)
    assert_valid_path(path, len(a), len(b))
    assert path.total_cost <= exhaustive_dtw_cost(euclid_matrix(a, b)) + 1e-9


# --- canonical correlation -------------------------------------------------

def test_self_pair_is_perfectly_correlated():
    x = np.random.default_rng(1).normal(size=(50, 3))
    res = cca_align(x, x, k=3, ridge=0.0)
    assert np.all(np.abs(res.correlations - 1.0) < 1e-9)


def test_independent_blocks_are_weakly_correlated():
    rng = np.random.default_rng(2)
    res = cca_align(rng.normal(size=(4000, 2)), rng.normal(size=(4000, 2)), k=2)
    assert np.all(res.correlations < 0.1)


def test_matches_generalized_eigenproblem():
    rng = np.random.default_rng(3)
    for trial in range(30):
        n = int(rng.integers(20, 120))
        dx, dy = int(rng.integers(1, 5)), int(rng.integers(1, 5))
        x, y = rng.normal(size=(n, dx)), rng.normal(size=(n, dy))
        k = min(dx, dy)
        for ridge in (0.0, 1e-8, 1e-3):
            ours = cca_align(x, y, k=k, ridge=ridge).correlations
            ref = cca_correlations_eig(x, y, k=k, ridge=ridge)
            assert np.allclose(ours, ref, atol=1e-6)


def test_correlations_sorted_within_unit_interval():
    rng = np.random.default_rng(4)
    for trial in range(20):
        x, y = rng.normal(size=(40, 3)), rng.normal(size=(40, 3))
        c = cca_align(x, y, k=3).correlations
        assert np.all(c >= 0.0) and np.all(c <= 1.0)
        assert np.all(np.diff(c) <= 1e-12)


def test_affine_invariance():
    rng = np.random.default_rng(5)
    x, y = rng.normal(size=(60, 3)), rng.normal(size=(60, 2))
    base = cca_align(x, y, k=2, ridge=0.0).correlations
    amat = rng.normal(size=(3, 3)) + 3 * np.eye(3)
    moved = cca_align(x @ amat + rng.normal(size=3), y * 7.5 - 2.0, k=2, ridge=0.0)
    assert np.allclose(moved.correlations, base, atol=1e-8)


def test_planted_shared_factor_is_recovered():
    rng = np.random.default_rng(6)
    z = rng.normal(size=500)
    x = np.outer(z, [1.0, -0.5, 0.3]) + 0.1 * rng.normal(size=(500, 3))
    y = np.outer(z, [0.7, 1.2]) + 0.1 * rng.normal(size=(500, 2))
    res = cca_align(x, y, k=2)
    assert res.correlations[0] > 0.95
    assert res.correlations[1] < 0.3
    # reported correlation matches the sample correlation of the projections
    px = (x - x.mean(axis=0)) @ res.x_weights[:, 0]
    py = (y - y.mean(axis=0)) @ res.y_weights[:, 0]
    assert np.isclose(abs(np.corrcoef(px, py)[0, 1]), res.correlations[0], atol=1e-6)


def test_projections_have_unit_variance():
    rng = np.random.default_rng(7)
    x, y = rng.normal(size=(80, 4)), rng.normal(size=(80, 3))
    res = cca_align(x, y, k=3)
    for data, w in ((x, res.x_weights), (y, res.y_weights)):
        proj = (data - data.mean(axis=0)) @ w
        assert np.allclose(proj.var(axis=0, ddof=1), 1.0, atol=1e-8)


def test_singular_block_raises_without_ridge():
    rng = np.random.default_rng(8)
    x = rng.normal(size=(30, 2))
    x = np.hstack([x, x[:, :1]])  # duplicated column
    y = rng.normal(size=(30, 2))
    with pytest.raises(RankDeficient):
        cca_align(x, y, k=2, ridge=0.0)
    assert isinstance(cca_align(x, y, k=2), CcaResult)  # default ridge copes


def test_cca_validation():
    rng = np.random.default_rng(9)
    x, y = rng.normal(size=(10, 2)), rng.normal(size=(10, 3))
    with pytest.raises(ValidationError):
        cca_align(x, y, k=3)  # k > min dim
    with pytest.raises(ValidationError):
        cca_align(x, y, k=0)
    with pytest.raises(ValidationError):
        cca_align(x[:2], y[:2], k=1)  # too few samples
    with pytest.raises(ValidationError):
        cca_align(x, y, k=1, ridge=-1e-3)
    with pytest.raises(ValidationError):
        cca_align(x.ravel(), y, k=1)
    with pytest.raises(DimensionMismatch):
        cca_align(x, y[:-1], k=1)


def test_cca_refuses_non_finite_input():
    # numpy's SVD would fail on these with LinAlgError; the aligner says why at entry, as
    # dtw_align does for a warp whose cost is not finite
    rng = np.random.default_rng(9)
    x, y = rng.normal(size=(10, 2)), rng.normal(size=(10, 3))
    for bad in (np.nan, np.inf, -np.inf):
        bad_x, bad_y = x.copy(), y.copy()
        bad_x[4, 1] = bad_y[4, 2] = bad
        for a, b in ((bad_x, y), (x, bad_y)):
            with pytest.raises(ValidationError, match="finite"):
                cca_align(a, b, k=2)
    with pytest.raises(ValidationError, match="finite"):
        cca_align(np.full((5, 2), np.nan), np.full((5, 2), np.nan), k=1)


# --- strategy advisor ------------------------------------------------------

def names(strategies):
    return [s.name for s in strategies]


def test_continuous_strategies():
    got = advise(StrategyQuery(DataKind.CONTINUOUS))
    assert names(got) == ["adversarial training", "dynamic time warping"]


@pytest.mark.parametrize(
    "rep, integ, expected",
    [
        (Representation.SEMANTIC, Integration.EXPLICIT,
         ["adversarial auto-encoders", "deep canonical correlation analysis",
          "optimal transport"]),
        (Representation.SEMANTIC, Integration.IMPLICIT,
         ["cross-modal self-attention transformers"]),
        (Representation.NON_SEMANTIC, Integration.EXPLICIT,
         ["supervised element labeling"]),
        (Representation.NON_SEMANTIC, Integration.IMPLICIT,
         ["late fusion", "hidden Markov models"]),
    ],
)
def test_discrete_strategies(rep, integ, expected):
    got = advise(StrategyQuery(DataKind.DISCRETE, rep, integ))
    assert names(got) == expected
    assert all(isinstance(s, Strategy) and s.summary for s in got)


def test_incomplete_queries_rejected():
    with pytest.raises(IncompleteQuery):
        advise(StrategyQuery(DataKind.DISCRETE, Representation.SEMANTIC, None))
    with pytest.raises(IncompleteQuery):
        advise(StrategyQuery(DataKind.DISCRETE, None, Integration.EXPLICIT))
    with pytest.raises(IncompleteQuery):
        advise(StrategyQuery(DataKind.CONTINUOUS, Representation.SEMANTIC, None))
    with pytest.raises(IncompleteQuery):
        advise(StrategyQuery(DataKind.CONTINUOUS, None, Integration.IMPLICIT))


def test_advice_is_deterministic():
    q = StrategyQuery(DataKind.DISCRETE, Representation.SEMANTIC, Integration.EXPLICIT)
    assert advise(q) == advise(q)
