"""Latent alignment tools: time warping, correlation projections, strategy advice.

Two numeric primitives live here.  :func:`dtw_align` finds the cheapest
monotone warp between two feature sequences by dynamic programming over
the step set {match, advance-left, advance-right} (Sakoe & Chiba's
symmetric recurrence, no window), one anti-diagonal at a time so that each
step is a numpy operation over a whole diagonal.  :func:`cca_align`
computes classical canonical correlation projections for paired samples:
whiten each block, SVD the whitened cross-covariance.

:func:`advise` is a deterministic decision table mapping a description of
an alignment problem (continuous vs. discrete elements, semantic vs.
non-semantic correspondence, explicit vs. implicit alignment output) to a
set of modelling strategies.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, IncompleteQuery, RankDeficient, ValidationError


def _feature_rows(x) -> np.ndarray:
    """``x`` as a non-empty float64 (n, d) array; a 1-d sequence becomes one column."""
    arr = np.asarray(x, dtype=np.float64)
    if arr.ndim == 1:
        arr = arr[:, None]
    if arr.ndim != 2 or arr.shape[0] == 0:
        raise ValidationError("feature sequence must be a non-empty (n, d) array")
    return arr


@dataclass(frozen=True)
class WarpPath:
    """Monotone index pairs from (0, 0) to (n-1, m-1) and their summed cost."""

    pairs: tuple[tuple[int, int], ...]
    total_cost: float


# DTW cell costs come in tiles of _TILE_DIAGONALS anti-diagonals; each tile's
# difference workspace holds about _TILE_BYTES whatever the lengths and dims
_TILE_DIAGONALS = 8
_TILE_BYTES = 1 << 20


def dtw_align(a, b) -> WarpPath:
    """Globally optimal dynamic time warp between two sequences.

    ``a`` and ``b`` are (n, d) and (m, d) arrays of feature rows; a 1-d
    sequence is one feature per row.  Steps are unconstrained {(1,1),
    (1,0), (0,1)} and the cell cost is the Euclidean distance, its d
    squares added in feature order; cost ties are broken by preferring the
    diagonal step, then advancing the first sequence, so the returned path
    is unique.
    The accumulator is filled one anti-diagonal at a time, two minima and
    an add each; the costs and the steps of eight anti-diagonals at a time
    come from feature-major copies of ``a`` and reversed ``b`` and from the
    kept minima, so time is O(n*m) in vectorised numpy.  Memory is O(n+m)
    floats (10 x (n+1) and 8 x n blocks), an (n+m+1) x (n+1) table of int8
    steps and a fixed workspace of about 1 MB for the costs.
    Raises :class:`DimensionMismatch` when vector dimensions differ and
    :class:`ValidationError` when a sequence is empty or not 2-d, or when
    the warp's total cost is not finite.
    """
    va, vb = _feature_rows(a), _feature_rows(b)
    if va.shape[1] != vb.shape[1]:
        raise DimensionMismatch(f"dims {va.shape[1]} != {vb.shape[1]}")
    n, m = len(va), len(vb)
    dim, K = va.shape[1], _TILE_DIAGONALS

    # a tile covers at most `chunk` rows, so its workspace stays near _TILE_BYTES
    chunk = min(n, max(1, _TILE_BYTES // (8 * dim * K)))
    work = np.empty(dim * K * chunk)
    # column k of the padded copy is row m+K-1-k of b; the padding repeats
    # b's edge rows, so every difference taken is one of a real cell, and
    # the right side is `chunk` columns wider so one window view serves all
    fa = np.ascontiguousarray(va.T)
    fb = np.pad(vb[::-1].T, ((0, 0), (K, K + chunk)), mode="edge")
    windows = np.lib.stride_tricks.sliding_window_view(fb, chunk, axis=1)
    # tile[K-1-(s-s0), i-r0] is the cost of cell (i-1, s-i-1) for s0 <= s < s0+K
    tile = np.empty((K, n))

    # acc[2+s-s0][i] is the cheapest warp ending at (i-1, s-i-1), behind an inf
    # border; rows 0 and 1 carry diagonals s0-2 and s0-1 into the tile
    acc = np.full((K + 2, n + 1), np.inf)
    acc[0, 0] = 0.0
    # best[s-s0, i-r0] is the cheapest predecessor of cell (i-1, s-i-1)
    best = np.full((K, n), np.inf)
    # step taken to ENTER cell (i, s-i): 0 diagonal, 1 from (i-1, j), 2 from (i, j-1)
    steps = np.zeros((n + m + 1, n + 1), dtype=np.int8)
    # an infinite cost is a defined input: only a warp through one is refused, below
    with np.errstate(over="ignore", invalid="ignore"):
        for s0 in range(2, n + m + 1, K):
            # rows r0..r1 hold every cell of diagonals s0..s0+K-1; row i of
            # diagonal s0+K-1-k reads column i+k+m+1-s0 of the padded b
            r0, r1 = max(1, s0 - m), min(n, s0 + K - 2)
            for c0 in range(0, r1 - r0 + 1, chunk):
                rows = min(chunk, r1 - r0 + 1 - c0)
                col = r0 + c0 + m + 1 - s0
                x = work[: dim * K * rows].reshape(dim, K, rows)
                np.subtract(
                    fa[:, None, r0 - 1 + c0 : r0 - 1 + c0 + rows],
                    windows[:, col : col + K, :rows],
                    out=x,
                )
                np.multiply(x, x, out=x)
                for f in range(1, dim):
                    x[0] += x[f]
                np.sqrt(x[0], out=tile[:, c0 : c0 + rows])
            ks = min(K, n + m + 1 - s0)
            for k in range(ks):
                lo, hi = max(1, s0 + k - m), min(n, s0 + k - 1)
                row = best[k, lo - r0 : hi - r0 + 1]
                np.minimum(acc[k, lo - 1 : hi], acc[k + 1, lo - 1 : hi], out=row)
                np.minimum(row, acc[k + 1, lo : hi + 1], out=row)
                np.add(row, tile[K - 1 - k, lo - r0 : hi - r0 + 1], out=acc[k + 2, lo : hi + 1])
            # the tie order of a strict < scan: 0 iff the diagonal is the minimum,
            # else 1 iff (i-1, j) is, else 2; a step off its diagonal is never read
            w = r1 - r0 + 1
            off_d = acc[:ks, r0 - 1 : r1] != best[:ks, :w]
            off_u = acc[1 : ks + 1, r0 - 1 : r1] != best[:ks, :w]
            steps[s0 : s0 + ks, r0 : r1 + 1] = off_d.view(np.int8) << off_u.view(np.int8)
            acc[:2] = acc[ks : ks + 2]
            acc[2:].fill(np.inf)
    total = acc[1, n]
    if not np.isfinite(total):
        raise ValidationError(f"warp cost is {total}: costs must be finite")

    path = []
    s, i = n + m, n
    while True:
        path.append((i - 1, s - i - 1))
        if s == 2:
            break
        step = steps[s, i]
        if step == 0:
            s, i = s - 2, i - 1
        elif step == 1:
            s, i = s - 1, i - 1
        else:
            s -= 1
    path.reverse()
    return WarpPath(tuple(path), float(total))


@dataclass(frozen=True)
class CcaResult:
    """Projection weights (d_x × k and d_y × k) and canonical correlations."""

    x_weights: np.ndarray
    y_weights: np.ndarray
    correlations: np.ndarray


def _inv_sqrt(sym: np.ndarray, *, exact: bool) -> np.ndarray:
    """Inverse square root of a symmetric PSD matrix via its eigendecomposition."""
    w, v = np.linalg.eigh(sym)
    tol = max(w[-1], 0.0) * 1e-10
    if w[0] <= tol:
        if exact:
            raise RankDeficient("covariance block is singular; pass ridge > 0")
        w = np.maximum(w, tol if tol > 0 else np.finfo(float).tiny)
    return (v / np.sqrt(w)) @ v.T


def cca_align(x, y, k: int, *, ridge: float = 1e-8) -> CcaResult:
    """Classical canonical correlation analysis on paired rows.

    Columns are centered; each covariance block gets a ridge of
    ``ridge * trace / dim`` (dimensionless, so the default ``1e-8`` works
    across scales).  A NaN or infinity in ``x`` or ``y`` raises
    :class:`ValidationError`; with ``ridge=0`` a singular block raises
    :class:`RankDeficient`.  Correlations come back clamped to [0, 1] and
    non-increasing; weight columns are rescaled so every projected
    component has unit sample variance.
    """
    X = np.asarray(x, dtype=np.float64)
    Y = np.asarray(y, dtype=np.float64)
    if X.ndim != 2 or Y.ndim != 2:
        raise ValidationError("x and y must be 2-d arrays")
    if not (np.isfinite(X).all() and np.isfinite(Y).all()):
        raise ValidationError("x and y must hold only finite numbers")
    if X.shape[0] != Y.shape[0]:
        raise DimensionMismatch(f"row counts differ: {X.shape[0]} != {Y.shape[0]}")
    n = X.shape[0]
    if n < 3:
        raise ValidationError(f"need at least 3 paired samples, got {n}")
    if not 1 <= k <= min(X.shape[1], Y.shape[1]):
        raise ValidationError(f"k={k} outside [1, {min(X.shape[1], Y.shape[1])}]")
    if ridge < 0:
        raise ValidationError("ridge must be >= 0")

    Xc = X - X.mean(axis=0)
    Yc = Y - Y.mean(axis=0)
    sxx = Xc.T @ Xc / (n - 1)
    syy = Yc.T @ Yc / (n - 1)
    sxy = Xc.T @ Yc / (n - 1)

    def regularized(s: np.ndarray) -> np.ndarray:
        if ridge == 0.0:
            return s
        return s + (ridge * np.trace(s) / s.shape[0]) * np.eye(s.shape[0])

    ix = _inv_sqrt(regularized(sxx), exact=ridge == 0.0)
    iy = _inv_sqrt(regularized(syy), exact=ridge == 0.0)
    u, s, vt = np.linalg.svd(ix @ sxy @ iy)
    corr = np.clip(s[:k], 0.0, 1.0)
    wx = ix @ u[:, :k]
    wy = iy @ vt[:k].T

    # Rescale so the projections of *these* samples have unit variance even
    # when the ridge perturbed the whitening.
    for w, cov in ((wx, sxx), (wy, syy)):
        var = np.einsum("ij,ik,kj->j", w, cov, w)
        good = var > 0
        w[:, good] /= np.sqrt(var[good])

    return CcaResult(wx, wy, corr)


# --- strategy advisor ------------------------------------------------------


class DataKind(enum.Enum):
    CONTINUOUS = "continuous"
    DISCRETE = "discrete"


class Representation(enum.Enum):
    """Whether cross-modal correspondence rides on shared meaning."""

    SEMANTIC = "semantic"
    NON_SEMANTIC = "non-semantic"


class Integration(enum.Enum):
    """Whether the element mapping is produced explicitly or absorbed by a model."""

    EXPLICIT = "explicit"
    IMPLICIT = "implicit"


@dataclass(frozen=True)
class StrategyQuery:
    """Shape of an alignment problem.

    ``representation`` and ``integration`` apply only to discrete elements
    and must be omitted for continuous ones; a query that breaks this rule
    raises :class:`IncompleteQuery` when it is built.
    """

    data_kind: DataKind
    representation: Representation | None = None
    integration: Integration | None = None

    def __post_init__(self):
        if self.data_kind is DataKind.DISCRETE:
            if self.representation is None or self.integration is None:
                raise IncompleteQuery(
                    "discrete queries need both representation and integration"
                )
        else:
            if self.representation is not None or self.integration is not None:
                raise IncompleteQuery(
                    "continuous queries take neither representation nor integration"
                )


@dataclass(frozen=True)
class Strategy:
    name: str
    summary: str


_CONTINUOUS = [
    Strategy(
        "adversarial training",
        "learn representations a discriminator cannot attribute to a modality",
    ),
    Strategy(
        "dynamic time warping",
        "warp time axes to maximize similarity of co-evolving signals",
    ),
]

_DISCRETE = {
    (Representation.SEMANTIC, Integration.EXPLICIT): [
        Strategy(
            "adversarial auto-encoders",
            "encode both modalities into one space a discriminator cannot split",
        ),
        Strategy(
            "deep canonical correlation analysis",
            "learn nonlinear projections whose outputs are maximally correlated",
        ),
        Strategy(
            "optimal transport",
            "match element distributions by minimizing total transport cost",
        ),
    ],
    (Representation.SEMANTIC, Integration.IMPLICIT): [
        Strategy(
            "cross-modal self-attention transformers",
            "let attention heads tie elements together inside the end-task model",
        ),
    ],
    (Representation.NON_SEMANTIC, Integration.EXPLICIT): [
        Strategy(
            "supervised element labeling",
            "train on labeled element pairs to predict the links directly",
        ),
    ],
    (Representation.NON_SEMANTIC, Integration.IMPLICIT): [
        Strategy(
            "late fusion",
            "combine per-modality model outputs at the decision stage",
        ),
        Strategy(
            "hidden Markov models",
            "explain both element sequences with a shared latent state chain",
        ),
    ],
}


def advise(query: StrategyQuery) -> list[Strategy]:
    """Recommend alignment strategies for a problem shape.

    The mapping is a fixed decision table; the same query always yields
    the same ordered list.
    """
    if query.data_kind is DataKind.CONTINUOUS:
        return list(_CONTINUOUS)
    return list(_DISCRETE[(query.representation, query.integration)])
