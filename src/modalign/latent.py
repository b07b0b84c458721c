"""Latent alignment tools: time warping, correlation projections, strategy advice.

Two numeric primitives live here.  :func:`dtw_align` finds the cheapest
monotone warp between two feature sequences by dynamic programming over
the step set {match, advance-left, advance-right}.  :func:`cca_align`
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
from typing import Callable, Sequence

import numpy as np

from .errors import DimensionMismatch, IncompleteQuery, RankDeficient, ValidationError


@dataclass(frozen=True)
class FeatureSequence:
    """Ordered feature vectors, shape (n, d)."""

    vectors: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.vectors, dtype=np.float64)
        if arr.ndim == 1:
            arr = arr[:, None]
        if arr.ndim != 2 or arr.shape[0] == 0:
            raise ValidationError("feature sequence must be a non-empty (n, d) array")
        object.__setattr__(self, "vectors", arr)

    def __len__(self) -> int:
        return self.vectors.shape[0]

    @property
    def dim(self) -> int:
        return self.vectors.shape[1]


def _as_sequence(obj) -> FeatureSequence:
    return obj if isinstance(obj, FeatureSequence) else FeatureSequence(obj)


@dataclass(frozen=True)
class WarpPath:
    """Monotone index pairs from (0, 0) to (n-1, m-1) and their summed cost."""

    pairs: tuple[tuple[int, int], ...]
    total_cost: float


def dtw_align(
    a,
    b,
    cost: Callable[[np.ndarray, np.ndarray], float] | None = None,
) -> WarpPath:
    """Globally optimal dynamic time warp between two sequences.

    Steps are unconstrained {(1,1), (1,0), (0,1)}; cost ties are broken by
    preferring the diagonal step, then advancing the first sequence, so
    the returned path is unique.  ``cost`` defaults to Euclidean distance.
    Raises :class:`DimensionMismatch` when vector dimensions differ and
    :class:`ValidationError` when the warp's total cost is not finite.
    """
    sa, sb = _as_sequence(a), _as_sequence(b)
    if sa.dim != sb.dim:
        raise DimensionMismatch(f"dims {sa.dim} != {sb.dim}")
    n, m = len(sa), len(sb)

    if cost is None:
        d = sa.vectors[:, None, :] - sb.vectors[None, :, :]
        c = np.sqrt((d * d).sum(axis=2))
    else:
        c = np.empty((n, m))
        for i in range(n):
            for j in range(m):
                c[i, j] = float(cost(sa.vectors[i], sb.vectors[j]))

    # acc[i, j] is the cheapest warp ending at (i-1, j-1), behind an inf border
    acc = np.full((n + 1, m + 1), np.inf)
    acc[0, 0] = 0.0
    # step taken to ENTER each cell: 0 diagonal, 1 from (i-1, j), 2 from (i, j-1)
    move = np.zeros((n + 1, m + 1), dtype=np.int8)
    for i in range(1, n + 1):
        row = acc[i]
        prev = acc[i - 1]
        for j in range(1, m + 1):
            best = prev[j - 1]
            step = 0
            if prev[j] < best:
                best = prev[j]
                step = 1
            if row[j - 1] < best:
                best = row[j - 1]
                step = 2
            row[j] = best + c[i - 1, j - 1]
            move[i, j] = step
    if not np.isfinite(acc[n, m]):
        raise ValidationError(f"warp cost is {acc[n, m]}: costs must be finite")

    path = []
    i, j = n, m
    while True:
        path.append((i - 1, j - 1))
        if i == 1 and j == 1:
            break
        step = move[i, j]
        if step == 0:
            i, j = i - 1, j - 1
        elif step == 1:
            i -= 1
        else:
            j -= 1
    path.reverse()
    return WarpPath(tuple(path), float(acc[n, m]))


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
    across scales).  With ``ridge=0`` a singular block raises
    :class:`RankDeficient`.  Correlations come back clamped to [0, 1] and
    non-increasing; weight columns are rescaled so every projected
    component has unit sample variance.
    """
    X = np.asarray(x, dtype=np.float64)
    Y = np.asarray(y, dtype=np.float64)
    if X.ndim != 2 or Y.ndim != 2:
        raise ValidationError("x and y must be 2-d arrays")
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
    and must be omitted for continuous ones.
    """

    data_kind: DataKind
    representation: Representation | None = None
    integration: Integration | None = None

    def validated(self) -> "StrategyQuery":
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
        return self


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
    the same ordered list.  Raises :class:`IncompleteQuery` on malformed
    queries (missing or inapplicable fields).
    """
    q = query.validated()
    if q.data_kind is DataKind.CONTINUOUS:
        return list(_CONTINUOUS)
    return list(_DISCRETE[(q.representation, q.integration)])
