"""Downstream statistics over aligned corpora.

Fixed-effects regression (within-estimator): demean outcome and regressors
inside each group, solve ordinary least squares on the transformed data.
Slopes and standard errors are identical to running OLS with one dummy per
group, provided the residual degrees of freedom are corrected by the
number of absorbed groups — which is exactly what this module does.

Lexical comparison uses log-odds with an informative Dirichlet prior: each
word's prior mass is proportional to its frequency in the combined corpus,
so rare words are shrunk toward zero instead of dominating the ranking.
"""

from __future__ import annotations

import math
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .errors import (
    EmptyPanel,
    EmptyVocabulary,
    MissingPartyMetadata,
    NonFiniteStatistic,
    NonPositivePrior,
    RankDeficientDesign,
    UnknownRegressor,
    ValidationError,
)
from .gaze import AddressSegments
from .timeline import ElementStream, Modality, covered

Z_95 = 1.96  # conventional two-sided 95% normal quantile


@contextmanager
def _finite(statistic: str):
    """Overflow, division by zero or a NaN inside raise :class:`NonFiniteStatistic`."""
    try:
        with np.errstate(divide="raise", over="raise", invalid="raise", under="ignore"):
            yield
    except FloatingPointError as e:
        raise NonFiniteStatistic(f"{statistic} is not finite on these inputs: {e}") from None


@dataclass(frozen=True)
class PanelRow:
    """One observation: outcome, fixed-effect group, named regressors."""

    y: float
    group: str
    regressors: Mapping[str, float]


@dataclass(frozen=True)
class RegressionResult:
    coefficients: dict[str, float]
    standard_errors: dict[str, float]
    n_obs: int
    n_groups: int
    log_likelihood: float
    deviance: float
    covariance: np.ndarray
    regressor_names: tuple[str, ...]


@dataclass(frozen=True)
class Margin:
    """Predicted outcome with a 95% interval at one regressor setting."""

    label: str
    predicted: float
    ci_low: float
    ci_high: float


def fe_regress(rows: Sequence[PanelRow], *, allow_single_group: bool = False) -> RegressionResult:
    """Within-estimator OLS with group fixed effects.

    Standard errors use residual variance with ``n - k - G`` degrees of
    freedom (k regressors, G groups), matching the dummy-variable model.
    ``deviance`` is the residual sum of squares; ``log_likelihood`` is the
    Gaussian likelihood at the MLE variance.

    Raises :class:`EmptyPanel` on no rows, :class:`RankDeficientDesign`
    when the demeaned design loses rank (e.g. a regressor constant within
    every group) or no residual degrees of freedom remain.
    """
    rows = list(rows)
    if not rows:
        raise EmptyPanel("no rows")
    names = tuple(rows[0].regressors.keys())
    name_set = set(names)
    for r in rows:
        if set(r.regressors.keys()) != name_set:
            raise ValidationError("regressor names must be uniform across rows")

    group_ids: dict[str, int] = {}
    for r in rows:
        group_ids.setdefault(r.group, len(group_ids))
    n, k, g = len(rows), len(names), len(group_ids)
    if g < 2 and not allow_single_group:
        raise ValidationError("single-group panel: pass allow_single_group=True if intended")

    df = n - k - g
    if df <= 0:
        raise RankDeficientDesign(f"no residual degrees of freedom (n={n}, k={k}, G={g})")
    y = np.array([r.y for r in rows])
    x = np.array([[float(r.regressors[name]) for name in names] for r in rows])
    gi = np.array([group_ids[r.group] for r in rows])

    with _finite("fe_regress"):
        counts = np.bincount(gi, minlength=g).astype(float)
        y_demeaned = y - (np.bincount(gi, weights=y, minlength=g) / counts)[gi]
        x_demeaned = np.empty_like(x)
        for col in range(k):
            means = np.bincount(gi, weights=x[:, col], minlength=g) / counts
            x_demeaned[:, col] = x[:, col] - means[gi]

        if np.linalg.matrix_rank(x_demeaned) < k:
            raise RankDeficientDesign("design matrix is rank deficient after the within-transform")

        beta, *_ = np.linalg.lstsq(x_demeaned, y_demeaned, rcond=None)
        resid = y_demeaned - x_demeaned @ beta
        rss = float(resid @ resid)
        sigma2 = rss / df
        cov = sigma2 * np.linalg.inv(x_demeaned.T @ x_demeaned)
        se = np.sqrt(np.diag(cov))

    if rss > 0:
        ll = -0.5 * n * (math.log(2 * math.pi) + math.log(rss / n) + 1.0)
    else:
        ll = math.inf
    return RegressionResult(
        coefficients=dict(zip(names, beta.tolist())),
        standard_errors=dict(zip(names, se.tolist())),
        n_obs=n,
        n_groups=g,
        log_likelihood=ll,
        deviance=rss,
        covariance=cov,
        regressor_names=names,
    )


def margins(
    result: RegressionResult,
    cells: Sequence[tuple[str, Mapping[str, float]]],
) -> list[Margin]:
    """Predicted outcomes at chosen regressor settings, with 95% intervals.

    Each cell is ``(label, {regressor: value})``; unnamed regressors sit at
    0 and the group effect is taken as 0 (the average demeaned speaker).
    Raises :class:`UnknownRegressor` for settings naming an absent regressor.
    """
    beta = np.array([result.coefficients[nm] for nm in result.regressor_names])
    out = []
    for label, settings in cells:
        unknown = set(settings) - set(result.regressor_names)
        if unknown:
            raise UnknownRegressor(f"cell {label!r} references {sorted(unknown)}")
        c = np.array([float(settings.get(nm, 0.0)) for nm in result.regressor_names])
        pred = float(c @ beta)
        half = Z_95 * math.sqrt(float(c @ result.covariance @ c))
        out.append(Margin(label, pred, pred - half, pred + half))
    return out


def render_result_table(result: RegressionResult) -> str:
    """Plain-text summary: coefficient rows with the SE parenthesized beneath."""
    width = max([len(nm) for nm in result.regressor_names] + [14])
    lines = ["{:<{w}}  {:>10}".format("regressor", "estimate", w=width)]
    lines.append("-" * (width + 12))
    for nm in result.regressor_names:
        lines.append("{:<{w}}  {:>10.4f}".format(nm, result.coefficients[nm], w=width))
        lines.append("{:<{w}}  {:>10}".format("", f"({result.standard_errors[nm]:.4f})", w=width))
    lines.append("-" * (width + 12))
    lines.append("{:<{w}}  {:>10}".format("observations", result.n_obs, w=width))
    lines.append("{:<{w}}  {:>10}".format("groups", result.n_groups, w=width))
    lines.append("{:<{w}}  {:>10.2f}".format("deviance", result.deviance, w=width))
    lines.append("{:<{w}}  {:>10.2f}".format("log-likelihood", result.log_likelihood, w=width))
    return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class WordScore:
    word: str
    count_a: float
    count_b: float
    delta: float
    variance: float
    z: float


def fightin_words(
    counts_a: Mapping[str, float],
    counts_b: Mapping[str, float],
    prior_scale: float = 1.0,
) -> tuple[WordScore, ...]:
    """Informative-Dirichlet-prior log-odds comparison of two count maps.

    Prior mass per word is ``prior_scale * total_w / grand_total`` (so the
    full prior sums to ``prior_scale``); ``delta`` is the difference of the
    prior-smoothed log-odds, ``z = delta / sqrt(variance)`` with the usual
    ``1/(y_a + a_w) + 1/(y_b + a_w)`` variance.  Scores come sorted by z
    descending (ties: word ascending); words occurring in neither group are
    excluded.  Raises :class:`NonPositivePrior`, and
    :class:`EmptyVocabulary` when fewer than two distinct words occur (a
    lone word has no other words to be compared against).
    """
    if not (prior_scale > 0 and math.isfinite(prior_scale)):
        raise NonPositivePrior(f"prior_scale must be finite and > 0, got {prior_scale}")
    vocab = sorted(
        w
        for w in set(counts_a) | set(counts_b)
        if counts_a.get(w, 0) + counts_b.get(w, 0) > 0
    )
    if len(vocab) < 2:
        raise EmptyVocabulary(f"need at least 2 distinct words, got {len(vocab)}")

    ya = np.array([float(counts_a.get(w, 0)) for w in vocab])
    yb = np.array([float(counts_b.get(w, 0)) for w in vocab])
    with _finite("fightin_words"):
        na, nb = ya.sum(), yb.sum()  # numpy scalars, so their sum overflows loudly too
        grand = na + nb
        alpha = prior_scale * (ya + yb) / grand
        alpha0 = prior_scale  # the alphas sum to the scale by construction

        # grouped per corpus so swapping the two maps negates delta bit-exactly
        log_odds_a = np.log(ya + alpha) - np.log(na + alpha0 - ya - alpha)
        log_odds_b = np.log(yb + alpha) - np.log(nb + alpha0 - yb - alpha)
        delta = log_odds_a - log_odds_b
        variance = 1.0 / (ya + alpha) + 1.0 / (yb + alpha)
        z = delta / np.sqrt(variance)

    scores = [
        WordScore(w, float(a), float(b), float(d), float(v), float(zz))
        for w, a, b, d, v, zz in zip(vocab, ya, yb, delta, variance, z)
    ]
    scores.sort(key=lambda s: (-s.z, s.word))
    return tuple(scores)


@dataclass(frozen=True)
class FourWaySplit:
    """Token counts for (speaker side) × (audience side) relative to a target party."""

    target_to_target: Counter
    target_to_others: Counter
    others_to_target: Counter
    others_to_others: Counter

    def cells(self) -> dict[str, Counter]:
        return {
            "target_to_target": self.target_to_target,
            "target_to_others": self.target_to_others,
            "others_to_target": self.others_to_target,
            "others_to_others": self.others_to_others,
        }


def four_situation_split(
    text_streams: Sequence[ElementStream],
    segments_by_session: Mapping[str, AddressSegments],
    party_by_speaker: Mapping[str, str],
    *,
    target_party: str = "AfD",
) -> FourWaySplit:
    """Assign every token to one of four speaker/audience situations.

    A token lands on the "target" audience side when its word interval
    overlaps (strictly) any address segment of its session, in whatever
    order the segments come; a session with no entry in
    ``segments_by_session`` addresses nobody.  The speaker side is decided
    by party membership.  Tokens are lowercased, and each cell is counted
    over the stream's codes, so each distinct word is lowercased once.  Raises
    :class:`MissingPartyMetadata` when a stream's speaker has no party entry.
    """
    split = FourWaySplit(Counter(), Counter(), Counter(), Counter())
    for stream in text_streams:
        if stream.modality is not Modality.TEXT:
            raise ValidationError(f"expected text streams, got {stream.modality.value}")
        if stream.speaker_id is None or stream.speaker_id not in party_by_speaker:
            raise MissingPartyMetadata(
                f"no party on record for speaker {stream.speaker_id!r} "
                f"(session {stream.session_id!r})"
            )
        if party_by_speaker[stream.speaker_id] == target_party:
            to_target, to_others = split.target_to_target, split.target_to_others
        else:
            to_target, to_others = split.others_to_target, split.others_to_others
        segs = segments_by_session.get(stream.session_id)
        bounds = (segs.starts, segs.ends) if segs is not None else (np.empty(0), np.empty(0))
        addressed = covered(*bounds, stream.starts, stream.ends)
        lowered = [word.lower() for word in stream.vocab]
        for cell, mask in ((to_target, addressed), (to_others, ~addressed)):
            counts = np.bincount(stream.codes[mask], minlength=len(lowered))
            present = np.flatnonzero(counts)
            for code, count in zip(present.tolist(), counts[present].tolist()):
                cell[lowered[code]] += count
    return split
