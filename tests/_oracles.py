"""Independent reference implementations the test suite checks against.

Each oracle deliberately takes a different route than the package code:
brute force instead of plane sweeps, explicit path enumeration instead of
dynamic programming, generalized eigenproblems instead of whitened SVDs,
dummy variables instead of demeaning, arbitrary precision instead of
float64.  Slow is fine here; being obviously correct is the point.
"""

from __future__ import annotations

import numpy as np


# --- interval joins --------------------------------------------------------

def brute_force_join(source, target, min_overlap=0.0):
    """Every pair checked directly, O(n*m).  Returns {(source_id, target_id): overlap}."""
    out = {}
    for ea in source:
        for eb in target:
            ov = max(
                0.0,
                min(ea.interval.end, eb.interval.end)
                - max(ea.interval.start, eb.interval.start),
            )
            if ov > min_overlap:
                out[(ea.id, eb.id)] = ov
    return out


def brute_force_join_arrays(starts_a, ends_a, starts_b, ends_b, min_overlap=0.0):
    """Same check vectorized over the full n*m grid; for large randomized trials."""
    ov = np.minimum(ends_a[:, None], ends_b[None, :]) - np.maximum(
        starts_a[:, None], starts_b[None, :]
    )
    ov = np.maximum(ov, 0.0)
    i, j = np.nonzero(ov > min_overlap)
    return i, j, ov[i, j]


# --- dynamic time warping --------------------------------------------------

_PATH_CACHE: dict[tuple[int, int], np.ndarray] = {}


def _all_monotone_paths(n: int, m: int) -> np.ndarray:
    """All step paths (0,0)->(n-1,m-1) as a padded matrix of flat cell indices.

    Padding points at a sentinel cell (index ``n*m``) that evaluators must
    assign zero cost.
    """
    paths: list[list[int]] = []

    def walk(i, j, acc):
        acc.append(i * m + j)
        if i == n - 1 and j == m - 1:
            paths.append(list(acc))
        else:
            if i + 1 < n and j + 1 < m:
                walk(i + 1, j + 1, acc)
            if i + 1 < n:
                walk(i + 1, j, acc)
            if j + 1 < m:
                walk(i, j + 1, acc)
        acc.pop()

    walk(0, 0, [])
    longest = max(len(p) for p in paths)
    out = np.full((len(paths), longest), n * m, dtype=np.int64)
    for r, p in enumerate(paths):
        out[r, : len(p)] = p
    return out


def exhaustive_dtw_cost(cost_matrix: np.ndarray) -> float:
    """Minimum total cost over *every* monotone warping path, by enumeration."""
    n, m = cost_matrix.shape
    key = (n, m)
    if key not in _PATH_CACHE:
        _PATH_CACHE[key] = _all_monotone_paths(n, m)
    cells = np.append(np.asarray(cost_matrix, float).ravel(), 0.0)
    return float(cells[_PATH_CACHE[key]].sum(axis=1).min())


# --- pitch difference function ---------------------------------------------

def direct_difference(frame, window, last_lag):
    """``d(tau) = sum_{j<W} (x[j] - x[j+tau])^2`` for tau = 0..last_lag, summed term by term."""
    x = np.asarray(frame, float)
    return np.array(
        [np.sum((x[:window] - x[tau : tau + window]) ** 2) for tau in range(last_lag + 1)]
    )


# --- synthetic audio -------------------------------------------------------

def word_tones(freqs, sr, slot_samples, tone_fraction):
    """A synthetic session's audio, built one word slot at a time.

    Each slot is a 0.4-amplitude tone over its leading ``tone_fraction``,
    with raised-cosine ends of up to 80 samples, then silence.
    """
    tone_samples = int(slot_samples * tone_fraction)
    t = np.arange(tone_samples) / sr
    ramp = min(80, tone_samples // 4)
    window = 0.5 * (1.0 - np.cos(np.pi * np.arange(ramp) / ramp))
    slots = []
    for freq in freqs:
        tone = 0.4 * np.sin(2.0 * np.pi * freq * t)
        if ramp > 0:
            tone[:ramp] *= window
            tone[-ramp:] *= window[::-1]
        slot = np.zeros(slot_samples)
        slot[:tone_samples] = tone
        slots.append(slot)
    return np.concatenate(slots)


# --- canonical correlation -------------------------------------------------

def cca_correlations_eig(x, y, k, ridge=0.0):
    """First k canonical correlations from the generalized eigenproblem.

    Solves ``Sxy Syy^-1 Syx w = rho^2 Sxx w`` with :func:`scipy.linalg.eigh`
    — no whitening, no SVD, so a genuinely different numerical path.
    """
    import scipy.linalg

    x = np.asarray(x, float)
    y = np.asarray(y, float)
    x = x - x.mean(axis=0)
    y = y - y.mean(axis=0)
    n = x.shape[0]
    sxx = x.T @ x / (n - 1)
    syy = y.T @ y / (n - 1)
    sxy = x.T @ y / (n - 1)
    if ridge:
        sxx = sxx + ridge * np.trace(sxx) / sxx.shape[0] * np.eye(sxx.shape[0])
        syy = syy + ridge * np.trace(syy) / syy.shape[0] * np.eye(syy.shape[0])
    m = sxy @ np.linalg.solve(syy, sxy.T)
    eigvals = scipy.linalg.eigh(m, sxx, eigvals_only=True)
    rho2 = np.clip(eigvals[::-1][:k], 0.0, 1.0)
    return np.sqrt(rho2)


# --- fixed-effects regression ----------------------------------------------

def dummy_variable_ols(y, groups, x, names):
    """The fixed-effects model fit the long way: one dummy per group, lstsq.

    Returns (coefficients, standard errors, rss) for the named regressors
    only, dropping the dummy estimates.
    """
    y = np.asarray(y, float)
    x = np.asarray(x, float)
    labels = sorted(set(groups))
    dummies = np.zeros((len(y), len(labels)))
    for row, grp in enumerate(groups):
        dummies[row, labels.index(grp)] = 1.0
    design = np.hstack([x, dummies])
    beta, *_ = np.linalg.lstsq(design, y, rcond=None)
    resid = y - design @ beta
    rss = float(resid @ resid)
    dof = len(y) - design.shape[1]
    sigma2 = rss / dof
    cov = sigma2 * np.linalg.inv(design.T @ design)
    se = np.sqrt(np.diag(cov))
    k = x.shape[1]
    return (
        dict(zip(names, beta[:k].tolist())),
        dict(zip(names, se[:k].tolist())),
        rss,
    )


# --- lexical log-odds ------------------------------------------------------

def fightin_words_mp(counts_a, counts_b, prior_scale=1.0):
    """Word z-scores from the log-odds formulas evaluated at 50 digits."""
    import mpmath

    with mpmath.workdps(50):
        vocab = sorted(
            w
            for w in set(counts_a) | set(counts_b)
            if counts_a.get(w, 0) + counts_b.get(w, 0) > 0
        )
        na = mpmath.mpf(sum(counts_a.get(w, 0) for w in vocab))
        nb = mpmath.mpf(sum(counts_b.get(w, 0) for w in vocab))
        grand = na + nb
        alpha0 = mpmath.mpf(prior_scale)
        out = {}
        for w in vocab:
            ya = mpmath.mpf(counts_a.get(w, 0))
            yb = mpmath.mpf(counts_b.get(w, 0))
            aw = alpha0 * (ya + yb) / grand
            delta = (
                mpmath.log(ya + aw)
                - mpmath.log(na + alpha0 - ya - aw)
                - mpmath.log(yb + aw)
                + mpmath.log(nb + alpha0 - yb - aw)
            )
            variance = 1 / (ya + aw) + 1 / (yb + aw)
            out[w] = float(delta / mpmath.sqrt(variance))
        return out
