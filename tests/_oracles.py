"""Independent reference implementations the test suite checks against.

Each oracle deliberately takes a different route than the package code:
brute force instead of plane sweeps, explicit path enumeration instead of
dynamic programming, generalized eigenproblems instead of whitened SVDs,
dummy variables instead of demeaning, arbitrary precision instead of
float64.  Slow is fine here; being obviously correct is the point.

The loop oracles (``sweep_loop``, ``detect_loop``, ``dtw_loop``) are the
one-step-per-item versions that vectorised package code replaced; with the
same arithmetic, the package must match them exactly.
"""

from __future__ import annotations

import numpy as np

from modalign.gaze import GazeTrace
from modalign.timeline import overlap


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


def sweep_loop(a, b, min_overlap):
    """All index pairs with ``overlap > min_overlap`` between two sorted interval lists.

    The forward-scan plane sweep ``timeline.overlap_pairs`` replaced:
    whichever side opens earlier scans the other side while start times
    stay below its end, one Python step per candidate.  Returns
    ``[(i, j, overlap)]`` in discovery order.
    """
    pairs = []
    i = j = 0
    na, nb = len(a), len(b)
    while i < na and j < nb:
        if (a[i].start, a[i].end) <= (b[j].start, b[j].end):
            end = a[i].end
            k = j
            while k < nb and b[k].start < end:
                ov = overlap(a[i], b[k])
                if ov > min_overlap:
                    pairs.append((i, k, ov))
                k += 1
            i += 1
        else:
            end = b[j].end
            k = i
            while k < na and a[k].start < end:
                ov = overlap(a[k], b[j])
                if ov > min_overlap:
                    pairs.append((k, j, ov))
                k += 1
            j += 1
    return pairs


# --- gaze segmentation -----------------------------------------------------

def gaze_trace(rows) -> GazeTrace:
    """Hand-written ``(t, yaw, pitch, frontal)`` rows stacked into a :class:`GazeTrace`."""
    t, yaw, pitch, frontal = np.array(rows, dtype=np.float64).reshape(-1, 4).T
    return GazeTrace(t, yaw, pitch, frontal != 0)


def detect_loop(trace, rule):
    """``gaze.detect_address_segments`` as the per-sample state machine.

    One Python step per sample of the :class:`GazeTrace`, carrying the open
    run, its last sample, its last in-band sample and the start of the
    current notes-look.  Returns ``[(start, end)]``; samples must be
    strictly increasing in time.
    """
    t, yaw, pitch, frontal = (c.tolist() for c in (trace.t, trace.yaw, trace.pitch, trace.frontal))
    diffs = sorted(t[i + 1] - t[i] for i in range(len(t) - 1))
    period = diffs[len(diffs) // 2] if diffs else 0.0
    segments = []
    start_idx = None
    last_idx = -1            # last sample belonging to the open run
    last_in_band = -1        # last in-band sample of the open run
    notes_since = None

    def close(end_idx):
        nonlocal start_idx, notes_since
        if start_idx is not None and end_idx >= start_idx:
            segments.append((t[start_idx], t[end_idx] + period))
        start_idx = None
        notes_since = None

    for i in range(len(t)):
        in_band = frontal[i] and rule.yaw_min <= yaw[i] <= rule.yaw_max
        if in_band:
            if start_idx is None:
                start_idx = i
            last_idx = i
            last_in_band = i
            notes_since = None
            continue
        at_notes = frontal[i] and pitch[i] < rule.notes_pitch_threshold
        if at_notes and start_idx is not None:
            if notes_since is None:
                notes_since = t[i]
            if rule.max_notes_seconds is not None and t[i] - notes_since > rule.max_notes_seconds:
                close(last_in_band)
            else:
                last_idx = i
            continue
        close(last_idx)
    close(last_idx)
    return segments


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


def dtw_loop(c):
    """Cheapest warp over cost matrix ``c`` by the row-by-row cell loop.

    Same recurrence, tie order and ``best + cost`` addition as
    ``latent.dtw_align``, one Python step per cell.  Returns
    ``(pairs, total_cost)``; the total must be finite.
    """
    n, m = c.shape
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
        raise ValueError(f"warp cost is {acc[n, m]}")

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
    return tuple(path), float(acc[n, m])


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
