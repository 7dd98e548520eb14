"""Recovery quality metrics.

cpderr resolves the permutation and per-mode complex scaling
indeterminacies of a CPD estimate against a reference model and reports
per-mode relative factor errors. pearson gives the sample correlation with
a two-sided p-value from the exact t distribution.
"""

import math
from dataclasses import dataclass

import numpy as np

from .core import CpdModel

CONGRUENCE_FLOOR = 1e-300


@dataclass
class CpdErrReport:
    """Alignment of an estimated model against a reference.

    permutation[r] is the estimate column matched to reference column r,
    or None where the estimate had too few columns and a rank-zero term
    was padded in. per_mode_scaling[n][r] is the complex least-squares
    scalar applied to the matched estimate column (0 for padded columns).
    """

    per_mode_relative_error: list
    permutation: list
    per_mode_scaling: list
    aligned_estimate: CpdModel


@dataclass
class CorrelationReport:
    per_source_r: list
    per_source_p: list
    sample_count: int


def _congruence_matrix(truth, estimate):
    n_modes = truth.order
    r_t, r_e = truth.rank, estimate.rank
    c = np.ones((r_t, r_e))
    for n in range(n_modes):
        u = truth.factors[n]
        v = estimate.factors[n]
        nu = np.linalg.norm(u, axis=0)
        nv = np.linalg.norm(v, axis=0)
        inner = np.abs(u.conj().T @ v)
        denom = np.outer(nu, nv)
        with np.errstate(invalid="ignore", divide="ignore"):
            ratio = np.where(denom > 0, inner / np.where(denom > 0, denom, 1.0), 0.0)
        c = c * ratio
    return c


def match_columns(truth, estimate):
    """Estimate column matched to each truth column, None where the
    estimate has too few columns.

    A single assignment across all modes maximizes the total congruence
    (product over modes of normalized absolute inner products): it
    minimizes the summed -log congruence, with congruences floored at
    CONGRUENCE_FLOOR, by ``_assign``.

    Tie rule: of several assignments with the same total cost, the order
    of ``_assign``'s search picks one. Truth columns join one at a time,
    in index order (estimate columns, where there are fewer of them than
    truth columns). Each search keeps the unsettled estimate columns in a
    list that starts in descending index order, and a settled column's
    slot is taken by the list's last entry. It settles the first column
    in that list at the lowest path cost, or a later one at that cost if
    that one is still unmatched. A constant cost matrix, such as an
    all-zero estimate gives (every congruence at CONGRUENCE_FLOOR), is
    thus matched on its diagonal: the first min(R_truth, R_estimate)
    truth columns take the estimate columns of the same index.

    Factor entries large enough to overflow a column norm make a
    congruence inf/inf = NaN; ``_assign`` refuses that cost with
    ValueError.
    """
    cost = -np.log(np.maximum(_congruence_matrix(truth, estimate), CONGRUENCE_FLOOR))
    return [None if c < 0 else c for c in _assign(cost)]


def _assign(cost):
    """Minimum-cost assignment of the rows of a real matrix to its columns,
    by shortest augmenting paths (Crouse, IEEE Trans. Aerosp. Electron.
    Syst. 2016).

    Returns the column assigned to each row, -1 for the rows a matrix with
    fewer columns than rows leaves out. Such a matrix is solved transposed.
    Rows are added one at a time; each addition runs a Dijkstra search
    over reduced costs to the nearest unassigned column, updates the duals
    u, v and flips the assignments along the path. A NaN or infinite cost
    is refused with ValueError: the search would find no path through it.
    """
    if not np.isfinite(cost).all():
        raise ValueError("assignment cost matrix has a non-finite entry")
    tall = cost.shape[0] > cost.shape[1]
    if tall:
        cost = cost.T
    n_rows, n_cols = cost.shape
    c = cost.tolist()
    u = [0.0] * n_rows
    v = [0.0] * n_cols
    col4row = [-1] * n_rows
    row4col = [-1] * n_cols
    path = [-1] * n_cols
    for cur in range(n_rows):
        dist = [math.inf] * n_cols
        unsettled = list(range(n_cols - 1, -1, -1))
        rows_seen, cols_seen = [], []
        i, min_val, sink = cur, 0.0, -1
        while sink < 0:
            rows_seen.append(i)
            ci, ui = c[i], u[i]
            lowest, index = math.inf, -1
            for it, j in enumerate(unsettled):
                r = min_val + ci[j] - ui - v[j]
                if r < dist[j]:
                    path[j] = i
                    dist[j] = r
                if dist[j] < lowest or (dist[j] == lowest and row4col[j] < 0):
                    lowest, index = dist[j], it
            min_val = lowest
            j = unsettled[index]
            if row4col[j] < 0:
                sink = j
            else:
                i = row4col[j]
            cols_seen.append(j)
            unsettled[index] = unsettled[-1]
            unsettled.pop()
        u[cur] += min_val
        for i in rows_seen[1:]:
            u[i] += min_val - dist[col4row[i]]
        for j in cols_seen:
            v[j] -= min_val - dist[j]
        j = sink
        while True:
            i = path[j]
            row4col[j] = i
            col4row[i], j = j, col4row[i]
            if i == cur:
                break
    return row4col if tall else col4row


def _aligned(estimate_factor, permutation, scaling, out):
    """Write scaling[r] times estimate column permutation[r] into column r
    of ``out`` for every matched r; padded columns keep what ``out`` held."""
    rows = [r for r, c in enumerate(permutation) if c is not None]
    cols = [permutation[r] for r in rows]
    # order "F" runs the product down each column with its scale as the
    # first operand, which numpy rounds as it does a scalar times a column
    out[:, rows] = np.multiply(scaling[rows], estimate_factor[:, cols], order="F")
    return out


def cpderr(truth, estimate):
    """Per-mode relative factor error after optimal matching and scaling.

    Columns are matched by ``match_columns``; scalings are then computed
    per mode and per matched pair independently. Extra estimate columns are
    dropped; missing ones are padded as rank-zero terms.
    """
    if truth.order != estimate.order:
        raise ValueError(f"mode count mismatch: {truth.order} vs {estimate.order}")
    if truth.shape != estimate.shape:
        raise ValueError(f"row count mismatch: {truth.shape} vs {estimate.shape}")
    for name, model in (("truth", truth), ("estimate", estimate)):
        if not all(np.isfinite(f).all() for f in model.factors):
            raise ValueError(f"non-finite entry in the {name} factors")

    permutation = match_columns(truth, estimate)

    per_mode_err = []
    per_mode_scaling = []
    aligned_factors = []
    for u, v in zip(truth.factors, estimate.factors):
        scaling = np.zeros(truth.rank, dtype=np.complex128)
        for r, c in enumerate(permutation):
            if c is not None:
                denom = np.vdot(v[:, c], v[:, c])
                if denom != 0:
                    scaling[r] = np.vdot(v[:, c], u[:, r]) / denom
        # zeros_like keeps u's memory order, which fixes the summation
        # order of the norm below
        aligned = _aligned(v, permutation, scaling, np.zeros_like(u))
        diff = np.linalg.norm(u - aligned)
        ref = np.linalg.norm(u)
        if ref > 0:
            per_mode_err.append(float(diff / ref))
        else:
            per_mode_err.append(0.0 if diff == 0 else float("inf"))
        per_mode_scaling.append(scaling)
        aligned_factors.append(aligned)

    return CpdErrReport(
        per_mode_relative_error=per_mode_err,
        permutation=permutation,
        per_mode_scaling=per_mode_scaling,
        aligned_estimate=CpdModel(aligned_factors),
    )


def align_sources(truth_sources, estimate_mode_n, report):
    """Permute and rescale estimated mode-N columns onto the reference
    sources, returning real parts (reference sources are real)."""
    truth_sources = np.asarray(truth_sources)
    estimate_mode_n = np.asarray(estimate_mode_n, dtype=np.complex128)
    if truth_sources.shape[0] != estimate_mode_n.shape[0]:
        raise ValueError(
            f"sample count mismatch: {truth_sources.shape[0]} vs {estimate_mode_n.shape[0]}"
        )
    if truth_sources.shape[1] != len(report.permutation):
        raise ValueError("report does not match the source count")
    out = np.zeros(truth_sources.shape, dtype=np.complex128)
    return _aligned(estimate_mode_n, report.permutation, report.per_mode_scaling[-1], out).real


def pearson(x, y):
    """Sample correlation and two-sided p-value.

    The p-value comes from the t statistic with K-2 degrees of freedom,
    evaluated through the regularized incomplete beta function.
    """
    x = np.asarray(x, dtype=np.float64).ravel()
    y = np.asarray(y, dtype=np.float64).ravel()
    if x.size != y.size:
        raise ValueError("length mismatch")
    k = x.size
    if k < 3:
        raise ValueError("need at least 3 samples")
    if not (np.isfinite(x).all() and np.isfinite(y).all()):
        raise ValueError("non-finite sample")
    xd = x - x.mean()
    yd = y - y.mean()
    sx = np.linalg.norm(xd)
    sy = np.linalg.norm(yd)
    if sx == 0 or sy == 0:
        raise ValueError("correlation undefined for constant input")
    r = float(np.dot(xd, yd) / (sx * sy))
    r = max(-1.0, min(1.0, r))
    nu = k - 2
    if abs(r) == 1.0:
        return r, 0.0
    t2 = r * r * nu / (1.0 - r * r)
    p = _t_pvalue(nu, nu / (nu + t2))
    return r, min(max(p, 0.0), 1.0)


def _t_pvalue(nu, x):
    """Two-sided Student-t p-value for integer nu >= 1 degrees of freedom:
    the regularized incomplete beta I_x(nu/2, 1/2) at x = nu / (nu + t^2).

    The continued fraction of I_x(a, b) is evaluated by the modified Lentz
    method (Press et al., Numerical Recipes, 3rd ed., 6.4). Past
    x = (a + 1) / (a + b + 2) it converges slowly, and 1 - I_{1-x}(b, a)
    is evaluated instead. 1/B(nu/2, 1/2) is 1/pi at nu = 1 and 1/2 at
    nu = 2 and gains a factor k/(k - 1) at each k = nu - 1, nu - 3, ... > 1,
    a product that stays within a few ulps where lgamma differences lose
    digits as nu grows. Against a reference, the relative error measured
    below 3.6e-14 for nu <= 254, and below 1.3e-13 for nu <= 1000, where
    the fraction itself loses digits near the switch point.
    """
    a, b = 0.5 * nu, 0.5
    k = np.arange(nu - 1.0, 1.0, -2.0)
    inv_beta = (1.0 / math.pi if nu % 2 else 0.5) * float(np.prod(k / (k - 1.0)))
    front = x**a * math.sqrt(1.0 - x) * inv_beta
    swap = x > (a + 1.0) / (a + b + 2.0)
    if swap:
        a, b, x = b, a, 1.0 - x
    tiny = 1e-300  # stands in for a zero denominator
    eps = math.ulp(1.0)
    c = 1.0
    d = 1.0 - (a + b) * x / (a + 1.0)
    d = 1.0 / (d if abs(d) >= tiny else tiny)
    h = d
    # the fraction converges in at most about 70 terms for any nu up to 1e10
    for m in range(1, 1000):
        for aa in (
            m * (b - m) * x / ((a + 2 * m - 1.0) * (a + 2 * m)),
            -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 2 * m + 1.0)),
        ):
            d = 1.0 + aa * d
            d = 1.0 / (d if abs(d) >= tiny else tiny)
            c = 1.0 + aa / c
            c = c if abs(c) >= tiny else tiny
            delta = d * c
            h *= delta
        if abs(delta - 1.0) <= eps:
            break
    else:
        raise ValueError(f"incomplete beta fraction did not converge at nu={nu}, x={x}")
    tail = front * h / a
    return 1.0 - tail if swap else tail


def correlate_sources(truth_sources, aligned_sources):
    """Columnwise pearson of reference sources against aligned recoveries."""
    truth_sources = np.asarray(truth_sources, dtype=np.float64)
    aligned_sources = np.asarray(aligned_sources, dtype=np.float64)
    if truth_sources.shape != aligned_sources.shape:
        raise ValueError("shape mismatch")
    rs, ps = [], []
    for col in range(truth_sources.shape[1]):
        r, p = pearson(truth_sources[:, col], aligned_sources[:, col])
        rs.append(r)
        ps.append(p)
    return CorrelationReport(
        per_source_r=rs, per_source_p=ps, sample_count=truth_sources.shape[0]
    )
