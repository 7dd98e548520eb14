"""Recovery quality metrics.

cpderr resolves the permutation and per-mode complex scaling
indeterminacies of a CPD estimate against a reference model and reports
per-mode relative factor errors. pearson gives the sample correlation with
a two-sided p-value from the exact t distribution.
"""

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
    (product over modes of normalized absolute inner products); it is found
    with the Hungarian algorithm.
    """
    from scipy.optimize import linear_sum_assignment

    cost = -np.log(np.maximum(_congruence_matrix(truth, estimate), CONGRUENCE_FLOOR))
    rows, cols = linear_sum_assignment(cost)
    match = dict(zip(rows.tolist(), cols.tolist()))
    return [match.get(r) for r in range(truth.rank)]


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
    from scipy.special import betainc

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
    p = float(betainc(0.5 * nu, 0.5, nu / (nu + t2)))
    return r, min(max(p, 0.0), 1.0)


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
