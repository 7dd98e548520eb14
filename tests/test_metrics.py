"""Metrics tests: gauge invariance, padding rules, assignment and correlation
oracles. scipy is a test-only oracle; the package never loads it."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.optimize
import scipy.special
import scipy.stats

import cpdhr
from cpdhr.core import CpdModel
from cpdhr.metrics import (
    CONGRUENCE_FLOOR, _assign, _t_pvalue, align_sources, correlate_sources, cpderr,
    match_columns, pearson,
)
from cpdhr.solvers import init_model, normalize_model


def crandn(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def pearson_oracle(x, y):
    # textbook formula, written independently of the implementation
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    k = len(x)
    num = k * np.sum(x * y) - np.sum(x) * np.sum(y)
    den = np.sqrt(k * np.sum(x * x) - np.sum(x) ** 2) * np.sqrt(
        k * np.sum(y * y) - np.sum(y) ** 2
    )
    return num / den


def gauge(model, rng, permute=True, scale=True):
    """Random column permutation and complex diagonal rescaling."""
    rank = model.rank
    perm = rng.permutation(rank) if permute else np.arange(rank)
    scales = (
        (0.5 + rng.random(rank)) * np.exp(2j * np.pi * rng.random(rank))
        if scale
        else np.ones(rank)
    )
    factors = []
    for n, f in enumerate(model.factors):
        g = f[:, perm].copy()
        # distribute the column scale across modes arbitrarily
        if n == 0:
            g = g * scales[None, :]
        factors.append(g)
    return CpdModel(factors)


# ---------------------------------------------------------------------------
# cpderr


def test_cpderr_identity():
    m = normalize_model(init_model((4, 5, 6), 3, 1))
    rep = cpderr(m, m)
    assert all(e < 1e-14 for e in rep.per_mode_relative_error)
    assert rep.permutation == [0, 1, 2]
    for s in rep.per_mode_scaling:
        assert np.allclose(s, 1.0, atol=1e-12)
    for fa, fb in zip(rep.aligned_estimate.factors, m.factors):
        assert np.allclose(fa, fb, atol=1e-12)


def test_cpderr_gauge_invariance():
    rng = np.random.default_rng(11)
    m = normalize_model(init_model((5, 4, 6), 3, 2))
    for _ in range(5):
        g = gauge(m, rng)
        rep = cpderr(m, g)
        assert all(e < 1e-10 for e in rep.per_mode_relative_error)
        # the shared permutation must be injective on matched columns
        matched = [c for c in rep.permutation if c is not None]
        assert len(matched) == len(set(matched))


def test_cpderr_swap_and_scale_hand_case():
    rng = np.random.default_rng(12)
    m = normalize_model(init_model((4, 4, 4), 2, 3))
    est = CpdModel([f[:, ::-1].copy() for f in m.factors])
    est.factors[0][:, 1] *= 2j
    rep = cpderr(m, est)
    assert all(e < 1e-10 for e in rep.per_mode_relative_error)
    assert rep.permutation == [1, 0]


def test_cpderr_scale_invariance_of_errors():
    rng = np.random.default_rng(13)
    truth = normalize_model(init_model((5, 5, 5), 2, 4))
    est = CpdModel([crandn(rng, 5, 2) for _ in range(3)])
    base = cpderr(truth, est).per_mode_relative_error
    est2 = est.copy()
    est2.factors[1][:, 0] *= -3.7 + 0.4j
    again = cpderr(truth, est2).per_mode_relative_error
    assert np.allclose(base, again, atol=1e-10)


def test_cpderr_extra_estimate_column_dropped():
    rng = np.random.default_rng(14)
    truth = normalize_model(init_model((5, 4, 6), 2, 5))
    est = gauge(truth, rng)
    junk = CpdModel(
        [np.hstack([f, crandn(rng, f.shape[0], 1)]) for f in est.factors]
    )
    base = cpderr(truth, est).per_mode_relative_error
    padded = cpderr(truth, junk).per_mode_relative_error
    assert np.allclose(base, padded, atol=1e-10)
    rep = cpderr(truth, junk)
    assert None not in rep.permutation
    assert rep.aligned_estimate.rank == truth.rank


def test_cpderr_missing_column_padded_rank_zero():
    # orthonormal truth columns: dropping one forces a rank-zero pad whose
    # error contribution is exactly ||u_r|| / ||U_n|| = 1/sqrt(2)
    e1 = np.zeros((4, 1), dtype=complex)
    e2 = np.zeros((4, 1), dtype=complex)
    e1[0, 0] = 1.0
    e2[1, 0] = 1.0
    truth = CpdModel([np.hstack([e1, e2])] * 3)
    est = CpdModel([e1.copy()] * 3)
    rep = cpderr(truth, est)
    assert rep.permutation == [0, None]
    for err in rep.per_mode_relative_error:
        assert abs(err - 1.0 / np.sqrt(2.0)) < 1e-12
    for s in rep.per_mode_scaling:
        assert s[1] == 0.0


def test_cpderr_not_symmetric():
    rng = np.random.default_rng(15)
    a = normalize_model(init_model((4, 4, 4), 2, 6))
    b = CpdModel([crandn(rng, 4, 2) for _ in range(3)])
    ab = cpderr(a, b).per_mode_relative_error
    ba = cpderr(b, a).per_mode_relative_error
    assert not np.allclose(ab, ba)


def test_cpderr_shape_validation():
    a = init_model((4, 4, 4), 2, 0)
    with pytest.raises(ValueError):
        cpderr(a, init_model((4, 4), 2, 0))
    with pytest.raises(ValueError):
        cpderr(a, init_model((4, 5, 4), 2, 0))


def test_cpderr_refuses_non_finite_factors():
    # one refusal, naming the model, wherever the non-finite entry sits
    truth = init_model((4, 5, 6), 2, 0)
    for name in ("truth", "estimate"):
        for mode, bad in ((0, np.nan), (1, np.inf), (2, -np.inf)):
            factors = [f.copy() for f in truth.factors]
            factors[mode][1, 0] = bad
            models = {"truth": truth, "estimate": truth, name: CpdModel(factors)}
            with pytest.raises(ValueError, match=f"non-finite entry in the {name}"):
                cpderr(models["truth"], models["estimate"])


def test_cpderr_refuses_congruences_that_overflow():
    # finite entries near 1e160 overflow every column norm and inner
    # product, so the congruence is inf/inf = NaN: a ValueError, not a
    # search that never finds its augmenting path
    for rank in (1, 2):
        big = CpdModel([np.full((4, rank), 1e160, dtype=complex) for _ in range(3)])
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(ValueError, match="non-finite"):
                cpderr(big, big)


# ---------------------------------------------------------------------------
# assignment


def _scipy_assignment(cost):
    rows, cols = scipy.optimize.linear_sum_assignment(cost)
    match = [-1] * cost.shape[0]
    for r, c in zip(rows.tolist(), cols.tolist()):
        match[r] = c
    return match


def _total(cost, match):
    return sum(cost[r, c] for r, c in enumerate(match) if c >= 0)


def test_assignment_matches_scipy_on_random_matrices():
    # 10,000 continuous costs, square and rectangular, 1 to 8 on each side
    rng = np.random.default_rng(41)
    for _ in range(10_000):
        rows, cols = rng.integers(1, 9, size=2)
        cost = rng.standard_normal((rows, cols))
        got, ref = _assign(cost), _scipy_assignment(cost)
        assert got == ref
        assert _total(cost, got) == _total(cost, ref)


def test_assignment_ties_match_scipy():
    # small integer costs have many optimal assignments; the tie rule
    # picks the same one as the reference
    rng = np.random.default_rng(42)
    for _ in range(3_000):
        rows, cols = rng.integers(1, 9, size=2)
        cost = rng.integers(0, 3, size=(rows, cols)).astype(np.float64)
        assert _assign(cost) == _scipy_assignment(cost)


def test_assignment_tie_rule_hand_cases():
    # a constant block is matched on its diagonal, in every shape
    for shape in ((3, 3), (2, 4), (4, 2), (1, 3), (3, 1)):
        expected = [r if r < min(shape) else -1 for r in range(shape[0])]
        assert _assign(np.full(shape, -np.log(CONGRUENCE_FLOOR))) == expected
    assert _assign(np.array([[1.0, 1, 0], [1, 1, 1], [0, 1, 1]])) == [2, 1, 0]
    assert _assign(np.array([[2.0, 1, 1], [1, 2, 1]])) == [1, 0]
    assert _assign(np.array([[1.0, 1], [1, 1], [0, 0]])) == [-1, 1, 0]


def test_assignment_refuses_non_finite_costs():
    for bad in (np.nan, np.inf, -np.inf):
        for shape in ((1, 1), (2, 3), (3, 2)):
            cost = np.zeros(shape)
            cost[-1, -1] = bad
            with pytest.raises(ValueError, match="non-finite"):
                _assign(cost)


def test_match_columns_ties_on_zero_norm_and_padded_columns():
    # zero-norm estimate columns all cost -log(CONGRUENCE_FLOOR); the
    # truth columns left to them take them in index order
    e = np.eye(4, dtype=complex)
    zero = np.zeros((4, 1), dtype=complex)
    truth = CpdModel([e[:, :3].copy() for _ in range(3)])
    est = CpdModel([np.hstack([zero, e[:, [0]], zero]) for _ in range(3)])
    assert match_columns(truth, est) == [1, 0, 2]
    est = CpdModel([np.hstack([e[:, [2]], zero, zero, e[:, [0]]]) for _ in range(3)])
    assert match_columns(truth, est) == [3, 1, 0]
    est = CpdModel([np.hstack([zero, e[:, [1]]]) for _ in range(3)])
    assert match_columns(truth, est) == [0, 1, None]
    est = CpdModel([np.zeros((4, 2), dtype=complex) for _ in range(3)])
    assert match_columns(truth, est) == [0, 1, None]


# ---------------------------------------------------------------------------
# align_sources


def test_align_sources_trivial_embedding():
    rng = np.random.default_rng(21)
    truth = rng.standard_normal((30, 3))
    model = CpdModel([crandn(rng, 4, 3), crandn(rng, 5, 3), truth.astype(complex)])
    rep = cpderr(model, model)
    out = align_sources(truth, truth.astype(complex), rep)
    assert np.allclose(out, truth, atol=1e-12)


def test_align_sources_permuted_scaled():
    rng = np.random.default_rng(22)
    truth_sources = rng.standard_normal((40, 3))
    truth = CpdModel(
        [crandn(rng, 4, 3), crandn(rng, 5, 3), truth_sources.astype(complex)]
    )
    est = gauge(truth, rng)
    rep = cpderr(truth, est)
    out = align_sources(truth_sources, est.factors[-1], rep)
    assert np.allclose(out, truth_sources, atol=1e-10)


def test_align_sources_is_the_aligned_last_factor_with_padding():
    # a rank-2 estimate of a rank-3 truth pads one column with zeros
    rng = np.random.default_rng(24)
    truth_sources = rng.standard_normal((20, 3))
    truth = CpdModel(
        [crandn(rng, 4, 3), crandn(rng, 5, 3), truth_sources.astype(complex)]
    )
    est = CpdModel([f[:, [2, 0]] * (1.5 - 0.5j) for f in truth.factors])
    rep = cpderr(truth, est)
    assert rep.permutation.count(None) == 1
    out = align_sources(truth_sources, est.factors[-1], rep)
    expected = rep.aligned_estimate.factors[-1].real
    assert np.array_equal(out, expected)
    assert not out[:, rep.permutation.index(None)].any()


def test_align_sources_shape_mismatch():
    rng = np.random.default_rng(23)
    truth = CpdModel([crandn(rng, 4, 2), crandn(rng, 5, 2), crandn(rng, 10, 2)])
    rep = cpderr(truth, truth)
    with pytest.raises(ValueError):
        align_sources(np.zeros((9, 2)), truth.factors[-1], rep)


# ---------------------------------------------------------------------------
# pearson


def test_pearson_self_and_negation():
    rng = np.random.default_rng(31)
    x = rng.standard_normal(50)
    r, p = pearson(x, x)
    assert abs(r - 1.0) < 1e-12
    assert p == 0.0
    r, p = pearson(x, -x)
    assert abs(r + 1.0) < 1e-12


def test_pearson_matches_direct_formula():
    x = [1.0, 2.0, 3.0, 4.0]
    y = [2.0, 4.0, 6.0, 8.1]
    r, _ = pearson(x, y)
    assert abs(r - pearson_oracle(x, y)) < 1e-12


def test_pearson_p_closed_form_k4():
    # with 2 degrees of freedom the regularized incomplete beta reduces to
    # p = 1 - |t| / sqrt(2 + t^2), an independent closed form
    x = [1.0, 2.0, 3.0, 4.0]
    y = [2.0, 4.1, 5.9, 8.2]
    r, p = pearson(x, y)
    t = r * np.sqrt(2.0 / (1.0 - r * r))
    expected = 1.0 - abs(t) / np.sqrt(2.0 + t * t)
    assert abs(p - expected) < 1e-12


def test_pearson_refuses_non_finite_samples():
    y = [1.0, 2.0, 3.0, 4.0]
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="non-finite"):
            pearson([bad, 1.0, 2.0, 3.0], y)
        with pytest.raises(ValueError, match="non-finite"):
            pearson(y, [1.0, 2.0, bad, 3.0])


def test_pearson_matches_scipy():
    rng = np.random.default_rng(32)
    for _ in range(10):
        k = int(rng.integers(5, 60))
        x = rng.standard_normal(k)
        y = 0.3 * x + rng.standard_normal(k)
        r, p = pearson(x, y)
        ref = scipy.stats.pearsonr(x, y)
        assert abs(r - ref.statistic) < 1e-12
        assert abs(p - ref.pvalue) < 1e-10


def _pvalue_errors(ns, rs):
    """Relative error of _t_pvalue against the reference incomplete beta at
    x = nu / (nu + t^2), computed as pearson computes it."""
    worst = 0.0
    for n in ns:
        nu = n - 2
        for r in rs:
            t2 = r * r * nu / (1.0 - r * r)
            x = nu / (nu + t2)
            p = _t_pvalue(nu, x)
            ref = float(scipy.special.betainc(0.5 * nu, 0.5, x))
            assert 0.0 <= p <= 1.0
            if ref < np.finfo(np.float64).tiny:
                # below the normal range neither side keeps relative digits
                assert p < np.finfo(np.float64).tiny
            else:
                worst = max(worst, abs(p - ref) / ref)
    return worst


def test_pvalue_matches_scipy_betainc_on_a_grid():
    assert _pvalue_errors(range(3, 257), np.linspace(0.0, 0.9999, 101)) < 1e-13


def test_pvalue_error_bound_beyond_256_samples():
    # the continued fraction loses digits near its switch point as nu grows
    assert _pvalue_errors((300, 517, 1000), np.linspace(0.0, 0.9999, 201)) < 2e-13


def test_pearson_p_edge_values():
    # orthogonal centered samples give r = 0 exactly, and p = 1 exactly
    r, p = pearson([1.0, 0.0, -1.0, 0.0], [0.0, 1.0, 0.0, -1.0])
    assert r == 0.0 and p == 1.0
    # centered norms 1 and 2 make |r| = 1 exactly
    assert pearson([0.0, 0.0, 1.0, 1.0], [0.0, 0.0, 2.0, 2.0]) == (1.0, 0.0)
    assert pearson([0.0, 0.0, 1.0, 1.0], [0.0, 0.0, -2.0, -2.0]) == (-1.0, 0.0)


def test_pearson_p_monotone_in_correlation():
    # fabricate vectors with increasing |r| at fixed length
    k = 20
    base = np.linspace(-1, 1, k)
    rng = np.random.default_rng(33)
    noise = rng.standard_normal(k)
    last_p = 1.1
    for w in (0.2, 0.5, 1.0, 2.0, 5.0):
        y = w * base + noise
        r, p = pearson(base, y)
        assert p < last_p
        last_p = p


def test_pearson_rejects_bad_input():
    with pytest.raises(ValueError):
        pearson([1.0, 2.0], [1.0, 2.0])
    with pytest.raises(ValueError):
        pearson([1.0, 1.0, 1.0], [1.0, 2.0, 3.0])
    with pytest.raises(ValueError):
        pearson([1.0, 2.0, 3.0], [1.0, 2.0])


def test_correlate_sources_columnwise():
    rng = np.random.default_rng(34)
    truth = rng.standard_normal((25, 3))
    est = truth + 0.01 * rng.standard_normal((25, 3))
    rep = correlate_sources(truth, est)
    assert rep.sample_count == 25
    assert len(rep.per_source_r) == 3
    assert all(r > 0.99 for r in rep.per_source_r)
    assert all(p < 1e-10 for p in rep.per_source_p)
    with pytest.raises(ValueError):
        correlate_sources(truth, est[:, :2])


def test_pipeline_and_evaluate_load_no_scipy(tmp_path):
    # a whole run, evaluation included, loads no module of scipy
    root = Path(cpdhr.__file__).parents[2]
    code = (
        "import sys, cpdhr\n"
        "from cpdhr import cli\n"
        f"out = {str(tmp_path / 'run')!r}\n"
        f"assert cli.run(['pipeline', {str(root / 'configs' / 'demo_scene.json')!r}, out]) == 0\n"
        "assert cli.run(['evaluate', out + '/truth', out + '/estimate', out + '/again.json']) == 0\n"
        "print(sorted({m.split('.')[0] for m in sys.modules} & {'scipy'}))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(cpdhr.__file__).parents[1]))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env)
    assert out.stdout.strip() == "[]"
    assert (tmp_path / "run" / "again.json").read_bytes() == (tmp_path / "run" / "report.json").read_bytes()
