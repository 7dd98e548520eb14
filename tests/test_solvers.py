"""Solver tests: seeded init, normalization, ALS, Gauss-Newton.

Recovery checks here compare reconstructed tensors directly against the
generating tensor (no permutation alignment needed); factor-level error
checks live with the metrics tests.
"""

import dataclasses
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from cpdhr import core, formats, scene, solvers
from cpdhr.core import CpdModel, IncompleteTensor
from cpdhr.pipeline import INIT_SEED_OFFSET, NOISE_SEED_OFFSET
from cpdhr.solvers import CpdOptions, cpd, cpd_als, cpd_gradient, cpd_nls, init_model, normalize_model


def crandn(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def make_truth(shape, rank, seed):
    return normalize_model(init_model(shape, rank, seed))


def seeded_start(t, rank, seed):
    """The data-scaled seeded start as an explicit model: init_model scaled
    so that its reconstruction has the norm of the observed data, as every
    seeded start outside the algebraic start's reach. Tests of a solve's
    trajectory start here, since the algebraic start solves a noiseless
    fully observed order-3 tensor outright."""
    vals = np.ascontiguousarray(t.values if isinstance(t, IncompleteTensor) else t, dtype=np.complex128)
    model = init_model(vals.shape, rank, seed)
    start_norm = float(np.linalg.norm(core.reconstruct(model).ravel()))
    scale = (float(np.linalg.norm(vals.ravel())) / start_norm) ** (1.0 / vals.ndim)
    return CpdModel([f * scale for f in model.factors])


def fd_gradient(t, factors, h=1e-5):
    """Central finite differences of 0.5*||observed(reconstruct - t)||^2,
    returned in the same (d/d Re, d/d Im) -> complex block layout as
    cpd_gradient."""
    if isinstance(t, IncompleteTensor):
        tvals, mask = t.values, t.mask
    else:
        tvals, mask = np.asarray(t, dtype=complex), None

    def f_of(fs):
        r = core.reconstruct(fs) - tvals
        if mask is not None:
            r = np.where(mask, r, 0.0)
        return 0.5 * float(np.vdot(r, r).real)

    blocks = []
    for n, f in enumerate(factors):
        block = np.zeros_like(f)
        for idx in np.ndindex(*f.shape):
            for part in (1.0, 1.0j):
                fp = [x.copy() for x in factors]
                fm = [x.copy() for x in factors]
                fp[n][idx] += h * part
                fm[n][idx] -= h * part
                d = (f_of(fp) - f_of(fm)) / (2.0 * h)
                block[idx] += d * part
        blocks.append(block)
    return blocks


# ---------------------------------------------------------------------------
# init / normalize


def test_init_model_deterministic():
    a = init_model((3, 4, 5), 2, seed=7)
    b = init_model((3, 4, 5), 2, seed=7)
    for fa, fb in zip(a.factors, b.factors):
        assert np.array_equal(fa, fb)
    c = init_model((3, 4, 5), 2, seed=8)
    for fa, fc in zip(a.factors, c.factors):
        assert np.all(fa != fc)


def test_init_model_golden_first_draw():
    # frozen against numpy default_rng(0): first standard normal block is
    # the real parts, second the imaginary parts, scaled by 1/sqrt(2)
    m = init_model((2, 2), 1, seed=0)
    golden = complex(0.08890469193522228, 0.4528471989539066)
    assert abs(m.factors[0][0, 0] - golden) < 1e-15


def test_normalize_model_columns_and_phase():
    rng = np.random.default_rng(2)
    m = CpdModel([crandn(rng, 4, 3), crandn(rng, 5, 3), crandn(rng, 6, 3)])
    nm = normalize_model(m)
    assert nm.normalized
    for f in nm.factors[:-1]:
        assert np.allclose(np.linalg.norm(f, axis=0), 1.0, atol=1e-12)
        top = np.abs(f).argmax(axis=0)
        pivots = f[top, np.arange(f.shape[1])]
        assert np.allclose(pivots.imag, 0.0, atol=1e-12)
        assert np.all(pivots.real > 0)


def test_normalize_model_preserves_reconstruction():
    rng = np.random.default_rng(3)
    m = CpdModel([crandn(rng, 4, 2), crandn(rng, 3, 2), crandn(rng, 5, 2)])
    before = core.reconstruct(m)
    after = core.reconstruct(normalize_model(m))
    assert np.linalg.norm(after - before) / np.linalg.norm(before) < 1e-12


def test_normalize_model_scale_shuffling():
    rng = np.random.default_rng(4)
    m = normalize_model(CpdModel([crandn(rng, 4, 2), crandn(rng, 5, 2), crandn(rng, 6, 2)]))
    scaled = m.copy()
    scaled.factors[0][:, 0] *= 5.0
    renorm = normalize_model(scaled)
    # mode-N column picks up the factor of 5, leading factors match again
    for f_ref, f_new in zip(m.factors[:-1], renorm.factors[:-1]):
        assert np.allclose(f_ref, f_new, atol=1e-12)
    assert np.allclose(renorm.factors[-1][:, 0], 5.0 * m.factors[-1][:, 0], atol=1e-10)
    assert np.allclose(renorm.factors[-1][:, 1], m.factors[-1][:, 1], atol=1e-12)


def test_normalize_model_idempotent():
    rng = np.random.default_rng(5)
    m = normalize_model(CpdModel([crandn(rng, 4, 2), crandn(rng, 5, 2), crandn(rng, 3, 2)]))
    again = normalize_model(m)
    for fa, fb in zip(m.factors, again.factors):
        assert np.allclose(fa, fb, atol=1e-12)


def test_normalize_model_zero_column_raises():
    f0 = np.ones((3, 2), dtype=complex)
    f0[:, 1] = 0.0
    m = CpdModel([f0, np.ones((4, 2), dtype=complex), np.ones((5, 2), dtype=complex)])
    with pytest.raises(ValueError):
        normalize_model(m)


# ---------------------------------------------------------------------------
# options / input validation


def test_options_validation():
    with pytest.raises(ValueError):
        CpdOptions(rank=0)
    with pytest.raises(ValueError):
        CpdOptions(rank=1, algorithm="newton")
    with pytest.raises(ValueError):
        CpdOptions(rank=1, missing_data_strategy="drop")
    with pytest.raises(ValueError):
        CpdOptions(rank=1, max_iterations=0)
    # numpy's own refusal of a negative seed would not name the field
    with pytest.raises(ValueError, match="init seed must be >= 0, got -5"):
        CpdOptions(rank=1, init=-5)


@pytest.mark.parametrize("name,value", [
    ("rank", 2.0), ("rank", True),
    ("max_iterations", 2.5), ("max_iterations", True),
    ("init", 1.5), ("init", True),
])
def test_options_refuse_a_bool_or_a_non_integer(name, value):
    # as the config parser does: a seed of 1.5 or True would otherwise run
    # seed 1, and a float rank or iteration count fail inside the solve
    with pytest.raises(ValueError, match=f"^{name}( seed)? must be an integer, got {value!r}$"):
        CpdOptions(**{"rank": 2, name: value})


def test_options_accept_numpy_integers():
    opts = CpdOptions(rank=np.int64(2), max_iterations=np.int32(50), init=np.uint16(1))
    assert [(type(v), v) for v in (opts.rank, opts.max_iterations, opts.init)] == [(int, 2), (int, 50), (int, 1)]


def test_zero_tensor_rejected():
    with pytest.raises(ValueError):
        cpd_als(np.zeros((3, 3, 3)), CpdOptions(rank=1))
    with pytest.raises(ValueError):
        cpd_nls(np.zeros((3, 3, 3)), CpdOptions(rank=1))


def test_nonfinite_tensor_rejected():
    t = np.ones((3, 3, 3), dtype=complex)
    t[1, 1, 1] = np.nan
    with pytest.raises(ValueError):
        cpd_als(t, CpdOptions(rank=1))
    t[1, 1, 1] = np.inf
    with pytest.raises(ValueError):
        cpd_nls(t, CpdOptions(rank=1))


def test_provided_init_checked_and_deterministic():
    truth = make_truth((4, 4, 4), 2, 11)
    t = core.reconstruct(truth)
    start = init_model((4, 4, 4), 2, 99)
    a, _ = cpd_als(t, CpdOptions(rank=2, init=start, max_iterations=20))
    b, _ = cpd_als(t, CpdOptions(rank=2, init=start, max_iterations=20))
    for fa, fb in zip(a.factors, b.factors):
        assert np.array_equal(fa, fb)
    with pytest.raises(ValueError):
        cpd_als(t, CpdOptions(rank=2, init=init_model((5, 4, 4), 2, 0)))
    with pytest.raises(ValueError):
        cpd_als(t, CpdOptions(rank=2, init=init_model((4, 4, 4), 3, 0)))


# ---------------------------------------------------------------------------
# ALS


def test_als_rank1_recovery():
    truth = make_truth((5, 6, 4), 1, 3)
    t = core.reconstruct(truth)
    model, diag = cpd_als(t, CpdOptions(rank=1, algorithm="als", init=0))
    assert diag.converged
    assert diag.final_relative_residual < 1e-10
    # recovered columns collinear with truth
    for f_true, f_est in zip(truth.factors, model.factors):
        u, v = f_true[:, 0], f_est[:, 0]
        cos = abs(np.vdot(u, v)) / (np.linalg.norm(u) * np.linalg.norm(v))
        assert cos > 1.0 - 1e-10


def test_als_noiseless_recovery_matches_truth_tensor():
    truth = make_truth((10, 10, 15), 2, 21)
    t = core.reconstruct(truth)
    model, diag = cpd_als(t, CpdOptions(rank=2, algorithm="als", init=1))
    assert diag.converged
    err = np.linalg.norm(core.reconstruct(model) - t) / np.linalg.norm(t)
    assert err < 1e-8


def test_als_trace_monotone_on_dense():
    rng = np.random.default_rng(31)
    for seed in range(4):
        t = crandn(rng, 5, 6, 4)
        _, diag = cpd_als(t, CpdOptions(rank=2, algorithm="als", init=seed, max_iterations=60))
        trace = np.asarray(diag.objective_trace)
        assert np.all(np.diff(trace) <= 1e-12)
        assert diag.final_relative_residual == trace[-1]
        assert diag.iterations == len(trace)


def test_als_noise_floor_at_equal_power():
    # signal plus noise of identical Frobenius norm: the LS fit cannot do
    # better than the component of the noise outside the model, so the
    # residual must land at the computed floor (within a few percent)
    truth = make_truth((10, 10, 15), 3, 5)
    t = core.reconstruct(truth)
    rng = np.random.default_rng(6)
    n = crandn(rng, *t.shape)
    n *= np.linalg.norm(t) / np.linalg.norm(n)
    noisy = t + n
    floor = np.linalg.norm(n) / np.linalg.norm(noisy)
    _, diag = cpd_als(noisy, CpdOptions(rank=3, algorithm="als", init=2, max_iterations=200))
    assert abs(diag.final_relative_residual - floor) / floor < 0.05


@pytest.mark.parametrize("masked", [False, True])
def test_als_fit_read_off_the_last_mode_is_the_residual_of_the_sweep(masked):
    # a sweep takes its fit from its last mode's normal equations, or from
    # the line search's polynomial once the searches start; the same solve
    # stopped after j + 1 sweeps reports the exact residual of the model of
    # sweep j (seed 1's dense solve ends at the noise floor a sweep early,
    # after three line searches)
    sweeps = solvers.LINE_SEARCH_FROM + 4
    for seed in range(3):
        t = demo_tensors(seed)[masked]
        opts = CpdOptions(rank=3, algorithm="als", init=seed + INIT_SEED_OFFSET, max_iterations=sweeps)
        _, diag = cpd_als(t, opts)
        assert diag.iterations == (sweeps - 1 if (seed, masked) == (1, False) else sweeps), seed
        for j, rel in enumerate(diag.objective_trace):
            _, short = cpd_als(t, dataclasses.replace(opts, max_iterations=j + 1))
            assert rel == pytest.approx(short.final_relative_residual, rel=1e-12, abs=0), (seed, j)


@pytest.mark.parametrize("masked", [False, True])
def test_als_stall_holds_on_the_returned_trace(masked):
    # a stop (a stall, or the noise floor) is only taken on a computed
    # residual, so the trace of a converged solve shows it, and its last
    # entry is the returned model's residual over the observed entries
    for seed in range(3):
        t = demo_tensors(seed)[masked]
        opts = CpdOptions(rank=3, algorithm="als", init=seed + INIT_SEED_OFFSET)
        model, diag = cpd_als(t, opts)
        assert diag.converged, seed
        trace = diag.objective_trace
        values, mask = (t.values, t.mask) if masked else (t, np.ones(t.shape, dtype=bool))
        if diag.stop_reason == "stall":
            assert trace[-2] - trace[-1] < solvers.REL_OBJECTIVE_TOL, seed
        else:
            dof = solvers._degrees_of_freedom(values, mask, 3)[1]
            assert diag.stop_reason == "noise_floor", seed
            assert solvers._tail_at_noise_floor([rel * rel for rel in trace], dof), seed
        exact = np.linalg.norm(np.where(mask, core.reconstruct(model) - values, 0.0)) / np.linalg.norm(values)
        assert trace[-1] == pytest.approx(exact, rel=1e-12, abs=0), seed


def test_als_line_search_shortens_the_algebraic_start_crawl():
    # from the algebraic start, plain ALS crawled on the dense 0 dB demo
    # tensors of seeds 5, 6 and 12 (291, 203 and 442 sweeps); the line
    # search takes them out of the swamp
    for seed in (5, 6, 12):
        dense, _ = demo_tensors(seed)
        _, diag = cpd_als(dense, CpdOptions(rank=3, algorithm="als", init=seed + INIT_SEED_OFFSET))
        assert diag.converged and diag.iterations < 200, (seed, diag.iterations)


def line_search_problem(rng, shape, rank, masked):
    """A tensor with noise, its float64 mask or None, and a point x and a
    step d of the flat parameters; masked, row 1 of mode 0 is unobserved."""
    truth = [crandn(rng, i, rank) for i in shape]
    t = core.reconstruct(truth) + 0.3 * crandn(rng, *shape)
    weights = None
    if masked:
        mask = rng.random(shape) < 0.7
        mask[1] = False
        t, weights = np.where(mask, t, 0.0), mask.astype(np.float64)
    x = np.concatenate([(f + 0.2 * crandn(rng, *f.shape)).ravel() for f in truth])
    return t, weights, x, 0.1 * crandn(rng, x.size)


def observed_rel_sq(t, weights, x, rank):
    r = core.reconstruct(solvers._factor_views(x, t.shape, rank)) - t
    if weights is not None:
        r = np.where(weights > 0, r, 0.0)
    return np.vdot(r, r).real / np.vdot(t, t).real


@pytest.mark.parametrize("masked", [False, True])
def test_line_search_polynomial_is_the_observed_residual(masked):
    rng = np.random.default_rng(67)
    for shape in ((5, 4, 6), (3, 4, 2, 5)):
        t, weights, x, d = line_search_problem(rng, shape, 3, masked)
        coefficients, _, _ = solvers._line_search_polynomial(t, weights, np.linalg.norm(t), x, d, 3)
        assert coefficients.size == 2 * len(shape) + 1
        for nu in rng.uniform(-1.0, 3.0, 5):
            direct = observed_rel_sq(t, weights, x + nu * d, 3)
            value = np.polynomial.polynomial.polyval(nu, coefficients)
            assert value == pytest.approx(direct, rel=1e-10, abs=0), (shape, nu)


@pytest.mark.parametrize("masked", [False, True])
def test_line_search_never_raises_the_objective(masked):
    # from random points and steps, and from the points of real sweeps, the
    # search leaves a point no worse than the sweep's (nu = 0), reports its
    # residual, and hands the next sweep the last-mode products of that point
    rng = np.random.default_rng(68)
    problems = []
    for shape in ((5, 4, 6), (3, 4, 2, 5)):
        for _ in range(4):
            problems.append(line_search_problem(rng, shape, 3, masked))
        t, weights, x, _ = problems[-1]
        x = x.copy()
        for _ in range(3):
            x_prev = x.copy()
            factors = solvers._factor_views(x, shape, 3)
            if masked:
                solvers._als_sweep_masked(t, weights, factors)
            else:
                solvers._als_sweep_dense(t, factors)
            problems.append((t, weights, x.copy(), x - x_prev))
    moved = 0
    for t, weights, x, d in problems:
        rank = 3
        x_prev = x - d
        before = observed_rel_sq(t, weights, x, rank)
        rel_sq, p = solvers._line_search(t, weights, np.linalg.norm(t), x, x_prev, rank)
        after = observed_rel_sq(t, weights, x, rank)
        moved += not np.array_equal(x, x_prev + d)
        assert after <= before * (1.0 + 1e-12)
        assert rel_sq == pytest.approx(after, rel=1e-10, abs=0)
        factors = solvers._factor_views(x, t.shape, rank)
        p_values = core._last_mode_product(t, np.conj(factors[-1]))
        p_weights = None if weights is None else solvers._real_product(
            weights.reshape(-1, t.shape[-1]), solvers._pair_columns(factors[-1]))
        for carried, fresh in zip((p, None) if weights is None else p, (p_values, p_weights)):
            if fresh is not None:
                assert np.abs(carried - fresh).max() <= 1e-12 * np.abs(fresh).max()
    assert moved >= len(problems) // 2


@pytest.mark.parametrize("masked", [False, True])
def test_sweeps_after_a_line_search_start_from_its_products(monkeypatch, masked):
    # the search hands the next sweep the last-mode products of the point
    # it leaves, which the rebalance rescales with the last factor
    name = "_als_sweep_masked" if masked else "_als_sweep_dense"
    sweep = getattr(solvers, name)
    carried = []

    def checking(tvals, *args):
        factors, p = args[-2:]
        if p is not None:
            fresh = [core._last_mode_product(tvals, np.conj(factors[-1]))]
            if masked:
                weights = args[0]
                fresh.append(solvers._real_product(weights.reshape(-1, tvals.shape[-1]),
                                                   solvers._pair_columns(factors[-1])))
            for given, ref in zip(p if masked else [p], fresh):
                assert np.abs(given - ref).max() <= 1e-12 * np.abs(ref).max()
            carried.append(len(fresh))
        return sweep(tvals, *args)

    monkeypatch.setattr(solvers, name, checking)
    t = demo_tensors(0)[masked]
    opts = CpdOptions(rank=3, algorithm="als", init=INIT_SEED_OFFSET, max_iterations=solvers.LINE_SEARCH_FROM + 5)
    _, diag = cpd_als(t, opts)
    assert diag.iterations == opts.max_iterations
    assert carried == [1 + masked] * 4


def test_noiseless_als_stalls_on_exact_residuals():
    # near an exact fit the fit read off the normal equations is rounding
    # noise, about sqrt(eps) at best; the sweeps compute the residual there,
    # so a noiseless solve still stalls below 1e-10 and reports the
    # returned model's residual
    truth = make_truth((10, 10, 15), 2, 21)
    t = core.reconstruct(truth)
    model, diag = cpd_als(t, CpdOptions(rank=2, algorithm="als", init=seeded_start(t, 2, 1)))
    assert diag.converged
    assert diag.iterations > 2
    assert max(diag.objective_trace[-2:]) <= 1e-10
    exact = np.linalg.norm(core.reconstruct(model) - t) / np.linalg.norm(t)
    assert abs(diag.final_relative_residual - exact) <= 1e-15


# ---------------------------------------------------------------------------
# Gauss-Newton


def test_nls_noiseless_recovery():
    truth = make_truth((10, 10, 15), 2, 21)
    t = core.reconstruct(truth)
    model, diag = cpd_nls(t, CpdOptions(rank=2, algorithm="gauss_newton", init=1))
    assert diag.converged
    err = np.linalg.norm(core.reconstruct(model) - t) / np.linalg.norm(t)
    assert err < 1e-9


def test_warmstart_runs_and_recovers():
    truth = make_truth((8, 7, 9), 2, 13)
    t = core.reconstruct(truth)
    model, diag = cpd(t, CpdOptions(rank=2, init=0))
    assert diag.converged
    err = np.linalg.norm(core.reconstruct(model) - t) / np.linalg.norm(t)
    assert err < 1e-9


def test_gradient_zero_at_truth():
    truth = make_truth((6, 5, 7), 2, 17)
    t = core.reconstruct(truth)
    g = cpd_gradient(t, truth)
    gnorm = np.sqrt(sum(float(np.vdot(b, b).real) for b in g))
    assert gnorm < 1e-10 * np.linalg.norm(t)


def test_gradient_matches_finite_differences_dense():
    truth = make_truth((3, 4, 3), 2, 23)
    t = np.asarray(core.reconstruct(truth))
    factors = init_model((3, 4, 3), 2, 9).factors
    g = cpd_gradient(t, factors)
    fd = fd_gradient(t, factors)
    for gb, fb in zip(g, fd):
        denom = max(np.abs(fb).max(), 1e-12)
        assert np.abs(gb - fb).max() / denom < 1e-6


def test_gradient_matches_finite_differences_masked():
    truth = make_truth((3, 3, 4), 2, 29)
    vals = np.asarray(core.reconstruct(truth))
    rng = np.random.default_rng(8)
    mask = rng.random(vals.shape) < 0.8
    it = IncompleteTensor(vals, mask)
    factors = init_model((3, 3, 4), 2, 10).factors
    g = cpd_gradient(it, factors)
    fd = fd_gradient(it, factors)
    for gb, fb in zip(g, fd):
        denom = max(np.abs(fb).max(), 1e-12)
        assert np.abs(gb - fb).max() / denom < 1e-6


def test_diagnostics_trace_contract_nls():
    truth = make_truth((5, 5, 5), 2, 37)
    t = core.reconstruct(truth)
    _, diag = cpd_nls(t, CpdOptions(rank=2, init=3, max_iterations=40))
    assert diag.final_relative_residual == diag.objective_trace[-1]
    assert diag.iterations == len(diag.objective_trace)


# ---------------------------------------------------------------------------
# incomplete tensors


def _mask_keeping(rng, shape, fraction):
    mask = rng.random(shape) < fraction
    # never drop everything
    mask.flat[0] = True
    return mask


@pytest.mark.parametrize("algorithm", ["als", "gauss_newton"])
def test_incomplete_noiseless_recovery(algorithm):
    truth = make_truth((8, 8, 10), 2, 41)
    full = np.asarray(core.reconstruct(truth))
    rng = np.random.default_rng(43)
    mask = _mask_keeping(rng, full.shape, 0.92)
    it = IncompleteTensor(full, mask)
    opts = CpdOptions(rank=2, algorithm=algorithm, init=5, max_iterations=800)
    model, diag = cpd(it, opts)
    # the model must match the FULL tensor, including what was never seen
    err = np.linalg.norm(core.reconstruct(model) - full) / np.linalg.norm(full)
    assert err < 1e-4, f"{algorithm}: {err}"


def test_fully_missing_fiber_tolerated():
    truth = make_truth((6, 6, 8), 2, 47)
    full = np.asarray(core.reconstruct(truth))
    mask = np.ones(full.shape, dtype=bool)
    mask[2, 3, :] = False  # one dead mode-3 fiber
    it = IncompleteTensor(full, mask)
    opts = CpdOptions(rank=2, algorithm="als", init=6, max_iterations=400)
    model, diag = cpd_als(it, opts)
    assert np.isfinite(diag.final_relative_residual)
    obs_err = np.linalg.norm(np.where(mask, core.reconstruct(model) - full, 0.0))
    assert obs_err / np.linalg.norm(np.where(mask, full, 0.0)) < 1e-6


# ---------------------------------------------------------------------------
# Gauss-Newton operator oracles. The explicit J^H J + mu I of
# _newton_matrices, dense and masked, the structured dense operator and the
# masked tangent form are independent implementations of the same
# v -> (J^H J + mu I) v on the flat parameter vector; the finite-difference
# Jacobian is a fifth, slower route. Each damped form must equal its
# undamped oracle plus mu v.


def explicit_dense(factors, shifted, w_pair):
    """The dense J^H J + mu I of _newton_matrices, shifted = w + mu I."""
    r = np.zeros(tuple(f.shape[0] for f in factors), dtype=complex)
    return solvers._newton_matrices(factors, r, None, None, shifted, w_pair)[0]


def explicit_masked(factors, mask, mu):
    """The masked J^H J + mu I of _newton_matrices."""
    return solvers._newton_matrices(factors, np.zeros(mask.shape, dtype=complex), mask, mu, None, None)[0]


DENSE_BUILDERS = [explicit_dense, solvers._structured_gn_operator]
MUS = (0.0, 0.7)


def as_matvec(operator):
    """The explicit builders return their matrix, the others a matvec."""
    return operator.dot if isinstance(operator, np.ndarray) else operator


def newton_operator(factors, r, mask, mu):
    """v -> (J^H J + mu I) v + conj(K v) from _newton_matrices, as cpd_nls
    builds and applies the Newton model."""
    w, w_pair = solvers._gramian_products(factors, pairs=mask is None)
    jhj, k = solvers._newton_matrices(factors, r, mask, mu, w + mu * np.eye(w.shape[-1]), w_pair)
    return lambda v: jhj.dot(v) + np.conj(k.dot(v))


def flat_factors(rng, shape, rank):
    x = crandn(rng, sum(shape) * rank)
    return x, solvers._factor_views(x, shape, rank)


def dense_operator(build, factors, mu=0.0):
    w, w_pair = solvers._gramian_products(factors)
    return build(factors, w + mu * np.eye(w.shape[-1]), w_pair)


def dense_matvec(build, factors, mu=0.0):
    return as_matvec(dense_operator(build, factors, mu))


def test_dense_matvec_agrees_with_tangent_form():
    rng = np.random.default_rng(61)
    for build in DENSE_BUILDERS:
        for order in (3, 4):
            for _ in range(4):
                shape = tuple(int(x) for x in rng.integers(2, 5, size=order))
                rank = int(rng.integers(1, 4))
                _, factors = flat_factors(rng, shape, rank)
                delta = crandn(rng, sum(shape) * rank)
                tangent = solvers._masked_gn_operator(factors, np.ones(shape, dtype=bool), 0.0)
                for mu in MUS:
                    a, b = dense_matvec(build, factors, mu)(delta), tangent(delta) + mu * delta
                    scale = np.abs(a).max()
                    assert np.abs(a - b).max() < 1e-11 * max(scale, 1.0), (build.__name__, shape, mu)


def loop_masked_operator(factors, mask):
    """The masked operator with its tangent as N reconstructs, factor m of
    the m-th one swapped for delta_m."""
    shape = tuple(f.shape[0] for f in factors)
    rank = factors[0].shape[1]
    conj_factors = [np.conj(f) for f in factors]

    def matvec(v):
        delta = solvers._factor_views(v, shape, rank)
        tangent = sum(core.reconstruct([delta[n] if n == m else f for n, f in enumerate(factors)])
                      for m in range(len(factors)))
        tangent = np.where(mask, tangent, 0.0)
        return np.concatenate([core.mttkrp(tangent, conj_factors, n).ravel()
                               for n in range(len(factors))])

    return matvec


def test_masked_matvec_matches_per_mode_tangent_loop():
    rng = np.random.default_rng(64)
    for order in (3, 4):
        for _ in range(4):
            shape = tuple(int(x) for x in rng.integers(2, 5, size=order))
            rank = int(rng.integers(1, 4))
            _, factors = flat_factors(rng, shape, rank)
            mask = rng.random(shape) < 0.6
            slow = loop_masked_operator(factors, mask)
            for mu in MUS:
                fast = solvers._masked_gn_operator(factors, mask, mu)
                # repeated applies must not see each other's input
                for _ in range(2):
                    delta = crandn(rng, sum(shape) * rank)
                    a, b = fast(delta), slow(delta) + mu * delta
                    assert np.abs(a - b).max() < 1e-12 * max(np.abs(b).max(), 1.0), (shape, mu)


MASKED_BUILDERS = [explicit_masked, solvers._masked_gn_operator]


def oracle_masks(rng, shape):
    """A random mask, one with a fully unobserved row of mode 0 and one
    with a fully unobserved slice of the last mode."""
    random = rng.random(shape) < 0.6
    dead_row = rng.random(shape) < 0.6
    dead_row[1] = False
    dead_slice = rng.random(shape) < 0.6
    dead_slice[..., 1] = False
    return random, dead_row, dead_slice


def test_explicit_masked_matvec_matches_tangent_forms():
    rng = np.random.default_rng(67)
    for order in (1, 2, 3, 4):
        for _ in range(4):
            shape = tuple(int(x) for x in rng.integers(2, 5, size=order))
            rank = int(rng.integers(1, 4))
            _, factors = flat_factors(rng, shape, rank)
            for mask in oracle_masks(rng, shape):
                oracles = [solvers._masked_gn_operator(factors, mask, 0.0),
                           loop_masked_operator(factors, mask)]
                for mu in MUS:
                    explicit = explicit_masked(factors, mask, mu).dot
                    for _ in range(2):
                        delta = crandn(rng, sum(shape) * rank)
                        a = explicit(delta)
                        for oracle in oracles:
                            b = oracle(delta) + mu * delta
                            assert np.abs(a - b).max() < 1e-12 * max(np.abs(b).max(), 1.0), (shape, mu)


def test_explicit_masked_matrix_with_nothing_missing_is_the_dense_one():
    rng = np.random.default_rng(68)
    for order in (1, 2, 3, 4):
        for _ in range(4):
            shape = tuple(int(x) for x in rng.integers(2, 5, size=order))
            rank = int(rng.integers(1, 4))
            _, factors = flat_factors(rng, shape, rank)
            everything = np.ones(shape, dtype=bool)
            dense = dense_operator(explicit_dense, factors)
            for mu in MUS:
                masked = explicit_masked(factors, everything, mu)
                damped_dense = dense_operator(explicit_dense, factors, mu)
                expected = dense + mu * np.eye(dense.shape[0])
                for damped in (masked, damped_dense):
                    assert np.abs(damped - expected).max() < 1e-12 * np.abs(dense).max(), (shape, mu)


def test_explicit_matrices_are_hermitian_and_the_residual_term_complex_symmetric():
    # CG needs a self-adjoint operator: J^H J + mu I, dense or masked, is
    # Hermitian, and v -> conj(K v) is self-adjoint for Re(vdot) when K = K^T
    rng = np.random.default_rng(69)
    for order in (2, 3, 4):
        for _ in range(3):
            shape = tuple(int(x) for x in rng.integers(2, 5, size=order))
            rank = int(rng.integers(1, 4))
            _, factors = flat_factors(rng, shape, rank)
            mask = rng.random(shape) < 0.6
            r = crandn(rng, *shape)
            w, w_pair = solvers._gramian_products(factors)
            for mu in MUS:
                shifted = w + mu * np.eye(rank)
                for jtj, k in (solvers._newton_matrices(factors, r, None, mu, shifted, w_pair),
                               solvers._newton_matrices(factors, np.where(mask, r, 0.0), mask, mu, None, None)):
                    assert np.abs(jtj - jtj.conj().T).max() <= 1e-13 * np.abs(jtj).max(), (shape, mu)
                    assert np.abs(k - k.T).max() <= 1e-13 * np.abs(k).max(), (shape, mu)


def test_dense_matvec_matches_fd_gauss_newton_operator():
    rng = np.random.default_rng(62)
    rank = 2
    for shape in [(5,), (4, 3), (4, 3, 5), (3, 2, 4, 3)]:
        x, factors = flat_factors(rng, shape, rank)
        delta = crandn(rng, x.size)
        mask = rng.random(shape) < 0.6

        def resid_vec(v):
            return np.asarray(core.reconstruct(solvers._factor_views(v, shape, rank))).ravel()

        # columns of the real Jacobian with respect to (Re x, Im x)
        h = 1e-6
        cols = []
        for part in (1.0, 1.0j):
            for idx in range(x.size):
                plus, minus = x.copy(), x.copy()
                plus[idx] += h * part
                minus[idx] -= h * part
                cols.append((resid_vec(plus) - resid_vec(minus)) / (2 * h))
        jac = np.array(cols).T
        jac_real = np.vstack([jac.real, jac.imag])
        delta_real = np.concatenate([delta.real, delta.imag])
        ref = jac_real.T @ jac_real @ delta_real
        for build in DENSE_BUILDERS:
            for mu in MUS:
                got = dense_matvec(build, factors, mu)(delta)
                got = np.concatenate([got.real, got.imag])
                err = np.abs(ref + mu * delta_real - got).max()
                assert err < 1e-6 * max(np.abs(ref).max(), 1.0), (build.__name__, shape, mu)

        # the masked operators: the Jacobian rows of the observed entries only
        observed = np.concatenate([mask.ravel(), mask.ravel()])
        jac_obs = jac_real[observed]
        ref = jac_obs.T @ jac_obs @ delta_real
        for build in MASKED_BUILDERS:
            for mu in MUS:
                got = as_matvec(build(factors, mask, mu))(delta)
                got = np.concatenate([got.real, got.imag])
                err = np.abs(ref + mu * delta_real - got).max()
                assert err < 1e-6 * max(np.abs(ref).max(), 1.0), (build.__name__, shape, mu)


def test_newton_operator_is_mu_plus_the_fd_hessian():
    # The Newton matvec at mu is mu v plus the Hessian-vector product of f,
    # central differences of cpd_gradient, dense and under the oracle masks,
    # whose unobserved row and slice leave rows of the matrices empty. Along
    # a step t v the Newton model then misses f by O(t^3), where the
    # Gauss-Newton model misses it by O(t^2); at order 1 f is quadratic and
    # the model is exact.
    rng = np.random.default_rng(73)
    rank = 2
    for shape in [(5,), (4, 3), (4, 3, 5), (3, 2, 4, 3)]:
        x, factors = flat_factors(rng, shape, rank)
        values = crandn(rng, *shape)
        masks = oracle_masks(rng, shape)
        for t in [values] + [IncompleteTensor(values, mask) for mask in masks]:
            tvals, observed, _ = solvers._observed(t)
            masked = observed is not None

            def residual(v):
                return solvers._residual(tvals, observed, core.reconstruct(solvers._factor_views(v, shape, rank)))

            def gradient(v):
                return np.concatenate([b.ravel() for b in cpd_gradient(t, solvers._factor_views(v, shape, rank))])

            def newton(mu):
                return newton_operator(factors, residual(x), observed, mu)

            v = crandn(rng, x.size)
            h = 1e-6
            hessian_v = (gradient(x + h * v) - gradient(x - h * v)) / (2 * h)
            for mu in MUS:
                err = np.abs(newton(mu)(v) - mu * v - hessian_v).max()
                assert err < 1e-7 * np.abs(hessian_v).max(), (shape, masked, mu)

            def objective(v):
                r = residual(v)
                return 0.5 * np.vdot(r, r).real

            slope, curvature = np.vdot(gradient(x), v).real, np.vdot(v, newton(0.0)(v)).real
            misses = [abs(objective(x + step * v) - (objective(x) + step * slope + 0.5 * step ** 2 * curvature))
                      for step in (1e-2, 1e-3)]
            if len(shape) == 1:
                assert max(misses) <= 1e-12 * objective(x), (shape, masked, misses)
            else:
                assert misses[1] <= 3e-3 * misses[0], (shape, masked, misses)


def test_pcg_returns_the_residual_of_its_iterate_at_every_exit():
    # r = b - A x at the zero right-hand side, the tolerance, non-positive
    # curvature (an indefinite A) and the iteration limit
    rng = np.random.default_rng(70)
    n = 12
    q, _ = np.linalg.qr(crandn(rng, n, n))
    spd = (q * np.linspace(1.0, 10.0, n)) @ q.conj().T
    indefinite = (q * np.r_[np.linspace(1.0, 10.0, n - 2), -1.0, -3.0]) @ q.conj().T
    scales = rng.uniform(0.5, 2.0, n)
    b = crandn(rng, n)
    for a, rhs, max_iter, rtol, exit_ in [(spd, np.zeros(n, dtype=complex), 60, 1e-2, "zero"),
                                          (spd, b, 60, 1e-2, "tolerance"),
                                          (indefinite, b, 60, 1e-2, "curvature"),
                                          (spd, b, 3, 1e-14, "limit")]:
        curvatures = []

        def matvec(v, a=a):
            av = a @ v
            curvatures.append(np.vdot(v, av).real)
            return av

        x, r = solvers._pcg(matvec, rhs, lambda v: v / scales, max_iter, rtol)
        assert np.linalg.norm(r - (rhs - a @ x)) <= 1e-12 * max(np.linalg.norm(rhs), 1.0), exit_
        # the exit taken is the one named
        reached = np.linalg.norm(r) <= rtol * np.linalg.norm(rhs)
        if exit_ == "zero":
            assert not curvatures and not x.any()
        elif exit_ == "tolerance":
            assert reached and 0 < len(curvatures) < max_iter
        elif exit_ == "curvature":
            assert not reached and len(curvatures) > 1 and curvatures[-1] <= 0.0
        else:
            assert not reached and len(curvatures) == max_iter and min(curvatures) > 0.0


def test_predicted_decrease_from_the_cg_residual_matches_the_undamped_model():
    # on the 105-unknown demo-size explicit operator, near a noisy truth,
    # for the Gauss-Newton and the Newton model, at whichever exit CG takes
    rng = np.random.default_rng(71)
    shape, rank = (10, 10, 15), 3
    model = init_model(shape, rank, 1)
    truth = core.reconstruct(model)
    t = truth + 0.3 * np.linalg.norm(truth) / np.sqrt(truth.size) * crandn(rng, *shape)
    x = np.concatenate([f.ravel() for f in model.factors]) + 0.1 * crandn(rng, sum(shape) * rank)
    factors = solvers._factor_views(x, shape, rank)
    g = np.concatenate([b.ravel() for b in cpd_gradient(t, factors)])
    residual = core.reconstruct(factors) - t
    w, w_pair = solvers._gramian_products(factors)
    scale = w.diagonal(axis1=1, axis2=2).real.max()
    for mu in (0.0, 1e-3 * scale, scale):
        shifted = w + mu * np.eye(rank)
        (jhj, k), (damped_jhj, _) = [solvers._newton_matrices(factors, residual, None, None, weights, w_pair)
                                     for weights in (w, shifted)]
        gauss_newton = [jhj.dot, damped_jhj.dot]
        newton = [lambda v, op=op: op(v) + np.conj(k.dot(v)) for op in gauss_newton]
        for undamped, damped in (gauss_newton, newton):
            p, r = solvers._pcg(damped, -g, solvers._block_jacobi(shifted, shape),
                                solvers.CG_MAX_ITER, solvers.CG_RTOL)
            predicted = 0.5 * (np.vdot(r, p).real + mu * np.vdot(p, p).real - np.vdot(g, p).real)
            direct = -(np.vdot(g, p).real + 0.5 * np.vdot(p, undamped(p)).real)
            assert abs(predicted - direct) <= 1e-12 * abs(direct), mu


def test_damping_follows_the_gain_ratio_on_the_undamped_model(monkeypatch):
    # each mu update must follow from rho = actual / predicted, with the
    # predicted decrease -(g^H p + p^H H p / 2) of the undamped Newton model
    # (H = J^H J + conj(K .)), recomputed here from the iterate, the step
    # and the operator of the one solve of each iteration (the Gramian
    # products are built at each new iterate, the preconditioner at every
    # iteration)
    rng = np.random.default_rng(72)
    shape, rank = (6, 7, 8), 3
    truth = core.reconstruct(init_model(shape, rank, 2))
    t = truth + 0.5 * np.linalg.norm(truth) / np.sqrt(truth.size) * crandn(rng, *shape)
    steps = []
    point = {}
    real_products, real_jacobi, real_pcg = solvers._gramian_products, solvers._block_jacobi, solvers._pcg

    def products(factors, pairs=True):
        w, w_pair = real_products(factors, pairs)
        point.update(x=np.concatenate([f.ravel() for f in factors]), w=w)
        return w, w_pair

    def jacobi(shifted, shape):
        steps.append(dict(point, mu=(shifted - point["w"])[0, 0, 0].real))
        return real_jacobi(shifted, shape)

    def pcg(matvec, b, prec, max_iter, rtol):
        p, r = real_pcg(matvec, b, prec, max_iter, rtol)
        steps[-1].update(g=-b, p=p, hessian_p=matvec(p) - steps[-1]["mu"] * p)
        return p, r

    monkeypatch.setattr(solvers, "_gramian_products", products)
    monkeypatch.setattr(solvers, "_block_jacobi", jacobi)
    monkeypatch.setattr(solvers, "_pcg", pcg)
    cpd_nls(t, CpdOptions(rank=rank, algorithm="gauss_newton", init=seeded_start(t, rank, 3), max_iterations=40))

    def objective(x):
        r = core.reconstruct(solvers._factor_views(x, shape, rank)) - t
        return 0.5 * np.vdot(r, r).real

    damped = 0
    for step, following in zip(steps, steps[1:]):
        mu, p = step["mu"], step["p"]
        scale = step["w"].diagonal(axis1=1, axis2=2).real.max()
        predicted = -(np.vdot(step["g"], p).real + 0.5 * np.vdot(p, step["hessian_p"]).real)
        rho = (objective(step["x"]) - objective(step["x"] + p)) / predicted
        if rho < 0.25:
            expected = max(4.0 * mu, solvers.MU_FLOOR * scale)
        else:
            expected = mu * max(1.0 / 3.0, 1.0 - (2.0 * rho - 1.0) ** 3)
        # mu is read back as (w + mu I) - w, to rounding of the size of w
        assert abs(following["mu"] - expected) <= 1e-8 * expected + 1e-13 * scale
        damped += mu > 0.0 and rho >= 0.25
    assert damped >= 3


def test_solver_picks_the_operator_form_by_parameter_count(monkeypatch):
    # the 10x10x15 rank-3 demo scene (105 unknowns) gets the explicit
    # matrices, dense or masked, the 32x32x64 rank-6 large array (768
    # unknowns) the structured form, or masked the tangent form, as does a
    # long time axis, whose assembled masked matrix would outgrow the tensor
    assert sum((10, 10, 15)) * 3 <= solvers.EXPLICIT_GN_MAX_PARAMS < sum((32, 32, 64)) * 6
    used = []
    for name in ("_newton_matrices", "_structured_gn_operator", "_masked_gn_operator"):
        def spy(*args, build=getattr(solvers, name)):
            masked = any(isinstance(a, np.ndarray) and a.dtype == bool for a in args)
            used.append((build.__name__, masked))
            return build(*args)
        monkeypatch.setattr(solvers, name, spy)
    for shape, rank, masked, form in [((10, 10, 15), 3, False, "_newton_matrices"),
                                      ((32, 32, 64), 6, False, "_structured_gn_operator"),
                                      ((10, 10, 15), 3, True, "_newton_matrices"),
                                      ((32, 32, 64), 6, True, "_masked_gn_operator"),
                                      ((4, 4, 500), 2, True, "_masked_gn_operator")]:
        used.clear()
        t = core.reconstruct(init_model(shape, rank, 0))
        if masked:
            t = IncompleteTensor(t, np.random.default_rng(0).random(shape) < 0.9)
        cpd_nls(t, CpdOptions(rank=rank, init=seeded_start(t, rank, 1), max_iterations=2))
        assert used and set(used) == {(form, masked)}, (form, masked)


def test_gauss_newton_makes_one_cg_solve_per_iteration(monkeypatch):
    # one CG solve for each outer iteration, on the Newton model below the
    # cutoff and on the Gauss-Newton model above it: the dense and the
    # masked 0 dB demo tensor (105 unknowns) and a noisy 12x12x20 rank-4
    # tensor (176 unknowns). The Gramian products (and, below the cutoff,
    # the Newton matrices) are built for the first iterate and after each
    # accepted step (its rebalance), never after a rejected one, which
    # leaves the iterate where it was.
    events = []
    for name in ("_pcg", "_gramian_products", "_newton_matrices", "_rebalance"):
        def spy(*args, real=getattr(solvers, name), name=name, **kwargs):
            events.append(name)
            return real(*args, **kwargs)
        monkeypatch.setattr(solvers, name, spy)
    rng = np.random.default_rng(74)
    large = core.reconstruct(init_model((12, 12, 20), 4, 5))
    large = large + 0.5 * np.linalg.norm(large) / np.sqrt(large.size) * crandn(rng, *large.shape)
    dense, masked = demo_tensors(0)
    rejected = 0
    for t, rank, explicit in [(dense, 3, True), (masked, 3, True), (large, 4, False)]:
        assert (sum(t.shape) * rank <= solvers.EXPLICIT_GN_MAX_PARAMS) == explicit
        events.clear()
        _, diag = cpd_nls(t, CpdOptions(rank=rank, algorithm="gauss_newton", init=3))
        assert diag.converged and diag.iterations > 1, t.shape
        # the algebraic start rebalances once before the first iteration;
        # then what comes before each CG solve is the builds, after an
        # accepted step its rebalance and the builds, or after a rejected
        # one nothing
        assert events[0] == "_rebalance"
        before_solves = "".join(name[1] for name in events[1:]).split("p")
        build = "gn" if explicit else "g"
        assert len(before_solves) == diag.iterations + 1, (t.shape, before_solves)
        assert before_solves[0] == build and before_solves[-1] in ("", "r"), (t.shape, before_solves)
        assert set(before_solves[1:-1]) <= {"r" + build, ""}, (t.shape, before_solves)
        rejected += before_solves[1:-1].count("")
    assert rejected > 0


def test_a_zero_step_certifies_nothing(monkeypatch):
    # CG's curvature exit on its first direction returns a zero step, whose
    # predicted decrease reads 0 where the model has no minimum. From a
    # converged solve's estimate the real step certifies convergence; a
    # zero step every iteration must not, and mu rises until it collapses.
    t = demo_tensors(0)[0]
    model, diag = cpd_nls(t, CpdOptions(rank=3, algorithm="gauss_newton", init=3))
    assert diag.converged
    _, again = cpd_nls(t, CpdOptions(rank=3, algorithm="gauss_newton", init=model))
    assert again.converged and again.iterations <= 3

    monkeypatch.setattr(solvers, "_pcg", lambda matvec, b, *_: (np.zeros_like(b), b.copy()))
    _, stuck = cpd_nls(t, CpdOptions(rank=3, algorithm="gauss_newton", init=model))
    assert not stuck.converged and stuck.iterations < CpdOptions(rank=3).max_iterations
    assert len(set(stuck.objective_trace)) == 1


@pytest.mark.parametrize("algorithm", solvers.ALGORITHMS)
@pytest.mark.parametrize("shape", [(7,), (5, 6)])
def test_masked_residuals_converges_at_orders_1_and_2(shape, algorithm):
    # order 1 has no mode pair to sum the assembled masked diagonal out of
    t = core.reconstruct(init_model(shape, 2, 3))
    mask = np.random.default_rng(4).random(shape) < 0.8
    opts = CpdOptions(rank=2, algorithm=algorithm, init=5)
    _, diag = cpd(IncompleteTensor(t, mask), opts)
    assert diag.converged, (shape, algorithm)
    assert diag.final_relative_residual < 1e-8, (shape, algorithm)


def test_cpd_calls_gauss_newton_once_through_the_module_global(monkeypatch):
    # the benchmark's tracer wraps solvers.cpd_nls to split the warm start
    # into its ALS and Gauss-Newton phases
    calls = []
    real = solvers.cpd_nls

    def counting(t, opts):
        calls.append(opts.algorithm)
        return real(t, opts)

    monkeypatch.setattr(solvers, "cpd_nls", counting)
    t = core.reconstruct(init_model((4, 5, 6), 2, 0))
    for algorithm, expected in [("als", 0), ("gauss_newton", 1), ("gauss_newton_als_warmstart", 1)]:
        calls.clear()
        cpd(t, CpdOptions(rank=2, algorithm=algorithm, init=1, max_iterations=5))
        assert len(calls) == expected, algorithm


# ---------------------------------------------------------------------------
# the start


def demo_tensors(seed):
    """The pipeline's 0 dB demo tensor for scene seed `seed`, dense and
    masked."""
    cfg = formats.load_config(Path(__file__).resolve().parents[1] / "configs" / "demo_scene.json")
    sources = scene.synthetic_sources(cfg.scene.time_len, cfg.scene.rank, seed=seed)
    clean, _ = scene.build_scene_tensor(cfg.scene, sources)
    noisy = scene.add_noise(clean, cfg.snr_db, seed=seed + NOISE_SEED_OFFSET)
    return noisy, scene.apply_mask(noisy, cfg.masks)


def test_default_solve_does_not_depend_on_the_data_unit():
    # EEG recorded in volts has entries near 1e-5. The algebraic start,
    # of the zero-filled values where the tensor is masked, is unit-free,
    # and so are Gauss-Newton's stop tests, so a solve lands in the same
    # place, after as many iterations, in any unit.
    for seed in range(3):
        for t in demo_tensors(seed):
            masked = isinstance(t, IncompleteTensor)
            for algorithm in ("gauss_newton_als_warmstart", "gauss_newton"):
                opts = CpdOptions(rank=3, algorithm=algorithm, init=seed + INIT_SEED_OFFSET)
                _, unit = cpd(t, opts)
                assert unit.converged, (seed, masked, algorithm)
                for factor in (1e-5, 1e5):
                    _, diag = cpd(IncompleteTensor(factor * t.values, t.mask) if masked else factor * t, opts)
                    where = (seed, masked, algorithm, factor)
                    assert (diag.iterations, diag.converged) == (unit.iterations, unit.converged), where
                    assert diag.final_relative_residual == pytest.approx(
                        unit.final_relative_residual, rel=1e-12), where


# the 30%-observed draws of tools/solver_parity.py's heavy_mask_30 cell
HEAVY_MASK_SEED_OFFSET = 3000003


def test_default_options_converge_on_30_percent_observed_demo_tensors():
    # with 70% of the entries missing, Gauss-Newton on the masked objective
    # converges where the imputation solver it replaced crawled to 500
    # iterations on all 6 of these solves
    for seed in range(3):
        noisy = demo_tensors(seed)[0]
        keep = np.random.default_rng(seed + HEAVY_MASK_SEED_OFFSET).random(noisy.shape) < 0.3
        t = IncompleteTensor(noisy, keep)
        for algorithm in ("gauss_newton", "gauss_newton_als_warmstart"):
            _, diag = cpd(t, CpdOptions(rank=3, algorithm=algorithm, init=seed + INIT_SEED_OFFSET))
            assert diag.converged, (seed, algorithm, diag.iterations)


@pytest.mark.parametrize("seed, kept, bound", [(0, 0.9, 150), (12, None, 130)])
def test_gauss_newton_does_not_crawl_on_masked_demo_tensors(seed, kept, bound):
    # two solves that crawled to their minimum while every CG solve ran to
    # a residual of 1e-2 ||g||: cold Gauss-Newton on the 90%-observed draw
    # of seed 0 (tools/solver_parity.py's heavy_mask_90 cell) took 334
    # iterations, and on the demo tensor of seed 12 under the config's masks
    # it took 152. With CG stopped at CG_RTOL = 0.1 they take 61 and 97.
    noisy, t = demo_tensors(seed)
    if kept is not None:
        t = IncompleteTensor(noisy, np.random.default_rng(seed + HEAVY_MASK_SEED_OFFSET).random(noisy.shape) < kept)
    _, diag = cpd(t, CpdOptions(rank=3, algorithm="gauss_newton", init=seed + INIT_SEED_OFFSET))
    assert diag.converged and diag.iterations <= bound, diag.iterations


@pytest.mark.parametrize("seed, algorithm, residual", [
    (98, "gauss_newton_als_warmstart", 0.689003479271),
    (58, "gauss_newton", 0.691626874087),
    (80, "gauss_newton_als_warmstart", 0.680072648270),
    (159, "gauss_newton_als_warmstart", 0.673802804951),
])
def test_noise_floor_stop_never_fires_in_a_crawl_or_a_degenerate_fit(seed, algorithm, residual):
    # Dense 0 dB demo solves that a noise-floor stop with one witness fewer
    # ends early. Without the contraction witness, seed 98's warm start
    # stops inside a crawl at 0.689198 and seed 58's cold solve at
    # 0.691633; without the term-norm witness, the warm starts of seeds 80
    # and 159 stop in diverging fits (kappa / sqrt(R) near 5) at 0.681878
    # and 0.681151. Each must end at its minimum.
    _, diag = cpd(demo_tensors(seed)[0], CpdOptions(rank=3, algorithm=algorithm, init=seed + INIT_SEED_OFFSET))
    assert diag.converged
    assert diag.final_relative_residual == pytest.approx(residual, rel=1e-8)


def border_rank_tensor(n, masked):
    """The tensor of tests/test_cli.py's test_decompose_nonconvergence_exits_2
    at extent n in every mode: the sum of x0 o x1 o y2, x0 o y1 o x2 and
    y0 o x1 o x2, of rank 3 and a limit of rank-2 tensors, whose rank-2
    fits diverge. Masked, entry (0, 0, 0) is unobserved."""
    rng = np.random.default_rng(0)
    x, y = np.moveaxis(rng.standard_normal((3, n, 2)) + 1j * rng.standard_normal((3, n, 2)), 2, 0)
    t = sum(np.einsum("i,j,k->ijk", *(y[k] if k == m else x[k] for k in range(3))) for m in range(3))
    if not masked:
        return t
    mask = np.ones(t.shape, dtype=bool)
    mask[0, 0, 0] = False
    return IncompleteTensor(t, mask)


@pytest.fixture(scope="module")
def border_rank_solves():
    """{(n, masked, algorithm): (model, diagnostics)} of the rank-2 fits of
    border_rank_tensor at extents 4, 12 and 30, dense and masked, seed 0."""
    return {(n, masked, algorithm): cpd(border_rank_tensor(n, masked), CpdOptions(rank=2, algorithm=algorithm, init=0))
            for n in (4, 12, 30) for masked in (False, True) for algorithm in solvers.ALGORITHMS}


def kappa_per_sqrt_rank(model):
    return solvers._term_norm_ratio(solvers._gramians(model.factors)) / np.sqrt(model.rank)


def test_a_degenerate_stall_is_no_convergence(border_rank_solves):
    # Masked, the fits stall with their terms diverging: at extent 30 every
    # algorithm stalls at relative residual 8.1e-6 with kappa / sqrt(R) =
    # 107, at 12 ALS at 2.6e-5 with 58. Such a stall is degenerate, and no
    # solve that reports converged has kappa / sqrt(R) at the bound.
    for where, (model, diag) in border_rank_solves.items():
        kappa = kappa_per_sqrt_rank(model)
        assert not (diag.converged and kappa >= solvers.DEGENERACY_BOUND), (where, diag.stop_reason, kappa)
        assert diag.converged == (diag.stop_reason in solvers.CONVERGED_STOPS), where
    for where in [(30, True, algorithm) for algorithm in solvers.ALGORITHMS] + [(12, True, "als")]:
        model, diag = border_rank_solves[where]
        assert (diag.stop_reason, diag.converged) == ("degenerate", False), where
        assert kappa_per_sqrt_rank(model) > 50, where


# the scene of perfbench's large_array_dense workload: six sources on a
# 32x32 array, 64 samples, at 0 dB
LARGE_SCENE = scene.DoaScene(
    sources=[scene.SourceSpec(a, e) for a, e in ((10, 20), (30, 30), (70, 40), (50, 15), (20, 55), (80, 25))],
    grid_m1=32, grid_m2=32, time_len=64,
)
LARGE_FREQS = (8.0, 10.0, 12.0, 14.0, 17.0, 21.0)


def test_tail_rule_never_ends_a_crawl_or_a_degenerate_fit(border_rank_solves):
    # The masked border-rank fits crawl or diverge: ALS, and Gauss-Newton
    # above EXPLICIT_GN_MAX_PARAMS (rank 2 at extent 30, 180 unknowns),
    # never end them at the noise floor. (Dense, the algebraic start leaves
    # ALS in two equal terms, a rank-one fit with kappa / sqrt(R) = 1/sqrt(2)
    # that it converges to; that stop is allowed.)
    for (n, masked, algorithm), (_, diag) in border_rank_solves.items():
        tail_rule = algorithm == "als" or 3 * n * 2 > solvers.EXPLICIT_GN_MAX_PARAMS
        if masked and tail_rule:
            assert diag.stop_reason != "noise_floor", (n, algorithm)
    # The census solves (dense and masked demo seeds 0-199 under ALS, the
    # large scene's seeds 0-11 under every algorithm) that the tail rule
    # ends furthest above the minimum the REL_OBJECTIVE_TOL stall reached,
    # and masked seed 94, which a rule reading its rate off the last two
    # decreases alone ends 5.4e-3 sigma^2 above: each ends within 1e-3
    # sigma^2 of that minimum, sigma^2 the minimum's estimate. That rule
    # also ends dense seed 58's ALS crawl (unconverged after 500 sweeps).
    cfg = formats.load_config(Path(__file__).resolve().parents[1] / "configs" / "demo_scene.json")
    _, crawl = cpd(demo_tensors(58)[0], CpdOptions(rank=3, algorithm="als", init=58 + INIT_SEED_OFFSET))
    assert crawl.stop_reason == "max_iterations"
    for seed, tensor, algorithm, minimum in [(96, "masked", "als", 0.6855915356631299),
                                             (145, "dense", "als", 0.6865186424849182),
                                             (94, "masked", "als", 0.6702440346748658),
                                             (4, "large", "gauss_newton", 0.7016593793046595)]:
        if tensor == "large":
            sources = scene.synthetic_sources(LARGE_SCENE.time_len, LARGE_SCENE.rank, seed=seed, freqs=LARGE_FREQS)
            clean, _ = scene.build_scene_tensor(LARGE_SCENE, sources)
            t, rank = scene.add_noise(clean, 0.0, seed=seed + NOISE_SEED_OFFSET), LARGE_SCENE.rank
        else:
            t, rank = demo_tensors(seed)[tensor == "masked"], cfg.rank
        _, diag = cpd(t, CpdOptions(rank=rank, algorithm=algorithm, init=seed + INIT_SEED_OFFSET))
        assert diag.stop_reason == "noise_floor", (seed, tensor)
        values, mask = (t.values, t.mask) if tensor == "masked" else (t, None)
        dof = solvers._degrees_of_freedom(values, mask, rank)[1]
        rise = 0.5 * (diag.final_relative_residual ** 2 - minimum ** 2) * dof / minimum ** 2
        assert 0.0 <= rise <= 1e-3, (seed, tensor, rise)


def test_stop_reasons_name_how_each_solve_ended(monkeypatch):
    noisy, masked = demo_tensors(0)
    large = core.reconstruct(init_model((12, 12, 20), 4, 5))
    large = large + 0.5 * np.linalg.norm(large) / np.sqrt(large.size) * crandn(np.random.default_rng(74), *large.shape)
    sources = scene.synthetic_sources(SWAMP_SCENE.time_len, SWAMP_SCENE.rank, seed=0)
    clean, _ = scene.build_scene_tensor(SWAMP_SCENE, sources)
    cases = [
        (noisy, CpdOptions(rank=3, init=1), "noise_floor"),
        (masked, CpdOptions(rank=3, algorithm="gauss_newton", init=1), "noise_floor"),
        (clean, CpdOptions(rank=2, algorithm="gauss_newton", init=1), "exact_fit"),
        # above EXPLICIT_GN_MAX_PARAMS the tail rule stops the solve
        (large, CpdOptions(rank=4, algorithm="gauss_newton", init=1), "noise_floor"),
        # the one Gauss-Newton stall of the masked demo census, seeds 0-199
        (demo_tensors(150)[1], CpdOptions(rank=3, init=150 + INIT_SEED_OFFSET), "stall"),
        (noisy, CpdOptions(rank=3, init=1, max_iterations=2), "max_iterations"),
        (noisy, CpdOptions(rank=3, algorithm="als", init=1), "noise_floor"),
        # noiseless, the ALS objective stalls at rounding level
        (clean, CpdOptions(rank=2, algorithm="als", init=1), "stall"),
        (masked, CpdOptions(rank=3, algorithm="als", init=1, max_iterations=3), "max_iterations"),
        # stalls in a diverging fit (see test_a_degenerate_stall_is_no_convergence)
        (border_rank_tensor(12, True), CpdOptions(rank=2, algorithm="als", init=0), "degenerate"),
        (border_rank_tensor(30, True), CpdOptions(rank=2, algorithm="gauss_newton", init=0), "degenerate"),
    ]
    for t, opts, reason in cases:
        _, diag = cpd(t, opts)
        assert diag.stop_reason == reason, (opts, diag.stop_reason)
        assert diag.converged == (reason in solvers.CONVERGED_STOPS)

    # a zero step every iteration drives mu up until the damping collapses
    with monkeypatch.context() as patch:
        patch.setattr(solvers, "_pcg", lambda matvec, b, *_: (np.zeros_like(b), b.copy()))
        _, diag = cpd(noisy, CpdOptions(rank=3, algorithm="gauss_newton", init=1))
    assert (diag.stop_reason, diag.converged) == ("damping_collapse", False)

    # an ALS sweep that leaves a non-finite factor ends the solve
    real_sweep = solvers._als_sweep_dense

    def poisoned(tvals, factors, p=None):
        out = real_sweep(tvals, factors, p)
        factors[-1][0, 0] = np.nan
        return out

    monkeypatch.setattr(solvers, "_als_sweep_dense", poisoned)
    _, diag = cpd(noisy, CpdOptions(rank=3, algorithm="als", init=1))
    assert (diag.stop_reason, diag.converged, diag.iterations) == ("nonfinite", False, 1)


def test_als_converges_on_the_30_percent_observed_demo_tensor_of_seed_8():
    # from the seeded start this solve crept along a swamp and stopped
    # unconverged at 500 iterations (residual 0.60620); the algebraic start
    # of the zero-filled values converges in 51 (residual 0.60153)
    seed = 8
    noisy = demo_tensors(seed)[0]
    keep = np.random.default_rng(seed + HEAVY_MASK_SEED_OFFSET).random(noisy.shape) < 0.3
    opts = CpdOptions(rank=3, algorithm="als", init=seed + INIT_SEED_OFFSET)
    _, diag = cpd(IncompleteTensor(noisy, keep), opts)
    assert diag.converged and diag.iterations < 100, diag.iterations
    assert diag.final_relative_residual < 0.6062


@pytest.mark.parametrize("algorithm", solvers.ALGORITHMS)
def test_both_strategy_names_select_the_one_masked_estimator(algorithm):
    t = demo_tensors(0)[1]
    fits = []
    for strategy in solvers.MISSING_STRATEGIES:
        opts = CpdOptions(rank=3, algorithm=algorithm, init=INIT_SEED_OFFSET, missing_data_strategy=strategy)
        fits.append(cpd(t, opts))
    (model, diag), (other_model, other_diag) = fits
    assert all(np.array_equal(f, g) for f, g in zip(model.factors, other_model.factors))
    assert model.normalized == other_model.normalized
    assert diag == other_diag


def start_of(t, rank, seed):
    tvals, _, norm = solvers._observed(t)
    return solvers._start(tvals, CpdOptions(rank=rank, init=seed), norm)


def test_algebraic_start_is_exact_on_noiseless_dense_tensors():
    # the MLSVD subspaces hold the factors and the pencil's eigenvectors
    # are the compressed mode-0 factor, so the start is the tensor's CPD to
    # rounding and Gauss-Newton only certifies it: the noiseless swamp
    # scenes of seeds 0-11 and 35, and a random 5x6x7 rank-3 tensor
    cases = [(scene.build_scene_tensor(SWAMP_SCENE, scene.synthetic_sources(
                 SWAMP_SCENE.time_len, SWAMP_SCENE.rank, seed=seed))[0], 2, seed + INIT_SEED_OFFSET)
             for seed in list(range(12)) + [35]]
    cases.append((core.reconstruct(init_model((5, 6, 7), 3, 0)), 3, 1))
    for t, rank, seed in cases:
        x = start_of(t, rank, seed)
        gap = np.linalg.norm(core.reconstruct(solvers._factor_views(x, t.shape, rank)) - t)
        assert gap <= 1e-10 * np.linalg.norm(t), seed
        _, diag = cpd(t, CpdOptions(rank=rank, algorithm="gauss_newton", init=seed))
        assert diag.converged and diag.iterations <= 2, (seed, diag.iterations)


def test_seeded_start_outside_the_algebraic_start_is_the_scaled_draw():
    # other orders, R above I_0 or I_1 and I_2 = 1 keep the data-scaled
    # init_model draw, bit for bit, masked or not
    order_4 = core.reconstruct(init_model((3, 4, 5, 6), 2, 0))
    tall_rank = core.reconstruct(init_model((3, 6, 7), 2, 0))
    cases = [(IncompleteTensor(order_4, np.random.default_rng(0).random(order_4.shape) < 0.8), 2),
             (IncompleteTensor(tall_rank, np.random.default_rng(0).random(tall_rank.shape) < 0.8), 4),
             (core.reconstruct(init_model((5, 6), 2, 0)), 2),
             (core.reconstruct(init_model((3, 4, 5, 6), 2, 0)), 2),
             (core.reconstruct(init_model((6, 3, 7), 2, 0)), 4),
             (core.reconstruct(init_model((3, 6, 7), 2, 0)), 4),
             (core.reconstruct(init_model((5, 6, 1), 2, 0)), 2)]
    for t, rank in cases:
        expected = np.concatenate([f.ravel() for f in seeded_start(t, rank, 9).factors])
        assert np.array_equal(start_of(t, rank, 9), expected), (t.shape, rank)


def test_algebraic_start_of_a_masked_tensor_is_that_of_its_zero_filled_values():
    noisy = demo_tensors(0)[0]
    keep = np.random.default_rng(HEAVY_MASK_SEED_OFFSET).random(noisy.shape) < 0.5
    t = IncompleteTensor(noisy, keep)
    zero_filled = np.where(keep, noisy, 0.0)
    assert np.array_equal(start_of(t, 3, 7), solvers._algebraic_start(zero_filled, 3, 7))


def test_algebraic_start_is_finite_on_degenerate_input():
    # rank overshoot makes the pencil singular and its eigenvectors
    # dependent, a zero slice takes a direction out of mode 2, and so does
    # a frontal slice with no observed entry; a mask keeping 10% of the
    # entries leaves the zero-filled unfoldings far from low rank. The
    # pseudo-inverses keep every entry finite.
    sources = scene.synthetic_sources(SWAMP_SCENE.time_len, SWAMP_SCENE.rank, seed=0)
    swamp = scene.build_scene_tensor(SWAMP_SCENE, sources)[0]
    zero_slice = core.reconstruct(init_model((5, 6, 7), 3, 0))
    zero_slice[:, :, 2] = 0.0
    noisy = core.reconstruct(init_model((5, 6, 7), 2, 0)) + 0.1 * crandn(np.random.default_rng(1), 5, 6, 7)
    sparse = IncompleteTensor(noisy, np.random.default_rng(2).random(noisy.shape) < 0.1)
    unobserved_slice = np.ones(noisy.shape, dtype=bool)
    unobserved_slice[:, :, 4] = False
    for t, rank in [(swamp, 4), (noisy, 1), (zero_slice, 3), (sparse, 2),
                    (IncompleteTensor(noisy, unobserved_slice), 2)]:
        assert np.isfinite(start_of(t, rank, 4)).all(), (t.shape, rank)


def test_the_seed_selects_the_algebraic_start():
    t = core.reconstruct(init_model((5, 6, 7), 3, 0)) + 0.3 * crandn(np.random.default_rng(2), 5, 6, 7)
    first = start_of(t, 3, 11)
    assert np.array_equal(first, start_of(t, 3, 11))
    assert not np.allclose(first, start_of(t, 3, 12))


def test_algebraic_start_memory_stays_within_the_tensor():
    # a long third mode must not build its I_2 x I_2 Gramian, nor any
    # intermediate larger than the tensor (4 x 4 x 20000: 5.1 MB)
    t = np.ascontiguousarray(core.reconstruct(init_model((4, 4, 20000), 2, 0)))
    tracemalloc.start()
    try:
        x = start_of(t, 2, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.isfinite(x).all()
    assert peak < 3 * t.nbytes, peak / t.nbytes


# ---------------------------------------------------------------------------
# what converged means, and the masked ALS sweep


# two sources 40 degrees apart in azimuth on a 6x6 array, 12 samples, no
# noise: with scene and init seed 3 the warm start lands in a swamp, where
# CG returns Gauss-Newton points thousands of times longer than the
# parameters along the near-null gauge directions of J^H J
SWAMP_SCENE = scene.DoaScene(
    sources=[scene.SourceSpec(15.0, 25.0), scene.SourceSpec(55.0, 40.0)],
    grid_m1=6, grid_m2=6, time_len=12,
)


def test_gauss_newton_leaves_the_swamp():
    # the damping bounds the step where the gauge makes J^H J near-singular,
    # so the warm-started solve reaches the exact solution instead of
    # stalling at relative residual 0.055
    seed = 3
    sources = scene.synthetic_sources(SWAMP_SCENE.time_len, SWAMP_SCENE.rank, seed=seed)
    clean, _ = scene.build_scene_tensor(SWAMP_SCENE, sources)
    opts = CpdOptions(rank=2, algorithm="gauss_newton_als_warmstart",
                      init=seeded_start(clean, 2, seed + INIT_SEED_OFFSET))
    _, diag = cpd(clean, opts)
    assert diag.converged
    assert diag.final_relative_residual <= 1e-8


@pytest.mark.parametrize("certificate", [solvers.GRAD_CERTIFICATE, 1e-4, 1e-3])
def test_gauss_newton_converged_implies_small_residual_on_noiseless_scenes(monkeypatch, certificate):
    # Loosened, the gradient certificate passes inside the swamp on
    # iterations whose step is rejected, so the stall test sees zero
    # progress; only the predicted-decrease witness, read at the damped
    # step, then refuses to call the swamp converged.
    monkeypatch.setattr(solvers, "GRAD_CERTIFICATE", certificate)
    for seed in range(12):
        sources = scene.synthetic_sources(SWAMP_SCENE.time_len, SWAMP_SCENE.rank, seed=seed)
        clean, _ = scene.build_scene_tensor(SWAMP_SCENE, sources)
        for algorithm in ("gauss_newton", "gauss_newton_als_warmstart"):
            opts = CpdOptions(rank=2, algorithm=algorithm, init=seeded_start(clean, 2, seed + INIT_SEED_OFFSET))
            _, diag = cpd(clean, opts)
            if diag.converged:
                assert diag.final_relative_residual <= 1e-8, (seed, algorithm)


def rebalance_per_mode(factors):
    """The per-mode loop _rebalance replaced, kept as its oracle."""
    norms = [np.linalg.norm(f, axis=0) for f in factors]
    total = np.ones_like(norms[0])
    for nn in norms:
        total = total * nn
    alive = total > 0
    target = np.power(np.where(alive, total, 1.0), 1.0 / len(factors))
    for f, nn in zip(factors, norms):
        f *= np.where(alive, target / np.where(nn > 0, nn, 1.0), 1.0)


def test_rebalance_equalizes_column_norms_and_keeps_the_model():
    rng = np.random.default_rng(66)
    rank, dead = 3, 1
    for shape in ((5, 4, 6), (3, 4, 2, 5)):
        start = [crandn(rng, i, rank) * rng.uniform(0.1, 10.0, rank) for i in shape]
        start[1][:, dead] = 0.0
        x = np.concatenate([f.ravel() for f in start])
        solvers._rebalance(x, shape, rank)
        factors = solvers._factor_views(x, shape, rank)

        before = core.reconstruct(start)
        assert np.linalg.norm(core.reconstruct(factors) - before) <= 1e-14 * np.linalg.norm(before)
        norms = np.array([np.linalg.norm(f, axis=0) for f in factors])
        live = [r for r in range(rank) if r != dead]
        assert np.all(np.abs(norms[:, live] / norms[0, live] - 1.0) <= 1e-14), shape
        for f, f0 in zip(factors, start):
            assert np.array_equal(f[:, dead], f0[:, dead]), shape

        looped = [f.copy() for f in start]
        rebalance_per_mode(looped)
        for f, fl in zip(factors, looped):
            assert np.linalg.norm(f - fl) <= 1e-14 * np.linalg.norm(fl), shape


def term_norm_ratio(factors):
    return solvers._term_norm_ratio(solvers._gramians(factors))


def test_term_norm_ratio_is_the_term_norms_over_the_model_norm():
    rng = np.random.default_rng(81)
    for shape in ((7,), (5, 6), (4, 5, 6), (3, 4, 2, 5)):
        factors = [crandn(rng, i, 3) for i in shape]
        terms = np.prod([np.linalg.norm(f, axis=0) for f in factors], axis=0).sum()
        expected = terms / np.linalg.norm(core.reconstruct(factors))
        assert term_norm_ratio(factors) == pytest.approx(expected, rel=1e-12), shape
    assert term_norm_ratio([np.zeros((4, 2), dtype=complex), crandn(rng, 5, 2)]) == np.inf


def test_term_norm_ratio_is_sqrt_rank_for_orthogonal_unit_norm_terms():
    # orthonormal columns in one mode make the terms orthogonal, unit
    # columns in the others give each term unit norm
    rng = np.random.default_rng(82)
    for shape, rank in (((6,), 4), ((5, 6), 3), ((4, 5, 6), 4), ((3, 4, 2, 5), 2)):
        factors = [f / np.linalg.norm(f, axis=0) for f in (crandn(rng, i, rank) for i in shape)]
        factors[-1] = np.linalg.qr(crandn(rng, shape[-1], rank))[0]
        assert term_norm_ratio(factors) == pytest.approx(np.sqrt(rank), rel=1e-12), shape


def test_term_norm_ratio_does_not_change_under_rebalance():
    rng = np.random.default_rng(83)
    rank = 3
    for shape in ((7,), (5, 6), (4, 5, 6), (3, 4, 2, 5)):
        x = np.concatenate([(crandn(rng, i, rank) * rng.uniform(0.01, 100.0, rank)).ravel() for i in shape])
        before = term_norm_ratio(solvers._factor_views(x, shape, rank))
        solvers._rebalance(x, shape, rank)
        assert term_norm_ratio(solvers._factor_views(x, shape, rank)) == pytest.approx(before, rel=1e-12), shape


def masked_normal_equations(tvals, mask, factors, n):
    """Right-hand sides b (I_n, R) and normal matrices a (I_n, R, R) of the
    masked ALS update of mode n, as the sweep forms them: two mttkrps, read
    off the last-mode products of the values and of the mask below the last
    mode, the mask's as real products."""
    rank = factors[0].shape[1]
    pairs = [solvers._pair_columns(f) for f in factors]
    conj_factors = [np.conj(f) for f in factors]
    weights = mask.astype(np.float64)
    b = solvers._mode_mttkrp(tvals, core._last_mode_product(tvals, conj_factors[-1]), conj_factors, n)
    p_weights = solvers._real_product(weights.reshape(-1, mask.shape[-1]), pairs[-1])
    a = solvers._masked_normal_matrices(weights, p_weights, pairs, n)
    return b, a.reshape(-1, rank, rank)


def masked_sweep_problem(rng, shape, rank):
    tvals = crandn(rng, *shape)
    mask = rng.random(shape) < 0.7
    mask[1] = False  # a row of mode 0 with nothing observed
    return np.where(mask, tvals, 0.0), mask, [crandn(rng, i, rank) for i in shape]


def test_masked_als_sweep_matches_per_row_solves():
    rng = np.random.default_rng(63)
    for shape in ((5, 4, 6), (3, 4, 2, 5)):
        tvals, mask, start = masked_sweep_problem(rng, shape, 3)
        batched = [f.copy() for f in start]
        solvers._als_sweep_masked(tvals, mask, batched)

        looped = [f.copy() for f in start]
        for n in range(len(shape)):
            b, a = masked_normal_equations(tvals, mask, looped, n)
            # a stack with an unobserved row, a zero a_i, falls back whole to
            # the pseudo-inverse: here mode 0's
            dead = not a.any(axis=(1, 2)).all()
            assert dead == (n == 0), (shape, n)
            rows = np.empty_like(b)
            for i in range(b.shape[0]):
                rows[i] = b[i] @ solvers._hermitian_pinv(a[i]) if dead else solvers._hermitian_solve(a[i], b[i])
            looped[n] = rows
        for fb, fl in zip(batched, looped):
            assert np.array_equal(fb, fl), shape


def test_masked_normal_equations_match_unfolded_formulas():
    # oracle: the matricized formulas, Khatri-Rao rows z_j of the other
    # modes, b = unfold(t) conj(Z) and a_i = sum_j mask[i, j] z_j^T conj(z_j)
    rng = np.random.default_rng(65)
    for shape in ((5, 4, 6), (3, 4, 2, 5)):
        tvals, mask, factors = masked_sweep_problem(rng, shape, 3)
        for n in range(len(shape)):
            z = core.kr_chain(factors, n)
            zc = np.conj(z)
            b_ref = core.unfold(tvals, n) @ zc
            a_ref = np.einsum("ij,jr,js->irs", core.unfold(mask, n), z, zc)
            b, a = masked_normal_equations(tvals, mask, factors, n)
            assert np.abs(b - b_ref).max() <= 1e-12 * np.abs(b_ref).max(), (shape, n)
            assert np.abs(a - a_ref).max() <= 1e-12 * np.abs(a_ref).max(), (shape, n)
            if n == 0:
                assert not a[1].any() and not b[1].any()


def test_hermitian_solve_matches_the_pseudo_inverse_on_definite_stacks():
    # the normal matrices of the masked sweep with nothing unobserved, and
    # of the dense sweep, at orders 3 and 4
    rng = np.random.default_rng(69)
    for shape in ((5, 4, 6), (3, 4, 2, 5)):
        tvals, mask, factors = masked_sweep_problem(rng, shape, 3)
        mask[...] = True
        for n in range(len(shape)):
            b, a = masked_normal_equations(tvals, mask, factors, n)
            ref = (b[:, None, :] @ solvers._hermitian_pinv(a))[:, 0, :]
            assert np.abs(solvers._hermitian_solve(a, b) - ref).max() <= 1e-12 * np.abs(ref).max(), (shape, n)
            dense = np.conj(solvers._hadamard_except(solvers._gramians(factors), n))
            ref = b @ solvers._hermitian_pinv(dense)
            assert np.abs(solvers._hermitian_solve(dense, b) - ref).max() <= 1e-12 * np.abs(ref).max(), (shape, n)


def test_hermitian_solve_falls_back_whole_to_the_pseudo_inverse():
    # a zero matrix, or a pivot whose square is below PINV_RCOND times the
    # largest, sends the whole stack to the pseudo-inverse, bit for bit
    rng = np.random.default_rng(70)
    g = crandn(rng, 3, 5)
    v = crandn(rng, 3, 1)
    definite = g @ g.conj().T
    barely = v @ v.conj().T + 1e-14 * np.abs(v).max() ** 2 * np.eye(3)
    np.linalg.cholesky(barely)  # positive definite, but past the cut
    b = crandn(rng, 2, 3)
    for bad in (np.zeros((3, 3), complex), barely):
        stack = np.stack([definite, bad])
        ref = (b[:, None, :] @ solvers._hermitian_pinv(stack))[:, 0, :]
        assert np.array_equal(solvers._hermitian_solve(stack, b), ref)
        assert np.array_equal(solvers._hermitian_solve(bad, b), b @ solvers._hermitian_pinv(bad))


def test_hermitian_pinv_matches_numpy():
    rng = np.random.default_rng(66)
    g = crandn(rng, 4, 4)
    v = crandn(rng, 4, 1)
    stack = np.stack([g @ g.conj().T, v @ v.conj().T, np.zeros((4, 4), complex)])
    ours = solvers._hermitian_pinv(stack)
    ref = np.linalg.pinv(stack, rcond=solvers.PINV_RCOND, hermitian=True)
    for mine, theirs in zip(ours, ref):
        assert np.abs(mine - theirs).max() <= 1e-12 * max(np.abs(theirs).max(), 1.0)
    assert not ours[2].any()
