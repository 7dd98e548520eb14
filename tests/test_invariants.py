"""Cross-cutting solver guarantees, exercised over many seeded instances.

These are the contracts the rest of the package leans on: noiseless
generate-then-decompose recovers the truth (and anything that does not is
flagged non-converged), the decomposition is blind to gauge, ALS never
climbs, and random missing entries do not break recovery.
"""

import numpy as np

from cpdhr import CpdModel, CpdOptions, cpd, cpd_als, cpderr, reconstruct
from cpdhr.core import IncompleteTensor
from cpdhr.solvers import init_model, normalize_model


def make_truth(shape, rank, seed):
    return normalize_model(init_model(shape, rank, seed))


def random_instance(rng, s):
    dims = tuple(int(rng.integers(4, 8)) for _ in range(3))
    rank = int(rng.integers(1, 4))
    truth = make_truth(dims, rank, seed=10_000 + s)
    return truth, reconstruct(truth), rank


def recovery_counts(algorithm, err_tol):
    rng = np.random.default_rng(5150)
    n_good = 0
    silent_wrong = []
    for s in range(100):
        truth, t, rank = random_instance(rng, s)
        model, diag = cpd(t, CpdOptions(rank=rank, algorithm=algorithm, init=s))
        err = max(cpderr(truth, model).per_mode_relative_error)
        if err < err_tol:
            n_good += 1
        elif diag.converged:
            silent_wrong.append((s, err))
    return n_good, silent_wrong


def test_exact_recovery_als_100_seeds():
    n_good, silent_wrong = recovery_counts("als", 1e-6)
    assert n_good >= 95
    assert silent_wrong == []


def test_exact_recovery_nls_100_seeds():
    n_good, silent_wrong = recovery_counts("gauss_newton", 1e-8)
    assert n_good >= 95
    assert silent_wrong == []


def test_decomposition_is_gauge_blind():
    rng = np.random.default_rng(99)
    for s in range(6):
        truth, t, rank = random_instance(rng, s)
        perm = rng.permutation(rank)
        gauged = []
        accumulated = np.ones(rank, dtype=complex)
        for f in truth.factors[:-1]:
            scales = rng.uniform(0.5, 2.0, rank) * np.exp(2j * np.pi * rng.uniform(size=rank))
            accumulated = accumulated * scales
            gauged.append(f[:, perm] * scales[perm])
        # last mode absorbs the inverse so the underlying tensor is unchanged
        gauged.append(truth.factors[-1][:, perm] / accumulated[perm])
        t_gauged = reconstruct(CpdModel(gauged))
        assert np.allclose(t_gauged, t, atol=1e-12 * np.abs(t).max())
        model, _ = cpd(t_gauged, CpdOptions(rank=rank, init=s + 1))
        err = max(cpderr(truth, model).per_mode_relative_error)
        assert err < 1e-8


def test_als_trace_never_increases_many_seeds():
    rng = np.random.default_rng(31)
    for s in range(8):
        truth, t, rank = random_instance(rng, s)
        _, diag = cpd_als(t, CpdOptions(rank=rank, algorithm="als", init=s))
        trace = np.asarray(diag.objective_trace)
        assert np.all(np.diff(trace) <= 1e-12)


def test_incomplete_random_mask_recovery():
    rng = np.random.default_rng(4242)
    for s in range(5):
        truth = make_truth((6, 7, 8), 2, seed=600 + s)
        t = reconstruct(truth)
        mask = rng.uniform(size=t.shape) < 0.93
        assert mask.mean() >= 0.90
        inc = IncompleteTensor(np.where(mask, t, 0.0), mask)
        model, diag = cpd(inc, CpdOptions(rank=2, init=s))
        err = max(cpderr(truth, model).per_mode_relative_error)
        assert err < 1e-4, (s, err)
        assert diag.converged
