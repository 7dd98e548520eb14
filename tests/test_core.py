"""Tensor-core tests against naive loop oracles.

Every nontrivial routine is checked against an independent reimplementation
that follows the index formulas directly, with no shared code paths.
"""

import numpy as np
import pytest

from cpdhr import core
from cpdhr.core import (
    CpdModel,
    IncompleteTensor,
    as_tensor,
    check_shape,
    fold,
    frobenius_norm,
    identity_tensor,
    khatri_rao,
    kr_chain,
    mode_n_product,
    mttkrp,
    outer_product,
    reconstruct,
    unfold,
)

# ---------------------------------------------------------------------------
# oracles: direct index-formula implementations, loops only


def naive_unfold(t, mode):
    """Column index of a fiber = sum over other modes of i_m * stride_m,
    strides accumulating lowest-mode-fastest."""
    t = np.asarray(t)
    rest = [m for m in range(t.ndim) if m != mode]
    ncols = 1
    for m in rest:
        ncols *= t.shape[m]
    out = np.zeros((t.shape[mode], ncols), dtype=t.dtype)
    for idx in np.ndindex(*t.shape):
        col = 0
        stride = 1
        for m in rest:
            col += idx[m] * stride
            stride *= t.shape[m]
        out[idx[mode], col] = t[idx]
    return out


def naive_khatri_rao(a, b):
    ia, r = a.shape
    ib = b.shape[0]
    out = np.zeros((ia * ib, r), dtype=np.result_type(a, b))
    for c in range(r):
        for i in range(ia):
            for j in range(ib):
                out[i * ib + j, c] = a[i, c] * b[j, c]
    return out


def naive_outer(vectors):
    vecs = [np.asarray(v) for v in vectors]
    shape = tuple(v.size for v in vecs)
    out = np.zeros(shape, dtype=complex)
    for idx in np.ndindex(*shape):
        val = 1.0 + 0j
        for n, i in enumerate(idx):
            val *= vecs[n][i]
        out[idx] = val
    return out


def naive_reconstruct(factors):
    shape = tuple(f.shape[0] for f in factors)
    rank = factors[0].shape[1]
    out = np.zeros(shape, dtype=complex)
    for r in range(rank):
        for idx in np.ndindex(*shape):
            val = 1.0 + 0j
            for n, i in enumerate(idx):
                val *= factors[n][i, r]
            out[idx] += val
    return out


def naive_mttkrp(t, factors, mode):
    t = np.asarray(t)
    rank = factors[(mode + 1) % len(factors)].shape[1]
    out = np.zeros((t.shape[mode], rank), dtype=complex)
    for r in range(rank):
        for idx in np.ndindex(*t.shape):
            val = t[idx]
            for m in range(t.ndim):
                if m != mode:
                    val *= factors[m][idx[m], r]
            out[idx[mode], r] += val
    return out


def naive_frobenius(t):
    total = 0.0
    for x in np.asarray(t).ravel():
        total += abs(x) ** 2
    return total**0.5


def random_factors(rng, shape, rank):
    return [
        rng.standard_normal((s, rank)) + 1j * rng.standard_normal((s, rank))
        for s in shape
    ]


# ---------------------------------------------------------------------------
# shape / containers


def test_check_shape_rejects_bad_extents():
    with pytest.raises(ValueError):
        check_shape((3, 0, 2))
    with pytest.raises(ValueError):
        check_shape(())
    with pytest.raises(ValueError):
        check_shape((-1, 4))


def test_check_shape_overflow_guard():
    with pytest.raises(ValueError):
        check_shape((2**21, 2**21))  # 2**42 elements


def test_as_tensor_flat_layout_is_first_index_fastest():
    t = as_tensor([1, 2, 3, 4], shape=(2, 2))
    assert np.array_equal(t, np.array([[1, 3], [2, 4]], dtype=complex))


def test_incomplete_tensor_zeroes_unobserved():
    vals = np.array([[1.0, 2.0], [3.0, 4.0]], dtype=complex)
    mask = np.array([[True, False], [False, True]])
    it = IncompleteTensor(vals, mask)
    assert it.values[0, 1] == 0
    assert it.values[1, 0] == 0
    assert it.values[0, 0] == 1
    assert it.observed_count == 2
    assert it.observed_fraction == 0.5


def test_incomplete_tensor_shape_mismatch():
    with pytest.raises(ValueError):
        IncompleteTensor(np.zeros((2, 2)), np.ones((2, 3), dtype=bool))


def test_cpd_model_validation():
    rng = np.random.default_rng(0)
    factors = random_factors(rng, (3, 4), 2)
    m = CpdModel(factors)
    assert m.order == 2 and m.rank == 2 and m.shape == (3, 4)
    c = m.copy()
    c.factors[0][0, 0] = 99
    assert m.factors[0][0, 0] != 99
    with pytest.raises(ValueError):
        CpdModel([np.zeros((3, 2)), np.zeros((4, 3))])
    with pytest.raises(ValueError):
        CpdModel([])


# ---------------------------------------------------------------------------
# unfold / fold


def test_unfold_layout_example():
    # 2x2x2, values 1..8 in layout order
    t = as_tensor(np.arange(1, 9), shape=(2, 2, 2))
    expected = np.array([[1, 3, 5, 7], [2, 4, 6, 8]], dtype=complex)
    assert np.array_equal(unfold(t, 0), expected)
    assert np.array_equal(fold(expected, 0, (2, 2, 2)), t)


def test_unfold_trivial_1x1x1():
    t = as_tensor([3 + 4j], shape=(1, 1, 1))
    for mode in range(3):
        assert unfold(t, mode).shape == (1, 1)
        assert unfold(t, mode)[0, 0] == 3 + 4j


def test_unfold_matches_naive():
    rng = np.random.default_rng(11)
    for _ in range(25):
        order = rng.integers(1, 5)
        shape = tuple(int(s) for s in rng.integers(1, 6, size=order))
        t = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        for mode in range(order):
            assert np.allclose(unfold(t, mode), naive_unfold(t, mode), atol=0)


def test_fold_unfold_roundtrip_all_modes():
    rng = np.random.default_rng(12)
    for _ in range(25):
        order = rng.integers(1, 5)
        shape = tuple(int(s) for s in rng.integers(1, 6, size=order))
        t = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        for mode in range(order):
            back = fold(unfold(t, mode), mode, shape)
            assert np.array_equal(back, t)


def test_unfold_mode_out_of_range():
    t = np.zeros((2, 2))
    with pytest.raises(ValueError):
        unfold(t, 2)
    with pytest.raises(ValueError):
        unfold(t, -1)


def test_fold_dimension_mismatch():
    with pytest.raises(ValueError):
        fold(np.zeros((2, 3)), 0, (2, 2, 2))


# ---------------------------------------------------------------------------
# khatri-rao / outer products


def test_khatri_rao_hand_example():
    a = np.array([[1.0], [2.0]])
    b = np.array([[3.0], [4.0]])
    assert np.array_equal(khatri_rao(a, b), np.array([[3.0], [4.0], [6.0], [8.0]]))


def test_khatri_rao_unit_columns():
    a = np.eye(2)[:, :1]
    b = np.eye(3)[:, 1:2]
    out = khatri_rao(a, b)
    expected = np.zeros((6, 1))
    expected[1, 0] = 1.0  # index 0*3 + 1
    assert np.array_equal(out, expected)


def test_khatri_rao_matches_naive():
    rng = np.random.default_rng(21)
    for _ in range(20):
        ia, ib, r = rng.integers(1, 6, size=3)
        a = rng.standard_normal((ia, r)) + 1j * rng.standard_normal((ia, r))
        b = rng.standard_normal((ib, r)) + 1j * rng.standard_normal((ib, r))
        assert np.allclose(khatri_rao(a, b), naive_khatri_rao(a, b), atol=0)


def test_khatri_rao_rank1_is_vec_of_outer():
    rng = np.random.default_rng(22)
    a = rng.standard_normal((4, 1)) + 1j * rng.standard_normal((4, 1))
    b = rng.standard_normal((3, 1)) + 1j * rng.standard_normal((3, 1))
    # column of a kr b, read b-fastest, is the layout-order vec of b a^T
    vec = outer_product([b.ravel(), a.ravel()]).ravel(order="F")
    assert np.allclose(khatri_rao(a, b)[:, 0], vec)


def test_khatri_rao_column_mismatch():
    with pytest.raises(ValueError):
        khatri_rao(np.zeros((2, 2)), np.zeros((3, 3)))


def test_outer_product_hand_examples():
    out = outer_product([[1, 2], [3, 4]])
    assert np.array_equal(out, np.array([[3, 4], [6, 8]], dtype=complex))
    zed = outer_product([[1, 2], [0, 0], [5]])
    assert not zed.any()
    assert np.allclose(
        outer_product([[1, 2], [1, 0, 1], [2]]),
        naive_outer([[1, 2], [1, 0, 1], [2]]),
    )


# ---------------------------------------------------------------------------
# reconstruct / mode products / identity tensor


def test_reconstruct_rank1_is_outer_product():
    rng = np.random.default_rng(31)
    factors = random_factors(rng, (2, 3, 4), 1)
    model = CpdModel(factors)
    expected = outer_product([f[:, 0] for f in factors])
    assert np.allclose(reconstruct(model), expected)


def test_reconstruct_is_sum_of_rank_one_terms():
    rng = np.random.default_rng(32)
    factors = random_factors(rng, (3, 4, 5), 2)
    t1 = reconstruct([f[:, :1] for f in factors])
    t2 = reconstruct([f[:, 1:] for f in factors])
    assert np.allclose(reconstruct(CpdModel(factors)), t1 + t2)


def test_reconstruct_matches_naive_order3():
    rng = np.random.default_rng(33)
    factors = random_factors(rng, (3, 4, 5), 2)
    assert np.allclose(reconstruct(factors), naive_reconstruct(factors), atol=1e-12)


def test_reconstruct_matches_naive_order4():
    # orders 1 and 2 ride along: every order but 3 takes the same line
    rng = np.random.default_rng(34)
    for shape in [(2, 3, 2, 4), (5,), (3, 4)]:
        factors = random_factors(rng, shape, 3)
        got = reconstruct(factors)
        assert got.shape == shape
        assert np.allclose(got, naive_reconstruct(factors), atol=1e-12)


def test_reconstruct_agrees_with_identity_tensor_route():
    # sum of outer products vs identity tensor hit with mode products
    rng = np.random.default_rng(35)
    for shape, rank in [((3, 4, 5), 2), ((2, 3, 4, 2), 3), ((4, 4), 3)]:
        factors = random_factors(rng, shape, rank)
        direct = reconstruct(factors)
        via_identity = identity_tensor(len(shape), rank)
        for n, f in enumerate(factors):
            via_identity = mode_n_product(via_identity, f, n)
        scale = max(1.0, float(np.abs(direct).max()))
        assert np.abs(direct - via_identity).max() / scale < 1e-12


def test_unfold_of_reconstruct_is_factor_times_kr_chain():
    rng = np.random.default_rng(36)
    for _ in range(10):
        order = rng.integers(2, 5)
        shape = tuple(int(s) for s in rng.integers(2, 5, size=order))
        rank = int(rng.integers(1, 4))
        factors = random_factors(rng, shape, rank)
        t = reconstruct(factors)
        for n in range(order):
            lhs = unfold(t, n)
            rhs = factors[n] @ kr_chain(factors, n).T
            err = np.linalg.norm(lhs - rhs) / np.linalg.norm(lhs)
            assert err < 1e-10


def test_mode_n_product_identity_matrix():
    rng = np.random.default_rng(41)
    t = rng.standard_normal((3, 4, 5)) + 1j * rng.standard_normal((3, 4, 5))
    for mode in range(3):
        assert np.allclose(mode_n_product(t, np.eye(t.shape[mode]), mode), t)


def test_mode_n_product_hand_example():
    t = as_tensor(np.arange(1, 9), shape=(2, 2, 2))
    m = np.array([[1.0, 1.0], [0.0, 2.0]])
    out = mode_n_product(t, m, 0)
    # oracle: matrix-multiply each mode-0 fiber
    expected = fold(m @ naive_unfold(t, 0), 0, (2, 2, 2))
    assert np.allclose(out, expected)


def test_mode_n_product_dimension_mismatch():
    with pytest.raises(ValueError):
        mode_n_product(np.zeros((2, 3)), np.zeros((4, 4)), 0)


def test_identity_tensor_cases():
    assert np.array_equal(identity_tensor(2, 3), np.eye(3, dtype=complex))
    t = identity_tensor(3, 2)
    assert t[0, 0, 0] == 1 and t[1, 1, 1] == 1
    assert t.sum() == 2
    for order in (1, 2, 3, 4):
        assert identity_tensor(order, 3).sum() == 3


# ---------------------------------------------------------------------------
# norms


def test_frobenius_norm_cases():
    assert frobenius_norm(np.zeros((3, 3))) == 0.0
    assert np.isclose(frobenius_norm(np.ones((10, 10, 15))), np.sqrt(1500.0))
    rng = np.random.default_rng(51)
    t = rng.standard_normal((4, 5, 3)) + 1j * rng.standard_normal((4, 5, 3))
    assert abs(frobenius_norm(t) - naive_frobenius(t)) / naive_frobenius(t) < 1e-12
    assert frobenius_norm(t - t) == 0.0


def test_frobenius_norm_incomplete_counts_observed_only():
    rng = np.random.default_rng(52)
    vals = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    mask = rng.random((4, 4)) < 0.6
    it = IncompleteTensor(vals, mask)
    assert np.isclose(frobenius_norm(it), naive_frobenius(vals[mask]))


def test_frobenius_triangle_inequality():
    rng = np.random.default_rng(53)
    for _ in range(10):
        a = rng.standard_normal((3, 4)) + 1j * rng.standard_normal((3, 4))
        b = rng.standard_normal((3, 4)) + 1j * rng.standard_normal((3, 4))
        assert frobenius_norm(a + b) <= frobenius_norm(a) + frobenius_norm(b) + 1e-12


# ---------------------------------------------------------------------------
# mttkrp


def test_mttkrp_matches_naive_order3():
    rng = np.random.default_rng(61)
    t = rng.standard_normal((3, 4, 5)) + 1j * rng.standard_normal((3, 4, 5))
    factors = random_factors(rng, (3, 4, 5), 2)
    for mode in range(3):
        got = mttkrp(t, factors, mode)
        want = naive_mttkrp(t, factors, mode)
        assert np.linalg.norm(got - want) / np.linalg.norm(want) < 1e-10


def test_mttkrp_matches_naive_order4():
    # orders 1 and 2 ride along: every order but 3 takes the same line
    rng = np.random.default_rng(62)
    for shape in [(2, 3, 2, 3), (5,), (3, 4)]:
        t = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        factors = random_factors(rng, shape, 3)
        for mode in range(len(shape)):
            got = mttkrp(t, factors, mode)
            want = naive_mttkrp(t, factors, mode)
            assert np.linalg.norm(got - want) / np.linalg.norm(want) < 1e-10


def test_mttkrp_gramian_identity():
    # on an exact model tensor, mttkrp equals U_n times the hadamard
    # product of the plain transpose gramians of the other factors
    rng = np.random.default_rng(63)
    for _ in range(5):
        shape = tuple(int(s) for s in rng.integers(2, 6, size=3))
        rank = int(rng.integers(1, 4))
        factors = random_factors(rng, shape, rank)
        t = reconstruct(factors)
        for n in range(3):
            w = np.ones((rank, rank), dtype=complex)
            for m in range(3):
                if m != n:
                    w *= factors[m].T @ factors[m]
            got = mttkrp(t, factors, n)
            want = factors[n] @ w
            assert np.linalg.norm(got - want) / np.linalg.norm(want) < 1e-10


def test_mttkrp_all_ones_gives_fiber_sums():
    t = np.ones((2, 3, 4), dtype=complex)
    factors = [np.ones((s, 1), dtype=complex) for s in (2, 3, 4)]
    out = mttkrp(t, factors, 0)
    assert np.allclose(out, 12.0 * np.ones((2, 1)))


def test_mttkrp_dimension_mismatch():
    t = np.zeros((3, 4, 5))
    factors = [np.zeros((3, 2)), np.zeros((9, 2)), np.zeros((5, 2))]
    with pytest.raises(ValueError):
        mttkrp(t, factors, 0)
