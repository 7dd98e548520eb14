"""Tensor-core tests against naive loop oracles.

Every nontrivial routine is checked against an independent reimplementation
that follows the index formulas directly, with no shared code paths.
"""

import tracemalloc

import numpy as np
import pytest

from cpdhr import core
from cpdhr.core import (
    CpdModel,
    IncompleteTensor,
    check_shape,
    fold,
    khatri_rao,
    kr_chain,
    mttkrp,
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


def _mode_n_product(t, m, mode):
    """m (J x I_n) applied to every mode-n fiber of t."""
    return np.moveaxis(np.tensordot(m, t, axes=(1, mode)), 0, mode)


def _identity_tensor(order, rank):
    """Extent rank in every mode, ones on the superdiagonal."""
    t = np.zeros((rank,) * order, dtype=complex)
    t[(np.arange(rank),) * order] = 1.0
    return t


def random_factors(rng, shape, rank):
    return [
        rng.standard_normal((s, rank)) + 1j * rng.standard_normal((s, rank))
        for s in shape
    ]


def layouts(a):
    """The values of a as a C-ordered array, an F-ordered one and a
    non-contiguous slice of a larger array."""
    big = np.zeros(tuple(2 * s for s in a.shape), dtype=a.dtype)
    window = tuple(slice(1, None, 2) for _ in a.shape)
    big[window] = a
    return {"C": np.ascontiguousarray(a), "F": np.asfortranarray(a), "sliced": big[window]}


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
    t = np.asarray(np.arange(1, 9), dtype=complex).reshape((2, 2, 2), order="F")
    expected = np.array([[1, 3, 5, 7], [2, 4, 6, 8]], dtype=complex)
    assert np.array_equal(unfold(t, 0), expected)
    assert np.array_equal(fold(expected, 0, (2, 2, 2)), t)


def test_unfold_trivial_1x1x1():
    t = np.asarray([3 + 4j], dtype=complex).reshape((1, 1, 1), order="F")
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
    vec = naive_outer([b.ravel(), a.ravel()]).ravel(order="F")
    assert np.allclose(khatri_rao(a, b)[:, 0], vec)


def test_khatri_rao_column_mismatch():
    with pytest.raises(ValueError):
        khatri_rao(np.zeros((2, 2)), np.zeros((3, 3)))


# ---------------------------------------------------------------------------
# reconstruct


def test_reconstruct_rank1_is_outer_product():
    rng = np.random.default_rng(31)
    factors = random_factors(rng, (2, 3, 4), 1)
    model = CpdModel(factors)
    expected = naive_outer([f[:, 0] for f in factors])
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
    # orders 1 to 4, every factor in each memory layout
    rng = np.random.default_rng(34)
    for shape in [(2, 3, 2, 4), (5,), (3, 4), (3, 1, 4)]:
        factors = random_factors(rng, shape, 3)
        want = naive_reconstruct(factors)
        for layout in ("C", "F", "sliced"):
            got = reconstruct([layouts(f)[layout] for f in factors])
            assert got.shape == shape
            assert np.allclose(got, want, atol=1e-12), (shape, layout)


def test_reconstruct_agrees_with_identity_tensor_route():
    # sum of outer products vs identity tensor hit with mode products
    rng = np.random.default_rng(35)
    for shape, rank in [((3, 4, 5), 2), ((2, 3, 4, 2), 3), ((4, 4), 3)]:
        factors = random_factors(rng, shape, rank)
        direct = reconstruct(factors)
        via_identity = _identity_tensor(len(shape), rank)
        for n, f in enumerate(factors):
            via_identity = _mode_n_product(via_identity, f, n)
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
    # orders 1 to 4, tensor and factors in each memory layout
    rng = np.random.default_rng(62)
    for shape in [(2, 3, 2, 3), (5,), (3, 4), (3, 1, 4)]:
        t = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        factors = random_factors(rng, shape, 3)
        for layout in ("C", "F", "sliced"):
            tl = layouts(t)[layout]
            fl = [layouts(f)[layout] for f in factors]
            for mode in range(len(shape)):
                got = mttkrp(tl, fl, mode)
                want = naive_mttkrp(t, factors, mode)
                assert got.shape == want.shape
                assert np.linalg.norm(got - want) / np.linalg.norm(want) < 1e-10, (shape, layout, mode)


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


def test_leading_mttkrps_from_the_last_mode_product_match_naive():
    # orders 2 to 4, tensor and factors in each memory layout: P, the
    # tensor contracted once with the last factor, gives every other mode
    rng = np.random.default_rng(64)
    for shape in [(3, 4), (4, 3, 5), (2, 3, 2, 3), (3, 1, 4, 2)]:
        t = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        factors = random_factors(rng, shape, 3)
        for layout in ("C", "F", "sliced"):
            tl = layouts(t)[layout]
            fl = [layouts(f)[layout] for f in factors]
            p = core._last_mode_product(tl, fl[-1])
            assert p.shape == (t.size // shape[-1], 3)
            for mode in range(len(shape) - 1):
                got = core._leading_mttkrp(p, fl, mode)
                want = naive_mttkrp(t, factors, mode)
                assert got.shape == want.shape
                assert np.linalg.norm(got - want) / np.linalg.norm(want) < 1e-10, (shape, layout, mode)
                assert np.linalg.norm(got - mttkrp(tl, fl, mode)) / np.linalg.norm(want) < 1e-12, (shape, layout, mode)


def test_mttkrp_does_not_read_the_rows_of_the_factor_of_its_mode():
    # factors[mode] only fixes the list length and the rank; a stand-in
    # with another row count gives the same product at every mode
    rng = np.random.default_rng(65)
    for shape in [(4, 3, 5), (2, 3, 2, 3)]:
        t = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        factors = random_factors(rng, shape, 3)
        for mode in range(len(shape)):
            stand_in = factors[:mode] + [np.zeros((7, 3))] + factors[mode + 1:]
            want = naive_mttkrp(t, factors, mode)
            assert np.linalg.norm(mttkrp(t, stand_in, mode) - want) / np.linalg.norm(want) < 1e-10, (shape, mode)


def test_last_mode_product_does_not_copy_a_c_contiguous_tensor():
    # the C-order reshape is a view; a copy of the tensor alone would
    # already reach its nbytes
    rng = np.random.default_rng(66)
    for shape in [(32, 32, 64), (8, 8, 16, 64)]:
        t = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        factors = random_factors(rng, shape, 6)
        tracemalloc.start()
        try:
            p = core._last_mode_product(t, factors[-1])
            for mode in range(len(shape) - 1):
                core._leading_mttkrp(p, factors, mode)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < t.nbytes, (shape, peak / t.nbytes)


def test_mttkrp_dimension_mismatch():
    t = np.zeros((3, 4, 5))
    factors = [np.zeros((3, 2)), np.zeros((9, 2)), np.zeros((5, 2))]
    with pytest.raises(ValueError):
        mttkrp(t, factors, 0)
