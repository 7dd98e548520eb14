"""Order-3 kernels against naive loops, over the memory layouts they meet."""

import numpy as np

from cpdhr import kernels


def _random_problem(seed):
    rng = np.random.default_rng(seed)
    t = rng.standard_normal((4, 5, 6)) + 1j * rng.standard_normal((4, 5, 6))
    factors = [
        rng.standard_normal((s, 3)) + 1j * rng.standard_normal((s, 3))
        for s in t.shape
    ]
    return t, factors


def _layouts(a):
    """The values of a C-ordered, F-ordered (what parse_tensor returns) and
    as a non-contiguous slice of a larger array."""
    big = np.zeros(tuple(2 * s for s in a.shape), dtype=a.dtype)
    window = tuple(slice(1, None, 2) for _ in a.shape)
    big[window] = a
    sliced = big[window]
    assert not sliced.flags.c_contiguous and not sliced.flags.f_contiguous
    return {"C": np.ascontiguousarray(a), "F": np.asfortranarray(a), "sliced": sliced}


def naive_mttkrp3(t, factors, mode):
    rank = factors[0].shape[1]
    out = np.zeros((t.shape[mode], rank), dtype=complex)
    for idx in np.ndindex(*t.shape):
        for r in range(rank):
            w = t[idx]
            for m in range(3):
                if m != mode:
                    w *= factors[m][idx[m], r]
            out[idx[mode], r] += w
    return out


def naive_reconstruct3(u0, u1, u2):
    out = np.zeros((u0.shape[0], u1.shape[0], u2.shape[0]), dtype=complex)
    for i, j, k in np.ndindex(*out.shape):
        for r in range(u0.shape[1]):
            out[i, j, k] += u0[i, r] * u1[j, r] * u2[k, r]
    return out


def _relerr(got, want):
    return np.linalg.norm(got - want) / np.linalg.norm(want)


def test_mttkrp3_matches_naive_loops():
    t, factors = _random_problem(7)
    want = [naive_mttkrp3(t, factors, mode) for mode in range(3)]
    for layout, tl in _layouts(t).items():
        fl = [_layouts(f)[layout] for f in factors]
        for mode in range(3):
            got = kernels.mttkrp3(tl, *fl, mode)
            assert got.shape == want[mode].shape
            assert _relerr(got, want[mode]) < 1e-12, (layout, mode)


def test_reconstruct3_matches_naive_loops():
    _, factors = _random_problem(8)
    want = naive_reconstruct3(*factors)
    for layout in ("C", "F", "sliced"):
        got = kernels.reconstruct3(*(_layouts(f)[layout] for f in factors))
        assert got.shape == want.shape
        assert _relerr(got, want) < 1e-12, layout


def test_kernels_bitwise_deterministic():
    t, (u0, u1, u2) = _random_problem(9)
    for mode in range(3):
        first = kernels.mttkrp3(t, u0, u1, u2, mode)
        second = kernels.mttkrp3(t, u0, u1, u2, mode)
        assert np.array_equal(first, second)
    assert np.array_equal(
        kernels.reconstruct3(u0, u1, u2), kernels.reconstruct3(u0, u1, u2)
    )
