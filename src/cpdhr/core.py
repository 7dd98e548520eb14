"""Complex tensor containers and multilinear algebra primitives.

Tensors are plain numpy ``complex128`` arrays. The flat layout convention
used by the text formats and by :func:`unfold` is first-index-fastest
(Fortran order); modes are 0-based everywhere in code and 1-based only at
the CLI / file-format boundary.
"""

from dataclasses import dataclass, field
from functools import reduce

import numpy as np

# Order 3 goes through kernels.<name> looked up at each call, never a
# name bound at import, so a wrapper installed on the kernels module sees
# every call.
from . import kernels

# Guard against shapes whose element count cannot be allocated; products are
# computed with Python ints so the check itself cannot wrap around.
MAX_ELEMENTS = 2**40


def check_shape(dims):
    """Validate extents and return them as a tuple of Python ints."""
    dims = tuple(int(d) for d in dims)
    if len(dims) == 0:
        raise ValueError("tensor order must be at least 1")
    count = 1
    for d in dims:
        if d < 1:
            raise ValueError(f"every extent must be >= 1, got {d}")
        count *= d
    if count > MAX_ELEMENTS:
        raise ValueError(f"shape {dims} has {count} elements, exceeds limit {MAX_ELEMENTS}")
    return dims


def element_count(dims):
    dims = check_shape(dims)
    count = 1
    for d in dims:
        count *= d
    return count


def as_tensor(values, shape=None):
    """Coerce to a complex128 ndarray, optionally reshaping flat values.

    Flat input is interpreted first-index-fastest, matching the file
    formats.
    """
    arr = np.asarray(values, dtype=np.complex128)
    if shape is not None:
        shape = check_shape(shape)
        arr = arr.reshape(shape, order="F")
    else:
        check_shape(arr.shape if arr.ndim > 0 else (1,))
    return arr


@dataclass
class IncompleteTensor:
    """A dense array paired with an observation mask (True = observed).

    Unobserved entries are forced to zero on construction so whole-array
    reductions only ever see observed values. A fully missing fiber is
    legal; the solvers skip or impute those rows.
    """

    values: np.ndarray
    mask: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.complex128)
        self.mask = np.asarray(self.mask, dtype=bool)
        if self.mask.shape != self.values.shape:
            raise ValueError(
                f"mask shape {self.mask.shape} != values shape {self.values.shape}"
            )
        check_shape(self.values.shape)
        self.values = np.where(self.mask, self.values, 0.0)

    @property
    def shape(self):
        return self.values.shape

    @property
    def ndim(self):
        return self.values.ndim

    @property
    def observed_count(self):
        return int(self.mask.sum())

    @property
    def observed_fraction(self):
        return self.observed_count / self.mask.size


@dataclass
class CpdModel:
    """Rank-R polyadic model: a list of factor matrices, one per mode.

    ``factors[n]`` has shape (I_n, R); column r across all modes defines
    the r-th rank-one term. ``normalized`` flags the convention where the
    columns of every factor but the last have unit norm and magnitudes sit
    in the last factor.
    """

    factors: list = field(default_factory=list)
    normalized: bool = False

    def __post_init__(self):
        self.factors = [np.asarray(f, dtype=np.complex128) for f in self.factors]
        if not self.factors:
            raise ValueError("a model needs at least one factor matrix")
        ranks = {f.shape[1] for f in self.factors}
        if len(ranks) != 1:
            raise ValueError(f"factors disagree on rank: {sorted(ranks)}")
        for n, f in enumerate(self.factors):
            if f.ndim != 2:
                raise ValueError(f"factor {n} is not a matrix")
            if f.shape[0] < 1 or f.shape[1] < 1:
                raise ValueError(f"factor {n} has empty dimension {f.shape}")

    @property
    def order(self):
        return len(self.factors)

    @property
    def rank(self):
        return self.factors[0].shape[1]

    @property
    def shape(self):
        return tuple(f.shape[0] for f in self.factors)

    def copy(self):
        return CpdModel([f.copy() for f in self.factors], normalized=self.normalized)


def _check_mode(mode, order):
    if not 0 <= mode < order:
        raise ValueError(f"mode {mode} out of range for order-{order} tensor")


def unfold(t, mode):
    """Mode-n matricization, shape (I_n, prod of the rest).

    Column j is the j-th mode-n fiber; fibers are ordered with the
    remaining mode indices varying lowest-mode-fastest, which is what the
    first-index-fastest layout gives for free.
    """
    t = np.asarray(t)
    _check_mode(mode, t.ndim)
    return np.moveaxis(t, mode, 0).reshape((t.shape[mode], -1), order="F")


def fold(m, mode, shape):
    """Inverse of :func:`unfold` for the given full tensor shape."""
    shape = check_shape(shape)
    _check_mode(mode, len(shape))
    m = np.asarray(m)
    rest = tuple(s for i, s in enumerate(shape) if i != mode)
    expected = (shape[mode], int(np.prod(rest)) if rest else 1)
    if m.shape != expected:
        raise ValueError(f"matrix shape {m.shape} does not fold into {shape} at mode {mode}")
    moved = m.reshape((shape[mode],) + rest, order="F")
    return np.moveaxis(moved, 0, mode)


def khatri_rao(a, b):
    """Columnwise Kronecker product, second-argument index fastest."""
    a = np.asarray(a)
    b = np.asarray(b)
    if a.ndim != 2 or b.ndim != 2:
        raise ValueError("khatri_rao expects two matrices")
    if a.shape[1] != b.shape[1]:
        raise ValueError(f"column mismatch: {a.shape[1]} vs {b.shape[1]}")
    return (a[:, None, :] * b[None, :, :]).reshape(a.shape[0] * b.shape[0], a.shape[1])


def kr_chain(factors, skip):
    """Khatri-Rao chain of all factors except ``skip``, last mode first.

    With this ordering unfold(reconstruct(model), n) equals
    factors[n] @ kr_chain(factors, n).T.
    """
    mats = [factors[m] for m in range(len(factors) - 1, -1, -1) if m != skip]
    if not mats:
        return np.ones((1, factors[skip].shape[1]), dtype=np.complex128)
    return reduce(khatri_rao, mats)


def outer_product(vectors):
    """Outer product of N vectors: entry (i1..iN) = prod_n v_n[i_n]."""
    vecs = [np.asarray(v, dtype=np.complex128).ravel() for v in vectors]
    if not vecs:
        raise ValueError("outer_product needs at least one vector")
    check_shape(tuple(v.size for v in vecs))
    return reduce(np.multiply.outer, vecs)


def _factor_list(model):
    if isinstance(model, CpdModel):
        return model.factors
    return [np.asarray(f, dtype=np.complex128) for f in model]


def reconstruct(model):
    """Dense tensor of the model: sum of its rank-one terms."""
    factors = _factor_list(model)
    if len(factors) == 3:
        return kernels.reconstruct3(factors[0], factors[1], factors[2])
    shape = tuple(f.shape[0] for f in factors)
    return fold(factors[0] @ kr_chain(factors, 0).T, 0, shape)


def mode_n_product(t, m, mode):
    """Contract matrix m (J x I_n) against mode n of t."""
    t = np.asarray(t)
    m = np.asarray(m)
    _check_mode(mode, t.ndim)
    if m.ndim != 2 or m.shape[1] != t.shape[mode]:
        raise ValueError(
            f"matrix shape {m.shape} incompatible with extent {t.shape[mode]} of mode {mode}"
        )
    new_shape = tuple(m.shape[0] if i == mode else s for i, s in enumerate(t.shape))
    return fold(m @ unfold(t, mode), mode, new_shape)


def identity_tensor(order, rank):
    """order-way tensor of extent rank per mode, ones on the superdiagonal."""
    if order < 1 or rank < 1:
        raise ValueError("order and rank must be >= 1")
    t = np.zeros((rank,) * order, dtype=np.complex128)
    t[(np.arange(rank),) * order] = 1.0
    return t


def frobenius_norm(t):
    """sqrt of the sum of squared magnitudes; observed entries only for
    an IncompleteTensor (its missing entries are stored as zero)."""
    if isinstance(t, IncompleteTensor):
        return float(np.linalg.norm(t.values.ravel()))
    return float(np.linalg.norm(np.asarray(t).ravel()))


def mttkrp(t, factors, mode):
    """unfold(t, mode) @ kr_chain(factors, mode).

    No conjugation is applied here; callers working with complex inner
    products pass pre-conjugated factors. factors[mode] is never read
    except for consistency of the list length.
    """
    t = np.asarray(t)
    factors = _factor_list(factors)
    _check_mode(mode, t.ndim)
    if len(factors) != t.ndim:
        raise ValueError(f"got {len(factors)} factors for an order-{t.ndim} tensor")
    for m, f in enumerate(factors):
        if m != mode and f.shape[0] != t.shape[m]:
            raise ValueError(
                f"factor {m} has {f.shape[0]} rows, tensor extent is {t.shape[m]}"
            )
    if t.ndim == 3:
        return kernels.mttkrp3(t, factors[0], factors[1], factors[2], mode)
    return unfold(t, mode) @ kr_chain(factors, mode)
