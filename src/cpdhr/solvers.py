"""CPD solvers: alternating least squares and Gauss-Newton, plus the start
(algebraic or seeded) and the normalization pass.

Both solvers accept dense arrays or :class:`~cpdhr.core.IncompleteTensor`
inputs. Every solver keeps its state in one flat complex parameter vector
from _start, updated in place; factor n is the C-order (I_n, R) view of
block n. All reported residuals are relative Frobenius residuals over the
observed entries. Complex least squares is handled throughout with the
convention that the gradient of f = 0.5*||r||^2 with respect to the real
parameter vector (Re U, Im U) is (Re g, Im g), where g is the mttkrp of the
residual against the conjugated factors.
"""

import dataclasses
import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from . import core
from .core import CpdModel, IncompleteTensor

ALGORITHMS = ("als", "gauss_newton", "gauss_newton_als_warmstart")
MISSING_STRATEGIES = ("expectation_imputation", "masked_residuals")

# singular values below PINV_RCOND * largest are truncated when inverting
# the (possibly degenerate) R x R Gramian systems
PINV_RCOND = 1e-12

# Gauss-Newton step control: a step is accepted when its actual decrease is
# more than STEP_ACCEPT times the predicted one; the damping bounds are in
# units of the largest diagonal entry of the Gramian products (see cpd_nls)
STEP_ACCEPT = 1e-4
MU_FLOOR = 0.1
MU_COLLAPSE = 1e15
CG_MAX_ITER = 60
WARMSTART_SWEEPS = 3

# Each Gauss-Newton iteration's CG solve stops once its residual is at most
# CG_RTOL times ||g||: an inexact Newton step with a constant forcing term,
# which keeps the outer iteration locally convergent for any constant
# below 1 (Dembo, Eisenstat & Steihaug 1982). Totals over the 100
# Gauss-Newton solves of perfbench's masked_residuals_demo workload (seed
# 1, cases 0-149) and 20 warm starts of its large_array_dense workload,
# all converged at every value, to final residuals that sum to the same 9
# digits:
#
#   CG_RTOL                        0.01    0.03    0.05     0.1     0.2     0.3
#   outer iterations (masked)     1,725   1,515   1,516   1,571   1,886   2,168
#   matvecs (masked)             36,530  23,552  20,426  16,999  16,431  16,331
#   outer iterations (large)        173     174     174     182     189     213
#   matvecs (large)               1,149     888     783     708     602     581
#
# Below 0.1 the matvecs grow faster than the iterations fall; above it the
# iterations grow and the matvecs hardly fall. Two adaptive rules took more
# outer iterations on the masked solves than the fixed 0.1: Eisenstat and
# Walker's choice 2 took 2,189 and min(0.5, sqrt(||g|| / ||g_0||)) 2,087.
CG_RTOL = 0.1

# ALS sweeps from this one on (counting from 0), dense or masked,
# end with an exact line search (see _line_search), which costs about one
# more sweep. Solves from the algebraic start of a fully observed tensor
# mostly stop after ten or eleven sweeps (17 of the first 30 ALS cases of
# perfbench's large_array_dense workload), where a search would only add
# cost; slow solves, masked or dense, run on and gain. Over the ALS
# solves of tools/solver_parity.py, starting at sweep 3 or 5 saved few
# more sweeps (dense demo cell 922 against 983 at 10) and starting at 15
# or 20 kept more (masked_residuals 1,002 and 1,031 against 984). The
# warm start's WARMSTART_SWEEPS never reach it.
LINE_SEARCH_FROM = 10

# Gauss-Newton's tolerance-based stops only count as convergence once the
# gradient norm is this small relative to the data's gradient scale g_scale
# (see cpd_nls), a ratio that does not depend on the data's unit. A slow
# crawl that stalls the objective while far from stationarity is reported
# as non-converged instead. At a noisy local minimum the achievable
# gradient floor is limited by rounding in the objective (around sqrt(eps)
# times curvature), so the certificate cannot be much tighter than this.
GRAD_CERTIFICATE = 1e-6

# stall tolerance: an ALS sweep whose relative residual falls by less than
# this stops the solve, as does a Gauss-Newton iteration that also has both
# witnesses (see cpd_nls); the relative residual does not depend on the
# data's unit
REL_OBJECTIVE_TOL = 1e-10


def _integer(value, name):
    """value as a Python int. A bool, a float or any other value that is
    not of an integer type is refused, as the config parser refuses it;
    numpy integers are accepted."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return int(value)


@dataclass
class CpdOptions:
    """Solver configuration.

    init is either an integer seed >= 0 or an explicit CpdModel to start
    from. The seed draws the slice weights of the algebraic start where it
    applies, and the factors of init_model elsewhere (see _start).

    missing_data_strategy selects nothing: an IncompleteTensor is always
    fitted on the masked least-squares objective, and both names in
    MISSING_STRATEGIES select that one estimator. The field is validated
    and kept for callers that still pass it.
    """

    rank: int
    algorithm: str = "gauss_newton_als_warmstart"
    max_iterations: int = 500
    init: "CpdModel | int" = 0
    missing_data_strategy: str = "masked_residuals"

    def __post_init__(self):
        self.rank = _integer(self.rank, "rank")
        self.max_iterations = _integer(self.max_iterations, "max_iterations")
        if not isinstance(self.init, CpdModel):
            self.init = _integer(self.init, "init seed")
        if self.rank < 1:
            raise ValueError("rank must be >= 1")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")
        if not isinstance(self.init, CpdModel) and self.init < 0:
            raise ValueError(f"init seed must be >= 0, got {self.init}")
        if self.algorithm not in ALGORITHMS:
            raise ValueError(f"unknown algorithm {self.algorithm!r}, expected one of {ALGORITHMS}")
        if self.missing_data_strategy not in MISSING_STRATEGIES:
            raise ValueError(
                f"unknown missing_data_strategy {self.missing_data_strategy!r}, "
                f"expected one of {MISSING_STRATEGIES}"
            )


@dataclass
class CpdDiagnostics:
    iterations: int
    converged: bool
    final_relative_residual: float
    objective_trace: list = field(default_factory=list)


def init_model(shape, rank, seed):
    """Seeded random model, entries standard circular complex Gaussian.

    Uses numpy's default_rng (PCG64). Per factor, in mode order, one block
    of real parts is drawn and then one block of imaginary parts, each
    standard normal, and the sum is scaled by 1/sqrt(2) so entries have
    unit total variance. Fixed (seed, shape, rank) gives bit-identical
    factors on any platform.
    """
    shape = core.check_shape(shape)
    if rank < 1:
        raise ValueError("rank must be >= 1")
    rng = np.random.default_rng(seed)
    factors = []
    for extent in shape:
        re = rng.standard_normal((extent, rank))
        im = rng.standard_normal((extent, rank))
        factors.append((re + 1j * im) / np.sqrt(2.0))
    return CpdModel(factors)


def normalize_model(model):
    """Unit-norm columns in every mode but the last, magnitudes and phases
    absorbed into the last mode.

    After normalization the largest-magnitude entry of each leading-mode
    column is real and positive, which pins the phase gauge. Reconstruction
    is unchanged.
    """
    factors = [f.copy() for f in model.factors]
    n_modes = len(factors)
    rank = factors[0].shape[1]
    carry = np.ones(rank, dtype=np.complex128)
    for n in range(n_modes - 1):
        f = factors[n]
        norms = np.linalg.norm(f, axis=0)
        if np.any(norms < 1e-300):
            raise ValueError(f"zero column in mode {n}, cannot normalize")
        top = np.abs(f).argmax(axis=0)
        phases = np.exp(1j * np.angle(f[top, np.arange(rank)]))
        scale = norms * phases
        factors[n] = f / scale
        carry = carry * scale
    factors[-1] = factors[-1] * carry
    return CpdModel(factors, normalized=True)


def _observed(t):
    """(values, mask-or-None, norm of observed part), values and mask
    C-contiguous so that the kernels' C-order reshapes are views: a parsed
    tensor is F-ordered and would otherwise be copied on every call."""
    if isinstance(t, IncompleteTensor):
        vals = np.ascontiguousarray(t.values)
        mask = np.ascontiguousarray(t.mask)
    else:
        vals = np.ascontiguousarray(t, dtype=np.complex128)
        mask = None
    if not np.isfinite(vals).all():
        raise ValueError("tensor contains non-finite values")
    norm = float(np.linalg.norm(vals.ravel()))
    if norm == 0.0:
        raise ValueError("cannot decompose a tensor with no observed energy")
    return vals, mask, norm


def _factor_views(x, shape, rank):
    views = []
    start = 0
    for extent in shape:
        views.append(x[start:start + extent * rank].reshape(extent, rank))
        start += extent * rank
    return views


def _start(tvals, opts, data_norm):
    """The solver state: one flat complex vector whose block n is the
    C-order (I_n, R) view of factor n that _factor_views takes. An explicit
    CpdModel init is used as given. A seeded start of an order-3 tensor
    with R <= I_0, R <= I_1 and I_2 >= 2 is the algebraic start of tvals,
    the seed drawing its slice weights; for an IncompleteTensor tvals holds
    zeros where an entry is unobserved. Any other seeded start is
    init_model scaled so that its reconstruction has norm data_norm, since
    a badly scaled start wastes iterations on pure rescaling."""
    shape, rank, model = tvals.shape, opts.rank, opts.init
    if isinstance(model, CpdModel):
        if model.shape != shape:
            raise ValueError(f"init model shape {model.shape} != tensor shape {shape}")
        if model.rank != rank:
            raise ValueError(f"init model rank {model.rank} != requested rank {rank}")
        return np.concatenate([f.ravel() for f in model.factors])
    if len(shape) == 3 and rank <= min(shape[:2]) and shape[2] >= 2:
        return _algebraic_start(tvals, rank, int(model))
    model = init_model(shape, rank, int(model))
    start_norm = float(np.linalg.norm(core.reconstruct(model).ravel()))
    x = np.concatenate([f.ravel() for f in model.factors])
    return x * (data_norm / start_norm) ** (1.0 / len(shape))


def _algebraic_start(tvals, rank, seed):
    """The CPD of an order-3 tensor of rank at most I_0 and I_1 from a
    truncated MLSVD and one generalized eigenproblem, exact on noiseless
    data (Sanchez & Kowalski, J. Chemometrics 1990; Domanov & De Lathauwer,
    SIAM J. Matrix Anal. Appl. 2014).

    U_0 and U_1 are the R dominant eigenvectors of the mode-0 and mode-1
    unfolding Gramians. The compressed slices G_k = U_0^H T_k conj(U_1)
    are A_c diag(C[k]) B_c^T, and so is any combination of them: two, in
    their dominant mode-2 subspace of dimension min(R, I_2), with complex
    Gaussian weights from default_rng(seed), make the pencil (s_1, s_2).
    A_c is the eigenvectors of s_1 pinv(s_2), A = U_0 A_c and
    B = U_1 (pinv(A_c) s_2)^T; C is one least-squares mode-2 update, as in
    the dense ALS sweep. Every inverse is a pseudo-inverse, so the start is
    finite on finite input. No intermediate is larger than the tensor, and
    none grows with I_2 squared.

    On masked input tvals is the zero-filled tensor. Its MLSVD subspaces
    and pencil are only near those of the observed entries' CPD, so there
    the start is not exact, even on noiseless data: it is where the masked
    solvers begin, not a solution.
    """
    shape = tvals.shape
    i0, i1, i2 = shape
    conj_t = np.conj(tvals)
    # the mode-1 Gramian slice by slice, so that no transposed copy is made
    grams = (tvals.reshape(i0, -1) @ conj_t.reshape(i0, -1).T, sum(s @ c.T for s, c in zip(tvals, conj_t)))
    del conj_t
    u0, u1 = (np.linalg.eigh(g)[1][:, ::-1][:, :rank] for g in grams)
    compressed = u1.conj().T @ (u0.conj().T @ tvals.reshape(i0, -1)).reshape(rank, i1, i2)
    # the mode-2 fibres' dominant subspace: left singular vectors of the
    # (R^2, I_2) unfolding, times their singular values
    left, sv, _ = np.linalg.svd(compressed.reshape(rank * rank, i2), full_matrices=False)
    dim = min(rank, i2)
    rng = np.random.default_rng(seed)
    weights = (rng.standard_normal((dim, 2)) + 1j * rng.standard_normal((dim, 2))) / np.sqrt(2.0)
    s1, s2 = np.moveaxis(((left[:, :dim] * sv[:dim]) @ weights).reshape(rank, rank, 2), 2, 0)
    a_c = np.linalg.eig(s1 @ np.linalg.pinv(s2, rcond=PINV_RCOND))[1]
    x = np.zeros(sum(shape) * rank, dtype=np.complex128)
    a, b, c = _factor_views(x, shape, rank)
    a[...] = u0 @ a_c
    b[...] = u1 @ (np.linalg.pinv(a_c, rcond=PINV_RCOND) @ s2).T
    c[...] = core.mttkrp(tvals, [np.conj(a), np.conj(b), c], 2) @ _hermitian_pinv(
        np.conj((a.conj().T @ a) * (b.conj().T @ b)))
    _rebalance(x, shape, rank)
    return x


def _rebalance(x, shape, rank):
    # gauge-only: spread each column's magnitude evenly over the modes, in
    # place on the (sum I_n, R) view of x; returns the (N, R) column
    # scales. Keeping the blocks comparably scaled matters a lot
    # downstream: the spherical damping mu * I on the stacked parameters
    # damps the modes unevenly when one mode carries all the magnitude.
    rows = x.reshape(-1, rank)
    norms = np.sqrt(np.add.reduceat((rows.conj() * rows).real, np.cumsum((0,) + shape[:-1]), axis=0))
    total = norms.prod(axis=0)
    alive = total > 0
    target = np.power(np.where(alive, total, 1.0), 1.0 / len(shape))
    scale = np.where(alive, target / np.where(norms > 0, norms, 1.0), 1.0)
    rows *= np.repeat(scale, shape, axis=0)
    return scale


def _finish(x, shape, rank, trace, converged):
    """The normalized model and the diagnostics of a finished solve."""
    diag = CpdDiagnostics(
        iterations=len(trace),
        converged=converged,
        final_relative_residual=trace[-1],
        objective_trace=trace,
    )
    model = CpdModel(_factor_views(x, shape, rank))
    try:
        return normalize_model(model), diag
    except ValueError:
        # a dead column (rank overshoot) has no norm to move; hand the raw
        # factors back rather than erroring out of a finished solve
        return model, diag


def _gramians(factors):
    return [f.conj().T @ f for f in factors]


def _hadamard_except(grams, *skip):
    rank = grams[0].shape[0]
    w = np.ones((rank, rank), dtype=np.complex128)
    for m, g in enumerate(grams):
        if m not in skip:
            w = w * g
    return w


def _hermitian_solve(a, b):
    """x with x a = b, a Hermitian: every row of b against one matrix a, or
    row k of b against a[k] of a stack. A batched Cholesky factorization
    checks that every matrix is positive definite with every squared pivot
    above PINV_RCOND times the largest of its matrix; then x is one batched
    LU solve. Otherwise (an unobserved row, rank overshoot) the whole stack
    takes b @ _hermitian_pinv(a), bit for bit."""
    try:
        pivots = np.linalg.cholesky(a).diagonal(axis1=-2, axis2=-1).real ** 2
        definite = bool((pivots.min(axis=-1) > PINV_RCOND * pivots.max(axis=-1)).all())
    except np.linalg.LinAlgError:
        definite = False
    if a.ndim == 2:
        # x a = b is a^T x^T = b^T
        return np.linalg.solve(a.T, b.T).T if definite else b @ _hermitian_pinv(a)
    if definite:
        return np.linalg.solve(a.swapaxes(-1, -2), b[..., None])[..., 0]
    return (b[..., None, :] @ _hermitian_pinv(a))[..., 0, :]


def _hermitian_pinv(a):
    """Pseudo-inverse of a Hermitian matrix or stack of them, from one
    eigh: eigenvalues at or below PINV_RCOND times the largest in
    magnitude are dropped, as pinv(a, rcond=PINV_RCOND, hermitian=True)
    would, so a zero matrix gives zero."""
    eigvals, vecs = np.linalg.eigh(a)
    magnitude = np.abs(eigvals)
    kept = magnitude > PINV_RCOND * magnitude.max(axis=-1, keepdims=True)
    inverse = np.divide(1.0, eigvals, out=np.zeros_like(eigvals), where=kept)
    return (vecs * inverse[..., None, :]) @ vecs.conj().swapaxes(-1, -2)


def _mode_mttkrp(t, p, factors, n):
    """mttkrp(t, factors, n), read off p = core._last_mode_product(t,
    factors[-1]) below the last mode: one full pass over the tensor serves
    every leading mode."""
    if n < len(factors) - 1:
        return core._leading_mttkrp(p, factors, n)
    return core.mttkrp(t, factors, n)


def _mttkrps(t, factors):
    """Every mode's mttkrp of t against factors, flattened and stacked in
    mode order: two passes over the tensor at any order, P and the last
    mode."""
    p = core._last_mode_product(t, factors[-1])
    return np.concatenate([_mode_mttkrp(t, p, factors, n).ravel() for n in range(len(factors))])


def _als_sweep_dense(tvals, factors, p=None):
    """One sweep over the modes in order, from p, the tensor's last-mode
    product against the conjugated last factor (formed here when None);
    returns the last mode's right-hand sides b and its normal matrix a,
    U_{N-1} a = b."""
    conj_factors = [np.conj(f) for f in factors]
    grams = _gramians(factors)
    if p is None:
        # the last factor only changes at the end of the sweep
        p = core._last_mode_product(tvals, conj_factors[-1])
    for n in range(len(factors)):
        b = _mode_mttkrp(tvals, p, conj_factors, n)
        a = np.conj(_hadamard_except(grams, n))
        factors[n][...] = _hermitian_solve(a, b)
        conj_factors[n] = np.conj(factors[n])
        grams[n] = factors[n].conj().T @ factors[n]
    return b, a


def _pair_columns(f):
    """Columns f[:, r] * conj(f[:, s]), ordered (r, s). Row j of their
    Khatri-Rao product over some modes is the flattened outer product
    z_j^T conj(z_j) of row j of the factors' Khatri-Rao product."""
    return (f[:, :, None] * np.conj(f)[:, None, :]).reshape(f.shape[0], -1)


def _real_product(m, c):
    """The real matrix m times the complex matrix c as one real GEMM against
    the float64 view of c (copied first unless C-contiguous): half the work
    of the complex GEMM that casting m would take."""
    return (m @ np.ascontiguousarray(c).view(np.float64)).view(np.complex128)


def _masked_normal_matrices(weights, p_weights, pairs, n):
    """The masked normal matrices a_i of mode n, row i flattened to R^2:
    one mttkrp of the float64 mask against the pair columns, read off
    p_weights = _real_product(mask over its last mode, pairs[-1]) below the
    last mode."""
    if n < len(pairs) - 1:
        return core._leading_mttkrp(p_weights, pairs, n)
    return _real_product(weights.reshape(-1, weights.shape[-1]).T, core._kr(pairs[:-1], pairs[0].shape[1]))


def _als_sweep_masked(tvals, mask, factors, p=None):
    # Per-row normal equations restricted to the observed entries: row i of
    # mode n solves u_i a_i = b_i with a_i = sum_j mask[i, j] z_j^T conj(z_j),
    # z_j the Khatri-Rao row of the other modes, so the stack of a_i is one
    # mttkrp of the mask against the pair columns, taken as real products.
    # Rows with nothing observed get the least-norm answer (zero). p holds
    # the last-mode products of the values against the conjugated last
    # factor and of the mask against its pair columns (formed here when
    # None). Returns the last mode's b and its stack of a_i.
    weights = np.asarray(mask, dtype=np.float64)
    conj_factors = [np.conj(f) for f in factors]
    pairs = [_pair_columns(f) for f in factors]
    rank = factors[0].shape[1]
    if p is None:
        # masked values are zero-filled
        p = (core._last_mode_product(tvals, conj_factors[-1]),
             _real_product(weights.reshape(-1, weights.shape[-1]), pairs[-1]))
    p_values, p_weights = p
    for n in range(len(factors)):
        b = _mode_mttkrp(tvals, p_values, conj_factors, n)
        a = _masked_normal_matrices(weights, p_weights, pairs, n).reshape(-1, rank, rank)
        factors[n][...] = _hermitian_solve(a, b)
        conj_factors[n] = np.conj(factors[n])
        pairs[n] = _pair_columns(factors[n])
    return b, a


def _convolve(terms):
    """out[:, a + b] = sum of terms[:, a, ..., b]: column by column, the
    coefficients of a product of two polynomials in nu from the products
    of their coefficients, the first's on axis 1 and the second's on the
    last axis."""
    k, j = terms.shape[1], terms.shape[-1]
    out = np.zeros(terms.shape[:1] + (k + j - 1,) + terms.shape[2:-1], dtype=terms.dtype)
    for b in range(j):
        out[:, b:b + k] += terms[..., b]
    return out


def _leading_polynomial(z, polys):
    """The sum over all columns of a product of polynomials in nu: z holds
    the coefficients (C, k, prod of the leading extents) of a last-mode
    product and polys[n] those (C, I_n, j) of mode n, column c of each
    contracted with column c of the others over the leading modes, one
    batched GEMM per mode."""
    for f in reversed(polys):
        z = _convolve((z.reshape(z.shape[0], -1, f.shape[1]) @ f).reshape(z.shape[:2] + (-1, f.shape[-1])))
    return z.sum(axis=(0, 2))


def _pair_polynomial(u, d):
    """The pair columns of u + nu d, ordered (r, s), as a polynomial of
    degree 2 in real nu: coefficients (R^2, rows, 3)."""
    ut, dt = u.T[:, None], d.T[:, None]
    uc, dc = np.conj(u.T), np.conj(d.T)
    out = np.empty(ut.shape[:1] + uc.shape + (3,), dtype=np.complex128)
    np.multiply(ut, uc, out=out[..., 0])
    np.multiply(ut, dc, out=out[..., 1])
    out[..., 1] += dt * uc
    np.multiply(dt, dc, out=out[..., 2])
    return out.reshape(-1, u.shape[0], 3)


def _by_column(p, degree):
    """A last-mode product whose degree + 1 column blocks hold the
    coefficients of a polynomial, as (C, degree + 1, prod of the leading
    extents), the layout _leading_polynomial reads."""
    return np.ascontiguousarray(p.reshape(p.shape[0], degree + 1, -1).transpose(2, 1, 0))


def _line_search_polynomial(tvals, weights, norm, x, d, rank):
    """The squared relative residual over the observed entries of the model
    x + nu d, as the ascending coefficients of a real polynomial of degree
    2N in real nu, with the last-mode products it was read off:
    (coefficients, p_values, p_weights).

    ||T - M||^2 = ||T||^2 - 2 Re<T, M> + ||M||^2. <T, M(nu)> contracts
    p_values, the (prod of the leading extents, 2R) last-mode product of
    the zero-filled tensor against [conj U_{N-1} | conj D_{N-1}], with the
    leading modes' conjugated U_n + nu D_n. ||M(nu)||^2 sums the
    Khatri-Rao product of every mode's pair columns of U_n + nu D_n, each
    of degree 2, weighted by the mask. Dense, that is the product of their
    sums over each mode's rows, the Gramians of U_n + nu D_n; masked, it
    contracts p_weights, the real product of the mask over its last mode
    against the last mode's pair columns, (prod of the leading extents,
    3 R^2), with the leading modes' pair columns. Neither the tensor nor
    the mask is read more than once."""
    shape = tvals.shape
    starts = np.cumsum((0,) + shape)
    xr, dr = x.reshape(-1, rank), d.reshape(-1, rank)
    last = slice(starts[-2], None)
    p_values = core._last_mode_product(tvals, np.conj(np.concatenate([xr[last], dr[last]], axis=1)))
    linear = np.conj(np.stack([xr, dr], axis=-1)).transpose(1, 0, 2)
    inner = _leading_polynomial(_by_column(p_values, 1),
                                [linear[:, starts[n]:starts[n + 1]] for n in range(len(shape) - 1)])
    pairs = _pair_polynomial(xr, dr)
    if weights is None:
        p_weights = None
        grams = np.add.reduceat(pairs, starts[:-1], axis=1)
        model_sq = grams[:, 0]
        for n in range(1, len(shape)):
            model_sq = _convolve(model_sq[:, :, None] * grams[:, n, None, :])
        model_sq = model_sq.sum(axis=0)
    else:
        last_pairs = pairs[:, last].transpose(1, 2, 0).reshape(shape[-1], -1)
        p_weights = _real_product(weights.reshape(-1, shape[-1]), last_pairs)
        model_sq = _leading_polynomial(_by_column(p_weights, 2),
                                       [pairs[:, starts[n]:starts[n + 1]] for n in range(len(shape) - 1)])
    coefficients = model_sq.real
    coefficients[:inner.size] -= 2.0 * inner.real
    coefficients /= norm ** 2
    coefficients[0] += 1.0
    return coefficients, p_values, p_weights


def _line_search(tvals, weights, norm, x, x_prev, rank):
    """Exact line search from the sweep's point x along d = x - x_prev, in
    place: x becomes x + nu d for the real nu > 0 that minimizes the
    observed squared residual, read off _line_search_polynomial, when that
    beats nu = 0 (x_prev + mu d for mu = 1 + nu >= 1, in the terms of Rajih,
    Comon & Harshman, SIAM J. Matrix Anal. Appl. 2008). Returns the squared
    relative residual at the point left in x and the next sweep's last-mode
    products there."""
    d = x - x_prev
    coefficients, p_values, p_weights = _line_search_polynomial(tvals, weights, norm, x, d, rank)
    nu, rel_sq = 0.0, coefficients[0]
    # the top coefficient, the observed squared norm of the model of the
    # D_n, is > 0 unless that model vanishes on the observed entries; then
    # the polynomial grows without bound, and its minimizer over nu >= 0 is
    # 0 or a real root of its derivative, an eigenvalue of the companion
    # matrix. The real parts of the complex roots are candidates too,
    # which cannot evaluate below that minimizer.
    derivative = coefficients[1:] * np.arange(1, coefficients.size)
    if np.isfinite(coefficients).all() and derivative[-1] > 0.0:
        companion = np.diag(np.ones(derivative.size - 2), -1)
        companion[:, -1] = -derivative[:-1] / derivative[-1]
        roots = np.linalg.eigvals(companion).real
        roots = roots[roots > 0.0]
        values = (roots[:, None] ** np.arange(coefficients.size)) @ coefficients
        if values.size and values.min() < rel_sq:
            nu, rel_sq = roots[values.argmin()], values.min()
    x += nu * d
    p_values = p_values[:, :rank] + nu * p_values[:, rank:]
    if p_weights is None:
        return rel_sq, p_values
    return rel_sq, (p_values, nu ** np.arange(3) @ p_weights.reshape(-1, 3, rank * rank))


def _residual(tvals, mask, model):
    """The reconstruction model minus the data, zero where unobserved."""
    r = model - tvals
    return r if mask is None else np.where(mask, r, 0.0)


def _relative_residual(tvals, mask, norm, model):
    return float(np.linalg.norm(_residual(tvals, mask, model).ravel())) / norm


def _als_iterate(tvals, mask, norm, x, opts, n_sweeps):
    """Run up to n_sweeps ALS sweeps on the factor views of x, in place;
    returns (trace, converged, exact), exact telling whether the last trace
    entry is the computed residual of the factors left in x.

    A sweep reads its fit off its last mode's normal equations
    u_k a_k = b_k, row k of U_{N-1} (a dense sweep has one a for every
    row, the Hadamard product of the conjugated Gramians): the squared
    residual is
    ||T||^2 - 2 Re<T, M> + ||M||^2 with <T, M> = vdot(U_{N-1}, b) and
    ||M||^2 = sum_k u_k a_k u_k^H, over the observed entries of a masked
    tensor. Its three terms are of size ||T||^2, and a sum of n terms
    rounds with an error that grows like sqrt(n) eps (Higham & Mary,
    SIAM J. Sci. Comput. 2019), n the entry count. That error in rel^2 is
    an error of about sqrt(n) eps / (2 rel) in the relative residual rel,
    so the difference of two entries that the stall test reads is off by
    up to sqrt(n) eps / rel. Below rel = 2 sqrt(n) eps / REL_OBJECTIVE_TOL,
    where that could reach half the tolerance, the sweep computes the
    residual instead. (On a 32x32x64 rank-6 tensor the error in rel^2
    measured at most 15 eps, against sqrt(n) = 256.) A stall is only
    decided on a computed residual: when a fit read off the normal
    equations would end the loop, it is replaced by the computed one and
    the test is made again, so a converged trace ends on the exact
    residual.

    From sweep LINE_SEARCH_FROM on, a sweep ends with _line_search along
    its own step, which reads the fit off its polynomial under the same
    rules, and hands the next sweep its last-mode products p, so that sweep
    makes no pass of its own over the tensor or the mask for them. The
    rebalance scales column r of the last factor by s_r, so p's columns
    follow: s_r for the values and s_r s_s for pair (r, s) of the mask's.
    """
    shape, rank = tvals.shape, opts.rank
    factors = _factor_views(x, shape, rank)
    weights = None if mask is None else mask.astype(np.float64)
    exact_below = 2.0 * math.sqrt(tvals.size) * np.finfo(np.float64).eps / REL_OBJECTIVE_TOL
    p = None
    trace = []
    exact = False
    for sweep in range(n_sweeps):
        x_prev = x.copy() if sweep >= LINE_SEARCH_FROM else None
        b, a = _als_sweep_dense(tvals, factors, p) if mask is None else _als_sweep_masked(tvals, weights, factors, p)
        if x_prev is not None:
            rel_sq, p = _line_search(tvals, weights, norm, x, x_prev, rank)
        else:
            u = factors[-1]
            model_sq = np.vdot(u, (u[:, None, :] @ a)[:, 0, :]).real
            rel_sq = 1.0 + (model_sq - 2.0 * np.vdot(u, b).real) / norm ** 2
        rel = math.sqrt(max(rel_sq, 0.0))
        scale = _rebalance(x, shape, rank)[-1]
        if p is not None:
            # the last-mode products follow the last factor's column scales
            p = p * scale if mask is None else (p[0] * scale, p[1] * np.outer(scale, scale).ravel())
        # both comparisons are false for the nan of a non-finite fit
        exact = not rel >= exact_below or (len(trace) > 0 and trace[-1] - rel < REL_OBJECTIVE_TOL)
        if exact:
            rel = _relative_residual(tvals, mask, norm, core.reconstruct(factors))
        trace.append(rel)
        if len(trace) >= 2 and trace[-2] - trace[-1] < REL_OBJECTIVE_TOL:
            return trace, True, exact
        if not math.isfinite(rel):
            break
    return trace, False, exact


def cpd_als(t, opts):
    """Alternating least squares CPD.

    Per sweep and mode, solves the linear least-squares update
    U_n <- mttkrp(t, conj(U), n) @ pinv(conj(W_n)) with W_n the Hadamard
    product of the other modes' Gramians. Missing entries are excluded via
    per-row masked normal equations, which take their right-hand sides from
    the same mttkrp and their R x R matrices from one mttkrp of the mask
    against the columns U_m[:, r] * conj(U_m[:, s]), the mask taken as
    float64 in real products. Each mode's R x R systems are solved at once
    by _hermitian_solve: a batched Cholesky factorization checks that they
    are positive definite and a batched LU solve takes them; a stack that
    fails the check (an unobserved row, rank overshoot) takes the Hermitian
    pseudo-inverse from eigh, cut at PINV_RCOND.

    The last factor changes only at the end of a sweep, so each sweep
    contracts the tensor (and the mask, for the normal matrices) with it
    once, and every other mode's mttkrp is a rank-wise reduction of that
    product (core._last_mode_product, core._leading_mttkrp): two passes
    over the tensor per mttkrp kind instead of N. A sweep reads its fit
    off its last mode's normal equations, with no reconstruct (see
    _als_iterate). From sweep LINE_SEARCH_FROM on, it ends with an exact
    line search along its step (Rajih, Comon & Harshman, SIAM J. Matrix
    Anal. Appl. 2008): the observed squared residual along the line is a
    polynomial of degree 2N, built from the last-mode products the next
    sweep needs anyway, and its minimizer beyond the sweep's point is taken
    when it is lower (see _line_search). No step raises the objective. A
    stall ends the solve only if it holds for the sweep's computed
    residual, and the last trace entry is the computed residual of the
    returned model.
    """
    tvals, mask, norm = _observed(t)
    x = _start(tvals, opts, norm)
    trace, converged, exact = _als_iterate(tvals, mask, norm, x, opts, opts.max_iterations)
    if not exact:
        trace[-1] = _relative_residual(tvals, mask, norm, core.reconstruct(_factor_views(x, tvals.shape, opts.rank)))
    return _finish(x, tvals.shape, opts.rank, trace, converged)


# ---------------------------------------------------------------------------
# Gauss-Newton with Levenberg-Marquardt damping
#
# The residual is holomorphic in the factors, so the Gauss-Newton matrix
# J^H J is complex-linear on the flat parameter vector, and Re(vdot(a, b))
# is the inner product of the real parameters (Re x, Im x). The Hessian of
# f adds to it the residual term v -> conj(K v), K complex symmetric (see
# _newton_matrices): real-linear only, but self-adjoint for that inner
# product, so the same CG solves with it.

# Largest parameter count sum(I_n * R) for which the dense operator is the
# explicit Hermitian J^H J: its build and apply grow with the square of the
# parameter count, the structured form's with sum(I_n) * R^2 plus a fixed
# per-call overhead. Measured on 0 dB three-source scenes (rank 3) on an
# Intel Xeon core with single-threaded OpenBLAS and numpy 2.4, the two cost
# the same per Gauss-Newton iteration between 150 and 190 unknowns; the
# explicit form is 1.4x cheaper on the 105-unknown demo scene and the
# structured one 1.3x cheaper at 240 unknowns. That crossover was timed
# with CG solved to 1e-2 ||g|| and has not been re-timed at CG_RTOL: fewer
# applies per solve leave the explicit form's build a larger share of its
# cost. The masked operator switches
# from its explicit form to its tangent form at the same count: the tangent
# form's memory and matvec grow with the masked tensor, never with the
# square of the unknowns, which a long mode makes large. Up to this count,
# dense or masked, the step is on the damped Newton model, J^H J + mu I
# and K assembled by _newton_matrices; above it, on the damped Gauss-Newton
# model. Either way one CG solve per iteration, which keeps its iterate
# where it meets non-positive curvature. At 0 dB the relative residual is
# near 0.7, so that term is large and Gauss-Newton alone converges only
# linearly.
EXPLICIT_GN_MAX_PARAMS = 160


def cpd_gradient(t, factors):
    """Gradient blocks of f = 0.5 * ||observed(reconstruct(U) - t)||^2.

    Block n is d f / d conj(U_n); stacking (Re, Im) of these blocks gives
    the gradient with respect to the real parameter vector.
    """
    tvals, mask, _ = _observed(t)
    factors = [np.asarray(f, dtype=np.complex128) for f in core._factor_list(factors)]
    r = _residual(tvals, mask, core.reconstruct(factors))
    g = _mttkrps(r, [np.conj(f) for f in factors])
    return _factor_views(g, tvals.shape, factors[0].shape[1])


def _gramian_products(factors, pairs=True):
    """Hadamard products of the Gramians: w[n] over all modes but n, shape
    (N, R, R); w_pair[n, m] over all modes but n and m, shape (N, N, R, R),
    zero where n == m, or None without pairs."""
    grams = _gramians(factors)
    n_modes = len(grams)
    w = np.stack([_hadamard_except(grams, n) for n in range(n_modes)])
    if not pairs:
        return w, None
    w_pair = np.zeros((n_modes,) + w.shape, dtype=np.complex128)
    for n in range(n_modes):
        for m in range(n + 1, n_modes):
            w_pair[n, m] = w_pair[m, n] = _hadamard_except(grams, n, m)
    return w, w_pair


def _newton_matrices(factors, r, mask, mu, shifted, w_pair):
    """(J^H J + mu I, K), the damped Newton model
    v -> (J^H J + mu I) v + conj(K v) at residual r assembled, dense with
    mask None (shifted = w + mu I, w_pair from _gramian_products) or masked
    (shifted and w_pair unread).

    Row (n, i, s) and column (m, j, t) index entry (i, s) of factor n and
    entry (j, t) of factor m. One pass over the mode pairs n < m writes
    block (n, m) of both matrices and its mirror: the conjugate transpose
    in J^H J, the transpose in the complex-symmetric K.
    - J^H J: entry (i, s, j, t) is U_n[i, t] * conj(U_m[j, s]) * W_nm, the
      weight w_pair[n, m][s, t] dense, or masked W_nm[i, j, t, s]: the mask
      contracted over every mode but n and m against the Khatri-Rao product
      of those modes' pair columns, one real GEMM of the float64 mask.
    - K, with Re(p^T K p) / 2 = Re(r^H Q(p)), Q the part of the model
      quadratic in the step: entry (i, s, j, t) is delta_st times conj(r)
      contracted against U_k[:, s] over every mode k but n and m, one GEMM
      of conj(r) moved to (I_n * I_m, rest) against the Khatri-Rao product
      of the other factors. Block (n, n) is zero, the model being linear in
      each factor.
    Row i of block (n, n) of J^H J is the (s, t) matrix shifted[n] dense.
    Masked, it is the masked ALS normal matrix a_i of mode n, transposed,
    plus mu I, summed out of a weight that pairs n with another mode m:
    a_i = sum_j W_nm[i, j] * pairs_m[j]; at order 1, a_i is mask[i].
    """
    n_modes = len(factors)
    extents = [f.shape[0] for f in factors]
    rank = factors[0].shape[1]
    n_rows = sum(extents)
    starts = np.cumsum([0] + extents)
    conj_r = np.conj(r)
    jhj = np.zeros((n_rows, rank, n_rows, rank), dtype=np.complex128)
    k = np.zeros((n_rows, rank, n_rows, rank), dtype=np.complex128)
    rank_diagonal = np.einsum("isjs->ijs", k)  # a writable view
    if mask is not None:
        weights = mask.astype(np.float64)
        pairs = [_pair_columns(f) for f in factors]
        diag = [] if n_modes > 1 else [np.repeat(weights[:, None], rank * rank, axis=1)]
    for n, fn in enumerate(factors):
        rows_n = slice(starts[n], starts[n + 1])
        for m in range(n + 1, n_modes):
            rows_m = slice(starts[m], starts[m + 1])
            if mask is None:
                off = w_pair[n, m][:, None, :]
            else:
                others = core._kr([pairs[q] for q in range(n_modes) if q not in (n, m)], rank * rank)
                w_nm = _real_product(np.moveaxis(weights, (n, m), (0, 1)).reshape(extents[n] * extents[m], -1),
                                     others).reshape(extents[n], extents[m], rank * rank)
                # mode 0 sums its diagonal out of its pair with mode 1,
                # every other mode out of its pair with mode 0
                if n == 0:
                    if m == 1:
                        diag.append((w_nm * pairs[1][None, :, :]).sum(axis=1))
                    diag.append((w_nm * pairs[0][:, None, :]).sum(axis=0))
                # entry (i, j, t, s) of W_nm sums U_q[:, t] * conj(U_q[:, s])
                off = w_nm.reshape(extents[n], extents[m], rank, rank).transpose(0, 3, 1, 2)
            block = (fn[:, None, None, :] * off) * np.conj(factors[m]).T[:, :, None]
            jhj[rows_n, :, rows_m] = block
            jhj[rows_m, :, rows_n] = block.conj().transpose(2, 3, 0, 1)
            others = core._kr([f for q, f in enumerate(factors) if q not in (n, m)], rank)
            k_nm = (np.moveaxis(conj_r, (n, m), (0, 1)).reshape(extents[n] * extents[m], -1)
                    @ others).reshape(extents[n], extents[m], rank)
            rank_diagonal[rows_n, rows_m] = k_nm
            rank_diagonal[rows_m, rows_n] = k_nm.transpose(1, 0, 2)
    row = np.arange(n_rows)
    if mask is None:
        jhj[row, :, row, :] = np.repeat(shifted, extents, axis=0)
    else:
        jhj[row, :, row, :] = np.concatenate(diag).reshape(-1, rank, rank).transpose(0, 2, 1) + mu * np.eye(rank)
    return jhj.reshape(n_rows * rank, n_rows * rank), k.reshape(n_rows * rank, n_rows * rank)


def _structured_gn_operator(factors, w, w_pair):
    """v -> (J^H J + mu I) v, w arriving shifted by mu I, never forming it:
    block n of the result is
    delta_n conj(W_n) + U_n sum_{m != n} (conj(W_nm) * (U_m^H delta_m)^T)."""
    shape = tuple(f.shape[0] for f in factors)
    rank = factors[0].shape[1]
    factors_h = [f.conj().T for f in factors]
    diag = np.conj(w)
    off = np.conj(w_pair)

    def matvec(v):
        delta = _factor_views(v, shape, rank)
        cross_t = np.stack([(fh @ d).T for fh, d in zip(factors_h, delta)])
        out = np.empty_like(v)
        for n, block in enumerate(_factor_views(out, shape, rank)):
            block[...] = delta[n] @ diag[n] + factors[n] @ (off[n] * cross_t).sum(axis=0)
        return out

    return matvec


def _masked_gn_operator(factors, mask, mu):
    """v -> (J^H J + mu I) v over the observed entries, in tangent form: the
    directional derivative of the model, masked, then mttkrp'd back.

    The tangent sum_m [[U with U_m <- delta_m]] is one reconstruct of rank
    N*R: factor n is [U_n ... delta_n ... U_n], delta_n in column block n.
    """
    shape = tuple(f.shape[0] for f in factors)
    rank = factors[0].shape[1]
    n_modes = len(factors)
    conj_factors = [np.conj(f) for f in factors]
    wide = [np.tile(f, (1, n_modes)) for f in factors]
    blocks = [w[:, n * rank:(n + 1) * rank] for n, w in enumerate(wide)]

    def matvec(v):
        for block, d in zip(blocks, _factor_views(v, shape, rank)):
            block[...] = d
        tangent = np.where(mask, core.reconstruct(wide), 0.0)
        return _mttkrps(tangent, conj_factors) + mu * v

    return matvec


def _block_jacobi(w, shape):
    """Preconditioner: block n of the result is r_n pinv(conj(W_n)), applied
    as one batched product over the rows of all factors."""
    pinvs = _hermitian_pinv(np.conj(w))
    row_pinvs = np.repeat(pinvs, shape, axis=0)
    rank = row_pinvs.shape[-1]

    def prec(v):
        return (v.reshape(-1, 1, rank) @ row_pinvs).ravel()

    return prec


def _pcg(matvec, b, prec, max_iter, rtol):
    """(x, r) with r = b - A x, A applied by matvec, at every exit; on
    non-positive curvature p^H A p, x is the iterate reached before it."""
    x = np.zeros_like(b)
    r = b.copy()
    b_norm2 = np.vdot(b, b).real
    if b_norm2 == 0.0:
        return x, r
    stop = (rtol * rtol) * b_norm2
    p = prec(r)
    rz = np.vdot(r, p).real
    for _ in range(max_iter):
        ap = matvec(p)
        pap = np.vdot(p, ap).real
        if pap <= 0.0:
            break
        alpha = rz / pap
        x += alpha * p
        r -= alpha * ap
        if np.vdot(r, r).real <= stop:
            break
        z = prec(r)
        rz_next = np.vdot(r, z).real
        if rz_next <= 0.0:
            break
        p = z + (rz_next / rz) * p
        rz = rz_next
    return x, r


def cpd_nls(t, opts):
    """Gauss-Newton CPD with Levenberg-Marquardt damping on the one flat
    parameter vector that holds every factor, as in all solvers here; up to
    EXPLICIT_GN_MAX_PARAMS unknowns the steps are damped Newton steps.

    The objective is half the squared Frobenius residual over observed
    entries, and for a masked tensor the Gramian operator excludes the
    missing entries. The operator is built damped once per outer
    iteration, from w shifted by mu I, whose block Jacobi inverse
    preconditions CG. Up to EXPLICIT_GN_MAX_PARAMS unknowns,
    _newton_matrices assembles the Hermitian J^H J + mu I and the residual
    term K of the masked residual the solver holds in one pass over the
    mode pairs, dense or masked; the masked J^H J is the dense one with
    row-dependent weights. Above the cutoff the operator is J^H J + mu I in
    structured form, or for a masked tensor in tangent form.

    Each step is one CG solve of (H + mu I) p = -g. Up to the cutoff H is
    the Hessian J^H J + conj(K .): a Newton step. Above the cutoff H is
    J^H J: a Gauss-Newton step. The solve stops once its residual is at
    most CG_RTOL ||g||, at non-positive curvature, or after CG_MAX_ITER
    applies, and the step is the iterate it reached; at a curvature exit
    that is Steihaug's exit, and an exit on the first direction gives a
    zero step, which is rejected while mu rises.
    The predicted decrease of the undamped model the step was solved on,
    Newton or Gauss-Newton, is read off the CG residual. mu starts at 0, so
    the solver takes the plain Newton or Gauss-Newton point until a step
    does poorly. A step whose gain ratio rho (actual over predicted
    decrease) is below 0.25 raises mu to max(4 mu, MU_FLOOR s), s the
    largest diagonal entry of w; any other step scales mu by
    max(1/3, 1 - (2 rho - 1)^3) (Nielsen's rule). mu above MU_COLLAPSE s is
    reported as non-convergence, never as an exception.

    A stall of the relative residual by less than REL_OBJECTIVE_TOL counts
    as converged only with two witnesses: the gradient certificate, and a
    step whose predicted decrease on the undamped model is at most
    REL_OBJECTIVE_TOL times the objective in magnitude; a swamp stall, where
    the model still promises a large decrease, fails the second. Both
    gradient tests use one data scale, so no stop depends on the data's unit.
    """
    tvals, mask, norm = _observed(t)
    shape, rank, n_modes = tvals.shape, opts.rank, tvals.ndim
    # the gradient scale: ||T|| times the RMS observed entry to the power
    # (N-1)/N. Under T -> sT the gradient (the residual times N-1 rebalanced
    # factors) and g_scale both scale as s^((2N-1)/N).
    n_observed = tvals.size if mask is None else np.count_nonzero(mask)
    g_scale = norm * (norm / math.sqrt(n_observed)) ** ((n_modes - 1) / n_modes)
    x = _start(tvals, opts, norm)
    factors = _factor_views(x, shape, rank)
    explicit = x.size <= EXPLICIT_GN_MAX_PARAMS

    r = _residual(tvals, mask, core.reconstruct(factors))
    f_val = 0.5 * float(np.vdot(r, r).real)
    rel = math.sqrt(2.0 * f_val) / norm

    mu = 0.0
    trace = []
    converged = False
    conj_factors = _factor_views(np.conj(x), shape, rank)

    for _ in range(opts.max_iterations):
        g = _mttkrps(r, conj_factors)
        g_norm = np.linalg.norm(g)
        # an exact fit: on noiseless data the predicted-decrease witness is
        # rounding noise near the solution, and without this exit a
        # noiseless solve crawls on (cold Gauss-Newton on seeds 0-11 of the
        # 6x6x12 two-source swamp scene takes 579 iterations, not 311)
        if g_norm <= 1e-13 * g_scale:
            trace.append(rel)
            converged = True
            break

        # the preconditioner reads the dense w whatever the operator
        w, w_pair = _gramian_products(factors, pairs=mask is None)
        shifted = w + mu * np.eye(rank)
        if explicit:
            # the damped Newton operator: J^H J + mu I and the residual term K
            jhj, k = _newton_matrices(factors, r, mask, mu, shifted, w_pair)
            matvec = lambda v: jhj.dot(v) + np.conj(k.dot(v))  # noqa: E731
        elif mask is not None:
            matvec = _masked_gn_operator(factors, mask, mu)
        else:
            matvec = _structured_gn_operator(factors, shifted, w_pair)
        step, cg_residual = _pcg(matvec, -g, _block_jacobi(shifted, shape), CG_MAX_ITER, CG_RTOL)
        step_norm = np.linalg.norm(step)
        # the undamped model's decrease -(g^H p + p^H H p / 2), H p = -g - mu p - cg_residual,
        # H the Hessian of the model the step was solved on (Newton or Gauss-Newton).
        # Second witness: the step promises almost no further decrease. A
        # negative computed decrease means the inner solve failed, which
        # certifies nothing, hence the absolute value; nor does the zero step
        # of a curvature exit on CG's first direction.
        predicted = 0.5 * (np.vdot(cg_residual, step).real + mu * step_norm ** 2 - np.vdot(g, step).real)
        certified = (step_norm > 0.0 and g_norm <= GRAD_CERTIFICATE * g_scale
                     and abs(predicted) <= REL_OBJECTIVE_TOL * f_val)

        trial = x + step
        r_trial = _residual(tvals, mask, core.reconstruct(_factor_views(trial, shape, rank)))
        f_trial = 0.5 * float(np.vdot(r_trial, r_trial).real)
        actual = f_val - f_trial

        rho = actual / predicted if predicted > 0.0 else -math.inf
        accepted = rho > STEP_ACCEPT
        prev_rel = rel
        if accepted:
            x[...] = trial
            _rebalance(x, shape, rank)
            conj_factors = _factor_views(np.conj(x), shape, rank)
            r = r_trial
            f_val = f_trial
            rel = math.sqrt(2.0 * f_val) / norm
        trace.append(rel)

        scale = w.diagonal(axis1=1, axis2=2).real.max()
        if rho < 0.25:
            mu = max(4.0 * mu, MU_FLOOR * scale)
        else:
            mu *= max(1.0 / 3.0, 1.0 - (2.0 * rho - 1.0) ** 3)
        if mu > MU_COLLAPSE * scale:
            break

        # At a noisy minimum the quadratic model is rounding noise and trial
        # steps get rejected, so the stall test must not require acceptance;
        # the two witnesses are what make stopping here sound.
        if certified and prev_rel - rel < REL_OBJECTIVE_TOL:
            converged = True
            break

    return _finish(x, shape, rank, trace, converged)


def cpd(t, opts):
    """Dispatch on opts.algorithm; the warmstart variant runs
    WARMSTART_SWEEPS ALS sweeps from the same start as the other solvers
    (see _start: algebraic for an order-3 tensor of rank at most I_0 and
    I_1, masked or not, otherwise seeded and scaled to the data) and hands
    the rebalanced result to Gauss-Newton as an explicit init."""
    if opts.algorithm == "als":
        return cpd_als(t, opts)
    if opts.algorithm == "gauss_newton":
        return cpd_nls(t, opts)

    tvals, mask, norm = _observed(t)
    x = _start(tvals, opts, norm)
    _als_iterate(tvals, mask, norm, x, opts, WARMSTART_SWEEPS)
    warm = CpdModel(_factor_views(x, tvals.shape, opts.rank))
    return cpd_nls(t, dataclasses.replace(opts, algorithm="gauss_newton", init=warm))
