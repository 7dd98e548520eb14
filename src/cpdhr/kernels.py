"""The order-3 contractions both CPD solvers run on every iteration.

Each kernel is the order-3 case of the order-N formula in :mod:`cpdhr.core`,
computed on C-order reshapes of the tensor:

- mttkrp, mode 2: view the tensor as (I_0 I_1, I_2); one transposed GEMM
  against ``kr(U_0, U_1)``.
- mttkrp, mode 0 or 1: one GEMM contracts the tensor's last mode,
  P = T x_2 U_2^T of shape (I_0 I_1, R); column r of P, viewed as
  (I_0, I_1), is then contracted with column r of the other leading factor
  by a batched product.
- reconstruct: ``(kr(U_0, U_1) @ U_2.T).reshape(shape)``.

Those reshapes are views of a C-contiguous tensor, so the kernels copy
none and re-validate no shapes; the solvers make their tensor and mask
C-contiguous once per solve. Any other layout is copied by the reshape.
"""

from . import core

# There is no compiled backend; the constant stays because the benchmark's
# run record (perfbench/run.py) reads it.
NUMBA_ENABLED = False


# The names mttkrp3 and reconstruct3 stay: perfbench's tracer wraps them and
# reports its kernel metrics under them.
def mttkrp3(t, u0, u1, u2, mode):
    """unfold(t, mode) times the Khatri-Rao product of the other two factors."""
    return core._mttkrp(t, (u0, u1, u2), mode)


def reconstruct3(u0, u1, u2):
    """Sum of rank-one terms u0[:,r] o u1[:,r] o u2[:,r]."""
    return core._reconstruct((u0, u1, u2))
