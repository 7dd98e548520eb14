"""The order-3 contractions both CPD solvers run on every iteration.

Each kernel is exactly the order-N matrix-product formula of
:mod:`cpdhr.core`: a matricization times a Khatri-Rao chain, so all
tensor orders share one arithmetic path and one rounding behaviour.
"""

from . import core

# There is no compiled backend; the constant stays because the benchmark's
# run record (perfbench/run.py) reads it.
NUMBA_ENABLED = False


# The names mttkrp3 and reconstruct3 stay: perfbench's tracer wraps them and
# reports its kernel metrics under them.
def mttkrp3(t, u0, u1, u2, mode):
    """unfold(t, mode) times the Khatri-Rao product of the other two factors."""
    return core.unfold(t, mode) @ core.kr_chain((u0, u1, u2), mode)


def reconstruct3(u0, u1, u2):
    """Sum of rank-one terms u0[:,r] o u1[:,r] o u2[:,r]."""
    shape = (u0.shape[0], u1.shape[0], u2.shape[0])
    return core.fold(u0 @ core.kr_chain((u0, u1, u2), 0).T, 0, shape)
