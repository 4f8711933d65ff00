"""The kernels read at one point or one pair of points, for the tests that
check a metric or a Birkhoff-sum identity point by point.  A point is a
one-row ``Points``."""

from mmdim.bowen import distance_blocks
from mmdim.systems import birkhoff_sums, check_genuine


def bowen_distance(system, x, y, n: int) -> float:
    """d_n(x, y), read off the distance engine."""
    for _, order, d in distance_blocks(system, x.symbols, y.symbols, n):
        if order == n:
            return float(d[0, 0])


def birkhoff_sum(system, phi, x, n: int) -> float:
    """S_n phi(x): the genuine-depth check, then column n of the kernel."""
    check_genuine(phi, x, [n])
    return float(birkhoff_sums(system, phi, x.symbols, n)[0, n])
