"""The oscillator metric of each gauge: Euclidean on the d - 2 transverse
directions in the light-cone gauge, Minkowski on all d in the covariant one."""

from dataclasses import dataclass


@dataclass(frozen=True)
class Metric:
    """Signature of the internal inner product, one +-1 per oscillator direction."""

    signs: tuple


def euclidean_metric(directions):
    return Metric((1,) * directions)


def minkowski_metric(d):
    """Metric with eta_00 = -1 and eta_kk = +1 for the spatial directions."""
    return Metric((-1,) + (1,) * (d - 1))


def gauge_metric(d, gauge):
    """The oscillator metric in ``gauge``, "lc" or "cov"; a ValueError naming d
    when d < 2, or when d < 3 in the light-cone gauge."""
    if d < 2:
        raise ValueError(f"spacetime dimension must be >= 2, got d = {d}")
    if gauge == "lc":
        if d < 3:
            raise ValueError(f"light-cone gauge needs d >= 3 (d - 2 transverse "
                             f"directions), got d = {d}")
        return euclidean_metric(d - 2)
    return minkowski_metric(d)
