"""Correctness checks computed apart from manifold_approx.

Every check recomputes what it compares with numpy/scipy from the inputs and
the outputs alone (no ``check_point``, ``distance`` or ``log`` of the
library), or tests a property the method guarantees.  Each returns ``None``
when the check holds and a one-line description of the fault otherwise.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg

#: an output is on the manifold when its defining residual is at most this
MEMBERSHIP_TOL = 1e-10
#: slack on "measured error <= certified bound", as in the acceptance suite
BOUND_SLACK = 1e-9
#: full-rank approximants reproduce f at the grid nodes to this distance
NODE_TOL = 1e-10
#: recomputed maximum distance vs validate's manifold_error:
#: |a - b| <= AGREE_ABS + AGREE_REL * b
AGREE_ABS = 1e-15
AGREE_REL = 1e-9
#: above CHORD_FLOOR, the chordal (Frobenius) distance is at least this share
#: of the geodesic one; below it both are round-off
CHORD_SHARE = 0.9
CHORD_FLOOR = 1e-12


class Grassmann:
    """Gr(n, k) with orthonormal n x k representatives."""

    def __init__(self, n, k):
        self.n, self.k = n, k

    def residual(self, y):
        y = np.asarray(y)
        if y.shape != (self.n, self.k) or not np.all(np.isfinite(y)):
            return np.inf
        return float(np.abs(y.T @ y - np.eye(self.k)).max())

    def distance(self, a, b):
        """Geodesic distance: the 2-norm of the principal angles."""
        return float(np.linalg.norm(scipy.linalg.subspace_angles(a, b)))


class Segre:
    """Rank-1 n1 x n2 matrices stored as (lam, x1, x2), lam > 0, unit factors."""

    def __init__(self, n1, n2):
        self.n1, self.n2 = n1, n2

    def split(self, y):
        return y[0], y[1:1 + self.n1], y[1 + self.n1:]

    def residual(self, y):
        y = np.asarray(y)
        if y.shape != (1 + self.n1 + self.n2,) or not np.all(np.isfinite(y)) or not y[0] > 0.0:
            return np.inf
        _, x1, x2 = self.split(y)
        return float(max(abs(np.linalg.norm(x1) - 1.0), abs(np.linalg.norm(x2) - 1.0)))

    def distance(self, a, b):
        """Frobenius distance of the immersed matrices, a lower bound on the
        geodesic distance because the metric is the one the immersion induces."""
        lam, x1, x2 = self.split(np.asarray(a))
        mu, y1, y2 = self.split(np.asarray(b))
        return float(np.linalg.norm(lam * np.outer(x1, x2) - mu * np.outer(y1, y2)))


def uniform_draws(domain, count, seed):
    """The validation draws ``validate(..., count, seed)`` evaluates: ``count``
    uniform points of the box from ``numpy.random.default_rng(seed)``."""
    lo = np.array([d[0] for d in domain], dtype=float)
    hi = np.array([d[1] for d in domain], dtype=float)
    return np.random.default_rng(seed).uniform(lo, hi, size=(count, len(domain)))


def grid_nodes(domain, counts):
    """All first-kind Chebyshev nodes cos((2i-1) pi / 2c) of the tensor grid,
    mapped to the domain, one row per node."""
    axes = []
    for (lo, hi), count in zip(domain, counts):
        unit = np.cos((2.0 * np.arange(1, count + 1) - 1.0) * np.pi / (2.0 * count))
        axes.append(lo + (unit + 1.0) * (hi - lo) / 2.0)
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=1)


def worst_distance(geometry, f, approximant, points):
    return max(geometry.distance(f(x), approximant(x)) for x in points)


def output_problem(geometry, y):
    res = geometry.residual(y)
    if not res <= MEMBERSHIP_TOL:
        return f"output off the manifold (residual {res:.3e} > {MEMBERSHIP_TOL:.0e})"
    return None


def certificate_problem(report):
    if report.chart_failures:
        return f"{report.chart_failures} validation draws dropped as chart violations"
    if not report.manifold_error <= report.bound + BOUND_SLACK:
        return f"measured error {report.manifold_error:.3e} above bound {report.bound:.3e}"
    return None


def agreement_problem(geometry, f, approximant, draws, reported):
    """validate's maximum error against the maximum recomputed at its draws."""
    measured = worst_distance(geometry, f, approximant, draws)
    if not abs(measured - reported) <= AGREE_ABS + AGREE_REL * reported:
        return (f"recomputed maximum distance {measured:.17g} disagrees with "
                f"validate's {reported:.17g}")
    return None


def chordal_problem(geometry, f, approximant, draws, reported):
    """Segre: the chordal maximum is below validate's geodesic maximum and
    close to it (chord and arc agree to second order at small distances)."""
    chord = worst_distance(geometry, f, approximant, draws)
    if not chord <= reported * (1.0 + AGREE_REL) + AGREE_ABS:
        return f"chordal error {chord:.3e} exceeds validate's geodesic error {reported:.3e}"
    if reported > CHORD_FLOOR and not chord >= CHORD_SHARE * reported:
        return f"chordal error {chord:.3e} below {CHORD_SHARE} x validate's {reported:.3e}"
    return None


def nodes_problem(geometry, f, approximant, nodes):
    worst = worst_distance(geometry, f, approximant, nodes)
    if not worst <= NODE_TOL:
        return f"grid nodes reproduced only to {worst:.3e} (limit {NODE_TOL:.0e})"
    return None


def roundtrip_problem(saved, loaded, points):
    for x in points:
        if not np.array_equal(saved(x), loaded(x)):
            return f"loaded approximant evaluates differently from the saved one at {x}"
    return None


def decay_problem(errors, fine, coarse, ratio):
    """Exponential convergence: error(fine) <= ratio * error(coarse)."""
    if fine not in errors or coarse not in errors:
        return None
    if not errors[fine] <= ratio * errors[coarse]:
        return (f"error at degree {fine} ({errors[fine]:.3e}) above {ratio:.0e} x "
                f"error at degree {coarse} ({errors[coarse]:.3e})")
    return None


def plateau_problem(errors, degrees, level):
    """Round-off plateau: the smallest error over ``degrees`` is at most ``level``."""
    seen = [errors[d] for d in degrees if d in errors]
    if seen and not min(seen) <= level:
        return f"smallest error over degrees {list(degrees)} is {min(seen):.3e} (limit {level:.0e})"
    return None


def served_problem(geometry, f, approximant, points, bound):
    """Served values stay within the certified bound of f."""
    worst = worst_distance(geometry, f, approximant, points)
    if not worst <= bound:
        return f"served value {worst:.3e} from f, above the certificate {bound:.3e}"
    return None
