"""The benchmark's workloads, driven through manifold_approx's public API.

A workload object is built from the seed (its construction is the set-up that
``setup_s`` times) and then runs whole rounds; every round repeats the same
operations on the same seeded inputs.  An operation is one ``build`` +
``validate`` of one degree, one evaluation, or one save/load round trip; it
fails when it raises or when its own check fails.  Each validation draw that
``validate`` drops as a chart violation is one more failed operation.

Library functions are looked up on the package at call time (``ma.build``),
so a traced run sees the wrapped versions.
"""

from __future__ import annotations

import contextlib
import math
import time

import numpy as np

import manifold_approx as ma
from manifold_approx.experiments import krylov_grassmann_map, segre_rank1_map

import checks

#: offset of validate's seed from the workload seed, as in the scenarios
VALIDATION_OFFSET = 1_000_003
#: sub-stream tags for numpy.random.default_rng([seed, tag])
STREAM, BATCH, NODES, ROUNDTRIP = 1, 2, 3, 4
#: points per approximant on which a reload must evaluate bit for bit
ROUNDTRIP_POINTS = 20


class Run:
    """Operation counts, check results and raw timings of one run.

    With a tracer, library calls made by the checks are left out of the trace.
    """

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0
        self.correct = True
        self.problems = []
        self.rounds = 0
        self.certify_s = []
        self.build_s = []
        self.save_load_s = []
        self.evals_per_s = []
        self.eval_ns = []

    def op(self, problem, count=1):
        """Count ``count`` operations; all fail when ``problem`` is set."""
        self.attempted += count
        if problem:
            self.failed += count
            self.problems.append(problem)

    def check(self, problem):
        if problem:
            self.correct = False
            self.problems.append(problem)

    def unrecorded(self):
        return self.tracer.paused() if self.tracer else contextlib.nullcontext()


def _serve(run, approximants, points, warmup, geometry):
    """Closed loop of single-point evaluations, alternating over the approximants;
    latencies after the first ``warmup`` calls are recorded."""
    clock = time.perf_counter_ns
    for i, x in enumerate(points):
        approximant = approximants[i % len(approximants)]
        start = clock()
        try:
            y = approximant(x)
        except Exception as exc:
            run.op(f"evaluation at {x} raised {exc!r}")
            continue
        elapsed = clock() - start
        if i >= warmup:
            run.eval_ns.append(elapsed)
        run.op(checks.output_problem(geometry, y))


def _batch(run, approximants, points, geometry):
    """Throughput of ``points`` pushed through evaluation as one timed block."""
    k = len(approximants)
    outputs = []
    start = time.perf_counter()
    try:
        for i, x in enumerate(points):
            outputs.append(approximants[i % k](x))
    except Exception as exc:
        run.op(f"batch evaluation raised {exc!r}", count=len(points))
        return
    run.evals_per_s.append(len(points) / (time.perf_counter() - start))
    for y in outputs:
        run.op(checks.output_problem(geometry, y))


def _round_trip(run, approximants, directory, points):
    """Save and reload every approximant; returns the loaded ones, or None."""
    paths = [directory / f"approximant-{i}.json" for i in range(len(approximants))]
    start = time.perf_counter()
    try:
        loaded = []
        for approximant, path in zip(approximants, paths):
            ma.save_approximant(approximant, path)
            loaded.append(ma.load_approximant(path))
    except Exception as exc:
        run.op(f"save/load raised {exc!r}", count=len(approximants))
        return None
    run.save_load_s.append(time.perf_counter() - start)
    for saved, restored in zip(approximants, loaded):
        with run.unrecorded():
            run.op(checks.roundtrip_problem(saved, restored, points))
    return loaded


class Workload:
    """Seeded inputs shared by the workloads; subclasses define ``make`` and
    ``run_round``."""

    def __init__(self, seed, directory, wrap=None):
        self.seed = int(seed)
        self.validation_seed = self.seed + VALIDATION_OFFSET
        self.directory = directory
        self.manifold, self.geometry, target = self.make()
        self.f = target if wrap is None else wrap(target)
        self.draws = checks.uniform_draws(self.domain, self.validation_count, self.validation_seed)
        self.stream = checks.uniform_draws(self.domain, self.warmup + self.stream_length,
                                           [self.seed, STREAM])
        self.batch_points = checks.uniform_draws(self.domain, self.batch_size, [self.seed, BATCH])
        self.roundtrip_points = checks.uniform_draws(self.domain, ROUNDTRIP_POINTS,
                                                     [self.seed, ROUNDTRIP])

    def validate(self, run, label, approximant, curvature=None, recheck=True):
        """Timed ``validate``; returns (report or None, seconds).  Each dropped
        draw is a failed operation, and so is the build + validate whose
        certificate does not hold.  With ``recheck`` the reported error is
        recomputed at the regenerated draws."""
        start = time.perf_counter()
        try:
            report = ma.validate(self.f, approximant, self.validation_count,
                                 seed=self.validation_seed, curvature=curvature)
        except Exception as exc:
            run.op(f"{label}: build + validate raised {exc!r}")
            return None, time.perf_counter() - start
        elapsed = time.perf_counter() - start
        if report.chart_failures:
            run.op(f"{label}: {report.chart_failures} draws dropped as chart violations",
                   count=report.chart_failures)
        problem = checks.certificate_problem(report)
        run.op(problem and f"{label}: {problem}")
        if recheck:
            with run.unrecorded():
                run.check(self.distance_problem(approximant, report))
        return report, elapsed

    def distance_problem(self, approximant, report):
        return checks.agreement_problem(self.geometry, self.f, approximant, self.draws,
                                        report.manifold_error)


class CertifySweep(Workload):
    """Degree sweep of build + validate, then serving of the top degree."""

    validation_count = 1000
    stream_length = 2000
    warmup = 100
    batch_size = 2000
    node_checks = 200

    def curvature(self, approximant):
        return None

    def run_round(self, run):
        certify = build = 0.0
        errors = {}
        top = None
        for degree in self.degrees:
            plan = ma.SamplingPlan(domain=self.domain, counts=(degree + 1,) * len(self.domain),
                                   rng_seed=self.seed)
            start = time.perf_counter()
            try:
                approximant, _ = ma.build(self.f, self.manifold, plan)
            except Exception as exc:
                certify += time.perf_counter() - start
                run.op(f"degree {degree}: build + validate raised {exc!r}")
                continue
            elapsed = time.perf_counter() - start
            build += elapsed
            certify += elapsed
            report, elapsed = self.validate(run, f"degree {degree}", approximant,
                                            self.curvature(approximant),
                                            recheck=degree in self.rechecked_degrees)
            certify += elapsed
            if report is not None:
                errors[degree] = report.manifold_error
                top = approximant
        run.certify_s.append(certify)
        run.build_s.append(build)
        for problem in self.convergence_problems(errors):
            run.check(problem)
        if top is None:
            return
        nodes = checks.grid_nodes(self.domain, top.plan.counts)
        pick = np.random.default_rng([self.seed, NODES]).permutation(len(nodes))
        with run.unrecorded():
            run.check(checks.nodes_problem(self.geometry, self.f, top,
                                           nodes[np.sort(pick[:self.node_checks])]))
        _serve(run, [top], self.stream, self.warmup, self.geometry)
        _batch(run, [top], self.batch_points, self.geometry)
        _round_trip(run, [top], self.directory, self.roundtrip_points)


class GrassmannCertify(CertifySweep):
    """Jacobi-preconditioned Krylov subspaces in Gr(200, 5) over [1, 2]^2,
    exp/log, full Tucker ranks, degrees 2..12."""

    name = "grassmann-certify"
    domain = ((1.0, 2.0), (1.0, 2.0))
    degrees = range(2, 13)
    rechecked_degrees = (2, 6, 12)

    def make(self):
        return (ma.Grassmannian(200, 5), checks.Grassmann(200, 5),
                krylov_grassmann_map(200, 5, "jacobi"))

    def convergence_problems(self, errors):
        return [checks.decay_problem(errors, 10, 2, 1e-5)]


class SegreCertify(CertifySweep):
    """Seeded rotating-scaling rank-1 family on Segre(100, 100) over [-1, 1]^3,
    degrees 2..13, curvature constant from the image's lambda range."""

    name = "segre-certify"
    domain = ((-1.0, 1.0), (-1.0, 1.0), (-1.0, 1.0))
    degrees = range(2, 14)
    rechecked_degrees = (2, 8, 13)

    def make(self):
        return (ma.Segre(100, 100), checks.Segre(100, 100),
                segre_rank1_map(100, np.random.default_rng(self.seed)))

    def curvature(self, approximant):
        # lambda = exp(x1) >= exp(-1) over the image, as scenario_segre takes it
        reach = float(approximant.point[0]) - math.exp(self.domain[0][0])
        return self.manifold.curvature_lower_bound(reach, approximant.point)

    def distance_problem(self, approximant, report):
        return checks.chordal_problem(self.geometry, self.f, approximant, self.draws,
                                      report.manifold_error)

    def convergence_problems(self, errors):
        return [checks.plateau_problem(errors, (12, 13), 1e-12)]


class RetractionServe(Workload):
    """QR and polar approximants on Gr(200, 5), degree 10, ranks (5, 5, 5):
    built, saved, loaded, briefly validated, then served alternately."""

    name = "retraction-serve"
    domain = ((1.0, 2.0), (1.0, 2.0))
    variants = ("qr", "polar")
    degree = 10
    ranks = (5, 5, 5)
    validation_count = 200
    stream_length = 10000
    warmup = 200
    batch_size = 4000
    served_every = 25

    def make(self):
        return (ma.Grassmannian(200, 5), checks.Grassmann(200, 5),
                krylov_grassmann_map(200, 5, "jacobi"))

    def run_round(self, run):
        plan = ma.SamplingPlan(domain=self.domain, counts=(self.degree + 1,) * 2,
                               rng_seed=self.seed)
        certify = build = 0.0
        built = []
        for variant in self.variants:
            start = time.perf_counter()
            try:
                approximant, _ = ma.build(self.f, self.manifold, plan, ranks=self.ranks,
                                          variant=variant)
            except Exception as exc:
                run.op(f"{variant}: build + validate raised {exc!r}")
                return
            elapsed = time.perf_counter() - start
            certify += elapsed
            build += elapsed
            built.append(approximant)
        loaded = _round_trip(run, built, self.directory, self.roundtrip_points)
        if loaded is None:
            return
        bounds = []
        for variant, approximant in zip(self.variants, loaded):
            report, elapsed = self.validate(run, variant, approximant)
            if report is None:
                return
            certify += elapsed
            bounds.append(report.bound)
        run.certify_s.append(certify)
        run.build_s.append(build)
        _serve(run, loaded, self.stream, self.warmup, self.geometry)
        _batch(run, loaded, self.batch_points, self.geometry)
        for i, (approximant, bound) in enumerate(zip(loaded, bounds)):
            points = self.stream[i::len(loaded)][::self.served_every]
            with run.unrecorded():
                run.check(checks.served_problem(self.geometry, self.f, approximant, points,
                                                bound))


WORKLOADS = {w.name: w for w in (GrassmannCertify, SegreCertify, RetractionServe)}
