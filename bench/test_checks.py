"""The benchmark's checks reject corrupted inputs.

Run from the repository root with ``python3 -m pytest bench -q``.  Each fault
(a perturbed core entry, an output pushed off the manifold, a validation run
on the wrong seed) must fail a check that the unmodified input passes.
"""

import dataclasses
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import manifold_approx as ma  # noqa: E402
from manifold_approx.experiments import krylov_grassmann_map, segre_rank1_map  # noqa: E402

import checks  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

DOMAIN = ((1.0, 2.0), (1.0, 2.0))
N, K = 20, 3


@pytest.fixture(scope="module")
def grassmann_case():
    f = krylov_grassmann_map(N, K, "jacobi")
    plan = ma.SamplingPlan(domain=DOMAIN, counts=(5, 5), karcher_sample_count=20, rng_seed=0)
    approximant, _ = ma.build(f, ma.Grassmannian(N, K), plan)
    return f, approximant, checks.Grassmann(N, K)


def test_perturbed_core_entry_fails_node_and_roundtrip_checks(grassmann_case):
    f, approximant, geometry = grassmann_case
    nodes = checks.grid_nodes(DOMAIN, approximant.plan.counts)
    points = checks.uniform_draws(DOMAIN, 5, 1)
    assert checks.nodes_problem(geometry, f, approximant, nodes) is None
    assert checks.roundtrip_problem(approximant, approximant, points) is None

    core = approximant.core.copy()
    core[0, 0, 0] += 1e-3
    corrupted = dataclasses.replace(approximant, core=core)
    assert checks.nodes_problem(geometry, f, corrupted, nodes) is not None
    assert checks.roundtrip_problem(approximant, corrupted, points) is not None


def test_output_pushed_off_the_manifold_fails_membership(grassmann_case):
    _, approximant, geometry = grassmann_case
    y = approximant(np.array([1.3, 1.7]))
    assert checks.output_problem(geometry, y) is None
    assert checks.output_problem(geometry, y * (1.0 + 1e-6)) is not None

    segre = checks.Segre(6, 6)
    point = segre_rank1_map(6, np.random.default_rng(0))(np.array([0.2, -0.4, 0.7]))
    assert checks.output_problem(segre, point) is None
    for corrupt in (lambda p: p.__setitem__(3, p[3] + 1e-6), lambda p: p.__setitem__(0, -p[0])):
        bad = point.copy()
        corrupt(bad)
        assert checks.output_problem(segre, bad) is not None


def test_off_manifold_outputs_count_as_failed_operations(grassmann_case):
    _, approximant, geometry = grassmann_case
    points = checks.uniform_draws(DOMAIN, 6, 2)
    run = workloads.Run()
    workloads._serve(run, [approximant, lambda x: 2.0 * approximant(x)], points, 0, geometry)
    assert (run.attempted, run.failed) == (6, 3)


def test_validation_on_the_wrong_seed_fails_agreement(grassmann_case):
    f, approximant, geometry = grassmann_case
    draws = checks.uniform_draws(DOMAIN, 200, 7)
    right = ma.validate(f, approximant, 200, seed=7)
    wrong = ma.validate(f, approximant, 200, seed=8)
    assert checks.certificate_problem(right) is None
    assert checks.agreement_problem(geometry, f, approximant, draws, right.manifold_error) is None
    assert checks.agreement_problem(geometry, f, approximant, draws,
                                    wrong.manifold_error) is not None


def test_traced_calls_nest_and_the_library_is_restored(grassmann_case):
    f, approximant, _ = grassmann_case
    original = ma.Grassmannian.exp
    tracer = spans.Tracer()
    with spans.installed(tracer):
        approximant(np.array([1.5, 1.5]))
        with tracer.paused():
            approximant(np.array([1.5, 1.5]))
    assert ma.Grassmannian.exp is original
    totals = tracer.layer_totals()
    assert totals["manifolds.retract"][0] == 1
    assert totals["manifolds.exp"][0] == 1
    assert totals["approximator.pullback_coords"][0] == 1
    assert tracer.counters["matfun.thin_qr"] == 1
    start = np.frombuffer(tracer.start, dtype=np.int64)
    end = np.frombuffer(tracer.end, dtype=np.int64)
    total = sum(seconds for _, seconds in totals.values())
    roots = np.frombuffer(tracer.parent, dtype=np.int32) < 0
    assert total == pytest.approx(float((end - start)[roots].sum()) * 1e-9)
