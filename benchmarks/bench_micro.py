"""Microbenchmarks of the hot paths (timed with pytest-benchmark proper).

These are the kernels whose cost the 2006 cost model abstracts: hull
bound evaluation, batched Lemma-1 refinement, tree insertion, bulk
loading and the two query algorithms on a mid-sized tree.
"""

import numpy as np
import pytest

from repro.core.joint import log_joint_density_batch
from repro.core.pfv import PFV
from repro.data.synthetic import uniform_pfv_dataset
from repro.data.workload import identification_workload
from repro.engine.spec import MLIQ, TIQ
from repro.gausstree.bulkload import bulk_load
from repro.gausstree.hull import log_hull_upper, node_log_bounds_multi
from repro.gausstree.tree import GaussTree

D = 10


@pytest.fixture(scope="module")
def db():
    return uniform_pfv_dataset(n=5_000, d=D)


@pytest.fixture(scope="module")
def tree(db):
    return bulk_load(db.vectors, sigma_rule=db.sigma_rule)


@pytest.fixture(scope="module")
def query(db):
    return identification_workload(db, 1, seed=3)[0].q


def test_hull_upper_scalar_grid(benchmark):
    x = np.linspace(-3, 3, 1_000)
    benchmark(lambda: log_hull_upper(x, 0.0, 1.0, 0.1, 0.8))


def test_node_bounds_batch(benchmark, query, rng_seed=0):
    rng = np.random.default_rng(rng_seed)
    k = 32
    mu_lo = rng.uniform(0, 0.5, (k, D))
    mu_hi = mu_lo + rng.uniform(0, 0.5, (k, D))
    sg_lo = rng.uniform(0.01, 0.1, (k, D))
    sg_hi = sg_lo + rng.uniform(0, 0.2, (k, D))
    q_mu, q_sigma = query.mu[np.newaxis, :], query.sigma[np.newaxis, :]
    benchmark(
        lambda: node_log_bounds_multi(
            mu_lo, mu_hi, sg_lo, sg_hi, q_mu, q_sigma
        )
    )


def test_joint_density_batch(benchmark, db, query):
    mu, sigma = db.mu_matrix, db.sigma_matrix
    benchmark(lambda: log_joint_density_batch(mu, sigma, query))


def test_tree_insert(benchmark, db):
    vectors = list(db.vectors[:500])

    def build():
        t = GaussTree(dims=D)
        t.extend(vectors)
        return t

    benchmark.pedantic(build, rounds=3, iterations=1)


def test_bulk_load(benchmark, db):
    benchmark.pedantic(
        lambda: bulk_load(db.vectors, sigma_rule=db.sigma_rule),
        rounds=3,
        iterations=1,
    )


def test_mliq_query(benchmark, tree, query):
    from repro.gausstree.mliq import gausstree_mliq

    benchmark(lambda: gausstree_mliq(tree, MLIQ(query, 1), tolerance=0.01))


def test_tiq_query(benchmark, tree, query):
    from repro.gausstree.tiq import gausstree_tiq

    benchmark(lambda: gausstree_tiq(tree, TIQ(query, 0.5)))
