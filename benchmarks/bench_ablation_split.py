"""Ablation: the Section-5.3 hull-integral split versus a naive volume split.

DESIGN.md calls out the split criterion as the Gauss-tree's key design
choice. This ablation builds two insertion-based trees over the same
heteroscedastic data — one splitting by the paper's hull-integral score,
one by plain parameter-space volume — and compares page accesses for the
same MLIQ workload. The quality-vs-spread *bulk-loading* counterpart
lives in bench_ablation_bulkload.py.
"""

import numpy as np
import pytest

from repro.data.synthetic import database_from_arrays
from repro.data.uncertainty import per_object_quality_sigmas
from repro.data.workload import identification_workload
from repro.engine.spec import MLIQ
from repro.gausstree.mliq import gausstree_mliq
from repro.gausstree.split import volume_split_quality
from repro.gausstree.tree import GaussTree

N, D, QUERIES = 3_000, 8, 25


@pytest.fixture(scope="module")
def dataset():
    # Per-object quality sigmas: uncertainty is clusterable in parameter
    # space, which is the regime where the choice of split axis (mu vs
    # sigma) actually matters — precisely the case Section 5.3 analyses.
    # (With per-cell-independent sigma noise no split criterion can
    # separate the sigma bands, and the two strategies tie.)
    rng = np.random.default_rng(3)
    mu = rng.uniform(0, 1, (N, D))
    sigma = per_object_quality_sigmas(
        rng, N, D, low=0.003, high=0.012, quality_spread=40.0
    )
    db = database_from_arrays(mu, sigma)
    return db, identification_workload(db, QUERIES, seed=4)


def _build_and_measure(db, workload, split_quality=None):
    kwargs = {} if split_quality is None else {"split_quality": split_quality}
    tree = GaussTree(dims=db.dims, degree=8, **kwargs)
    tree.extend(db.vectors)
    pages = 0
    for item in workload:
        _, stats = gausstree_mliq(
            tree, MLIQ(item.q, 1), tolerance=float("inf")
        )
        pages += stats.pages_accessed
    return pages


def test_split_hull_integral(benchmark, dataset):
    db, workload = dataset
    pages = benchmark.pedantic(
        lambda: _build_and_measure(db, workload), rounds=1, iterations=1
    )
    benchmark.extra_info["pages_per_query"] = pages / QUERIES
    print(f"\nhull-integral split: {pages / QUERIES:.1f} pages/query")


def test_split_volume(benchmark, dataset):
    db, workload = dataset
    pages = benchmark.pedantic(
        lambda: _build_and_measure(db, workload, volume_split_quality),
        rounds=1,
        iterations=1,
    )
    benchmark.extra_info["pages_per_query"] = pages / QUERIES
    print(f"\nvolume split: {pages / QUERIES:.1f} pages/query")


def test_split_criteria_comparison(dataset):
    """Finding (recorded in EXPERIMENTS.md): for *insertion-built* trees
    on our generators the two split criteria land within ~10% of each
    other — the path-selection rules dominate node quality. The
    hull-integral criterion's large win (5x page accesses) appears when
    it drives the global leaf partitioning in bulk loading
    (bench_ablation_bulkload.py). We pin the ablation as a sanity band
    rather than asserting a winner."""
    db, workload = dataset
    hull_pages = _build_and_measure(db, workload)
    volume_pages = _build_and_measure(db, workload, volume_split_quality)
    print(
        f"\nablation: hull-integral {hull_pages / QUERIES:.1f} vs "
        f"volume {volume_pages / QUERIES:.1f} pages/query"
    )
    ratio = hull_pages / volume_pages
    assert 0.5 < ratio < 1.5
