"""Ablation: quality-driven bulk loading vs generic spatial packing.

The bulk loader (an extension over the paper) can order leaves by the
paper's hull-integral criterion or by a generic normalised-spread tiling.
On heteroscedastic data the quality ordering produces dramatically
tighter query bounds; this benchmark quantifies the gap in page accesses
and also reports construction time for insertion vs both bulk modes.
"""

import time

import pytest

from repro.data.histograms import color_histogram_dataset
from repro.data.workload import identification_workload
from repro.engine.spec import MLIQ
from repro.gausstree.bulkload import bulk_load
from repro.gausstree.mliq import gausstree_mliq
from repro.gausstree.tree import GaussTree

N, QUERIES = 4_000, 25


@pytest.fixture(scope="module")
def dataset():
    db = color_histogram_dataset(n=N)
    return db, identification_workload(db, QUERIES, seed=9)


def _measure_pages(tree, workload):
    pages = 0
    for item in workload:
        _, stats = gausstree_mliq(
            tree, MLIQ(item.q, 1), tolerance=float("inf")
        )
        pages += stats.pages_accessed
    return pages / len(workload)


@pytest.mark.parametrize("ordering", ["quality", "spread"])
def test_bulk_ordering(benchmark, dataset, ordering):
    db, workload = dataset
    tree = bulk_load(db.vectors, ordering=ordering, sigma_rule=db.sigma_rule)
    pages = benchmark.pedantic(
        lambda: _measure_pages(tree, workload), rounds=1, iterations=1
    )
    benchmark.extra_info["pages_per_query"] = round(pages, 1)
    print(f"\nbulk ordering={ordering}: {pages:.1f} pages/query")


def test_quality_ordering_wins(dataset):
    db, workload = dataset
    quality = bulk_load(db.vectors, ordering="quality", sigma_rule=db.sigma_rule)
    spread = bulk_load(db.vectors, ordering="spread", sigma_rule=db.sigma_rule)
    q_pages = _measure_pages(quality, workload)
    s_pages = _measure_pages(spread, workload)
    print(f"\nquality {q_pages:.1f} vs spread {s_pages:.1f} pages/query")
    assert q_pages < s_pages


def test_construction_time_comparison(dataset):
    db, _ = dataset
    t0 = time.perf_counter()
    bulk_load(db.vectors, sigma_rule=db.sigma_rule)
    bulk_seconds = time.perf_counter() - t0
    t0 = time.perf_counter()
    tree = GaussTree(dims=db.dims, sigma_rule=db.sigma_rule)
    tree.extend(db.vectors)
    insert_seconds = time.perf_counter() - t0
    print(
        f"\nconstruction at n={N}: bulk {bulk_seconds:.2f}s, "
        f"insertion {insert_seconds:.2f}s ({insert_seconds / bulk_seconds:.0f}x)"
    )
    assert bulk_seconds < insert_seconds
