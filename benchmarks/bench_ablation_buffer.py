"""Ablation: buffer-size sensitivity of the Figure-7 overall times.

The paper's testbed used "up to 50 MByte" of database cache. This
ablation sweeps the cache from nothing to the paper's budget and shows
how the Gauss-tree's simulated overall time responds: with no cache the
index pays a random seek per visited page; once the working set fits,
repeated queries run almost IO-free.
"""

import pytest

from repro.data.histograms import color_histogram_dataset
from repro.data.workload import identification_workload
from repro.engine.spec import MLIQ
from repro.gausstree.bulkload import bulk_load
from repro.gausstree.mliq import gausstree_mliq
from repro.storage.buffer import BufferManager
from repro.storage.costmodel import DiskCostModel
from repro.storage.layout import PageLayout
from repro.storage.pagestore import PageStore

N, QUERIES = 4_000, 25
CACHE_BUDGETS = {"none": 0, "1MB": 1 << 20, "50MB": 50 << 20}


@pytest.fixture(scope="module")
def dataset():
    db = color_histogram_dataset(n=N)
    return db, identification_workload(db, QUERIES, seed=5)


def _run(db, workload, cache_bytes):
    layout = PageLayout(dims=db.dims)
    store = PageStore(
        buffer=BufferManager.from_bytes(cache_bytes, layout.page_size),
        cost_model=DiskCostModel(page_size=layout.page_size),
    )
    tree = bulk_load(db.vectors, page_store=store, sigma_rule=db.sigma_rule)
    store.cold_start()
    io = faults = 0
    for item in workload:
        _, stats = gausstree_mliq(tree, MLIQ(item.q, 1), tolerance=0.05)
        io += stats.io_seconds
        faults += stats.page_faults
    return io / len(workload), faults / len(workload)


@pytest.mark.parametrize("label", list(CACHE_BUDGETS))
def test_buffer_sweep(benchmark, dataset, label):
    db, workload = dataset
    io, faults = benchmark.pedantic(
        lambda: _run(db, workload, CACHE_BUDGETS[label]), rounds=1, iterations=1
    )
    benchmark.extra_info["io_seconds_per_query"] = round(io, 5)
    benchmark.extra_info["faults_per_query"] = round(faults, 1)
    print(f"\ncache={label}: {io * 1000:.2f} ms IO/query, {faults:.1f} faults/query")


def test_cache_reduces_io(dataset):
    db, workload = dataset
    io_none, _ = _run(db, workload, 0)
    io_paper, _ = _run(db, workload, 50 << 20)
    print(f"\nIO/query: no cache {io_none * 1e3:.2f} ms vs 50MB {io_paper * 1e3:.2f} ms")
    assert io_paper < io_none
