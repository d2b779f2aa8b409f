"""Tests of the bulk loader (quality-driven packing, Section 5.3 criterion)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.pfv import PFV
from repro.engine.spec import MLIQ
from repro.gausstree.bulkload import (
    bulk_load,
    chunk_sizes,
    quality_groups,
    spatial_order,
)
from repro.gausstree.mliq import gausstree_mliq

from tests.conftest import make_random_db, make_random_query


class TestChunkSizes:
    def test_empty(self):
        assert chunk_sizes(0, 2, 4, 3) == []

    def test_single_undersized_chunk(self):
        assert chunk_sizes(3, 4, 8, 6) == [3]

    @given(
        n=st.integers(1, 5000),
        m=st.integers(2, 20),
    )
    @settings(max_examples=60, deadline=None)
    def test_all_sizes_within_bounds(self, n, m):
        lo, hi, target = m, 2 * m, int(1.5 * m)
        sizes = chunk_sizes(n, lo, hi, target)
        assert sum(sizes) == n
        if n >= lo:
            assert all(lo <= s <= hi for s in sizes)

    def test_target_validation(self):
        with pytest.raises(ValueError):
            chunk_sizes(10, 4, 8, 9)


class TestSpatialOrder:
    def test_is_permutation(self, rng):
        coords = rng.uniform(0, 1, (50, 4))
        order = spatial_order(coords)
        assert sorted(order.tolist()) == list(range(50))

    def test_groups_near_points(self, rng):
        # Two well-separated blobs must occupy contiguous order ranges.
        a = rng.normal(0.0, 0.01, (20, 2))
        b = rng.normal(10.0, 0.01, (20, 2))
        coords = np.vstack([a, b])
        order = spatial_order(coords)
        first_half = set(order[:20].tolist())
        assert first_half in (set(range(20)), set(range(20, 40)))

    def test_identical_points(self):
        coords = np.ones((7, 3))
        assert sorted(spatial_order(coords).tolist()) == list(range(7))

    def test_rejects_bad_shape(self):
        with pytest.raises(ValueError):
            spatial_order(np.ones(5))


class TestQualityGroups:
    def test_partition_complete(self, rng):
        mu = rng.uniform(0, 1, (100, 3))
        sigma = rng.uniform(0.05, 0.5, (100, 3))
        groups = quality_groups(mu, sigma, max_group=8)
        all_idx = sorted(int(i) for g in groups for i in g)
        assert all_idx == list(range(100))

    def test_group_sizes_within_leaf_bounds(self, rng):
        mu = rng.uniform(0, 1, (137, 2))
        sigma = rng.uniform(0.05, 0.5, (137, 2))
        groups = quality_groups(mu, sigma, max_group=10)
        for g in groups:
            assert 5 <= len(g) <= 10  # [max_group/2, max_group]

    def test_small_input_single_group(self, rng):
        mu = rng.uniform(0, 1, (4, 2))
        sigma = rng.uniform(0.1, 0.2, (4, 2))
        groups = quality_groups(mu, sigma, max_group=8)
        assert len(groups) == 1

    def test_separates_sigma_bands(self, rng):
        # Same locations, two sigma regimes: groups must not mix regimes
        # (the quality criterion makes mixed groups expensive).
        n = 64
        mu = np.tile(rng.uniform(0, 1, (1, 2)), (n, 1))
        sigma = np.vstack(
            [np.full((n // 2, 2), 0.01), np.full((n // 2, 2), 2.0)]
        )
        sigma *= rng.uniform(0.9, 1.1, (n, 2))
        groups = quality_groups(mu, sigma, max_group=8)
        for g in groups:
            bands = {int(i) < n // 2 for i in g}
            assert len(bands) == 1, "a group mixes sigma regimes"

    def test_validation(self, rng):
        with pytest.raises(ValueError):
            quality_groups(np.ones(5), np.ones(5), 4)
        with pytest.raises(ValueError):
            quality_groups(np.ones((5, 2)), np.ones((5, 2)), 1)


class TestBulkLoad:
    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            bulk_load([])

    def test_small_collection_root_leaf(self, rng):
        vectors = [PFV(rng.uniform(0, 1, 2), rng.uniform(0.1, 0.3, 2), key=i) for i in range(5)]
        tree = bulk_load(vectors, degree=4)
        assert tree.height == 1
        assert len(tree) == 5
        tree.check_invariants()

    @pytest.mark.parametrize("ordering", ["quality", "spread"])
    @pytest.mark.parametrize("n", [17, 100, 777])
    def test_invariants_and_content(self, n, ordering):
        db = make_random_db(n=n, d=3, seed=n)
        tree = bulk_load(db.vectors, degree=4, ordering=ordering)
        tree.check_invariants()
        assert len(tree) == n
        assert sorted(v.key for v in tree) == list(range(n))

    def test_unknown_ordering(self, small_db):
        with pytest.raises(ValueError):
            bulk_load(small_db.vectors, ordering="hilbert")

    def test_fill_validation(self, small_db):
        with pytest.raises(ValueError):
            bulk_load(small_db.vectors, fill=0.0)

    def test_queries_match_insertion_built_tree(self):
        from repro.gausstree.tree import GaussTree

        db = make_random_db(n=150, d=3, seed=4)
        q = make_random_query(d=3, seed=5)
        bulk = bulk_load(db.vectors, degree=3)
        inserted = GaussTree(dims=3, degree=3)
        inserted.extend(db.vectors)
        bm, _ = gausstree_mliq(bulk, MLIQ(q, 5))
        im, _ = gausstree_mliq(inserted, MLIQ(q, 5))
        assert [m.key for m in bm] == [m.key for m in im]
        for a, b in zip(bm, im):
            assert a.probability == pytest.approx(b.probability, abs=1e-6)

    def test_insertion_still_works_after_bulk_load(self):
        db = make_random_db(n=60, d=2, seed=6)
        tree = bulk_load(db.vectors, degree=3)
        extra = PFV([0.5, 0.5], [0.1, 0.1], key="extra")
        tree.insert(extra)
        tree.check_invariants()
        assert len(tree) == 61

    def test_quality_ordering_beats_spread_on_mixed_sigmas(self):
        # The reason the quality loader exists: markedly fewer page reads
        # on heteroscedastic data (this is the ablation's headline, pinned
        # here at small scale so regressions surface in the unit tests).
        from repro.data.uncertainty import mixed_precision_sigmas
        from repro.data.synthetic import database_from_arrays

        rng = np.random.default_rng(11)
        n, d = 2000, 8
        mu = rng.uniform(0, 1, (n, d))
        sigma = mixed_precision_sigmas(rng, n, d, p_bad=0.25, good=(0.002, 0.01), bad=(0.1, 0.3))
        db = database_from_arrays(mu, sigma)
        quality = bulk_load(db.vectors, degree=8, ordering="quality")
        spread = bulk_load(db.vectors, degree=8, ordering="spread")

        def pages(tree):
            total = 0
            for seed in range(10):
                row = int(np.random.default_rng(seed).integers(0, n))
                v = db[row]
                q = PFV(
                    np.random.default_rng(seed + 1).normal(v.mu, v.sigma),
                    sigma[int(np.random.default_rng(seed + 2).integers(0, n))],
                )
                _, st = gausstree_mliq(tree, MLIQ(q, 1), tolerance=1.0)
                total += st.pages_accessed
            return total

        assert pages(quality) < pages(spread)
