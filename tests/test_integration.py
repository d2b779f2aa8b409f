"""End-to-end integration tests across the whole stack.

One workload, every access method: the in-memory scan (Section 4), the
paged sequential scan, the insertion-built Gauss-tree, the bulk-loaded
Gauss-tree — all must return identical answers; the X-tree filter must be
consistent with the exact ranking on its candidates. Plus a CLI smoke
test and a miniature end-to-end effectiveness check.
"""

import numpy as np
import pytest

from repro.baselines.seqscan import SequentialScanIndex
from repro.baselines.xtree_pfv import XTreePFVIndex
from repro.core.scan import scan_mliq, scan_tiq
from repro.data.histograms import color_histogram_dataset
from repro.data.workload import identification_workload
from repro.engine.spec import MLIQ, TIQ
from repro.eval.figures import make_page_store
from repro.gausstree.bulkload import bulk_load
from repro.gausstree.mliq import gausstree_mliq
from repro.gausstree.tiq import gausstree_tiq
from repro.gausstree.tree import GaussTree


@pytest.fixture(scope="module")
def stack():
    db = color_histogram_dataset(n=800)
    workload = identification_workload(db, 12, seed=5)
    inserted = GaussTree(dims=db.dims, sigma_rule=db.sigma_rule)
    inserted.extend(db.vectors)
    bulked = bulk_load(db.vectors, sigma_rule=db.sigma_rule)
    paged = SequentialScanIndex(db, page_store=make_page_store(db.dims))
    xtree = XTreePFVIndex(db, page_store=make_page_store(db.dims))
    return db, workload, inserted, bulked, paged, xtree


def paged_scan(index, spec):
    """One spec through the paged scan's batch entry point."""
    run = index._mliq_many_impl if spec.kind == "mliq" else index._tiq_many_impl
    answers, stats = run([spec])
    return answers[0], stats


class TestAllMethodsAgree:
    def test_mliq_identical_across_exact_methods(self, stack):
        db, workload, inserted, bulked, paged, _ = stack
        for item in workload:
            query = MLIQ(item.q, 3)
            reference = [m.key for m in scan_mliq(db, query)]
            assert [m.key for m in paged_scan(paged, query)[0]] == reference
            for tree in (inserted, bulked):
                got, _ = gausstree_mliq(tree, query)
                assert [m.key for m in got] == reference

    def test_tiq_identical_across_exact_methods(self, stack):
        db, workload, inserted, bulked, paged, _ = stack
        for item in workload[:6]:
            for p_theta in (0.2, 0.8):
                query = TIQ(item.q, p_theta)
                reference = {m.key for m in scan_tiq(db, query)}
                assert {m.key for m in paged_scan(paged, query)[0]} == reference
                for tree in (inserted, bulked):
                    got, _ = gausstree_tiq(tree, query)
                    assert {m.key for m in got} == reference

    def test_posteriors_consistent(self, stack):
        db, workload, inserted, bulked, paged, _ = stack
        item = workload[0]
        query = MLIQ(item.q, 3)
        reference = scan_mliq(db, query)
        for got in (
            paged_scan(paged, query)[0],
            gausstree_mliq(inserted, query)[0],
            gausstree_mliq(bulked, query)[0],
        ):
            for a, b in zip(got, reference):
                assert a.probability == pytest.approx(b.probability, abs=1e-6)

    def test_xtree_consistent_on_its_candidates(self, stack):
        db, workload, _, _, _, xtree = stack
        full_ranking = {
            id(item): [m.key for m in scan_mliq(db, MLIQ(item.q, len(db)))]
            for item in workload[:5]
        }
        for item in workload[:5]:
            got, _ = xtree._mliq_impl(MLIQ(item.q, 5))
            ranking = full_ranking[id(item)]
            positions = [ranking.index(m.key) for m in got]
            assert positions == sorted(positions)

    def test_index_efficiency_on_this_workload(self, stack):
        db, workload, _, bulked, paged, _ = stack
        tree_pages = scan_pages = 0
        for item in workload:
            query = MLIQ(item.q, 1)
            _, ts = gausstree_mliq(bulked, query, tolerance=float("inf"))
            _, ss = paged_scan(paged, query)
            tree_pages += ts.pages_accessed
            scan_pages += ss.pages_accessed
        assert tree_pages < scan_pages / 2

    def test_effectiveness_end_to_end(self, stack):
        db, workload, _, bulked, _, _ = stack
        hits = 0
        for item in workload:
            got, _ = gausstree_mliq(bulked, MLIQ(item.q, 1))
            hits += got[0].key == item.true_key
        assert hits >= len(workload) - 1  # near-perfect identification


class TestCLI:
    def test_example_command(self, capsys):
        from repro.cli import main

        assert main(["example"]) == 0
        out = capsys.readouterr().out
        assert "O3" in out and "77" in out

    def test_figure6_command(self, capsys):
        from repro.cli import main

        assert (
            main(
                [
                    "figure6",
                    "--dataset",
                    "2",
                    "--scale",
                    "0.02",
                    "--queries",
                    "10",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "NN prec%" in out and "x9" in out

    def test_unknown_dataset_rejected(self):
        from repro.cli import main

        with pytest.raises(SystemExit):
            main(["figure6", "--dataset", "3"])


class TestSigmaRuleConsistency:
    def test_paper_rule_end_to_end(self):
        from repro.core.joint import SigmaRule

        db = color_histogram_dataset(n=300, sigma_rule=SigmaRule.PAPER)
        workload = identification_workload(db, 5, seed=9)
        tree = bulk_load(db.vectors, sigma_rule=SigmaRule.PAPER)
        for item in workload:
            reference = [m.key for m in scan_mliq(db, MLIQ(item.q, 3))]
            got, _ = gausstree_mliq(tree, MLIQ(item.q, 3))
            assert [m.key for m in got] == reference
