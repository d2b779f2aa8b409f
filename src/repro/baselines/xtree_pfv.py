"""The paper's X-tree competitor: filter by rectangle intersection, refine.

Section 6 describes the method exactly: store the 95%-quantile
hyper-rectangle of every pfv in an X-tree; to answer an identification
query, build the query pfv's rectangle, collect all intersecting database
rectangles as candidates, then refine the candidates with the exact
Lemma-1 probabilities. The paper stresses that "this method does not offer
exact results ... because the used approximations allow false dismissals" —
both effectiveness (slightly lower precision/recall) and the Figure-7
efficiency numbers of this method inherit that caveat, and so does this
implementation on purpose.

The Bayes denominator is likewise approximated over the candidate set
only: objects whose rectangles miss the query's contribute (nearly) zero
density, so the normalisation error is tiny — but it is an approximation,
consistent with the paper's description.

Page accounting covers *both* stages: the X-tree traversal (supernode
pages included) and the refinement's random fetches of the candidate pfv
from the base data file — an X-tree stores only boxes, so the exact
``(mu, sigma)`` live in the table the index points into. Those base-table
fetches are what keep the X-tree from beating the scan on MLIQ in the
paper's Figure 7.
"""

from __future__ import annotations

import time
from typing import TYPE_CHECKING

import numpy as np

from repro.baselines.approx import DEFAULT_COVERAGE, quantile_rect, quantile_rects
from repro.baselines.rect import Rect
from repro.baselines.xtree import XTree
from repro.core.bayes import posteriors_from_log_densities
from repro.core.database import PFVDatabase
from repro.core.joint import log_joint_density_batch
from repro.core.queries import Match, QueryStats
from repro.storage.pagestore import PageStore

if TYPE_CHECKING:
    from repro.engine.spec import MLIQ, TIQ

__all__ = ["XTreePFVIndex"]


class XTreePFVIndex:
    """Filter-and-refine identification queries over an X-tree of boxes.

    Parameters
    ----------
    db:
        The underlying pfv database (provides exact refinement data).
    coverage:
        Quantile coverage of the rectangular approximations (paper: 0.95).
    capacity:
        X-tree node capacity.
    page_store:
        Shared storage accounting backend.
    """

    def __init__(
        self,
        db: PFVDatabase,
        coverage: float = DEFAULT_COVERAGE,
        capacity: int | None = None,
        page_store: PageStore | None = None,
        max_overlap: float = 0.2,
    ) -> None:
        self.db = db
        self.coverage = coverage
        if len(db) == 0:
            # Normalised empty-database semantics (see repro.engine.spec):
            # no boxes, no base pages, every query answers empty.
            self.tree = None
            self.store_ = page_store if page_store is not None else PageStore()
            self._rows_per_page = 0
            self._base_pages: list[int] = []
            return
        if capacity is None:
            # Box entries store 2 d floats + payload, like a leaf pfv entry,
            # so reuse the pfv page capacity for comparability.
            from repro.storage.layout import PageLayout

            capacity = PageLayout(dims=db.dims).leaf_capacity
        self.tree = XTree(
            dims=db.dims,
            capacity=capacity,
            page_store=page_store,
            max_overlap=max_overlap,
        )
        lo, hi = quantile_rects(db.mu_matrix, db.sigma_matrix, coverage)
        for row in range(len(db)):
            self.tree.insert(Rect(lo[row], hi[row]), row)
        # Base data file the index points into: refinement fetches the
        # exact pfv of each candidate row from here.
        self._rows_per_page = capacity
        self._base_pages = [
            self.store.allocate()
            for _ in range(-(-len(db) // self._rows_per_page))
        ]

    @property
    def store(self) -> PageStore:
        return self.store_ if self.tree is None else self.tree.store

    # -- queries -----------------------------------------------------------

    def _candidates(self, q) -> list[int]:
        if self.tree is None:
            return []
        query_rect = quantile_rect(q, self.coverage)
        return [e.payload for e in self.tree.intersecting(query_rect)]

    def _refine(self, rows: list[int], q) -> tuple[np.ndarray, np.ndarray]:
        """Exact log densities and candidate-normalised posteriors.

        Charges one random base-table page read per distinct page holding
        a candidate row.
        """
        for page_index in sorted({row // self._rows_per_page for row in rows}):
            self.store.read(self._base_pages[page_index])
        mu = self.db.mu_matrix[rows]
        sigma = self.db.sigma_matrix[rows]
        log_dens = log_joint_density_batch(mu, sigma, q, self.db.sigma_rule)
        return log_dens, posteriors_from_log_densities(log_dens)

    def _mliq_impl(self, query: MLIQ) -> tuple[list[Match], QueryStats]:
        """Approximate k-MLIQ: intersect, refine, rank.

        Returns fewer than ``k`` matches (possibly none) when the filter
        dismisses true answers — the method's documented inexactness.
        """
        store = self.store
        store.begin_query()
        started = time.perf_counter()
        rows = self._candidates(query.q)
        matches: list[Match] = []
        if rows:
            log_dens, post = self._refine(rows, query.q)
            order = np.lexsort((np.arange(len(rows)), -log_dens))[: query.k]
            matches = [
                Match(self.db[rows[int(i)]], float(log_dens[int(i)]), float(post[int(i)]))
                for i in order
            ]
        stats = self._stats(len(rows), started)
        return matches, stats

    def _tiq_impl(self, query: TIQ) -> tuple[list[Match], QueryStats]:
        """Approximate TIQ over the candidate set."""
        store = self.store
        store.begin_query()
        started = time.perf_counter()
        rows = self._candidates(query.q)
        matches: list[Match] = []
        if rows:
            log_dens, post = self._refine(rows, query.q)
            order = np.lexsort((np.arange(len(rows)), -log_dens))
            for i in order:
                if post[int(i)] >= query.tau:
                    matches.append(
                        Match(
                            self.db[rows[int(i)]],
                            float(log_dens[int(i)]),
                            float(post[int(i)]),
                        )
                    )
        stats = self._stats(len(rows), started)
        return matches, stats

    def _stats(self, refined: int, started: float) -> QueryStats:
        return QueryStats(
            pages_accessed=self.store.log.pages_accessed,
            page_faults=self.store.log.page_faults,
            objects_refined=refined,
            nodes_expanded=0,
            cpu_seconds=time.perf_counter() - started,
            io_seconds=self.store.log.io_seconds,
            modeled_cpu_seconds=self.store.cost_model.modeled_cpu_seconds(
                refined, self.store.log.pages_accessed
            ),
            buffer_evictions=self.store.log.evictions,
        )

    def __repr__(self) -> str:
        supernodes = 0 if self.tree is None else self.tree.supernode_count
        return (
            f"XTreePFVIndex(n={len(self.db)}, coverage={self.coverage}, "
            f"supernodes={supernodes})"
        )
