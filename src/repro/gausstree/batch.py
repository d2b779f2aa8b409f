"""Batch identification queries: amortize traversal work across queries.

*Scalable Probabilistic Similarity Ranking in Uncertain Databases*
(Bernecker et al., see PAPERS.md) frames the scalability story for
probabilistic similarity search as amortizing index traversal cost across
many concurrent queries. This module applies that idea to the Gauss-tree:

* the whole batch runs against one page store without cold starts, so a
  page faulted in by one query is a **buffer hit** for every later query
  (and, for a disk-opened tree, the decoded node is reused rather than
  re-materialized);
* per-node numeric work is **vectorized across the batch** by one shared
  :class:`~repro.gausstree.search.BatchRefiner`: the first query to
  expand a node computes child hull bounds, or a leaf's Lemma-1
  densities, row maxima and scaled denominator masses, for *all* queries
  in one numpy evaluation, and later queries reaching the same node pay a
  dictionary lookup. Identification workloads cluster around the database
  objects, so batch members overwhelmingly revisit one another's nodes.

Every state is built before any query runs, so each registers its scale
shift with the refiner and the first page any query expands precomputes
masses valid for the whole batch. Every query still owns its best-first
traversal (:class:`~repro.gausstree.search.SearchState`) and the single
query entry points run the same traversal with a one-row refiner, so
answer sets, posteriors and per-query logical page accounting are
*identical* to the one-at-a-time API — the tests assert match-for-match
equality.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

from repro.core.queries import Match, QueryStats
from repro.gausstree.mliq import gausstree_mliq
from repro.gausstree.search import BatchRefiner, SearchState
from repro.gausstree.tiq import gausstree_tiq

if TYPE_CHECKING:
    from repro.engine.spec import MLIQ, TIQ

__all__ = ["gausstree_mliq_many", "gausstree_tiq_many"]


def _states(tree, queries) -> list[SearchState]:
    refiner = BatchRefiner(tree, [query.q for query in queries])
    return [
        SearchState(tree, query.q, refiner=refiner, query_index=index)
        for index, query in enumerate(queries)
    ]


def gausstree_mliq_many(
    tree, queries: Sequence[MLIQ], tolerance: float = 1e-9
) -> tuple[list[list[Match]], QueryStats]:
    """Answer many k-MLIQs in one buffer-warm pass over the tree.

    Returns ``(per-query match lists, aggregate stats)``. Results are
    exactly what :func:`~repro.gausstree.mliq.gausstree_mliq` returns
    query by query; only the wall time changes (shared page cache,
    shared vectorized refinement).
    """
    if not queries:
        return [], QueryStats()
    results: list[list[Match]] = []
    total = QueryStats()
    for query, state in zip(queries, _states(tree, queries)):
        matches, stats = gausstree_mliq(tree, query, tolerance, state=state)
        results.append(matches)
        total.merge(stats)
    return results, total


def gausstree_tiq_many(
    tree,
    queries: Sequence[TIQ],
    tolerance: float = 0.0,
    probability_tolerance: float | None = None,
) -> tuple[list[list[Match]], QueryStats]:
    """Answer many TIQs in one buffer-warm pass over the tree.

    Returns ``(per-query match lists, aggregate stats)``; per-query
    semantics are identical to
    :func:`~repro.gausstree.tiq.gausstree_tiq`.
    """
    if not queries:
        return [], QueryStats()
    results: list[list[Match]] = []
    total = QueryStats()
    for query, state in zip(queries, _states(tree, queries)):
        matches, stats = gausstree_tiq(
            tree,
            query,
            tolerance=tolerance,
            probability_tolerance=probability_tolerance,
            state=state,
        )
        results.append(matches)
        total.merge(stats)
    return results, total
