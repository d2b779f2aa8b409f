"""The Gauss-tree index (Section 5 of the paper).

Submodules
----------
``bounds``    — parameter-space MBRs over ``(mu, sigma)`` (Definition 4).
``hull``      — Lemma 2 upper hull and Lemma 3 lower bound.
``integral``  — hull integrals and the split-quality score (Section 5.3).
``node``      — leaf and inner node structures.
``split``     — median split minimising the hull integral (Section 5.3).
``tree``      — the GaussTree: insert / delete / invariants.
``bulkload``  — sort-based packing loader (extension).
``search``    — the one best-first traversal + denominator bounds, and
                the ``BatchRefiner`` every node expansion goes through.
``mliq``      — k-most-likely identification queries (Sections 5.2.1-2).
``tiq``       — threshold identification queries (Section 5.2.3).
``batch``     — batch query APIs sharing one refiner across queries.
``persist``   — save/open of a tree as a single paged index file;
                writable opens with WAL durability and crash recovery.
"""

from repro.gausstree.batch import gausstree_mliq_many, gausstree_tiq_many
from repro.gausstree.bounds import ParameterRect
from repro.gausstree.bulkload import bulk_load
from repro.gausstree.hull import (
    hull_lower,
    hull_upper,
    log_hull_lower,
    log_hull_upper,
    node_log_bounds,
    node_log_upper,
)
from repro.gausstree.integral import hull_integral, hull_integral_total
from repro.gausstree.mliq import gausstree_mliq
from repro.gausstree.persist import open_tree, recover_index, save_tree
from repro.gausstree.search import BatchRefiner
from repro.gausstree.tiq import gausstree_tiq
from repro.gausstree.tree import GaussTree

__all__ = [
    "GaussTree",
    "ParameterRect",
    "BatchRefiner",
    "bulk_load",
    "gausstree_mliq",
    "gausstree_tiq",
    "gausstree_mliq_many",
    "gausstree_tiq_many",
    "save_tree",
    "open_tree",
    "recover_index",
    "hull_lower",
    "hull_upper",
    "log_hull_lower",
    "log_hull_upper",
    "node_log_bounds",
    "node_log_upper",
    "hull_integral",
    "hull_integral_total",
]
