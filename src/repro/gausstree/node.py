"""Gauss-tree nodes (Definition 4).

Two node kinds, both occupying one simulated disk page:

* :class:`LeafNode` stores between ``M`` and ``2 M`` probabilistic feature
  vectors (the root may hold fewer while the tree is small);
* :class:`InnerNode` stores between ``ceil(M/2)`` and ``M`` child entries,
  each a :class:`~repro.gausstree.bounds.ParameterRect` plus the child
  pointer and — for the sum approximation of Section 5.2 — the child's
  subtree cardinality.

Leaves are **columnar first**: a leaf can hold its payload as
struct-of-arrays columns — read-only ``mu``/``sigma`` stacks of shape
``(count, d)`` plus a key list — so exact refinement (Lemma 1 over every
stored pfv) and candidate selection run as single numpy kernels over the
whole page. The legacy object API (``entries``) stays available: the
:class:`~repro.core.pfv.PFV` views are materialized lazily from the
columns on first access. Leaves built one pfv at a time (repeated
insertion) hold a plain object list instead and keep a lazily-built numpy
cache of the stacks; any mutation of a columnar leaf de-columnarizes it
(the object list becomes the source of truth) so the write path is
identical for both representations.

Nodes of a disk-opened tree (:mod:`repro.gausstree.persist`) start out as
*stubs*: the page id, MBR and subtree cardinality are known (they live in
the parent's page), but the payload — a leaf's entries, an inner node's
child list — is materialized from page bytes only on first access through
a loader callback. ``entries`` and ``children`` are therefore properties;
in-memory trees simply never set a loader and pay one ``None`` check.

Stubs are not read-only: on a writable disk-opened tree every mutator
(``add``, ``remove_at``, ``add_child``, ``remove_child``, the split-time
``replace_*``) goes through the same materializing properties, so a stub
transparently loads, mutates, and is then marked dirty by the tree's
write path (:meth:`repro.gausstree.tree.GaussTree._mark_dirty`) for the
next WAL commit.
"""

from __future__ import annotations

from typing import Callable, Iterator, Optional

import numpy as np

from repro.core.pfv import PFV
from repro.gausstree.bounds import ParameterRect

__all__ = ["Node", "LeafNode", "InnerNode"]


class Node:
    """Common state of leaf and inner nodes."""

    __slots__ = ("rect", "parent", "page_id", "_loader")

    def __init__(self, page_id: int) -> None:
        self.rect: Optional[ParameterRect] = None
        self.parent: Optional["InnerNode"] = None
        self.page_id = page_id
        # Deferred materialization callback of a disk-backed stub; called
        # once with the node, then cleared. None for in-memory nodes.
        self._loader: Optional[Callable[["Node"], None]] = None

    @property
    def is_leaf(self) -> bool:
        raise NotImplementedError

    @property
    def count(self) -> int:
        """Number of pfv stored in this subtree."""
        raise NotImplementedError

    @property
    def is_materialized(self) -> bool:
        """Whether the payload is in memory (stubs load on first access)."""
        return self._loader is None

    def _materialize(self) -> None:
        loader = self._loader
        if loader is not None:
            self._loader = None
            loader(self)

    def refresh_rect(self) -> None:
        """Recompute the tight MBR from the node's contents."""
        raise NotImplementedError


class LeafNode(Node):
    """A data page holding pfv entries, columnar or as an object list."""

    __slots__ = (
        "_entries",
        "_mu_cache",
        "_sigma_cache",
        "_stub_count",
        "_col_mu",
        "_col_sigma",
        "_col_keys",
    )

    def __init__(self, page_id: int) -> None:
        super().__init__(page_id)
        self._entries: list[PFV] = []
        self._mu_cache: Optional[np.ndarray] = None
        self._sigma_cache: Optional[np.ndarray] = None
        self._stub_count = 0
        # Columnar payload: (n, d) float64 stacks plus the key list.
        # None on object-list leaves; mutations clear it (the object
        # list then becomes the source of truth again).
        self._col_mu: Optional[np.ndarray] = None
        self._col_sigma: Optional[np.ndarray] = None
        self._col_keys: Optional[list] = None

    @property
    def is_leaf(self) -> bool:
        return True

    @property
    def is_columnar(self) -> bool:
        """Whether the payload currently lives in column arrays.

        Columnar leaves come from :meth:`set_columns` (bulk loading, the
        format-v3 page loader); :meth:`arrays` hands their columns to the
        query kernel without a stacking copy, and the cost model prices
        their refinement at its vectorized rate. False for unmaterialized
        stubs — callers on the query path call :meth:`arrays` first,
        which materializes.
        """
        return self._col_keys is not None

    @property
    def count(self) -> int:
        if self._loader is not None:
            return self._stub_count  # known from the parent page
        if self._col_keys is not None:
            return len(self._col_keys)
        return len(self._entries)

    @property
    def entries(self) -> list[PFV]:
        """The stored pfv as objects; materializes a disk stub on first
        access and builds the object views of a columnar leaf lazily."""
        if self._loader is not None:
            self._materialize()
        if self._col_keys is not None and len(self._entries) != len(
            self._col_keys
        ):
            mu, sigma = self._col_mu, self._col_sigma
            self._entries = [
                PFV(mu[i], sigma[i], key)
                for i, key in enumerate(self._col_keys)
            ]
        return self._entries

    def entry_at(self, index: int) -> PFV:
        """One stored pfv by position — without materializing the whole
        object list of a columnar leaf (the query kernels defer object
        construction to the final result assembly)."""
        if self._loader is not None:
            self._materialize()
        if self._col_keys is not None and len(self._entries) != len(
            self._col_keys
        ):
            return PFV(
                self._col_mu[index],
                self._col_sigma[index],
                self._col_keys[index],
            )
        return self._entries[index]

    def keys(self) -> list:
        """The application keys in entry order (no object materialization
        for columnar leaves — the save path encodes straight from this)."""
        if self._loader is not None:
            self._materialize()
        if self._col_keys is not None and len(self._entries) != len(
            self._col_keys
        ):
            return list(self._col_keys)
        return [v.key for v in self._entries]

    def set_loader(
        self, loader: Callable[["LeafNode"], None], count: int
    ) -> None:
        """Turn this node into a stub: ``loader`` fills the entries later."""
        self._loader = loader  # type: ignore[assignment]
        self._stub_count = count

    def set_columns(
        self, mu: np.ndarray, sigma: np.ndarray, keys: list
    ) -> None:
        """Adopt a columnar payload: ``(n, d)`` mu/sigma stacks plus the
        ``n`` application keys; recomputes the MBR from the columns.

        The arrays are kept as-is (read-only views of page bytes are
        fine) — callers must not mutate them afterwards.
        """
        mu = np.asarray(mu, dtype=np.float64)
        sigma = np.asarray(sigma, dtype=np.float64)
        if mu.ndim != 2 or mu.shape != sigma.shape:
            raise ValueError(
                f"columns must both be (n, d), got {mu.shape} and "
                f"{sigma.shape}"
            )
        if mu.shape[0] != len(keys):
            raise ValueError(
                f"{mu.shape[0]} rows but {len(keys)} keys"
            )
        self._loader = None
        self._entries = []
        self._col_mu = mu
        self._col_sigma = sigma
        self._col_keys = list(keys)
        self.refresh_rect()
        self._mu_cache = None
        self._sigma_cache = None

    def _decolumnarize(self) -> list[PFV]:
        """Make the object list the source of truth before a mutation;
        returns it (materializing a stub and/or the column views)."""
        entries = self.entries
        self._col_mu = None
        self._col_sigma = None
        self._col_keys = None
        return entries

    def add(self, v: PFV) -> None:
        """Append a pfv, growing the MBR in place."""
        self._decolumnarize().append(v)
        if self.rect is None:
            self.rect = ParameterRect.of_vector(v)
        else:
            self.rect.extend_vector(v)
        self._invalidate()

    def remove_at(self, index: int) -> PFV:
        """Remove and return the entry at ``index``; tightens the MBR."""
        v = self._decolumnarize().pop(index)
        self.refresh_rect()
        self._invalidate()
        return v

    def replace_entries(self, entries: list[PFV]) -> None:
        """Swap in a new entry list (used by splits); recomputes the MBR."""
        self._loader = None
        self._col_mu = None
        self._col_sigma = None
        self._col_keys = None
        self._entries = entries
        self.refresh_rect()
        self._invalidate()

    def refresh_rect(self) -> None:
        if self._col_keys is not None and len(self._entries) != len(
            self._col_keys
        ):
            self.rect = (
                ParameterRect.of_arrays(self._col_mu, self._col_sigma)
                if self._col_keys
                else None
            )
            return
        self.rect = (
            ParameterRect.of_vectors(self._entries) if self._entries else None
        )

    def _invalidate(self) -> None:
        self._mu_cache = None
        self._sigma_cache = None

    def arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """``(mu, sigma)`` stacks of shape ``(count, d)`` for vectorised
        refinement; the columns themselves on a columnar leaf, else a
        cache rebuilt after each mutation."""
        if self._loader is not None:
            self._materialize()
        if self._col_mu is not None:
            return self._col_mu, self._col_sigma
        if self._mu_cache is None:
            self._mu_cache = np.vstack([v.mu for v in self.entries])
            self._sigma_cache = np.vstack([v.sigma for v in self.entries])
        return self._mu_cache, self._sigma_cache

    def __iter__(self) -> Iterator[PFV]:
        return iter(self.entries)

    def __repr__(self) -> str:
        if self._loader is not None:
            return f"LeafNode(page={self.page_id}, stub, count={self._stub_count})"
        if self._col_keys is not None:
            return (
                f"LeafNode(page={self.page_id}, columnar, "
                f"count={len(self._col_keys)})"
            )
        return f"LeafNode(page={self.page_id}, entries={len(self._entries)})"


class InnerNode(Node):
    """A directory page holding child nodes with their parameter MBRs."""

    __slots__ = ("_children", "_count_cache", "_bounds_cache")

    def __init__(self, page_id: int) -> None:
        super().__init__(page_id)
        self._children: list[Node] = []
        self._count_cache: Optional[int] = None
        self._bounds_cache: Optional[tuple[np.ndarray, ...]] = None

    @property
    def is_leaf(self) -> bool:
        return False

    @property
    def children(self) -> list[Node]:
        """The child nodes; materializes a disk stub on first access."""
        if self._loader is not None:
            self._materialize()
        return self._children

    def set_loader(
        self, loader: Callable[["InnerNode"], None], count: int
    ) -> None:
        """Turn this node into a stub: ``loader`` fills the child list."""
        self._loader = loader  # type: ignore[assignment]
        self._count_cache = count

    @property
    def count(self) -> int:
        if self._count_cache is None:
            self._count_cache = sum(c.count for c in self.children)
        return self._count_cache

    def invalidate_count(self) -> None:
        """Drop the cached subtree cardinality (on any subtree mutation)."""
        node: Optional[InnerNode] = self
        while node is not None:
            node._count_cache = None
            node._bounds_cache = None
            node = node.parent

    def stacked_child_bounds(self) -> tuple[np.ndarray, ...]:
        """``(mu_lo, mu_hi, sigma_lo, sigma_hi)``, each ``(k, d)``, stacked
        over the children — lets queries bound all children in one numpy
        call. Cached until the next mutation below this node."""
        if self._bounds_cache is None:
            rects = [c.rect for c in self.children]
            self._bounds_cache = (
                np.vstack([r.mu_lo for r in rects]),
                np.vstack([r.mu_hi for r in rects]),
                np.vstack([r.sigma_lo for r in rects]),
                np.vstack([r.sigma_hi for r in rects]),
            )
        return self._bounds_cache

    def add_child(self, child: Node) -> None:
        if child.rect is None:
            raise ValueError("cannot attach a child without an MBR")
        self.children.append(child)
        child.parent = self
        if self.rect is None:
            self.rect = child.rect.copy()
        else:
            self.rect.extend_rect(child.rect)
        self.invalidate_count()

    def remove_child(self, child: Node) -> None:
        self.children.remove(child)
        child.parent = None
        self.refresh_rect()
        self.invalidate_count()

    def replace_children(self, children: list[Node]) -> None:
        """Swap in a new child list (used by splits); reparents and
        recomputes the MBR."""
        self._loader = None
        self._children = children
        for c in children:
            c.parent = self
        self.refresh_rect()
        self.invalidate_count()

    def refresh_rect(self) -> None:
        rects = [c.rect for c in self.children if c.rect is not None]
        self.rect = ParameterRect.of_rects(rects) if rects else None

    def __iter__(self) -> Iterator[Node]:
        return iter(self.children)

    def __repr__(self) -> str:
        if self._loader is not None:
            return f"InnerNode(page={self.page_id}, stub, count={self._count_cache})"
        return f"InnerNode(page={self.page_id}, children={len(self._children)})"
