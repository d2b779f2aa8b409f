"""Sequential-scan query processing (Section 4, "Our General Solution").

These are the paper's reference algorithms over an unordered file of pfv:

* **k-MLIQ** — a single scan keeps the k highest-density objects seen so
  far; posteriors are normalised by the full denominator afterwards.
* **TIQ** — conceptually two scans: one to accumulate the Bayes denominator
  ``sum_w p(q|w)``, one to report every object with
  ``p(q|v) / denominator >= tau``. Our vectorised implementation
  materialises all log densities once (that *is* the first scan) and
  filters in a second pass over the array.

They are exact and serve three roles in this repository: (1) the
correctness oracle the Gauss-tree is tested against, (2) the refinement
step of filter+refine baselines, and (3) the "Seq. File" competitor of
Figure 7 when run through :class:`repro.baselines.seqscan.SequentialScanIndex`,
which adds paged-IO accounting on top.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

import numpy as np

from repro.core import gaussian
from repro.core.bayes import log_densities, posteriors_from_log_densities
from repro.core.database import PFVDatabase
from repro.core.queries import Match

if TYPE_CHECKING:
    from repro.engine.spec import MLIQ, TIQ

__all__ = ["scan_mliq", "scan_tiq", "scan_posteriors"]


def _matches_from(
    db: PFVDatabase, order: np.ndarray, log_dens: np.ndarray, post: np.ndarray
) -> list[Match]:
    return [
        Match(db[int(i)], float(log_dens[int(i)]), float(post[int(i)]))
        for i in order
    ]


def _ranked_order(log_dens: np.ndarray) -> np.ndarray:
    """Indices sorted by descending density; ties broken by position for
    deterministic results (Definition 3 leaves ties unspecified)."""
    return np.lexsort((np.arange(log_dens.size), -log_dens))


def scan_posteriors(db: PFVDatabase, q) -> tuple[np.ndarray, np.ndarray]:
    """Log densities and posteriors of all objects, in insertion order."""
    log_dens = log_densities(db, q)
    return log_dens, posteriors_from_log_densities(log_dens)


def scan_mliq(db: PFVDatabase, query: MLIQ) -> list[Match]:
    """Answer a k-MLIQ by scanning the whole database.

    Returns min(k, n) matches ordered by descending posterior.
    """
    if len(db) == 0:
        return []
    log_dens, post = scan_posteriors(db, query.q)
    order = _ranked_order(log_dens)[: query.k]
    return _matches_from(db, order, log_dens, post)


def scan_tiq(db: PFVDatabase, query: TIQ) -> list[Match]:
    """Answer a TIQ by scanning the whole database.

    Returns all objects with posterior ``>= tau``, ordered by
    descending posterior. With ``tau == 0`` this is the full ranked
    database (every posterior is >= 0).
    """
    if len(db) == 0:
        return []
    log_dens, post = scan_posteriors(db, query.q)
    selected = post >= query.tau
    order = _ranked_order(log_dens)
    order = order[selected[order]]
    return _matches_from(db, order, log_dens, post)


def scan_log_total(db: PFVDatabase, q) -> float:
    """Log Bayes denominator, as the first TIQ scan would compute it."""
    if len(db) == 0:
        return -math.inf
    return gaussian.logsumexp(log_densities(db, q))
