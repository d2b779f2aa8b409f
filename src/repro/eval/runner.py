"""Experiment runner: batches of queries against any session/backend.

Since the unified engine API landed, the runner is a thin layer over
:class:`repro.engine.Session`: every workload item is executed through
``Session.execute`` (one spec at a time — the paper's evaluation
protocol charges each query its own page accesses, so the shared-pass
batch entry points are deliberately *not* used here) and the per-query
:class:`~repro.core.queries.QueryStats` are aggregated, cold-starting
the buffer before each batch as the paper's experiments do.

``run_mliq_batch`` / ``run_tiq_batch`` accept a ready
:class:`~repro.engine.Session` or an index object (GaussTree,
SequentialScanIndex, XTreePFVIndex, or a Backend), which is adopted via
:func:`repro.engine.session_for`.
"""

from __future__ import annotations

import dataclasses
from typing import Hashable, Sequence

from repro.core.queries import QueryStats
from repro.data.workload import IdentificationQuery
from repro.engine import MLIQ, TIQ, Session, session_for
from repro.eval.metrics import PrecisionRecall, precision_recall

__all__ = ["BatchResult", "run_mliq_batch", "run_tiq_batch"]


@dataclasses.dataclass
class BatchResult:
    """Aggregate of one workload batch against one access method."""

    method: str
    query_kind: str
    totals: QueryStats
    per_query_keys: list[list[Hashable]]
    effectiveness: PrecisionRecall | None

    @property
    def queries(self) -> int:
        return len(self.per_query_keys)

    def mean_pages(self) -> float:
        return self.totals.pages_accessed / max(1, self.queries)

    def summary(self) -> dict[str, float]:
        """Flat numbers for reports and benchmark ``extra_info``."""
        out = {
            "queries": float(self.queries),
            "pages_accessed": float(self.totals.pages_accessed),
            "page_faults": float(self.totals.page_faults),
            "objects_refined": float(self.totals.objects_refined),
            "cpu_seconds": self.totals.cpu_seconds,
            "io_seconds": self.totals.io_seconds,
            "total_seconds": self.totals.total_seconds,
        }
        if self.effectiveness is not None:
            out["precision"] = self.effectiveness.precision
            out["recall"] = self.effectiveness.recall
        return out


def _run_batch(
    method,
    method_name: str,
    query_kind: str,
    workload: Sequence[IdentificationQuery],
    make_spec,
    score: bool,
) -> BatchResult:
    if not workload:
        raise ValueError("empty workload")
    session: Session = session_for(method)
    session.cold_start()
    totals = QueryStats()
    per_query_keys: list[list[Hashable]] = []
    for item in workload:
        result = session.execute(make_spec(item))
        totals.merge(result.stats)
        per_query_keys.append([m.key for m in result.matches])
    effectiveness = None
    if score:
        effectiveness = precision_recall(
            per_query_keys, [item.true_key for item in workload]
        )
    return BatchResult(
        method=method_name or session.backend_name,
        query_kind=query_kind,
        totals=totals,
        per_query_keys=per_query_keys,
        effectiveness=effectiveness,
    )


def run_mliq_batch(
    method,
    workload: Sequence[IdentificationQuery],
    k: int = 1,
    method_name: str = "",
    score: bool = True,
) -> BatchResult:
    """Run a k-MLIQ over every workload query, cold buffer at the start."""
    return _run_batch(
        method,
        method_name or _default_name(method),
        f"{k}-MLIQ",
        workload,
        lambda item: MLIQ(item.q, k),
        score,
    )


def run_tiq_batch(
    method,
    workload: Sequence[IdentificationQuery],
    p_theta: float,
    method_name: str = "",
    score: bool = True,
) -> BatchResult:
    """Run a TIQ over every workload query, cold buffer at the start."""
    return _run_batch(
        method,
        method_name or _default_name(method),
        f"TIQ(P={p_theta:g})",
        workload,
        lambda item: TIQ(item.q, p_theta),
        score,
    )


def _default_name(method) -> str:
    if isinstance(method, Session):
        return method.backend_name
    return type(method).__name__
