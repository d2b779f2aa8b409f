"""The engine's query algebra: declarative specs, separate from execution.

One probabilistic query model is served by interchangeable access
methods (the point of the paper), so the query *specification* must not
know anything about execution. The specs here are plain frozen
dataclasses; a :class:`~repro.engine.session.Session` routes them to
whichever backend it was connected with, and
:mod:`repro.engine.planner` describes how they will run.

* :class:`MLIQ` — the k-most-likely identification query (Definition 3).
* :class:`TIQ` — the threshold identification query (Definition 2),
  with an optional accuracy slack ``eps``.
* :class:`RankQuery` — probabilistic top-k ranking. In this model every
  query observation has exactly one true identity, so the posterior
  vector ``P(v | q)`` *is* the probability distribution over candidate
  identities and the consensus ranking (in the sense of "Consensus
  Answers for Queries over Probabilistic Databases") is simply the
  posterior-descending order. ``RankQuery(q, k)`` therefore returns the
  top-``k`` of that ranking, optionally truncated once the reported
  ranking carries at least ``min_mass`` cumulative posterior mass — a
  "stop when the answer is probably complete" cut that MLIQ's fixed
  ``k`` cannot express.
* :class:`ConsensusTopK` — the symmetric-difference-optimal top-k set
  under possible-worlds semantics ("Consensus Answers for Queries over
  Probabilistic Databases", Li & Deshpande). Each match carries its
  per-world membership probability in ``Match.score``.
* :class:`ExpectedRank` — ranking by expected per-world rank ("Scalable
  Probabilistic Similarity Ranking in Uncertain Databases", Bernecker
  et al.). Each match carries its expected rank in ``Match.score``.

Both ranking semantics are defined over the identification model's
possible-worlds space: a world fixes the query's one true identity
``u``, and occurs with the posterior probability ``P(u | q)``. In world
``u`` the induced ranking is ``u`` first, then every other object in
density order. Because both semantics provably order candidates exactly
as the density does (see :mod:`repro.engine.semantics` for the proofs
and the closed forms), each lowers to the MLIQ top-k — inheriting the
Gauss-tree's threshold-based early termination — followed by an exact,
pure rescoring of the returned prefix.

Write specs (capability-gated: the backend must declare ``"writable"``):

* :class:`Insert` — add one pfv to the connected database/index.
* :class:`Delete` — remove one pfv equal to the given one.

A ``Session.execute_many`` batch may interleave write and read specs;
it executes them **in input order** (a query sees every write earlier in
the batch, none later), grouping consecutive inserts into one
group-commit transaction on backends that support it. Write specs
answer with the empty match list in the :class:`ResultSet` slot —
they are acknowledged by position, not by matches.

Normalised edge-case semantics (every backend conforms; the
cross-backend parity property test enforces it):

============================  ============================================
situation                     result
============================  ============================================
``k == 0``                    valid spec; the empty match list
``k > len(database)``         all ``len(database)`` objects, ranked
empty database                the empty match list (MLIQ, TIQ and Rank)
``TIQ.tau == 0``              the full ranked database
============================  ============================================
"""

from __future__ import annotations

import dataclasses
from typing import Union

from repro.core.pfv import PFV

__all__ = [
    "MLIQ",
    "TIQ",
    "RankQuery",
    "ConsensusTopK",
    "ExpectedRank",
    "Insert",
    "Delete",
    "Query",
    "WriteSpec",
    "Spec",
    "query_kind",
    "spec_kind",
    "is_write_spec",
]


@dataclasses.dataclass(frozen=True)
class MLIQ:
    """k-most-likely identification: the ``k`` highest-posterior objects.

    Parameters
    ----------
    q:
        The query observation (a pfv: means plus uncertainties).
    k:
        Result size; ``0`` is valid and yields the empty result.
    """

    q: PFV
    k: int = 1

    def __post_init__(self) -> None:
        if self.k < 0:
            raise ValueError(f"k must be non-negative, got {self.k}")

    @property
    def kind(self) -> str:
        """Dispatch kind of this spec (``"mliq"``)."""
        return "mliq"


@dataclasses.dataclass(frozen=True)
class TIQ:
    """Threshold identification: every object with posterior >= ``tau``.

    Parameters
    ----------
    q:
        The query observation.
    tau:
        The posterior threshold (the paper's ``p_theta``).
    eps:
        Accuracy slack for the accept/reject *decision*: an object whose
        posterior interval straddles ``tau`` but is narrower than
        ``eps`` may be classified by the interval midpoint instead of
        forcing further page reads (Section 5.2.3). ``0.0`` demands the
        exact answer set; exact backends (the sequential scan) ignore a
        positive ``eps`` and simply answer exactly.
    """

    q: PFV
    tau: float = 0.5
    eps: float = 0.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.tau <= 1.0:
            raise ValueError(
                f"tau must be a probability in [0, 1], got {self.tau}"
            )
        if not 0.0 <= self.eps <= 1.0:
            raise ValueError(f"eps must be in [0, 1], got {self.eps}")

    @property
    def kind(self) -> str:
        """Dispatch kind of this spec (``"tiq"``)."""
        return "tiq"


@dataclasses.dataclass(frozen=True)
class RankQuery:
    """Probabilistic top-k ranking under the posterior distribution.

    Returns at most ``k`` objects in posterior-descending order. With
    ``min_mass`` set, the ranking is additionally truncated at the first
    prefix whose cumulative posterior reaches ``min_mass`` — "rank
    candidates until the answer is 99% complete". Executed by lowering
    to an MLIQ and trimming, so every backend that answers MLIQ answers
    RankQuery with identical semantics.
    """

    q: PFV
    k: int = 1
    min_mass: float | None = None

    def __post_init__(self) -> None:
        if self.k < 0:
            raise ValueError(f"k must be non-negative, got {self.k}")
        if self.min_mass is not None and not 0.0 < self.min_mass <= 1.0:
            raise ValueError(
                f"min_mass must be in (0, 1], got {self.min_mass}"
            )

    @property
    def kind(self) -> str:
        """Dispatch kind of this spec (``"rank"``)."""
        return "rank"

    def lower(self) -> "MLIQ":
        """The engine MLIQ this executes as; the session applies the
        ``min_mass`` cut to the ranked result afterwards."""
        return MLIQ(self.q, self.k)


@dataclasses.dataclass(frozen=True)
class ConsensusTopK:
    """Symmetric-difference-optimal top-k set (Li & Deshpande).

    Under possible-worlds semantics the consensus answer is the
    deterministic ``k``-set minimising the expected symmetric-difference
    distance to the per-world top-k answers; that optimum is the ``k``
    objects of largest membership probability, which in this model is
    exactly the density top-k (membership probability is monotone in
    density). Each returned :class:`~repro.core.queries.Match` carries
    its membership probability — the probability that the object
    appears in a random world's top-k answer — in ``Match.score``.

    Parameters
    ----------
    q:
        The query observation (a pfv: means plus uncertainties).
    k:
        Consensus set size; ``0`` is valid and yields the empty result.
    """

    q: PFV
    k: int = 1

    def __post_init__(self) -> None:
        if self.k < 0:
            raise ValueError(f"k must be non-negative, got {self.k}")

    @property
    def kind(self) -> str:
        """Dispatch kind of this spec (``"consensus"``)."""
        return "consensus"

    def lower(self) -> "MLIQ":
        """The engine MLIQ supplying the candidate prefix; the executor
        attaches membership probabilities afterwards (see
        :func:`repro.engine.semantics.consensus_scores`)."""
        return MLIQ(self.q, self.k)


@dataclasses.dataclass(frozen=True)
class ExpectedRank:
    """Ranking by expected per-world rank (Bernecker et al.).

    Orders objects by ``ER(v) = sum_w P(w) * rank(v | w)`` where
    ``rank`` counts the objects strictly above ``v`` in world ``w``.
    The expected-rank order provably coincides with the density order
    (ties included), so the MLIQ top-k — with the Gauss-tree's
    threshold-based early termination — supplies the exact answer
    prefix; the executor then attaches each object's exact expected
    rank in ``Match.score`` (see
    :func:`repro.engine.semantics.expected_rank_scores`).

    Parameters
    ----------
    q:
        The query observation (a pfv: means plus uncertainties).
    k:
        Result size; ``0`` is valid and yields the empty result.
    """

    q: PFV
    k: int = 1

    def __post_init__(self) -> None:
        if self.k < 0:
            raise ValueError(f"k must be non-negative, got {self.k}")

    @property
    def kind(self) -> str:
        """Dispatch kind of this spec (``"erank"``)."""
        return "erank"

    def lower(self) -> "MLIQ":
        """The engine MLIQ supplying the candidate prefix; the executor
        attaches expected ranks afterwards."""
        return MLIQ(self.q, self.k)


@dataclasses.dataclass(frozen=True)
class Insert:
    """Write spec: add one pfv to the connected database/index.

    Requires the ``"writable"`` capability. Consecutive :class:`Insert`
    specs in one ``execute_many`` batch are applied through the
    backend's ``insert_many`` — on the WAL-backed disk tree that is a
    single group-commit transaction (one fsync for the run), and on a
    writable sharded session each insert routes to its owning shard by
    the deployment's placement policy.
    """

    v: PFV

    @property
    def kind(self) -> str:
        """Dispatch kind of this spec (``"insert"``)."""
        return "insert"


@dataclasses.dataclass(frozen=True)
class Delete:
    """Write spec: remove one pfv equal to ``v`` (no-op if absent).

    Requires the ``"writable"`` capability. ``Session.delete`` is the
    entry point that reports whether the object was found; inside an
    ``execute_many`` batch the spec answers with the empty match list
    either way.
    """

    v: PFV

    @property
    def kind(self) -> str:
        """Dispatch kind of this spec (``"delete"``)."""
        return "delete"


Query = Union[MLIQ, TIQ, RankQuery, ConsensusTopK, ExpectedRank]
WriteSpec = Union[Insert, Delete]
Spec = Union[Query, WriteSpec]

_READ_KINDS = ("mliq", "tiq", "rank", "consensus", "erank")
_WRITE_KINDS = ("insert", "delete")


def query_kind(query: Query) -> str:
    """The dispatch kind of a read spec; raises TypeError for non-specs
    (including write specs — use :func:`spec_kind` to accept those)."""
    kind = getattr(query, "kind", None)
    if kind not in _READ_KINDS:
        raise TypeError(
            f"not an engine query spec: {query!r} (expected MLIQ, TIQ, "
            "RankQuery, ConsensusTopK or ExpectedRank)"
        )
    return kind


def spec_kind(spec: Spec) -> str:
    """The dispatch kind of any spec, read or write; raises TypeError
    for objects that are not engine specs."""
    kind = getattr(spec, "kind", None)
    if kind not in _READ_KINDS and kind not in _WRITE_KINDS:
        raise TypeError(
            f"not an engine spec: {spec!r} (expected MLIQ, TIQ, "
            "RankQuery, ConsensusTopK, ExpectedRank, Insert or Delete)"
        )
    return kind


def is_write_spec(spec: Spec) -> bool:
    """Whether ``spec`` mutates the database (Insert/Delete)."""
    return spec_kind(spec) in _WRITE_KINDS
