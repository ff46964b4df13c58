"""The control and meta frames of one serving connection.

The data-plane messages live with the layers that speak them
(:mod:`repro.service.messages`, :mod:`repro.queries.messages`).  These
are the frames only a wire needs: open/close a session, refresh, batch
acknowledgement, typed errors (re-raised client-side as their original
exception class), and the meta frames (stats, aggregate stats, active
objects, drain, repair deltas, metrics) that let a remote client or a
dispatcher read and steer the server.  Meta frames are diagnostics or
infrastructure — the server deliberately does not bill their bytes into
:class:`~repro.core.stats.CommunicationStats`.

Their byte layouts are described once, in :mod:`repro.transport.codec`,
which also re-exports every class here.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Optional, Tuple, Type

from repro.core.stats import CommunicationStats, ProcessorStats
from repro.errors import (
    ConfigurationError,
    ConnectionLost,
    EmptyDatasetError,
    GeometryError,
    QueryError,
    ReproError,
    RequestTimeout,
    RoadNetworkError,
    TransportError,
)
from repro.geometry.point import Point

__all__ = [
    "AggregateStatsRequest",
    "AggregateStatsResponse",
    "BatchApplied",
    "CloseSession",
    "DeltaAck",
    "DrainAck",
    "DrainRequest",
    "ErrorMessage",
    "IndexDelta",
    "MetricsRequest",
    "MetricsSnapshot",
    "ObjectsRequest",
    "ObjectsResponse",
    "OpenSession",
    "RefreshRequest",
    "SessionClosed",
    "SessionOpened",
    "StatsRequest",
    "StatsResponse",
]

#: Wire names of the error classes a server may relay (client re-raises).
_ERROR_KINDS: Dict[str, Type[ReproError]] = {
    "query": QueryError,
    "configuration": ConfigurationError,
    "geometry": GeometryError,
    "road": RoadNetworkError,
    "empty": EmptyDatasetError,
    # Subclasses precede their base in this dict: _KIND_OF_ERROR inverts
    # it, and ErrorMessage.from_exception walks the MRO to the nearest
    # registered class, so a ConnectionLost raised server-side re-raises
    # client-side as ConnectionLost, not a bare TransportError.
    "connection-lost": ConnectionLost,
    "timeout": RequestTimeout,
    "transport": TransportError,
    "error": ReproError,
}
_KIND_OF_ERROR = {cls: kind for kind, cls in _ERROR_KINDS.items()}


@dataclass(frozen=True)
class OpenSession:
    """Client → server: register a moving query and open its session.

    Attributes:
        position: the query's starting position (Point or NetworkLocation).
        k: number of nearest neighbours to maintain.
        rho: prefetch ratio ρ.
        options: extra keyword options passed to the engine's
            ``register_query`` (e.g. the road side's ``validation_mode``),
            as ``(name, value)`` string pairs.
    """

    position: Any
    k: int
    rho: float
    options: Tuple[Tuple[str, str], ...] = field(default=())

    def __post_init__(self):
        object.__setattr__(
            self, "options", tuple((str(k), str(v)) for k, v in self.options)
        )


@dataclass(frozen=True)
class SessionOpened:
    """Server → client: the session is open under ``query_id``."""

    query_id: int


@dataclass(frozen=True)
class CloseSession:
    """Client → server: unregister ``query_id`` (the goodbye message)."""

    query_id: int


@dataclass(frozen=True)
class SessionClosed:
    """Server → client: acknowledgement of :class:`CloseSession`."""

    query_id: int


@dataclass(frozen=True)
class RefreshRequest:
    """Client → server: re-answer ``query_id`` at its current position."""

    query_id: int


@dataclass(frozen=True)
class BatchApplied:
    """Server → client: one :class:`UpdateBatch` was applied as an epoch.

    Attributes:
        epoch: the server's data epoch after the batch.
        new_indexes: object indexes assigned to the batch's inserts (on the
            Euclidean side this includes the reinsert half of each move, in
            ``inserts`` then ``moves`` order — the native decomposition).
        deleted_indexes: object indexes actually removed.
    """

    epoch: int
    new_indexes: Tuple[int, ...] = field(default=())
    deleted_indexes: Tuple[int, ...] = field(default=())

    def __post_init__(self):
        object.__setattr__(self, "new_indexes", tuple(self.new_indexes))
        object.__setattr__(self, "deleted_indexes", tuple(self.deleted_indexes))


@dataclass(frozen=True)
class ErrorMessage:
    """Server → client: a request failed with a typed library error."""

    kind: str
    message: str

    @classmethod
    def from_exception(cls, error: ReproError) -> "ErrorMessage":
        """Wrap a library exception for the wire (closest registered kind)."""
        for klass in type(error).__mro__:
            kind = _KIND_OF_ERROR.get(klass)
            if kind is not None:
                return cls(kind=kind, message=str(error))
        return cls(kind="error", message=str(error))

    def to_exception(self) -> ReproError:
        """The client-side exception this frame re-raises as."""
        return _ERROR_KINDS.get(self.kind, ReproError)(self.message)


@dataclass(frozen=True)
class StatsRequest:
    """Client → server: read the communication counters (meta, unbilled)."""

    per_session: bool = False


@dataclass(frozen=True)
class StatsResponse:
    """Server → client: aggregate (and optionally per-session) counters."""

    aggregate: CommunicationStats
    per_session: Tuple[Tuple[int, CommunicationStats], ...] = field(default=())

    def __post_init__(self):
        object.__setattr__(
            self, "per_session", tuple((int(q), s) for q, s in self.per_session)
        )


@dataclass(frozen=True)
class ObjectsRequest:
    """Client → server: read the active object indexes (meta, unbilled)."""


@dataclass(frozen=True)
class ObjectsResponse:
    """Server → client: active object indexes, in the index's native order.

    The order matters: churn workloads sample victims from this list with a
    seeded RNG, so preserving the server-side order is what makes remote
    runs realise bit-identical update streams.
    """

    epoch: int
    indexes: Tuple[int, ...] = field(default=())

    def __post_init__(self):
        object.__setattr__(self, "indexes", tuple(self.indexes))


@dataclass(frozen=True)
class DrainRequest:
    """Operator → server: stop serving gracefully and park the sessions.

    The receiving side finishes the exchange in flight, checkpoints its
    durable state (when it has any), leaves every open session claimable —
    in the shard WAL for a process worker, in the orphan pool for a socket
    server — and answers with a :class:`DrainAck` before going quiet.
    """


@dataclass(frozen=True)
class DrainAck:
    """Server → operator: drained; state is parked and claimable.

    Attributes:
        wal_seq: the last WAL sequence number covered by the drain's
            checkpoint (0 for a non-durable service — nothing logged, the
            sessions only survive in the orphan pool).
        session_ids: the query ids parked by the drain, ready for a
            replacement worker or a reconnecting client to claim.
    """

    wal_seq: int
    session_ids: Tuple[int, ...] = field(default=())

    def __post_init__(self):
        object.__setattr__(self, "session_ids", tuple(self.session_ids))


@dataclass(frozen=True)
class AggregateStatsRequest:
    """Client → server: read the summed ProcessorStats (meta, unbilled)."""


@dataclass(frozen=True)
class AggregateStatsResponse:
    """Server → client: the engine's aggregate client-side cost counters."""

    stats: ProcessorStats


@dataclass(frozen=True)
class IndexDelta:
    """Leader → replicas: the repair delta of one update epoch (meta).

    Shipped by the maintenance leader (shard 0) right after it applies an
    :class:`~repro.service.messages.UpdateBatch`, so read replicas can
    patch their index to the identical post-epoch state through
    ``apply_remote_delta()`` without re-running any geometry.  Like every
    meta frame its bytes are not billed into
    :class:`~repro.core.stats.CommunicationStats` — the replication
    fan-out is serving infrastructure, not client/server traffic; a
    replica's message/object counters are instead driven by the shipped
    ``payload``/``changed``/``deleted_indexes`` fields, which reproduce
    exactly what applying the batch locally would have billed.

    Attributes:
        epoch: the leader's data epoch *after* the batch (unchanged when
            the batch was a no-op — replicas then apply nothing).
        payload: the update-record count the epoch billed as uplink
            objects (deduplicated; move halves included on the Euclidean
            side).
        full: the leader rebuilt from scratch — the metric sections carry
            the complete post-epoch state and replicas replace wholesale.
        bulk: the Euclidean structural path ran in bulk order (deletes
            before inserts); replicas must replay the R-tree operations in
            the same order for the trees to stay identical.
        new_indexes: object indexes assigned to the epoch's inserts.
        deleted_indexes: object indexes actually removed.
        changed: the epoch's invalidation delta (sorted object indexes).
        points: positions of ``new_indexes``, in order (Euclidean).
        neighbors: final ``(object, sorted neighbour list)`` entries for
            every object whose neighbour set the epoch touched.
        removed_neighbors: objects whose neighbour entry was dropped.
        assignments: road ``(object, vertex)`` placements (inserts and
            moves).
        groups: road ``(vertex, co-located object list)`` entries.
        removed_groups: vertices whose object group emptied.
        vertices: road ``(vertex, owner, distance)`` re-settlements.
        removed_vertices: road vertices left unowned.
        edges: road ``(edge_id, owner_u, owner_v, border_offset)`` edge
            ownership records (``border_offset`` None when one object owns
            the whole edge).
        removed_edges: road edges whose ownership was dropped.
        labels: road per-representative cell state — ``(rep, owned
            vertices, owned edges, adjacent representatives)``.
        removed_labels: representatives whose cell disappeared.
    """

    epoch: int
    payload: int
    full: bool = False
    bulk: bool = False
    new_indexes: Tuple[int, ...] = field(default=())
    deleted_indexes: Tuple[int, ...] = field(default=())
    changed: Tuple[int, ...] = field(default=())
    points: Tuple[Point, ...] = field(default=())
    neighbors: Tuple[Tuple[int, Tuple[int, ...]], ...] = field(default=())
    removed_neighbors: Tuple[int, ...] = field(default=())
    assignments: Tuple[Tuple[int, int], ...] = field(default=())
    groups: Tuple[Tuple[int, Tuple[int, ...]], ...] = field(default=())
    removed_groups: Tuple[int, ...] = field(default=())
    vertices: Tuple[Tuple[int, int, float], ...] = field(default=())
    removed_vertices: Tuple[int, ...] = field(default=())
    edges: Tuple[Tuple[int, int, int, Optional[float]], ...] = field(default=())
    removed_edges: Tuple[int, ...] = field(default=())
    labels: Tuple[Tuple[int, Tuple[int, ...], Tuple[int, ...], Tuple[int, ...]], ...] = field(
        default=()
    )
    removed_labels: Tuple[int, ...] = field(default=())

    def __post_init__(self):
        normalize = object.__setattr__
        normalize(self, "new_indexes", tuple(self.new_indexes))
        normalize(self, "deleted_indexes", tuple(self.deleted_indexes))
        normalize(self, "changed", tuple(self.changed))
        normalize(self, "points", tuple(self.points))
        normalize(
            self,
            "neighbors",
            tuple((int(obj), tuple(members)) for obj, members in self.neighbors),
        )
        normalize(self, "removed_neighbors", tuple(self.removed_neighbors))
        normalize(
            self,
            "assignments",
            tuple((int(obj), int(vertex)) for obj, vertex in self.assignments),
        )
        normalize(
            self,
            "groups",
            tuple((int(vertex), tuple(members)) for vertex, members in self.groups),
        )
        normalize(self, "removed_groups", tuple(self.removed_groups))
        normalize(
            self,
            "vertices",
            tuple(
                (int(vertex), int(owner), float(distance))
                for vertex, owner, distance in self.vertices
            ),
        )
        normalize(self, "removed_vertices", tuple(self.removed_vertices))
        normalize(
            self,
            "edges",
            tuple(
                (int(e), int(u), int(v), None if border is None else float(border))
                for e, u, v, border in self.edges
            ),
        )
        normalize(self, "removed_edges", tuple(self.removed_edges))
        normalize(
            self,
            "labels",
            tuple(
                (int(rep), tuple(verts), tuple(edge_ids), tuple(adjacent))
                for rep, verts, edge_ids, adjacent in self.labels
            ),
        )
        normalize(self, "removed_labels", tuple(self.removed_labels))


@dataclass(frozen=True)
class DeltaAck:
    """Replica → leader side: an :class:`IndexDelta` was applied (meta).

    Attributes:
        epoch: the replica's data epoch after applying the delta — the
            dispatcher cross-checks it against the leader's.
    """

    epoch: int


@dataclass(frozen=True)
class MetricsRequest:
    """Client → server: send me your metrics registry snapshot (meta).

    Read-only and idempotent: answered from a snapshot read, it never
    touches a session, an epoch or a counter — a scrape mid-run cannot
    perturb the protocol it observes.
    """


@dataclass(frozen=True)
class MetricsSnapshot:
    """Server → client: one observability registry readout (meta).

    The wire form of :class:`~repro.obs.metrics.RegistrySnapshot` (same
    field shapes, so :func:`~repro.obs.metrics.render_prometheus` and
    :func:`~repro.obs.metrics.merge_snapshots` accept either).  Labels
    travel in the canonical ``k=v,k2=v2`` form; histogram bucket counts
    are positional over the shared fixed bounds
    (:data:`~repro.obs.metrics.HISTOGRAM_BOUNDS`), which is what lets a
    dispatcher merge per-shard snapshots exactly.

    Attributes:
        counters: ``(name, labels, value)`` triples.
        gauges: ``(name, labels, value)`` triples.
        histograms: ``(name, labels, bucket_counts, sum)`` tuples.
    """

    counters: Tuple[Tuple[str, str, int], ...] = ()
    gauges: Tuple[Tuple[str, str, float], ...] = ()
    histograms: Tuple[Tuple[str, str, Tuple[int, ...], float], ...] = ()

    def __post_init__(self):
        normalize = object.__setattr__
        normalize(
            self,
            "counters",
            tuple((str(n), str(l), int(v)) for n, l, v in self.counters),
        )
        normalize(
            self,
            "gauges",
            tuple((str(n), str(l), float(v)) for n, l, v in self.gauges),
        )
        normalize(
            self,
            "histograms",
            tuple(
                (str(n), str(l), tuple(int(c) for c in counts), float(total))
                for n, l, counts, total in self.histograms
            ),
        )
