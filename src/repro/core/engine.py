"""The generic multi-query serving engine — the one serving skeleton.

The paper's system is a *server*: one shared, expensive index answers many
concurrent moving kNN queries while the underlying data objects churn.  The
Euclidean :class:`~repro.core.server.MovingKNNServer` (over a
:class:`~repro.index.vortree.VoRTree`) and the road-network
:class:`~repro.core.road_server.MovingRoadKNNServer` (over a
:class:`~repro.roadnet.network_voronoi.NetworkVoronoiDiagram`) are two
metric instances of the same machine, and this module is that machine:

* **query lifecycle** — registration hands out monotonically increasing
  query identifiers; every registered query owns one processor (answer,
  prefetched set, guard set) initialised before it is admitted, so a
  failing first answer never leaves a zombie query behind;
* **one mutation path** — :meth:`ServingEngine.batch_update` checks the
  whole burst before anything mutates (moves must name live objects,
  insert and move targets must be valid for the metric, the surviving
  population must still serve every query's ``k``), applies it to the
  shared index as one timed repair and commits it as one epoch.  A metric
  whose index cannot relocate objects natively applies a move as delete +
  reinsert (two object records on the wire);
* **epoch counter** — every mutation batch (a single insert/delete/move
  counts as a batch of one) advances one data epoch, so clients can cheaply
  detect whether the data set changed since they last looked;
* **delta-scoped invalidation** — every repair reports the objects whose
  Voronoi neighbour sets changed, and the engine pushes exactly that delta
  (plus the removed objects) to every registered processor, which settles
  it lazily on its next timestamp (see :mod:`repro.core.processor`).
  Processors share the index's live position view, so an update never
  copies the object list into each query.  The blanket pre-delta behaviour
  — every query refreshes fully on every epoch — survives as
  ``invalidation="flag"``, the fallback mode and the oracle of the
  randomized delta-equivalence tests;
* **leader/replica replication** — a maintenance leader exports each
  epoch's repair as an :class:`~repro.transport.codec.IndexDelta`
  (:meth:`ServingEngine.export_delta`); a read replica applies it
  (:meth:`ServingEngine.apply_remote_delta`) as the same epoch with the
  same changed/removed/payload values, without re-running any repair;
* **aggregate statistics** — cost counters summed across queries, plus the
  server-side maintenance and delta-apply timers, for capacity planning;
* **communication accounting** — every client/server exchange is counted
  into a :class:`~repro.core.stats.CommunicationStats`, per query and in
  aggregate, so the paper's headline metric (messages and objects shipped
  over the wire) is measured at the point where the exchanges happen
  instead of estimated from retrieval counters afterwards.  A registration
  costs one uplink request plus the initial retrieval response; a position
  update costs one round trip per server contact it actually needed (a
  locally validated timestamp is free); a mutation batch costs one uplink
  message carrying its object records
  (:meth:`ServingEngine.billed_records`) plus one invalidation
  notification per registered query; closing a query costs one uplink
  message.  The ``repro.service`` layer reports the same numbers through
  its typed message protocol — and because the accounting lives here, a
  workload driven through raw server calls produces identical counters.

A metric subclass supplies only the shared index and its calls: building
the index and the per-query processors, and the batch/export calls that
report repair deltas.
"""

from __future__ import annotations

import abc
import threading
from dataclasses import dataclass
from typing import (
    Any,
    Dict,
    FrozenSet,
    Generic,
    Iterable,
    Iterator,
    List,
    Optional,
    Protocol,
    Sequence,
    Set,
    Tuple,
    TypeVar,
)

from repro.errors import ConfigurationError, QueryError
from repro.core.objects import QueryResult
from repro.core.stats import CommunicationStats, ProcessorStats
from repro.obs.clock import clock as _clock
from repro.obs.metrics import (
    counter as _obs_counter,
    enabled as _obs_enabled,
    histogram as _obs_histogram,
)
from repro.obs.trace import TRACER as _TRACER

PositionT = TypeVar("PositionT")

# Engine-level observability: the epoch counter, and per-outcome
# retrieval counters derived from the ProcessorStats deltas the update
# already computed — reading them adds nothing to the serving work.
_EPOCHS_TOTAL = _obs_counter("insq_epochs_total")

#: ProcessorStats field → outcome label of ``insq_retrievals_total``.
_OUTCOME_FIELDS = (
    ("absorbed_updates", "absorbed"),
    ("ins_refreshes", "refreshed"),
    ("full_recomputations", "recomputed"),
    ("incremental_updates", "incremental"),
    ("local_reorders", "reordered"),
    ("validations", "validated"),
)
_OUTCOME_COUNTERS = tuple(
    _obs_counter("insq_retrievals_total", outcome=label)
    for _, label in _OUTCOME_FIELDS
)

# Index-maintenance latency per metric: one clock read pair feeds both the
# maintenance_seconds/delta_apply_seconds accumulators (always) and these
# registry histograms (when observability is enabled).
_METRICS = ("euclidean", "road")
_MAINTENANCE_SECONDS = {
    metric: _obs_histogram("insq_maintenance_seconds", metric=metric)
    for metric in _METRICS
}
_DELTA_APPLY_SECONDS = {
    metric: _obs_histogram("insq_delta_apply_seconds", metric=metric)
    for metric in _METRICS
}


class ServableProcessor(Protocol[PositionT]):
    """What the engine needs from a registered query's processor."""

    def initialize(self, position: PositionT) -> QueryResult: ...

    def update(self, position: PositionT) -> QueryResult: ...

    def notify_data_update(
        self, changed: Iterable[int], removed: Iterable[int]
    ) -> None: ...

    def invalidate(self) -> None: ...

    @property
    def stats(self) -> ProcessorStats: ...

    @property
    def last_position(self) -> Optional[PositionT]: ...


@dataclass(frozen=True)
class RegisteredQuery:
    """Bookkeeping record of one registered moving query.

    ``kind`` names the continuous query kind (``"knn"`` for the classic
    moving-kNN query; see :mod:`repro.queries.kinds` for the registry), and
    ``processor`` is whichever processor that kind builds.
    ``validation_mode`` is the road processor's distance mode (``None`` on
    the plane).
    """

    query_id: int
    k: int
    rho: float
    processor: ServableProcessor
    kind: str = "knn"
    validation_mode: Optional[str] = None


@dataclass(frozen=True)
class BatchUpdateResult:
    """Outcome of one :meth:`ServingEngine.batch_update` epoch.

    Attributes:
        new_indexes: object indexes assigned to the inserted objects, in
            input order (on a metric without native moves, followed by the
            reinsert half of each move).
        deleted_indexes: object indexes that were actually deleted.
        changed_objects: surviving objects whose Voronoi neighbour sets
            changed (the delta pushed to the registered queries).
        epoch: the data epoch after applying the batch (monotonically
            increasing; one step per mutation batch, however large).
    """

    new_indexes: Tuple[int, ...]
    deleted_indexes: Tuple[int, ...]
    changed_objects: FrozenSet[int]
    epoch: int


class ServingEngine(abc.ABC, Generic[PositionT]):
    """Generic moving-query serving engine (see the module docstring).

    Args:
        invalidation: how data-object updates reach the registered queries.
            ``"delta"`` (default) pushes the repair delta so each query pays
            only for updates that touched its held pool; ``"flag"`` restores
            the blanket pre-delta contract (every query refreshes fully on
            every epoch), kept as a fallback and as the equivalence oracle.
    """

    INVALIDATION_MODES = ("delta", "flag")

    #: The metric label of this engine's maintenance histograms and spans
    #: (``"euclidean"`` or ``"road"``; set by each metric subclass).
    METRIC: str
    #: Whether the shared index relocates an object in place (one billed
    #: record per move); otherwise a move is a delete + reinsert (two).
    NATIVE_MOVES = False

    #: Server-side wall-clock time spent applying update epochs to the live
    #: index (the maintenance leader's cost) and applying shipped repair
    #: deltas (the read-replica's cost).  Class-level defaults so engines
    #: pickled before these timers existed keep restoring cleanly; the
    #: engine accumulates onto instance attributes.
    maintenance_seconds: float = 0.0
    delta_apply_seconds: float = 0.0

    def __init__(self, invalidation: str = "delta"):
        if invalidation not in self.INVALIDATION_MODES:
            raise ConfigurationError(
                f"invalidation must be one of {self.INVALIDATION_MODES}, got {invalidation!r}"
            )
        self._invalidation = invalidation
        self._queries: Dict[int, RegisteredQuery] = {}
        self._next_query_id = 0
        self._epoch = 0
        # Communication accounting: one aggregate (it keeps the history of
        # unregistered queries) plus one live record per registered query.
        # The lock keeps the counters exact when a ShardedDispatcher
        # advances different queries from different worker threads.
        self._communication = CommunicationStats()
        self._comm_by_query: Dict[int, CommunicationStats] = {}
        self._comm_by_kind: Dict[str, CommunicationStats] = {}
        self._comm_lock = threading.Lock()

    # ------------------------------------------------------------------
    # Durability
    # ------------------------------------------------------------------
    def __getstate__(self):
        """Pickle the full serving state (for ``repro.durability`` snapshots).

        Everything the engine holds — index, registered processors with
        their prefetched/guard sets, epoch, communication counters — is
        picklable except the accounting lock, which is stripped here and
        recreated on restore.  A restored engine therefore continues
        *bit-identically*: same answers, same counters, same future query
        id assignments.
        """
        state = self.__dict__.copy()
        state["_comm_lock"] = None
        return state

    def __setstate__(self, state):
        self.__dict__.update(state)
        # Snapshots taken before per-kind accounting existed restore with an
        # empty kind ledger; it repopulates as exchanges are billed.
        self.__dict__.setdefault("_comm_by_kind", {})
        self._comm_lock = threading.Lock()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def invalidation(self) -> str:
        """The invalidation mode (``"delta"`` or ``"flag"``)."""
        return self._invalidation

    @property
    @abc.abstractmethod
    def object_count(self) -> int:
        """Number of active data objects in the shared index."""

    @property
    @abc.abstractmethod
    def index(self) -> Any:
        """The shared index (``is_active``/``batch_update``/``apply_remote_delta``)."""

    @abc.abstractmethod
    def active_object_indexes(self) -> List[int]:
        """Indexes of the active data objects, in the index's native order."""

    @property
    def query_count(self) -> int:
        """Number of currently registered queries."""
        return len(self._queries)

    @property
    def epoch(self) -> int:
        """The current data epoch.

        Incremented once per mutation batch (a single object update counts
        as a batch of one), so clients can cheaply detect whether the data
        set changed since they last looked.
        """
        return self._epoch

    def query_ids(self) -> List[int]:
        """Identifiers of the registered queries (a snapshot list)."""
        return list(self._queries)

    def __iter__(self) -> Iterator[RegisteredQuery]:
        """Iterate over a *snapshot* of the registration records.

        Unregistering a query (or closing a :class:`~repro.service.session.
        Session`) while iterating must not raise ``RuntimeError: dictionary
        changed size during iteration``, so the records are copied out
        before iteration starts.
        """
        return iter(tuple(self._queries.values()))

    @property
    def communication(self) -> CommunicationStats:
        """Aggregate client/server communication over the engine's lifetime.

        Includes exchanges of queries that have since been unregistered.
        The returned object is the engine's live accumulator — read it or
        :meth:`~repro.core.stats.CommunicationStats.snapshot` it, do not
        mutate it.
        """
        return self._communication

    def communication_for(self, query_id: int) -> CommunicationStats:
        """Live communication record of one registered query."""
        if query_id not in self._comm_by_query:
            raise QueryError(f"unknown query {query_id}")
        return self._comm_by_query[query_id]

    def per_query_communication(self) -> Dict[int, CommunicationStats]:
        """Communication counters per registered query (snapshots)."""
        return {
            query_id: record.snapshot()
            for query_id, record in self._comm_by_query.items()
        }

    def communication_by_kind(self) -> Dict[str, CommunicationStats]:
        """Communication counters per query *kind* (snapshots).

        Buckets exchanges by the kind of the query they were billed to
        (``"knn"``, ``"influential"``, ``"region"``, ...).  Only per-query
        exchanges are bucketed: the mutation stream's uplink messages and
        exchanges billed after a query closed (e.g. its goodbye-ack bytes)
        belong to no kind and appear in the aggregate only.
        """
        with self._comm_lock:
            return {kind: record.snapshot() for kind, record in self._comm_by_kind.items()}

    def kind_for(self, query_id: int) -> str:
        """The registered query kind of ``query_id`` (``"knn"`` by default)."""
        if query_id not in self._queries:
            raise QueryError(f"unknown query {query_id}")
        return getattr(self._queries[query_id], "kind", "knn")

    def _kind_bucket(self, query_id: int) -> Optional[CommunicationStats]:
        """The per-kind accumulator of a *registered* query (lock held)."""
        record = self._queries.get(query_id)
        if record is None:
            return None
        kind = getattr(record, "kind", "knn")
        bucket = self._comm_by_kind.get(kind)
        if bucket is None:
            bucket = self._comm_by_kind[kind] = CommunicationStats()
        return bucket

    def _account(
        self,
        query_id: Optional[int],
        uplink_messages: int = 0,
        uplink_objects: int = 0,
        downlink_messages: int = 0,
        downlink_objects: int = 0,
        uplink_bytes: int = 0,
        downlink_bytes: int = 0,
    ) -> None:
        """Add one exchange to the aggregate (and one query's) counters."""
        delta = CommunicationStats(
            uplink_messages=uplink_messages,
            uplink_objects=uplink_objects,
            downlink_messages=downlink_messages,
            downlink_objects=downlink_objects,
            uplink_bytes=uplink_bytes,
            downlink_bytes=downlink_bytes,
        )
        with self._comm_lock:
            self._communication.merge(delta)
            if query_id is not None:
                record = self._comm_by_query.get(query_id)
                if record is not None:
                    record.merge(delta)
                bucket = self._kind_bucket(query_id)
                if bucket is not None:
                    bucket.merge(delta)

    def account_wire_bytes(
        self,
        query_id: Optional[int],
        uplink_bytes: int = 0,
        downlink_bytes: int = 0,
    ) -> None:
        """Bill wire bytes measured by a transport onto the counters.

        The engine itself counts *messages* and *object states* — the units
        the in-process and over-the-wire surfaces share.  When a
        ``repro.transport`` server actually serialises those messages, it
        reports the measured frame sizes here so the byte counters sit
        alongside the message/object counts they correspond to.  Billing to
        a ``query_id`` that has already been unregistered (e.g. the bytes
        of the final close acknowledgement) silently lands in the aggregate
        only, mirroring how the goodbye message itself is accounted.
        """
        self._account(
            query_id, uplink_bytes=uplink_bytes, downlink_bytes=downlink_bytes
        )

    # ------------------------------------------------------------------
    # Query lifecycle
    # ------------------------------------------------------------------
    def _admit(
        self,
        position: PositionT,
        processor: ServableProcessor[PositionT],
        k: int,
        rho: float,
        kind: str = "knn",
        validation_mode: Optional[str] = None,
    ) -> int:
        """Initialise a query's processor, register it and return its id.

        The processor computes its first answer *before* it is admitted, so
        a failing first answer (bad position, unreachable region) cannot
        leave a zombie query behind that inflates counts and receives
        deltas forever.
        """
        self._check_position(position)
        processor.initialize(position)
        query_id = self._next_query_id
        self._next_query_id += 1
        self._queries[query_id] = RegisteredQuery(
            query_id=query_id,
            k=k,
            rho=rho,
            processor=processor,
            kind=kind,
            validation_mode=validation_mode,
        )
        self._comm_by_query[query_id] = CommunicationStats()
        # Registration communication: one uplink request, and the initial
        # retrieval the processor performed while initialising (its stats
        # already carry the round trips and the |R| + |I(R)| payload).
        stats = processor.stats
        self._account(
            query_id,
            uplink_messages=1,
            downlink_messages=max(1, stats.communication_events),
            downlink_objects=stats.transmitted_objects,
        )
        return query_id

    def unregister_query(self, query_id: int) -> None:
        """Remove a query (raises QueryError when it does not exist).

        The goodbye message is the query's last accounted exchange; its
        communication history stays in the engine-wide aggregate.
        """
        if query_id not in self._queries:
            raise QueryError(f"unknown query {query_id}")
        self._account(query_id, uplink_messages=1)
        del self._queries[query_id]
        del self._comm_by_query[query_id]

    def _processor(self, query_id: int) -> ServableProcessor[PositionT]:
        if query_id not in self._queries:
            raise QueryError(f"unknown query {query_id}")
        return self._queries[query_id].processor

    def update_position(self, query_id: int, position: PositionT) -> QueryResult:
        """Advance one query to its next position and return its answer.

        Communication is accounted from what the processor actually did:
        each server contact (a retrieval or an incremental fetch) is one
        uplink request plus one downlink response carrying the fetched
        objects; a timestamp validated from client-held state exchanges
        nothing.
        """
        processor = self._processor(query_id)
        self._check_position(position)
        return self._accounted_update(query_id, processor, position)

    def answer(self, query_id: int) -> QueryResult:
        """Re-answer a query at its current position without moving it.

        Useful right after a data-object update when the client wants the
        refreshed result before its next movement.
        """
        processor = self._processor(query_id)
        if processor.last_position is None:
            raise QueryError(f"query {query_id} has no known position")
        return self._accounted_update(query_id, processor, processor.last_position)

    def _accounted_update(
        self,
        query_id: int,
        processor: ServableProcessor[PositionT],
        position: PositionT,
    ) -> QueryResult:
        stats = processor.stats
        contacts_before = stats.communication_events
        objects_before = stats.transmitted_objects
        observing = _obs_enabled()
        if observing:
            outcomes_before = tuple(
                getattr(stats, field) for field, _ in _OUTCOME_FIELDS
            )
        result = processor.update(position)
        round_trips = stats.communication_events - contacts_before
        if round_trips:
            self._account(
                query_id,
                uplink_messages=round_trips,
                downlink_messages=round_trips,
                downlink_objects=stats.transmitted_objects - objects_before,
            )
        if observing:
            for index, (field, _) in enumerate(_OUTCOME_FIELDS):
                delta = getattr(stats, field) - outcomes_before[index]
                if delta:
                    _OUTCOME_COUNTERS[index].inc(delta)
        return result

    # ------------------------------------------------------------------
    # Data-object updates
    # ------------------------------------------------------------------
    def _check_target(self, target: Any) -> None:
        """Reject an invalid insert or move target before anything mutates.

        The default trusts the index's own up-front checks; a metric whose
        index would fail half-way through a repair overrides this.
        """

    def _check_position(self, position: PositionT) -> None:
        """Reject an invalid query position before the processor sees it.

        Runs before a session is admitted or moved, so a rejected position
        is neither answered nor billed and leaves the processor untouched.
        """

    @abc.abstractmethod
    def _index_batch(
        self, inserts: List[Any], deletes: List[int], moves: List[Tuple[int, Any]]
    ) -> Tuple[List[int], List[int], Set[int]]:
        """Apply a checked burst: ``(new_indexes, deleted_indexes, changed)``."""

    def _maintain(self, operation, *args, replica: bool = False):
        """Run one index repair (or, on a replica, one shipped-delta apply)
        under the engine's maintenance clock and return its outcome."""
        start = _clock()
        outcome = operation(*args)
        elapsed = _clock() - start
        if replica:
            self.delta_apply_seconds += elapsed
            _DELTA_APPLY_SECONDS[self.METRIC].observe(elapsed)
            _TRACER.add("delta.apply", start, elapsed, metric=self.METRIC)
        else:
            self.maintenance_seconds += elapsed
            _MAINTENANCE_SECONDS[self.METRIC].observe(elapsed)
            _TRACER.add("index.maintain", start, elapsed, metric=self.METRIC)
        return outcome

    def insert_object(self, target: Any) -> int:
        """Insert one data object (a batch of one); returns its index."""
        return self.batch_update(inserts=(target,)).new_indexes[0]

    def delete_object(self, index: int) -> bool:
        """Delete one data object (a batch of one); False when already gone."""
        return bool(self.batch_update(deletes=(index,)).deleted_indexes)

    def move_object(self, index: int, target: Any) -> FrozenSet[int]:
        """Relocate one data object (a batch of one); returns the changed
        objects."""
        return self.batch_update(moves=((index, target),)).changed_objects

    def batch_update(
        self,
        inserts: Sequence[Any] = (),
        deletes: Iterable[int] = (),
        moves: Iterable[Tuple[int, Any]] = (),
    ) -> BatchUpdateResult:
        """Apply a burst of object inserts, moves and deletes as one epoch.

        A heavy traffic stream batches its object updates; applying them
        together triggers one index patch (or, for very large bursts, one
        rebuild) and one invalidation round instead of one per object.
        Deletions refer to pre-existing object indexes (inactive ones are
        skipped); insertions are registered first, so a burst may replace
        the whole population as long as one object survives.  Moves apply
        after inserts and before deletes on both metrics: when a batch
        moves one object twice the last move wins, and an object the batch
        both moves and deletes ends deleted.

        Raises:
            QueryError: when a move names an object that does not exist, or
                when the surviving population would be too small for some
                registered query's ``k``.  Nothing is applied and the
                epoch does not advance.
        """
        insert_list = list(inserts)
        move_list = list(moves)
        for index, _ in move_list:
            if not self.index.is_active(index):
                raise QueryError(f"object {index} does not exist (or was removed)")
        for target in insert_list + [target for _, target in move_list]:
            self._check_target(target)
        delete_list = list(deletes)
        if not self.NATIVE_MOVES:
            # Relocate the way a native index does: the last move of an id
            # wins, and a moved id that the batch also deletes stays deleted.
            doomed = set(delete_list)
            for index, target in dict(move_list).items():
                if index not in doomed:
                    delete_list.append(index)
                    insert_list.append(target)
            move_list = []
        delete_list = self._dedup_active_deletes(delete_list)
        self._check_population(
            self.object_count + len(insert_list) - len(delete_list)
        )
        new_indexes, deleted, changed = self._maintain(
            self._index_batch, insert_list, delete_list, move_list
        )
        if new_indexes or deleted or changed:
            self._commit_epoch(
                changed,
                deleted,
                payload=self.billed_records(new_indexes, deleted, move_list),
            )
        return BatchUpdateResult(
            new_indexes=tuple(new_indexes),
            deleted_indexes=tuple(deleted),
            changed_objects=frozenset(changed),
            epoch=self._epoch,
        )

    @classmethod
    def billed_records(
        cls,
        new_indexes: Sequence[int],
        deleted_indexes: Sequence[int],
        moves: Sequence[Any],
    ) -> int:
        """Object records a committed batch bills as uplink payload.

        One record per assigned index and per actual deletion, plus one
        per move on a metric that relocates natively (elsewhere a move
        already counts as its delete + reinsert).  The engine bills its
        epochs with this rule, :meth:`export_delta` ships it as the delta's
        ``payload``, and a broadcasting shard pool de-duplicates with it.
        """
        native = len(moves) if cls.NATIVE_MOVES else 0
        return len(new_indexes) + len(deleted_indexes) + native

    def _dedup_active_deletes(self, deletes: Iterable[int]) -> List[int]:
        """Filter a deletion list to active objects, deduped in input order.

        The population guard then counts each doomed object once, and
        ``deleted_indexes`` comes back in the order the caller asked for.
        """
        seen = set()
        delete_list: List[int] = []
        for index in deletes:
            if self.index.is_active(index) and index not in seen:
                seen.add(index)
                delete_list.append(index)
        return delete_list

    # ------------------------------------------------------------------
    # Epoch orchestration
    # ------------------------------------------------------------------
    def _check_population(self, resulting_count: int) -> None:
        """Reject a mutation that would starve a registered query.

        Every registered query needs ``k < population`` (one guard object
        must exist); checking at the mutation makes the violation fail at
        its cause instead of deep inside that query's next retrieval.
        """
        for registered in self._queries.values():
            if registered.k >= resulting_count:
                raise QueryError(
                    f"update would leave {resulting_count} data objects, too few "
                    f"for query {registered.query_id} with k={registered.k}"
                )

    def _commit_epoch(
        self, changed: Iterable[int], removed: Iterable[int] = (), payload: int = 1
    ) -> int:
        """Advance the data epoch and dispatch the invalidation round.

        In ``"delta"`` mode every registered processor receives the repair
        delta and settles it lazily (shared-state invalidation: nothing is
        copied).  In ``"flag"`` mode the delta is discarded and every
        processor is forced to refresh fully on its next timestamp.
        Returns the new epoch number.

        Communication: the mutation batch arrives as one uplink message
        carrying ``payload`` object records (the insert/delete/move stream
        from the data owners), and the server pushes one invalidation
        notification to every registered query — the ids it carries are not
        object states, so the notification payload is zero; the objects a
        query then fetches are charged to its own next update.
        """
        self._epoch += 1
        _EPOCHS_TOTAL.inc()
        if self._invalidation == "flag":
            for registered in self._queries.values():
                registered.processor.invalidate()
        else:
            for registered in self._queries.values():
                registered.processor.notify_data_update(changed, removed)
        with self._comm_lock:
            self._communication.uplink_messages += 1
            self._communication.uplink_objects += payload
            self._communication.downlink_messages += len(self._queries)
            for query_id, record in self._comm_by_query.items():
                record.downlink_messages += 1
                bucket = self._kind_bucket(query_id)
                if bucket is not None:
                    bucket.downlink_messages += 1
        return self._epoch

    # ------------------------------------------------------------------
    # Leader/replica delta replication
    # ------------------------------------------------------------------
    def begin_delta_capture(self) -> None:
        """Start capturing the repair delta of the next update epoch.

        Installed by the maintenance leader before applying a batch.  The
        default has nothing to install: an index that derives its delta
        post hoc from the batch result needs no recording.
        """

    @abc.abstractmethod
    def _delta_sections(self, result: BatchUpdateResult) -> Dict[str, object]:
        """The index-specific :class:`~repro.transport.codec.IndexDelta`
        fields of the epoch that produced ``result``."""

    def export_delta(self, result: BatchUpdateResult, batch) -> Dict[str, object]:
        """The :class:`~repro.transport.codec.IndexDelta` fields of the
        epoch that :meth:`batch_update` just applied (as plain kwargs).

        ``payload`` is what the epoch billed as uplink objects
        (:meth:`billed_records` over the result and the originating
        :class:`~repro.service.messages.UpdateBatch`'s moves).
        """
        return {
            "epoch": result.epoch,
            "payload": self.billed_records(
                result.new_indexes, result.deleted_indexes, batch.moves
            ),
            "new_indexes": tuple(result.new_indexes),
            "deleted_indexes": tuple(result.deleted_indexes),
            "changed": tuple(sorted(result.changed_objects)),
            **self._delta_sections(result),
        }

    def apply_remote_delta(self, delta) -> None:
        """Apply a maintenance leader's repair delta as this engine's epoch.

        The read-replica path of ``replication="delta"``: the shared index
        is patched from the shipped delta (no repair runs) and the epoch
        commits with the same changed/removed/payload values the leader
        committed, so answers, counters and epoch stay bit-identical to a
        replica that re-ran the batch.  A delta for the current epoch is a
        no-op (the leader's batch did not commit).

        Raises:
            QueryError: when the delta is for neither the current nor the
                next epoch (the replicas diverged); nothing is applied.
        """
        if delta.epoch == self._epoch:
            return
        if delta.epoch != self._epoch + 1:
            raise QueryError(
                f"index delta for epoch {delta.epoch} cannot apply at epoch "
                f"{self._epoch} — replicas diverged"
            )
        self._maintain(self.index.apply_remote_delta, delta, replica=True)
        self._commit_epoch(
            frozenset(delta.changed), delta.deleted_indexes, payload=delta.payload
        )

    # ------------------------------------------------------------------
    # Aggregate statistics
    # ------------------------------------------------------------------
    def aggregate_stats(self) -> ProcessorStats:
        """Sum of the cost counters of every registered query.

        The engine's own server-side maintenance timers ride along in the
        ``maintenance_seconds`` / ``delta_apply_seconds`` fields (they are
        per-engine, not per-query, so they are injected once here rather
        than merged from the processors).
        """
        total = ProcessorStats()
        for registered in self._queries.values():
            total.merge(registered.processor.stats)
        total.maintenance_seconds += self.maintenance_seconds
        total.delta_apply_seconds += self.delta_apply_seconds
        return total

    def stats_for(self, query_id: int) -> ProcessorStats:
        """Cost counters of one registered query."""
        return self._processor(query_id).stats

    def per_query_stats(self) -> Dict[int, ProcessorStats]:
        """Cost counters per registered query."""
        return {
            query_id: registered.processor.stats
            for query_id, registered in self._queries.items()
        }
