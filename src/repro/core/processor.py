"""The moving-kNN processor base: lifecycle, delta inbox and INS skeleton.

Every method compared in the evaluation — INS, the order-k safe-region
baseline, the V*-style baseline and the naive recomputation baseline, in both
Euclidean and road-network flavours — implements this interface, so the
simulation harness (:mod:`repro.simulation`) can drive them interchangeably.

A processor's lifecycle is::

    processor.initialize(first_position)     # returns the first QueryResult
    processor.update(next_position)          # one call per later timestamp
    processor.stats                          # cumulative cost counters

``initialize`` may be called again to restart the processor on a new
trajectory; doing so resets the internal answer state but keeps accumulating
statistics unless :meth:`MovingKNNProcessor.reset_stats` is called.

**The delta inbox.**  A processor served by the
:class:`~repro.core.engine.ServingEngine` receives each data epoch's repair
delta through :meth:`~MovingKNNProcessor.notify_data_update` (the objects
whose Voronoi neighbour sets changed, and the removed objects), or a blanket
:meth:`~MovingKNNProcessor.invalidate` under the engine's ``"flag"`` mode.
Nothing is reconstructed eagerly: the inbox accumulates, and the processor
drains it on its next timestamp.

**The INS skeleton** (Sections III and IV of the paper; one algorithm, two
metrics).  The server ships the ``⌊ρk⌋`` nearest objects ``R`` with their
influential neighbour set ``I(R)``; the top ``k`` of ``R`` is the answer and
the rest of the held pool ``R ∪ I(R)`` guards it.  At every timestamp:

1. *settle the inbox* — a removal inside ``R`` (or a blanket invalidation)
   costs one full retrieval; any other delta touching the held pool only
   re-derives ``I(R)`` from the already-repaired shared index (sound
   because the INS guarantee is a statement about the *current* diagram:
   validation against a fresh ``I(R)`` certifies the held answer against
   the current data set); a delta outside the pool is absorbed for free
   (an unseen object among the true kNN would, by the Voronoi chain
   property, neighbour some held object — and then the delta would have
   touched the pool);
2. *validate* — the answer stands while its farthest member is no farther
   than the nearest guard object;
3. *update* — otherwise recompose the answer from ``R`` alone when it
   passes the same validation (case (ii), no communication; sound because
   ``(R ∪ I(R)) \\ O'`` is a superset of ``INS(O')`` for any ``O' ⊆ R``),
   else try the metric's incremental case (i), else retrieve afresh.

A metric supplies only its distances (:meth:`_held_distances`,
:meth:`_answer_distances`), its retrieval (:meth:`_fetch`) and its ``I(R)``
refresh (:meth:`_refresh_influential`).  Every retrieval transmits
``|R| + |I(R)|`` objects; every validation counts its distance
computations.
"""

from __future__ import annotations

import abc
import heapq
import math
from typing import (
    Dict,
    FrozenSet,
    Generic,
    Iterable,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
    TypeVar,
)

from repro.errors import ConfigurationError
from repro.core.objects import QueryResult, UpdateAction
from repro.core.stats import ProcessorStats

#: The position type: a Euclidean :class:`~repro.geometry.point.Point` or a
#: road-network :class:`~repro.roadnet.location.NetworkLocation`.
PositionT = TypeVar("PositionT")


class MovingKNNProcessor(abc.ABC, Generic[PositionT]):
    """Base class for all moving kNN query processors."""

    def __init__(self, k: int):
        self._k = k
        self._stats = ProcessorStats()
        self._timestamp = -1
        self._last_position: Optional[PositionT] = None
        self._state_stale = False
        self._force_refresh = False
        self._pending_changed: Set[int] = set()
        self._pending_removed: Set[int] = set()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def k(self) -> int:
        """Number of nearest neighbours maintained."""
        return self._k

    @property
    def stats(self) -> ProcessorStats:
        """Cumulative cost counters."""
        return self._stats

    @property
    def current_timestamp(self) -> int:
        """Index of the last processed timestamp (-1 before initialisation)."""
        return self._timestamp

    @property
    def last_position(self) -> Optional[PositionT]:
        """The last query position processed (None before initialisation)."""
        return self._last_position

    @property
    def state_stale(self) -> bool:
        """True when a data-update delta is pending for the next timestamp."""
        return self._state_stale

    @property
    @abc.abstractmethod
    def name(self) -> str:
        """Short method name used in reports (e.g. ``"INS"`` or ``"V*"``)."""

    def reset_stats(self) -> None:
        """Zero the cost counters (does not touch the answer state)."""
        self._stats = ProcessorStats()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def initialize(self, position: PositionT) -> QueryResult:
        """Start (or restart) the query at ``position``.

        Returns the first :class:`~repro.core.objects.QueryResult`.
        """
        self._timestamp = 0
        self._stats.timestamps += 1
        self._last_position = position
        return self._initialize(position)

    def update(self, position: PositionT) -> QueryResult:
        """Advance the query to ``position`` (one timestamp later).

        Raises:
            RuntimeError: when called before :meth:`initialize`.
        """
        if self._timestamp < 0:
            raise RuntimeError("update() called before initialize()")
        self._timestamp += 1
        self._stats.timestamps += 1
        self._last_position = position
        return self._update(position)

    # ------------------------------------------------------------------
    # The delta inbox
    # ------------------------------------------------------------------
    def notify_data_update(
        self, changed: Iterable[int] = (), removed: Iterable[int] = ()
    ) -> None:
        """Record a repair delta; settled lazily on the next timestamp.

        Args:
            changed: objects whose Voronoi neighbour sets changed.
            removed: objects deleted from the data set.
        """
        self._pending_changed.update(changed)
        self._pending_removed.update(removed)
        self._state_stale = True

    def invalidate(self) -> None:
        """Blanket invalidation: recompute fully on the next timestamp.

        The pre-delta contract (every registered query refreshes on every
        epoch), kept as the serving engine's ``"flag"`` fallback mode and as
        the oracle of the delta-equivalence tests.
        """
        self._force_refresh = True
        self._state_stale = True

    def _drain_inbox(self) -> Tuple[bool, Set[int], Set[int]]:
        """Empty the inbox; returns the pending ``(force, changed, removed)``."""
        pending = (self._force_refresh, self._pending_changed, self._pending_removed)
        self._force_refresh = False
        self._pending_changed = set()
        self._pending_removed = set()
        self._state_stale = False
        return pending

    # ------------------------------------------------------------------
    # The INS skeleton
    # ------------------------------------------------------------------
    def _init_prefetch(self, rho: float, population: int) -> None:
        """Size the prefetch ``⌊ρk⌋`` by the *active* population and clear
        the client-held INS state (a shared index may carry tombstones)."""
        if self.k >= population:
            raise ConfigurationError(
                f"k={self.k} must be smaller than the number of active data objects ({population})"
            )
        self._rho = rho
        self._prefetch_count = min(max(int(rho * self.k), self.k), population - 1)
        self._R: List[int] = []
        self._ins: Set[int] = set()
        self._knn: List[int] = []
        # Cached pool (R ∪ I(R)) and guard set (pool \ kNN); rebuilt only
        # when R / I(R) / the answer change, not on every timestamp.
        self._pool: Set[int] = set()
        self._guard: FrozenSet[int] = frozenset()

    @staticmethod
    def _check_ins_arguments(k: int, object_count: int, rho: float) -> None:
        """Reject an INS configuration before any index is built."""
        if k < 1:
            raise ConfigurationError("k must be at least 1")
        if k >= object_count:
            raise ConfigurationError(
                f"k={k} must be smaller than the number of data objects ({object_count})"
            )
        if rho < 1.0:
            raise ConfigurationError("the prefetch ratio rho must be at least 1")

    @property
    def rho(self) -> float:
        """The prefetch ratio ρ."""
        return self._rho

    @property
    def prefetch_count(self) -> int:
        """The number of objects retrieved per server round trip (⌊ρk⌋)."""
        return self._prefetch_count

    @property
    def prefetched_set(self) -> List[int]:
        """The current prefetched set R (nearest first at retrieval time)."""
        return list(self._R)

    @property
    def influential_set(self) -> Set[int]:
        """The current I(R)."""
        return set(self._ins)

    @property
    def guard_set(self) -> Set[int]:
        """The current safe guarding objects: I(R) ∪ R \\ kNN."""
        return set(self._guard)

    def _fetch(self, position: PositionT) -> Tuple[List[int], Set[int]]:
        """Server round trip: the prefetched set R (nearest first) and I(R)."""
        raise NotImplementedError

    def _refresh_influential(self, changed: Set[int]) -> Set[int]:
        """Re-derive I(R) from the repaired shared index."""
        raise NotImplementedError

    def _held_distances(self, position: PositionT) -> Dict[int, float]:
        """Distances from ``position`` to every held object (counted)."""
        raise NotImplementedError

    def _answer_distances(self, position: PositionT) -> Sequence[float]:
        """Distances from ``position`` to the kNN members, in answer order."""
        raise NotImplementedError

    def _update_incrementally(self, position: PositionT) -> bool:
        """Case (i): patch the answer without a full retrieval (if supported)."""
        return False

    def _initialize(self, position: PositionT) -> QueryResult:
        """Compute the first answer and build the guard structure."""
        self._drain_inbox()
        self._retrieve(position)
        return self._answer(position, UpdateAction.FULL_RECOMPUTE)

    def _update(self, position: PositionT) -> QueryResult:
        """Validate (and if needed update) the answer for a new position."""
        if self._state_stale and self._consume_data_updates(position):
            return self._answer(position, UpdateAction.FULL_RECOMPUTE)
        with self._stats.time_validation():
            self._stats.validations += 1
            distances = self._held_distances(position)
            valid = self._is_valid(distances)
        if valid:
            return self._result(
                tuple(distances[index] for index in self._knn),
                UpdateAction.NONE,
                was_valid=True,
            )
        action = self._perform_update(position, distances)
        return self._answer(position, action)

    def _answer(self, position: PositionT, action: UpdateAction) -> QueryResult:
        return self._result(tuple(self._answer_distances(position)), action)

    def _result(
        self,
        knn_distances: Tuple[float, ...],
        action: UpdateAction,
        was_valid: bool = False,
    ) -> QueryResult:
        return QueryResult(
            timestamp=self.current_timestamp,
            knn=tuple(self._knn),
            knn_distances=knn_distances,
            guard_objects=self._guard,
            action=action,
            was_valid=was_valid,
        )

    def _consume_data_updates(self, position: PositionT) -> bool:
        """Settle the pending delta; True when it forced a full retrieval."""
        force, changed, removed = self._drain_inbox()
        if force or removed.intersection(self._R):
            # Blanket invalidation, or the prefetched set lost a member: R
            # no longer reflects the ⌊ρk⌋ nearest objects, recompute it.
            self._stats.validations += 1
            self._retrieve(position)
            return True
        if removed & self._ins or changed & self._pool:
            # The delta touched the held region: re-derive I(R) from the
            # repaired shared index — no kNN recomputation.  The validation
            # that follows certifies the held answer against the fresh
            # guard set, which is what makes this refresh sound.
            with self._stats.time_construction():
                self._ins = self._refresh_influential(changed)
                self._stats.ins_refreshes += 1
                incoming = len(self._ins - self._pool)
                if incoming:
                    # New guard objects crossed the server-client boundary:
                    # charge them like a case-(i) incremental fetch so
                    # comm_events stays an honest round-trip count.
                    self._stats.transmitted_objects += incoming
                    self._stats.incremental_updates += 1
                self._refresh_cached_sets()
        else:
            # The delta missed the pool: every held neighbour set is
            # unchanged, so the next validation is already sound.  Free.
            self._stats.absorbed_updates += 1
        return False

    def _retrieve(self, position: PositionT) -> None:
        """Server round trip: recompute R, I(R) and the kNN set at ``position``."""
        with self._stats.time_construction():
            self._R, self._ins = self._fetch(position)
            self._knn = self._R[: self.k]
            self._stats.full_recomputations += 1
            self._stats.transmitted_objects += len(self._R) + len(self._ins)
            self._refresh_cached_sets()

    def _prefetch_size(self, population: int) -> int:
        """Objects to request: ⌊ρk⌋, shrunk when deletions since
        registration shrank the population — but never below k (the index
        then fails loudly instead of silently under-filling the answer)."""
        return max(self.k, min(self._prefetch_count, population))

    def _refresh_cached_sets(self) -> None:
        """Recompute the cached pool (R ∪ I(R)) and guard set (pool \\ kNN)."""
        self._pool = set(self._R) | self._ins
        self._guard = frozenset(self._pool.difference(self._knn))

    def _is_valid(self, distances: Dict[int, float]) -> bool:
        """Validation: farthest kNN member vs nearest guard object."""
        if not self._guard:
            return True
        farthest_knn = max(distances[index] for index in self._knn)
        nearest_guard = min(distances[index] for index in self._guard)
        return farthest_knn <= nearest_guard

    def _reorder_within(self, distances: Dict[int, float]) -> bool:
        """Adopt the top-k of R when it passes validation against the rest
        of the pool; True on success."""
        candidate = heapq.nsmallest(
            self.k, self._R, key=lambda index: (distances[index], index)
        )
        guard = self._pool.difference(candidate)
        farthest = max(distances[index] for index in candidate)
        nearest_guard = min(distances[index] for index in guard) if guard else math.inf
        # The road metric's restricted sub-network reports unreachable
        # objects at infinity; such a recomposition is never adopted.
        if not (math.isfinite(farthest) and farthest <= nearest_guard):
            return False
        self._knn = candidate
        self._guard = frozenset(guard)
        return True

    def _perform_update(
        self, position: PositionT, distances: Dict[int, float]
    ) -> UpdateAction:
        """Recompose from R when possible, else case (i), else retrieve."""
        with self._stats.time_validation():
            if self._reorder_within(distances):
                # Case (ii), first branch: the new kNN set is still inside R.
                self._stats.local_reorders += 1
                return UpdateAction.LOCAL_REORDER
        if self._update_incrementally(position):
            return UpdateAction.INCREMENTAL
        # Case (i) with an unknown neighbour list or case (ii) fallback: the
        # answer involves an object outside R; recompute R and I(R).
        self._retrieve(position)
        return UpdateAction.FULL_RECOMPUTE
