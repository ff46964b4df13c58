"""The INS moving-kNN processor in the 2-D Euclidean plane (Section III).

The metric-agnostic INS protocol — initial retrieval of the ``⌊ρk⌋``
nearest objects ``R`` with their influential neighbour set ``I(R)``,
validation against the guard set, local recomposition from ``R``, and the
lazy settling of data-update deltas — lives in
:class:`~repro.core.processor.MovingKNNProcessor`.  This module supplies
the plane's part:

* Euclidean distances, one arithmetic evaluation per held object;
* retrieval from the shared :class:`~repro.index.vortree.VoRTree`, with
  ``I(R)`` assembled from its precomputed order-1 Voronoi neighbour lists;
* the paper's optional case (i): when the answer changes by a single
  object, swap it in and fetch only that object's neighbour list instead
  of recomputing ``R`` and ``I(R)``.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.core.processor import MovingKNNProcessor
from repro.geometry.point import Point
from repro.index.vortree import VoRTree


class INSProcessor(MovingKNNProcessor[Point]):
    """Influential-neighbour-set moving kNN processor (Euclidean space).

    Args:
        points: data-object positions; object ``i`` is ``points[i]``.
        k: number of nearest neighbours to maintain (``1 <= k < len(points)``).
        rho: prefetch ratio ρ ≥ 1.  ``⌊ρk⌋`` objects are retrieved per server
            round trip.  The paper's demo uses ρ = 1.6.
        vortree: optionally share a prebuilt VoR-tree between processors
            (e.g. across the parameter sweep of an experiment); when omitted
            one is built from ``points``.
        allow_incremental: enable the paper's case (i) optimisation — when
            the answer changes by a single object, compose the new kNN set
            from the existing one and fetch only that object's Voronoi
            neighbour list instead of recomputing R and I(R) from scratch.
            Disabled by default so the base protocol matches Section III
            exactly; experiment E8 measures its effect.
    """

    #: Maximum consecutive single-object swaps attempted before falling back
    #: to a full retrieval (a fast query can cross several order-k cells in
    #: one timestamp).
    MAX_INCREMENTAL_SWAPS = 8

    def __init__(
        self,
        points: Sequence[Point],
        k: int,
        rho: float = 1.6,
        vortree: Optional[VoRTree] = None,
        allow_incremental: bool = False,
    ):
        super().__init__(k)
        self._check_ins_arguments(k, len(points), rho)
        self._allow_incremental = allow_incremental
        with self._stats.time_precomputation():
            self._vortree = vortree if vortree is not None else VoRTree(list(points))
        self._init_prefetch(rho, len(self._vortree))
        # Live view of the server-side object positions: it grows as objects
        # are inserted, so data updates never copy the n-point list around.
        self._points: Sequence[Point] = self._vortree.positions
        # Per-member Voronoi neighbour lists (needed for incremental updates).
        self._neighbor_lists: Dict[int, Set[int]] = {}

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def name(self) -> str:
        return "INS"

    @property
    def vortree(self) -> VoRTree:
        """The server-side VoR-tree (shared across processors in sweeps)."""
        return self._vortree

    @property
    def allow_incremental(self) -> bool:
        """Whether case (i) single-object incremental updates are enabled."""
        return self._allow_incremental

    # ------------------------------------------------------------------
    # Standalone data-object updates (a processor that owns its tree)
    # ------------------------------------------------------------------
    def insert_object(self, point: Point) -> int:
        """Insert a new data object at ``point`` and return its object index.

        The server-side VoR-tree is updated incrementally and the repair
        delta is queued for the client-held answer, which settles it lazily
        on the next timestamp.  (``self._points`` is a live view of the
        tree's storage, so no position list is copied.)
        """
        with self._stats.time_construction():
            index, changed = self._vortree.insert(point)
        self.notify_data_update(changed)
        return index

    def delete_object(self, index: int) -> bool:
        """Delete data object ``index`` (returns False when it did not exist)."""
        with self._stats.time_construction():
            removed, changed = self._vortree.delete(index)
        if removed:
            self.notify_data_update(changed, (index,))
        return removed

    # ------------------------------------------------------------------
    # Metric hooks of the INS skeleton
    # ------------------------------------------------------------------
    def _fetch(self, position: Point) -> Tuple[List[int], Set[int]]:
        self._vortree.rtree.reset_counters()
        nearest, ins = self._vortree.retrieve(
            position, self._prefetch_size(len(self._vortree))
        )
        self._stats.index_node_accesses += self._vortree.rtree.node_accesses
        self._neighbor_lists = {
            index: self._vortree.voronoi_neighbors(index) for index in nearest
        }
        return nearest, ins

    def _refresh_influential(self, changed: Set[int]) -> Set[int]:
        # Keep the neighbour lists the incremental mode relies on current.
        for member in changed.intersection(self._R):
            self._neighbor_lists[member] = self._vortree.voronoi_neighbors(member)
        return self._vortree.influential_neighbor_set(self._R)

    def _held_distances(self, position: Point) -> Dict[int, float]:
        self._stats.distance_computations += len(self._pool)
        return {index: position.distance_to(self._points[index]) for index in self._pool}

    def _answer_distances(self, position: Point) -> List[float]:
        return [position.distance_to(self._points[index]) for index in self._knn]

    def _update_incrementally(self, position: Point) -> bool:
        """Case (i): compose the new answer by single-object swaps.

        Each swap replaces the farthest current member of R with the nearest
        guard object and fetches only that object's Voronoi neighbour list
        from the server.  The swap loop stops as soon as the recomposed
        answer passes the IS validation again (success) or after
        :data:`MAX_INCREMENTAL_SWAPS` swaps (failure — the caller falls back
        to a full retrieval).  Returns True on success.
        """
        if not self._allow_incremental:
            return False
        saved_R = list(self._R)
        saved_lists = dict(self._neighbor_lists)
        saved_knn = list(self._knn)
        transmitted = 0
        for _ in range(self.MAX_INCREMENTAL_SWAPS):
            pool_distances = self._held_distances(position)
            if self._reorder_within(pool_distances):
                self._stats.incremental_updates += 1
                self._stats.transmitted_objects += transmitted
                return True
            if not self._ins:
                break
            # Swap the farthest R member for the nearest outside guard object
            # and fetch the incomer's neighbour list (1 + |N| objects).
            incoming = min(self._ins, key=lambda index: (pool_distances[index], index))
            outgoing = max(self._R, key=lambda index: (pool_distances[index], index))
            with self._stats.time_construction():
                incoming_neighbors = self._vortree.voronoi_neighbors(incoming)
            transmitted += 1 + len(incoming_neighbors)
            self._R = [index for index in self._R if index != outgoing] + [incoming]
            self._neighbor_lists.pop(outgoing, None)
            self._neighbor_lists[incoming] = incoming_neighbors
            self._ins = set().union(*self._neighbor_lists.values()) - set(self._R)
            self._refresh_cached_sets()
        # Could not stabilise within the swap budget: restore and report failure.
        self._R = saved_R
        self._neighbor_lists = saved_lists
        self._knn = saved_knn
        self._ins = set().union(*self._neighbor_lists.values()) - set(self._R)
        self._refresh_cached_sets()
        return False
