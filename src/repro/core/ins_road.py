"""The INS moving-kNN processor on road networks (Section IV).

Differences from the Euclidean processor:

* Distances are shortest-path (network) distances, so validation is no
  longer a constant-time arithmetic operation per object — it requires a
  shortest-path search from the query location to the held objects.
* The safe guarding objects come from the *network* Voronoi neighbour
  relation; Theorem 1 guarantees that the INS built from order-1 network
  Voronoi neighbours is still a superset of the MIS, so the validation rule
  is unchanged.
* Theorem 2 allows the validation search to be restricted to the sub-network
  formed by the Voronoi cells of the current kNN set and its INS, which
  bounds the search space independently of the network size.

Two validation modes are provided:

* ``restricted`` (the paper's mode, default): distances are computed on the
  Theorem 2 sub-network of the held objects' Voronoi cells.
* ``exact``: distances are computed on the full network with a targeted
  Dijkstra that stops when every held object is settled.  This mode is used
  by the tests as a cross-check and is also a fair "no Theorem 2" ablation.

The metric-agnostic INS skeleton and the lazy settling of data-update
deltas live in :class:`~repro.core.processor.MovingKNNProcessor`; this
module supplies the network distances, the retrieval and the ``I(R)`` +
sub-network refresh.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.errors import ConfigurationError
from repro.core.processor import MovingKNNProcessor
from repro.roadnet.graph import RoadNetwork
from repro.roadnet.knn import network_knn
from repro.roadnet.location import NetworkLocation
from repro.roadnet.network_voronoi import NetworkVoronoiDiagram
from repro.roadnet.shortest_path import SearchStats, distances_from_location


class INSRoadProcessor(MovingKNNProcessor[NetworkLocation]):
    """Influential-neighbour-set moving kNN processor on a road network.

    Args:
        network: the road network.
        object_vertices: vertex of each data object (object ``i`` sits on
            ``object_vertices[i]``).
        k: number of nearest neighbours to maintain.
        rho: prefetch ratio ρ ≥ 1 (⌊ρk⌋ objects retrieved per round trip).
        validation_mode: ``"restricted"`` (Theorem 2 sub-network, the paper's
            approach) or ``"exact"`` (targeted Dijkstra on the full network).
        voronoi: optionally share a prebuilt network Voronoi diagram.
    """

    VALIDATION_MODES = ("restricted", "exact")

    def __init__(
        self,
        network: RoadNetwork,
        object_vertices: Sequence[int],
        k: int,
        rho: float = 1.6,
        validation_mode: str = "restricted",
        voronoi: Optional[NetworkVoronoiDiagram] = None,
    ):
        super().__init__(k)
        self._check_ins_arguments(k, len(object_vertices), rho)
        if validation_mode not in self.VALIDATION_MODES:
            raise ConfigurationError(
                f"validation_mode must be one of {self.VALIDATION_MODES}, got {validation_mode!r}"
            )
        self._network = network
        self._validation_mode = validation_mode
        self._search_stats = SearchStats()
        with self._stats.time_precomputation():
            self._voronoi = (
                voronoi
                if voronoi is not None
                else NetworkVoronoiDiagram(network, list(object_vertices), self._search_stats)
            )
        # Shared live views of the diagram's object storage: they grow as
        # objects are inserted and are patched in place by moves, so data
        # updates never copy per-object state into each registered query.
        self._object_vertices: Sequence[int] = self._voronoi.vertex_assignments
        self._init_prefetch(rho, self._voronoi.object_count())
        # Cached Theorem 2 sub-network for the current held set.
        self._restricted: Optional[RoadNetwork] = None
        self._restricted_vertex_map: Dict[int, int] = {}
        self._restricted_edge_map: Dict[int, int] = {}

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def name(self) -> str:
        suffix = "" if self._validation_mode == "restricted" else "-exact"
        return f"INS-road{suffix}"

    @property
    def voronoi(self) -> NetworkVoronoiDiagram:
        """The precomputed order-1 network Voronoi diagram."""
        return self._voronoi

    # ------------------------------------------------------------------
    # Metric hooks of the INS skeleton
    # ------------------------------------------------------------------
    def _fetch(self, position: NetworkLocation) -> Tuple[List[int], Set[int]]:
        before = self._search_stats.settled_vertices
        # The diagram's live vertex → objects map saves the O(n) dictionary
        # construction inside network_knn.
        nearest = network_knn(
            self._network,
            self._object_vertices,
            position,
            self._prefetch_size(self._voronoi.object_count()),
            stats=self._search_stats,
            objects_at_vertex=self._voronoi.vertex_objects(),
        )
        self._stats.settled_vertices += self._search_stats.settled_vertices - before
        R = [index for index, _ in nearest]
        return R, self._voronoi.influential_neighbor_set(R)

    def _refresh_influential(self, changed: Set[int]) -> Set[int]:
        return self._voronoi.influential_neighbor_set(self._R)

    def _refresh_cached_sets(self) -> None:
        """Refresh the cached pool and guard, and the Theorem 2 sub-network
        of the held objects (R or I(R) changed)."""
        super()._refresh_cached_sets()
        if self._validation_mode != "restricted":
            self._restricted = None
            return
        (
            self._restricted,
            self._restricted_vertex_map,
            self._restricted_edge_map,
        ) = self._voronoi.restricted_subnetwork(self._pool)

    def _answer_distances(self, position: NetworkLocation) -> List[float]:
        distances = self._held_distances(position)
        return [distances[index] for index in self._knn]

    def _held_distances(self, position: NetworkLocation) -> Dict[int, float]:
        """Network distances from ``position`` to every held object.

        In ``restricted`` mode the search runs on the Theorem 2 sub-network;
        when the query location's edge is not part of that sub-network (the
        query escaped the region entirely between timestamps) the method
        transparently falls back to the full network for this evaluation.
        """
        held = sorted(self._pool)
        targets = {self._object_vertices[index] for index in held}
        before = self._search_stats.settled_vertices
        if self._validation_mode == "restricted" and self._restricted is not None:
            mapped = self._map_location(position)
            if mapped is not None:
                mapped_targets = {
                    self._restricted_vertex_map[v]
                    for v in targets
                    if v in self._restricted_vertex_map
                }
                vertex_distances = distances_from_location(
                    self._restricted, mapped, targets=mapped_targets, stats=self._search_stats
                )
                self._stats.settled_vertices += self._search_stats.settled_vertices - before
                self._stats.distance_computations += len(held)
                result: Dict[int, float] = {}
                for index in held:
                    vertex = self._object_vertices[index]
                    mapped_vertex = self._restricted_vertex_map.get(vertex)
                    if mapped_vertex is None:
                        result[index] = math.inf
                    else:
                        result[index] = vertex_distances.get(mapped_vertex, math.inf)
                return result
        vertex_distances = distances_from_location(
            self._network, position, targets=targets, stats=self._search_stats
        )
        self._stats.settled_vertices += self._search_stats.settled_vertices - before
        self._stats.distance_computations += len(held)
        return {
            index: vertex_distances.get(self._object_vertices[index], math.inf) for index in held
        }

    def _map_location(self, position: NetworkLocation) -> Optional[NetworkLocation]:
        """Translate a full-network location into the restricted sub-network."""
        mapped_edge = self._restricted_edge_map.get(position.edge_id)
        if mapped_edge is None:
            return None
        return NetworkLocation(mapped_edge, position.offset)
