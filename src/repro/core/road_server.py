"""The road-network multi-query moving-kNN server.

The road instance of :class:`~repro.core.engine.ServingEngine`: one
shared, incrementally maintained
:class:`~repro.roadnet.network_voronoi.NetworkVoronoiDiagram` (the
expensive structure — a whole-graph multi-source Dijkstra to build) serves
every registered :class:`INSRoadProcessor` client, each with its own
``k``, ``ρ``, validation mode and Theorem 2 sub-network.  The engine owns
the query lifecycle, the mutation path, epochs, invalidation, replication
and accounting; this module supplies the diagram calls.  The diagram
relocates objects natively (one record per move) and records the keys its
repair floods touch, so a maintenance leader can ship them to replicas.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.errors import ConfigurationError
from repro.core.engine import BatchUpdateResult, ServingEngine
from repro.core.ins_road import INSRoadProcessor
from repro.roadnet.graph import RoadNetwork
from repro.roadnet.location import NetworkLocation
from repro.roadnet.network_voronoi import NetworkVoronoiDiagram
from repro.roadnet.shortest_path import SearchStats


class MovingRoadKNNServer(ServingEngine[NetworkLocation]):
    """Serve many concurrent moving kNN queries over one road-side data set.

    Args:
        network: the road network shared by every query.
        object_vertices: initial vertex of each data object.
        maintenance: update-maintenance mode of the shared network Voronoi
            diagram (``"incremental"`` or ``"rebuild"``; see
            :class:`NetworkVoronoiDiagram`).
        stats: optional search-effort accumulator shared with the diagram's
            construction and repairs.
        invalidation: ``"delta"`` (default) pushes each epoch's repair
            delta to the registered queries; ``"flag"`` restores the
            blanket refresh-everyone contract (see
            :class:`~repro.core.engine.ServingEngine`).
    """

    METRIC = "road"
    NATIVE_MOVES = True

    def __init__(
        self,
        network: RoadNetwork,
        object_vertices: Sequence[int],
        maintenance: str = "incremental",
        stats: Optional[SearchStats] = None,
        invalidation: str = "delta",
    ):
        super().__init__(invalidation=invalidation)
        self._network = network
        self._search_stats = stats if stats is not None else SearchStats()
        self._voronoi = NetworkVoronoiDiagram(
            network, list(object_vertices), self._search_stats, maintenance=maintenance
        )

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def network(self) -> RoadNetwork:
        """The shared road network."""
        return self._network

    @property
    def voronoi(self) -> NetworkVoronoiDiagram:
        """The shared server-side network Voronoi diagram."""
        return self._voronoi

    index = voronoi

    @property
    def search_stats(self) -> SearchStats:
        """Search effort spent building and repairing the shared diagram."""
        return self._search_stats

    @property
    def maintenance(self) -> str:
        """The shared diagram's maintenance mode (``"incremental"``/``"rebuild"``)."""
        return self._voronoi.maintenance

    @property
    def object_count(self) -> int:
        """Number of active data objects."""
        return self._voronoi.object_count()

    def active_object_indexes(self) -> List[int]:
        return list(self._voronoi.active_object_indexes())

    def object_vertex(self, index: int) -> int:
        """The vertex data object ``index`` currently sits on."""
        return self._voronoi.object_vertex(index)

    # ------------------------------------------------------------------
    # Query lifecycle
    # ------------------------------------------------------------------
    def register_query(
        self,
        position: NetworkLocation,
        k: int,
        rho: float = 1.6,
        validation_mode: str = "restricted",
        kind: str = "knn",
    ) -> int:
        """Register a new moving query and compute its first answer.

        Returns the query identifier used for subsequent position updates.
        The non-kNN continuous kinds are Euclidean-only for now: their safe
        regions are planar constructions (order-k Voronoi cells, Voronoi
        neighbour lists on the plane) with no network-metric counterpart in
        this codebase yet.
        """
        if kind != "knn":
            raise ConfigurationError(
                f"continuous {kind!r} queries are Euclidean-only; the road "
                "metric serves kind='knn' sessions"
            )
        processor = INSRoadProcessor(
            self._network,
            self._voronoi.vertex_assignments,
            k,
            rho=rho,
            validation_mode=validation_mode,
            voronoi=self._voronoi,
        )
        return self._admit(
            position, processor, k, rho, validation_mode=validation_mode
        )

    # ------------------------------------------------------------------
    # Index calls
    # ------------------------------------------------------------------
    def _index_batch(self, inserts, deletes, moves):
        return self._voronoi.batch_update(inserts, deletes, moves)

    def begin_delta_capture(self) -> None:
        """Record which keys the next epoch's repair floods touch (see
        :meth:`NetworkVoronoiDiagram.begin_delta_capture`)."""
        self._voronoi.begin_delta_capture()

    def _delta_sections(self, result: BatchUpdateResult) -> Dict[str, object]:
        return self._voronoi.export_delta()
