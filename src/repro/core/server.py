"""The Euclidean multi-query MkNN server.

The plane instance of :class:`~repro.core.engine.ServingEngine`: one
shared, incrementally maintained :class:`~repro.index.vortree.VoRTree`
serves every registered :class:`INSProcessor` client.  The engine owns the
query lifecycle, the mutation path, epochs, invalidation, replication and
accounting; this module supplies the VoR-tree calls.  The tree cannot
relocate a site in place, so a move is applied as delete + reinsert, and
every insert or move target must have finite coordinates (a non-finite
site would break the triangulation half-way through a repair).
"""

from __future__ import annotations

import math
from typing import Dict, List, Sequence

from repro.errors import ConfigurationError, EmptyDatasetError, GeometryError
from repro.core.engine import BatchUpdateResult, ServingEngine
from repro.core.ins_euclidean import INSProcessor
from repro.geometry.point import Point
from repro.index.vortree import VoRTree


class MovingKNNServer(ServingEngine[Point]):
    """Serve many concurrent moving kNN queries over one data set.

    Args:
        points: the data-object positions.
        max_entries: R-tree node capacity of the shared VoR-tree.
        allow_incremental: enable case-(i) incremental updates for every
            registered query (see :class:`INSProcessor`).
        maintenance: Voronoi neighbour-list maintenance mode of the shared
            VoR-tree (``"incremental"`` or ``"rebuild"``; see
            :class:`VoRTree`).
        invalidation: ``"delta"`` (default) pushes each epoch's repair
            delta to the registered queries; ``"flag"`` restores the
            blanket refresh-everyone contract (see
            :class:`~repro.core.engine.ServingEngine`).
    """

    METRIC = "euclidean"

    def __init__(
        self,
        points: Sequence[Point],
        max_entries: int = 16,
        allow_incremental: bool = False,
        maintenance: str = "incremental",
        invalidation: str = "delta",
    ):
        super().__init__(invalidation=invalidation)
        if not points:
            raise EmptyDatasetError("MovingKNNServer requires at least one data object")
        self._vortree = VoRTree(
            list(points), max_entries=max_entries, maintenance=maintenance
        )
        self._allow_incremental = allow_incremental

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def vortree(self) -> VoRTree:
        """The shared server-side VoR-tree."""
        return self._vortree

    index = vortree

    @property
    def maintenance(self) -> str:
        """The shared tree's maintenance mode (``"incremental"``/``"rebuild"``)."""
        return self._vortree.maintenance

    @property
    def allow_incremental(self) -> bool:
        """Whether registered queries use case-(i) incremental updates."""
        return self._allow_incremental

    @property
    def object_count(self) -> int:
        """Number of active data objects."""
        return len(self._vortree)

    def active_object_indexes(self) -> List[int]:
        return list(self._vortree.active_indexes())

    # ------------------------------------------------------------------
    # Query lifecycle
    # ------------------------------------------------------------------
    def register_query(
        self, position: Point, k: int, rho: float = 1.6, kind: str = "knn"
    ) -> int:
        """Register a new continuous query and compute its first answer.

        ``kind`` selects the continuous query kind: ``"knn"`` (the default)
        builds the classic INS moving-kNN processor inline; any other name
        is resolved through the :mod:`repro.queries.kinds` registry, which
        owns the processor construction for that kind.  Returns the query
        identifier used for subsequent position updates.
        """
        if k < 1:
            raise ConfigurationError("k must be at least 1")
        if k >= self.object_count:
            raise ConfigurationError(
                f"k={k} must be smaller than the number of data objects ({self.object_count})"
            )
        if kind == "knn":
            processor = INSProcessor(
                self._vortree.positions,
                k,
                rho=rho,
                vortree=self._vortree,
                allow_incremental=self._allow_incremental,
            )
        else:
            # Imported lazily: the registry imports processor modules that
            # import this module's engine machinery.
            from repro.queries.kinds import query_kind

            processor = query_kind(kind).build_processor(self, k=k, rho=rho)
        return self._admit(position, processor, k, rho, kind=kind)

    # ------------------------------------------------------------------
    # Index calls
    # ------------------------------------------------------------------
    def _check_target(self, target: Point) -> None:
        if not (math.isfinite(target.x) and math.isfinite(target.y)):
            raise GeometryError(f"object position {target} is not finite")

    def _check_position(self, position: Point) -> None:
        if not (math.isfinite(position.x) and math.isfinite(position.y)):
            raise GeometryError(f"query position {position} is not finite")

    def _index_batch(self, inserts, deletes, moves):
        return self._vortree.batch_update(inserts, deletes)

    def _delta_sections(self, result: BatchUpdateResult) -> Dict[str, object]:
        return self._vortree.export_delta(
            result.new_indexes, result.deleted_indexes, result.changed_objects
        )
