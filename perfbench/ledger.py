"""Outside-in per-layer tracing: the traced run's self-time ledger.

:class:`LayerTrace` wraps public functions of each ``repro`` layer from
this package, so the program's code is untouched.  Each wrapped call is
a span timed on the ``repro.obs`` clock.  A span's *self* time is its
duration minus the spans nested inside it on the same thread.  Spans
record into ``repro.obs`` histograms (call count and summed seconds) and
counters.  Worker processes fork with the wrappers in place and reset
their registry on start, so ``ProcessShardedDispatcher.metrics_snapshot()``
merges their spans with the driver's exactly.

Threads and processes other than the driver's are *server* roles.  With
one request in flight, server work happens while the driver waits inside
a ``transport.client`` span.  So the ledger replaces that span's self time
with ``transport.client.wait_s``: the round trip minus the server's
service time.  The ledger then sums to the time of the driver's top-level
spans, and the remainder of the serving wall is reported as unattributed.
"""

from __future__ import annotations

import functools
import importlib
import os
import statistics
import sys
import threading
from typing import Any, Dict, List, Tuple

from repro.errors import GeometryError
from repro.obs.clock import clock
from repro.obs.metrics import counter, histogram

SELF = "bench_layer_self_seconds"
BUSY = "bench_layer_busy_seconds"
TOP = "bench_layer_top_seconds"
ROLES = ("driver", "server")

#: (layer, module, attribute) — every public function the trace wraps.
TARGETS: Tuple[Tuple[str, str, str], ...] = (
    ("transport.client", "repro.transport.client", "RemoteSession.update"),
    ("transport.client", "repro.transport.client", "RemoteService.apply"),
    ("transport.client", "repro.transport.procpool", "ProcessShardedDispatcher.advance"),
    ("transport.client", "repro.transport.procpool", "ProcessShardedDispatcher.apply"),
    ("transport.codec.encode", "repro.transport.codec", "encode"),
    ("transport.codec.decode", "repro.transport.codec", "FrameReader.feed"),
    ("service.update", "repro.service.session", "Session.update"),
    ("service.apply", "repro.service.service", "KNNService.apply"),
    ("service.apply", "repro.service.service", "KNNService.apply_with_delta"),
    ("service.apply", "repro.service.service", "KNNService.apply_remote_delta"),
    ("service.apply", "repro.durability.recovery", "DurableKNNService.apply"),
    ("durability.wal.append", "repro.durability.wal", "WriteAheadLog.append"),
    ("durability.wal.sync", "repro.durability.wal", "WriteAheadLog.sync"),
    ("core.engine.accounting", "repro.core.engine", "ServingEngine.update_position"),
    ("core.engine.accounting", "repro.core.engine", "ServingEngine.account_wire_bytes"),
    ("core.engine.epoch", "repro.core.server", "MovingKNNServer.batch_update"),
    ("core.engine.epoch", "repro.core.server", "MovingKNNServer.apply_remote_delta"),
    ("core.engine.epoch", "repro.core.road_server", "MovingRoadKNNServer.batch_update"),
    ("core.ins_euclidean.update", "repro.core.ins_euclidean", "INSProcessor.update"),
    ("core.ins_road.update", "repro.core.ins_road", "INSRoadProcessor.update"),
    ("index.vortree.batch_update", "repro.index.vortree", "VoRTree.batch_update"),
    ("index.vortree.apply_remote_delta", "repro.index.vortree", "VoRTree.apply_remote_delta"),
    ("index.vortree.retrieve", "repro.index.vortree", "VoRTree.retrieve"),
    ("index.rtree.nearest", "repro.index.rtree", "RTree.nearest_neighbors"),
    ("index.rtree.mutate", "repro.index.rtree", "RTree.insert"),
    ("index.rtree.mutate", "repro.index.rtree", "RTree.delete"),
    ("geometry.voronoi.repair", "repro.geometry.voronoi", "VoronoiDiagram.insert_site"),
    ("geometry.voronoi.repair", "repro.geometry.voronoi", "VoronoiDiagram.remove_site"),
    ("geometry.delaunay.patch", "repro.geometry.delaunay", "DelaunayTriangulation.insert_site"),
    ("geometry.delaunay.patch", "repro.geometry.delaunay", "DelaunayTriangulation.remove_site"),
    ("geometry.delaunay.rebuild", "repro.geometry.delaunay", "DelaunayTriangulation.__init__"),
    ("geometry.delaunay.rebuild", "repro.geometry.delaunay", "delaunay_neighbors"),
    (
        "roadnet.network_voronoi.batch_update",
        "repro.roadnet.network_voronoi",
        "NetworkVoronoiDiagram.batch_update",
    ),
    (
        "roadnet.network_voronoi.restricted_subnetwork",
        "repro.roadnet.network_voronoi",
        "NetworkVoronoiDiagram.restricted_subnetwork",
    ),
    ("roadnet.shortest_path.distances", "repro.roadnet.shortest_path", "distances_from_location"),
    ("roadnet.shortest_path.dijkstra", "repro.roadnet.shortest_path", "multi_source_dijkstra"),
    ("roadnet.shortest_path.dijkstra", "repro.roadnet.shortest_path", "bounded_dijkstra"),
    ("roadnet.shortest_path.dijkstra", "repro.roadnet.shortest_path", "dijkstra"),
)

#: Program frames whose server-side handling ``insq_request_seconds`` times.
SERVED_FRAMES = ("PositionUpdate", "UpdateBatch", "IndexDelta")


class _Frames(threading.local):
    """The open spans of one thread (reset in a freshly forked worker)."""

    def __init__(self):
        self.pid = os.getpid()
        self.stack: List[List[float]] = []
        self.depth: Dict[str, int] = {}


class _Probe:
    """Counts that need a look at one call's arguments or outcome."""

    def enter(self, args):
        return None

    def exit(self, state, args, result, error) -> None:
        pass


class _FallbackProbe(_Probe):
    """A Delaunay deletion that raised: the caller falls back to a rebuild."""

    def __init__(self):
        self.fallbacks = counter("bench_delaunay_remove_fallbacks")

    def exit(self, state, args, result, error) -> None:
        if isinstance(error, GeometryError):
            self.fallbacks.inc()


class _EpochProbe(_Probe):
    """Blast radius of one applied epoch, and whether it rebuilt geometry."""

    def __init__(self):
        self.rebuilds = histogram(SELF, layer="geometry.delaunay.rebuild")
        self.all_changed = counter("bench_all_changed_epochs")
        self.rebuild_epochs = counter("bench_rebuild_epochs")

    def enter(self, args):
        return self.rebuilds.count

    def exit(self, state, args, result, error) -> None:
        if error is not None:
            return
        changed = len(result.changed_objects)
        counter("bench_epoch_changed_sites", sites=str(changed)).inc()
        if changed == args[0].object_count:
            self.all_changed.inc()
        if self.rebuilds.count > state:
            self.rebuild_epochs.inc()


class _ContactProbe(_Probe):
    """A position update that had to contact the server."""

    def __init__(self):
        self.contacts = counter("bench_contact_updates")

    def enter(self, args):
        return args[0].stats.communication_events

    def exit(self, state, args, result, error) -> None:
        if error is None and args[0].stats.communication_events > state:
            self.contacts.inc()


class _DeltaProbe(_Probe):
    """Bytes of the repair deltas a maintenance leader encodes."""

    def __init__(self, trace: "LayerTrace"):
        self.trace = trace
        self.delta_bytes = counter("bench_delta_bytes")

    def exit(self, state, args, result, error) -> None:
        if error is None and type(args[0]).__name__ == "IndexDelta":
            if self.trace.role() == "server":
                self.delta_bytes.inc(len(result))


class LayerTrace:
    """Install the span wrappers for a ``with`` block, then restore."""

    def __init__(self):
        self._frames = _Frames()
        self._driver = (os.getpid(), threading.get_ident())
        self._restore: List[Tuple[Any, str, Any, bool]] = []
        self._probes = {
            "DelaunayTriangulation.remove_site": _FallbackProbe(),
            "MovingKNNServer.batch_update": _EpochProbe(),
            "MovingRoadKNNServer.batch_update": _EpochProbe(),
            "encode": _DeltaProbe(self),
            "INSProcessor.update": _ContactProbe(),
            "INSRoadProcessor.update": _ContactProbe(),
        }

    def role(self) -> str:
        return "driver" if (os.getpid(), threading.get_ident()) == self._driver else "server"

    def _thread_frames(self) -> _Frames:
        frames = self._frames
        if frames.pid != os.getpid():
            frames.pid, frames.stack, frames.depth = os.getpid(), [], {}
        return frames

    def _wrap(self, layer: str, function, probe: _Probe):
        self_hist = histogram(SELF, layer=layer)
        busy_hist = histogram(BUSY, layer=layer)
        top = {role: histogram(TOP, layer=layer, role=role) for role in ROLES}

        @functools.wraps(function)
        def span(*args, **kwargs):
            frames = self._thread_frames()
            depth = frames.depth.get(layer, 0)
            frames.depth[layer] = depth + 1
            children = [0.0]
            frames.stack.append(children)
            state = probe.enter(args)
            result = error = None
            started = clock()
            try:
                result = function(*args, **kwargs)
                return result
            except Exception as raised:
                error = raised
                raise
            finally:
                elapsed = clock() - started
                frames.stack.pop()
                frames.depth[layer] = depth
                self_hist.observe(elapsed - children[0])
                if depth == 0:
                    busy_hist.observe(elapsed)
                if frames.stack:
                    frames.stack[-1][0] += elapsed
                else:
                    top[self.role()].observe(elapsed)
                probe.exit(state, args, result, error)

        return span

    def __enter__(self) -> "LayerTrace":
        # Resolve every original first, so a subclass entry (RemoteSession)
        # never wraps a base-class wrapper installed a moment earlier.
        resolved = []
        for layer, module_name, attribute in TARGETS:
            owner = importlib.import_module(module_name)
            path = attribute.split(".")
            for name in path[:-1]:
                owner = getattr(owner, name)
            resolved.append((layer, owner, path[-1], getattr(owner, path[-1]), attribute))
        for layer, owner, name, original, attribute in resolved:
            wrapped = self._wrap(layer, original, self._probes.get(attribute, _Probe()))
            if isinstance(owner, type):
                self._patch(owner, name, wrapped)
                continue
            # A module-level function is also bound by name wherever it was
            # imported; patch every loaded repro module that holds it.
            for module_name, module in list(sys.modules.items()):
                if module_name.split(".")[0] == "repro" and getattr(module, name, None) is original:
                    self._patch(module, name, wrapped)
        return self

    def _patch(self, owner, name: str, wrapped) -> None:
        owned = name in vars(owner)
        self._restore.append((owner, name, vars(owner).get(name), owned))
        setattr(owner, name, wrapped)

    def __exit__(self, *exc_info) -> None:
        for owner, name, original, owned in reversed(self._restore):
            if owned:
                setattr(owner, name, original)
            else:
                delattr(owner, name)
        self._restore.clear()


# ----------------------------------------------------------------------
# Read-out: snapshot difference -> per-layer metrics and the ledger
# ----------------------------------------------------------------------
def _labels(text: str) -> Dict[str, str]:
    return dict(pair.split("=", 1) for pair in text.split(",") if pair)


def snapshot_delta(before, after):
    """Counter and histogram ``(count, sum)`` growth between snapshots."""
    counters: Dict[Tuple[str, str], int] = {}
    old = {(name, labels): value for name, labels, value in before.counters}
    for name, labels, value in after.counters:
        grown = value - old.get((name, labels), 0)
        if grown:
            counters[(name, labels)] = grown
    histograms: Dict[Tuple[str, str], Tuple[int, float]] = {}
    old_h = {(name, labels): (sum(counts), total) for name, labels, counts, total in before.histograms}
    for name, labels, counts, total in after.histograms:
        count0, total0 = old_h.get((name, labels), (0, 0.0))
        if sum(counts) - count0:
            histograms[(name, labels)] = (sum(counts) - count0, total - total0)
    return counters, histograms


def layer_metrics(workload, rounds) -> Tuple[Dict[str, float], Dict[str, float]]:
    """Per-layer metrics and the self-time ledger, summed over traced rounds."""
    counters: Dict[Tuple[str, str], int] = {}
    histograms: Dict[Tuple[str, str], Tuple[int, float]] = {}
    for result in rounds:
        grown_counters, grown_histograms = snapshot_delta(*result.snapshots)
        for key, value in grown_counters.items():
            counters[key] = counters.get(key, 0) + value
        for key, (count, total) in grown_histograms.items():
            held_count, held_total = histograms.get(key, (0, 0.0))
            histograms[key] = (held_count + count, held_total + total)
    counts = {name: sum(result.counts[name] for result in rounds) for name in rounds[0].counts}
    seconds = {name: sum(result.seconds[name] for result in rounds) for name in rounds[0].seconds}
    wall = sum(result.serve_s for result in rounds)
    self_s: Dict[str, float] = {}
    calls: Dict[str, int] = {}
    busy: Dict[str, float] = {}
    top: Dict[Tuple[str, str], float] = {}
    request_s = 0.0
    for (name, labels), (count, total) in histograms.items():
        label = _labels(labels)
        if name == SELF:
            self_s[label["layer"]] = total
            calls[label["layer"]] = count
        elif name == BUSY:
            busy[label["layer"]] = total
        elif name == TOP:
            top[(label["role"], label["layer"])] = total
        elif name == "insq_request_seconds" and label.get("frame") in SERVED_FRAMES:
            request_s += total
    server_top = sum(total for (role, _), total in top.items() if role == "server")

    # Server spans run while the driver waits in a transport.client span,
    # so the round trip's own share is what the server's spans leave.
    ledger = {layer: total for layer, total in self_s.items() if layer != "transport.client"}
    if "transport.client" in self_s:
        ledger["transport.client.wait"] = self_s["transport.client"] - server_top
    ledger["unattributed"] = wall - sum(ledger.values())

    sites = sorted(
        (int(_labels(labels)["sites"]), value)
        for (name, labels), value in counters.items()
        if name == "bench_epoch_changed_sites"
    )
    per_epoch = [size for size, times in sites for _ in range(times)]
    euclidean = workload.metric == "euclidean"
    ins_updates = calls.get("core.ins_euclidean.update" if euclidean else "core.ins_road.update", 0)
    contacts = counters.get(("bench_contact_updates", ""), 0)
    contact_free = 1.0 - contacts / ins_updates if ins_updates else 0.0
    pool = workload.transport == "process"
    rebuild_epochs = counters.get(("bench_rebuild_epochs", ""), 0)
    epoch_count = len(per_epoch)
    metrics = {
        "service.update.busy_s": busy.get("service.update", 0.0),
        "service.apply.busy_s": busy.get("service.apply", 0.0),
        "core.engine.accounting.self_s": self_s.get("core.engine.accounting", 0.0),
        "core.engine.epoch_changed_sites.p50": statistics.median(per_epoch) if per_epoch else 0,
        "core.engine.epoch_changed_sites.max": max(per_epoch, default=0),
        "core.engine.all_changed_epochs": counters.get(("bench_all_changed_epochs", ""), 0),
        "core.ins_euclidean.update.self_s": self_s.get("core.ins_euclidean.update", 0.0),
        "core.ins_euclidean.retrievals": counts["full_recomputations"] if euclidean else 0,
        "core.ins_euclidean.refreshes": counts["ins_refreshes"] if euclidean else 0,
        "core.ins_euclidean.absorbed": counts["absorbed_updates"] if euclidean else 0,
        "core.ins_euclidean.contact_free_ratio": contact_free if euclidean else 0.0,
        "core.ins_road.update.self_s": self_s.get("core.ins_road.update", 0.0),
        "core.ins_road.contact_free_ratio": 0.0 if euclidean else contact_free,
        "index.vortree.batch_update.busy_s": busy.get("index.vortree.batch_update", 0.0),
        "index.rtree.mutate.busy_s": busy.get("index.rtree.mutate", 0.0),
        "index.vortree.retrieve.calls": calls.get("index.vortree.retrieve", 0),
        "index.vortree.retrieve.busy_s": busy.get("index.vortree.retrieve", 0.0),
        "index.rtree.nearest.busy_s": busy.get("index.rtree.nearest", 0.0),
        "geometry.voronoi.repair.busy_s": busy.get("geometry.voronoi.repair", 0.0),
        "geometry.delaunay.remove_fallbacks": counters.get(("bench_delaunay_remove_fallbacks", ""), 0),
        "geometry.delaunay.rebuilds": calls.get("geometry.delaunay.rebuild", 0),
        "geometry.delaunay.rebuild.busy_s": busy.get("geometry.delaunay.rebuild", 0.0),
        "geometry.incremental_ratio": 1.0 - rebuild_epochs / epoch_count if epoch_count else 1.0,
        "roadnet.shortest_path.distances.calls": calls.get("roadnet.shortest_path.distances", 0),
        "roadnet.shortest_path.distances.busy_s": busy.get("roadnet.shortest_path.distances", 0.0),
        "roadnet.network_voronoi.restricted_subnetwork.busy_s": busy.get(
            "roadnet.network_voronoi.restricted_subnetwork", 0.0
        ),
        "roadnet.network_voronoi.batch_update.busy_s": busy.get(
            "roadnet.network_voronoi.batch_update", 0.0
        ),
        "transport.codec.encode.busy_s": busy.get("transport.codec.encode", 0.0),
        "transport.codec.decode.busy_s": busy.get("transport.codec.decode", 0.0),
        "transport.codec.frames": calls.get("transport.codec.encode", 0),
        "transport.server.request.busy_s": request_s,
        "transport.client.wait_s": ledger.get("transport.client.wait", 0.0),
        "transport.procpool.leader_maintenance_s": seconds["maintenance_seconds"] if pool else 0.0,
        "transport.procpool.delta_apply_s": seconds["delta_apply_seconds"] if pool else 0.0,
        "transport.procpool.delta_bytes": counters.get(("bench_delta_bytes", ""), 0),
        "durability.wal.append.calls": calls.get("durability.wal.append", 0),
        "durability.wal.append.busy_s": busy.get("durability.wal.append", 0.0),
        "durability.wal.fsyncs": counters.get(("insq_wal_fsyncs_total", ""), 0),
        "durability.wal.bytes": counts["wal_bytes"],
        "bench.unattributed_share": ledger["unattributed"] / wall if wall else 0.0,
    }
    return metrics, ledger
