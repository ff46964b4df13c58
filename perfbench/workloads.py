"""The three reference workloads: generated inputs, serving backends, driver.

Every workload is a closed loop from one driver thread: per timestamp the
driver applies the stream's one :class:`~repro.service.UpdateBatch` (if
any), then sends each session's position update on its own and waits for
the answer before sending the next, the way a moving client waits for
its reply.  Only the calls into the system are timed; answer checks, the
shadow population and digests run between them.

The inputs are generated here from the workload seed with the library's
own scenario generators, and the churn stream mirrors the one
``simulate_server`` realises, so at seed 71 ``plane-serve`` replays the
BENCH_PR5/PR6 reference stream and ``plane-churn`` the BENCH_PR8
update-heavy leg's shape.  The system receives only the generated
objects, positions and batches.
"""

from __future__ import annotations

import hashlib
import math
import multiprocessing
import os
import random
import resource
import shutil
import statistics
import tempfile
from dataclasses import dataclass, field, replace
from typing import Any, Dict, List, Optional, Tuple

from perfbench.ledger import LayerTrace
from repro.durability import open_durable_service
from repro.geometry.delaunay import delaunay_neighbors
from repro.geometry.point import Point
from repro.obs.clock import clock
from repro.obs.metrics import REGISTRY
from repro.roadnet.shortest_path import distances_from_location
from repro.service import UpdateBatch, open_service
from repro.simulation.simulator import check_knn_answer
from repro.transport import KNNServer, ProcessShardedDispatcher, ServiceSpec, connect
from repro.transport.codec import BatchApplied, PositionUpdate, wire_size
from repro.workloads.datasets import uniform_points
from repro.workloads.scenarios import (
    ChurnSpec,
    euclidean_server_scenario,
    road_server_scenario,
)

#: The one reference stream: every workload defaults to this seed.
DEFAULT_SEED = 71

#: ``speed_probe`` seconds on the reference machine (2 vCPUs, Xeon at
#: 2.1 GHz, Python 3.11) in its fast spells; timings are rescaled to it.
PROBE_REFERENCE_S = 2.7e-4
#: Timestamps on each side whose probes set one timestamp's speed.
PROBE_WINDOW = 5

#: One mixed batch per timestamp: 1 insert, 1 delete, 1 move.
ONE_EACH = ChurnSpec(interval=1, inserts=1, deletes=1, moves=1)


@dataclass(frozen=True)
class Workload:
    """One named traffic mix and the serving path it runs on.

    ``transport`` is ``"tcp"`` (a loopback :class:`KNNServer` with a WAL at
    its default fsync policy), ``"process"`` (a delta-replicated
    :class:`ProcessShardedDispatcher`) or ``"local"`` (in-process
    sessions).  ``check_every`` samples one session's answer for the
    brute-force check every that many timestamps (see
    :func:`checked_session`).  A run serves ``streams`` independent
    streams, each drawn from its own seed.
    """

    name: str
    metric: str
    transport: str
    queries: int
    object_count: int
    k: int
    steps: int
    churn: ChurnSpec
    step_length: float = 20.0
    rho: float = 1.6
    workers: int = 1
    grid: int = 0
    spacing: float = 100.0
    check_every: int = 1
    streams: int = 1


#: plane-churn serves 300 epochs, not 200: about one epoch in six pays a
#: hull-deletion fallback rebuild (~100 ms against ~11 ms), and over 200
#: epochs that share fell below one in ten for some seeds, dropping the
#: p90 epoch tail out of the rebuilds and swinging throughput by a fifth.
#: road-serve serves four streams of 100 epochs: its update p50 sits where
#: the latency curve is steep, and it moved by a fifth from one seed's
#: object layout to the next, the same in a stream's first and second half.
WORKLOADS: Dict[str, Workload] = {
    workload.name: workload
    for workload in (
        Workload("plane-serve", "euclidean", "tcp", 64, 2_000, 8, 200, ONE_EACH),
        Workload(
            "plane-churn",
            "euclidean",
            "process",
            4,
            2_000,
            8,
            300,
            ChurnSpec(interval=1, inserts=8, deletes=8, moves=8),
            workers=2,
        ),
        Workload(
            "road-serve", "road", "local", 16, 400, 8, 100, ONE_EACH,
            grid=40, check_every=4, streams=4,
        ),
    )
}


def checked_session(workload: Workload, step: int, sessions: int) -> int:
    """The session whose answer is checked at ``step``, or -1 for none.

    Checks fall on every ``check_every``-th timestamp and rotate through
    the sessions by check number, so every session, and every ``k``, is
    checked once a stream has ``check_every * sessions`` timestamps.
    """
    if step % workload.check_every:
        return -1
    return (step // workload.check_every) % sessions


def tiny(workload: Workload) -> Workload:
    """The same workload at a size that runs in about a second."""
    if workload.metric == "road":
        return replace(workload, queries=4, object_count=40, steps=10, grid=8, streams=2)
    return replace(workload, queries=4, object_count=120, steps=10)


# ----------------------------------------------------------------------
# Generated inputs
# ----------------------------------------------------------------------
class Population:
    """The driver's shadow of the data objects, for checks and churn.

    Mirrors the service's index allocation: Euclidean moves are a delete
    plus an insert at a fresh index, road moves relocate in place, and
    inserts take the next index.  ``apply`` returns the indexes the
    service must allocate, so a mismatch is caught as a failure.
    """

    def __init__(self, metric: str, objects, network=None):
        self.metric = metric
        self.network = network
        self.location: List[Any] = list(objects)
        self.active: List[bool] = [True] * len(self.location)

    def active_indexes(self) -> List[int]:
        return [index for index, alive in enumerate(self.active) if alive]

    def apply(self, batch: UpdateBatch) -> Tuple[int, ...]:
        for index in batch.deletes:
            self.active[index] = False
        if self.metric == "euclidean":
            for index, _ in batch.moves:
                self.active[index] = False
            arrivals = list(batch.inserts) + [target for _, target in batch.moves]
        else:
            for index, vertex in batch.moves:
                self.location[index] = vertex
            arrivals = list(batch.inserts)
        first = len(self.location)
        self.location.extend(arrivals)
        self.active.extend([True] * len(arrivals))
        return tuple(range(first, len(self.location)))

    def distances(self, position) -> Dict[int, float]:
        """Brute-force distance from ``position`` to every active object."""
        if self.metric == "euclidean":
            return {
                index: position.distance_to(self.location[index])
                for index in self.active_indexes()
            }
        by_vertex = distances_from_location(self.network, position)
        return {
            index: by_vertex.get(self.location[index], math.inf)
            for index in self.active_indexes()
        }


@dataclass
class Stream:
    """Everything one round sends: objects, trajectories, batches."""

    workload: Workload
    seed: int
    objects: List[Any]
    network: Any
    trajectories: List[List[Any]]
    ks: List[int]
    batches: Dict[int, UpdateBatch]

    @property
    def timestamps(self) -> int:
        return min(len(trajectory) for trajectory in self.trajectories)

    def population(self) -> Population:
        return Population(self.workload.metric, self.objects, self.network)


def _churn_batch(workload, scenario, population, floor, rng) -> Optional[UpdateBatch]:
    """One mixed epoch, drawn exactly as ``simulate_server`` draws it."""
    churn = workload.churn
    active = population.active_indexes()
    deletes = rng.sample(active, min(churn.deletes, max(0, len(active) - floor)))
    excluded = set(deletes)
    remaining = [index for index in active if index not in excluded]
    victims = rng.sample(remaining, min(churn.moves, len(remaining)))
    if workload.metric == "euclidean":
        points = [
            Point(rng.uniform(0.0, scenario.extent), rng.uniform(0.0, scenario.extent))
            for _ in range(churn.inserts + len(victims))
        ]
        batch = UpdateBatch(
            inserts=points[: churn.inserts],
            deletes=deletes,
            moves=tuple(zip(victims, points[churn.inserts :])),
        )
    else:
        vertices = scenario.network.vertices()
        moves = [(index, rng.choice(vertices)) for index in victims]
        inserts = [rng.choice(vertices) for _ in range(churn.inserts)]
        batch = UpdateBatch(inserts=inserts, deletes=deletes, moves=moves)
    return None if batch.is_empty else batch


def build_stream(workload: Workload, seed: int) -> Stream:
    """Generate a workload's inputs from its seed (same seed, same inputs)."""
    if workload.metric == "euclidean":
        scenario = euclidean_server_scenario(
            data="uniform",
            churn=workload.churn,
            queries=workload.queries,
            object_count=workload.object_count,
            k=workload.k,
            steps=workload.steps,
            step_length=workload.step_length,
            rho=workload.rho,
            seed=seed,
        )
        objects, network = scenario.points, None
    else:
        scenario = road_server_scenario(
            churn=workload.churn,
            queries=workload.queries,
            rows=workload.grid,
            columns=workload.grid,
            object_count=workload.object_count,
            k=workload.k,
            steps=workload.steps,
            step_length=workload.step_length,
            spacing=workload.spacing,
            rho=workload.rho,
            seed=seed,
        )
        objects, network = scenario.object_vertices, scenario.network
    population = Population(workload.metric, objects, network)
    rng = random.Random(seed + 977)
    floor = max(scenario.ks) + 2
    batches: Dict[int, UpdateBatch] = {}
    for step in range(1, scenario.timestamps):
        if workload.churn.interval and step % workload.churn.interval == 0:
            batch = _churn_batch(workload, scenario, population, floor, rng)
            if batch is not None:
                batches[step] = batch
                population.apply(batch)
    return Stream(
        workload=workload,
        seed=seed,
        objects=list(objects),
        network=network,
        trajectories=scenario.trajectories,
        ks=list(scenario.ks),
        batches=batches,
    )


# ----------------------------------------------------------------------
# Serving backends: the system under test behind one small interface
# ----------------------------------------------------------------------
class LocalBackend:
    """In-process sessions on one service (no codec, socket or WAL).

    Nothing crosses a wire, so the bytes a socket would carry are the
    codec's exact ``wire_size`` of the same exchanges, summed untimed.
    """

    def __init__(self, stream: Stream, scratch: str):
        self.service = open_service(
            metric=stream.workload.metric, objects=stream.objects, network=stream.network
        )
        self.predicted_bytes = 0

    def open(self, position, k, rho):
        return self.service.open_session(position, k=k, rho=rho)

    def update(self, session, position):
        return session.update(position)

    def apply(self, batch):
        result = self.service.apply(batch)
        self.predicted_bytes += wire_size(batch) + wire_size(
            BatchApplied(
                epoch=result.epoch,
                new_indexes=result.new_indexes,
                deleted_indexes=result.deleted_indexes,
            )
        )
        return tuple(result.new_indexes)

    def account(self, session, position, response) -> None:
        self.predicted_bytes += wire_size(
            PositionUpdate(query_id=session.query_id, position=position)
        ) + wire_size(response)

    def communication(self):
        return self.service.communication.snapshot()

    def wire_bytes(self, communication) -> int:
        return self.predicted_bytes

    def aggregate_stats(self):
        return self.service.aggregate_stats()

    def metrics_snapshot(self):
        return REGISTRY.snapshot()

    def wal_bytes(self) -> int:
        return 0

    def close(self) -> float:
        self.service.close()
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class TcpBackend(LocalBackend):
    """A durable service behind a loopback :class:`KNNServer`, one client."""

    def __init__(self, stream: Stream, scratch: str):
        self.wal_dir = tempfile.mkdtemp(prefix="wal-", dir=scratch)
        self.service = open_durable_service(
            os.path.join(self.wal_dir, "state"),
            metric=stream.workload.metric,
            objects=stream.objects,
            network=stream.network,
        )
        self.server = KNNServer(self.service).start()
        self.client = connect(self.server.address)

    def open(self, position, k, rho):
        return self.client.open_session(position, k=k, rho=rho)

    def apply(self, batch):
        return tuple(self.client.apply(batch).new_indexes)

    def account(self, session, position, response) -> None:
        pass

    def communication(self):
        return self.client.communication()

    def wire_bytes(self, communication) -> int:
        return communication.bytes_transmitted

    def aggregate_stats(self):
        return self.client.aggregate_stats()

    def wal_bytes(self) -> int:
        return os.path.getsize(self.service.wal.path)

    def close(self) -> float:
        try:
            self.client.close()
            self.server.stop()
            self.service.close_wal()
        finally:
            shutil.rmtree(self.wal_dir, ignore_errors=True)
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class ProcessBackend(TcpBackend):
    """Worker-process shards with delta replication (shard 0 leads)."""

    def __init__(self, stream: Stream, scratch: str):
        spec = ServiceSpec(
            metric=stream.workload.metric, objects=tuple(stream.objects), network=stream.network
        )
        self.pool = ProcessShardedDispatcher(
            spec, workers=stream.workload.workers, replication="delta"
        )

    def open(self, position, k, rho):
        return self.pool.open_session(position, k=k, rho=rho)

    def update(self, session, position):
        return self.pool.advance([(session, position)])[0]

    def apply(self, batch):
        return tuple(self.pool.apply(batch).new_indexes)

    def communication(self):
        return self.pool.communication()

    def aggregate_stats(self):
        return self.pool.aggregate_stats()

    def metrics_snapshot(self):
        return self.pool.metrics_snapshot()

    def wal_bytes(self) -> int:
        return 0

    def close(self) -> float:
        """Close the pool; return its workers' peak resident memory, summed."""
        peaks = [_peak_rss_mb(worker.pid) for worker in multiprocessing.active_children()]
        self.pool.close()
        return sum(peaks)


def _peak_rss_mb(pid: int) -> float:
    """A live process's peak resident memory (``VmHWM``) in MB."""
    with open(f"/proc/{pid}/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    return 0.0


BACKENDS = {"local": LocalBackend, "tcp": TcpBackend, "process": ProcessBackend}

#: ProcessorStats fields that are exact counts (identical run to run).
STAT_COUNTS = (
    "timestamps",
    "validations",
    "full_recomputations",
    "incremental_updates",
    "ins_refreshes",
    "absorbed_updates",
    "transmitted_objects",
)


# ----------------------------------------------------------------------
# One round: set up, serve the whole stream, tear down
# ----------------------------------------------------------------------
@dataclass
class Round:
    """What one pass of the stream measured."""

    setup_s: float = 0.0
    update_s: List[float] = field(default_factory=list)
    epoch_s: List[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    checked: int = 0
    errors: List[str] = field(default_factory=list)
    digest: str = ""
    counts: Dict[str, int] = field(default_factory=dict)
    seconds: Dict[str, float] = field(default_factory=dict)
    snapshots: Tuple[Any, Any] = (None, None)
    rss_mb: float = 0.0
    #: One ``speed_probe`` time per timestamp, and each epoch's timestamp.
    probe_s: List[float] = field(default_factory=list)
    epoch_steps: List[int] = field(default_factory=list)

    @property
    def serve_s(self) -> float:
        """Serving wall time: the sum of every timed call."""
        return sum(self.update_s) + sum(self.epoch_s)

    @property
    def updates(self) -> int:
        return len(self.update_s)

    def speed(self) -> List[float]:
        """Per timestamp: the reference probe time over the local one.

        The local probe time is the median of the probes within
        ``PROBE_WINDOW`` timestamps, so one interrupted probe moves nothing.
        """
        probes = self.probe_s
        return [
            PROBE_REFERENCE_S
            / statistics.median(probes[max(0, step - PROBE_WINDOW) : step + PROBE_WINDOW + 1])
            for step in range(len(probes))
        ]

    def scaled(self) -> Tuple[List[float], List[float], float]:
        """Update and epoch latencies and set-up time at the reference speed."""
        speed = self.speed()
        sessions = len(self.update_s) // len(speed)
        updates = [value * speed[index // sessions] for index, value in enumerate(self.update_s)]
        epochs = [value * speed[step] for value, step in zip(self.epoch_s, self.epoch_steps)]
        # Set-up ran just before the first timestamp, so its speed applies.
        return updates, epochs, self.setup_s * speed[0]


def _fail(result: Round, what: str) -> None:
    result.failed += 1
    if len(result.errors) < 5:
        result.errors.append(what)


@dataclass(frozen=True)
class _Mark:
    """The speed probe's own point: program code may change speed."""

    x: float
    y: float

    def distance_to(self, other: "_Mark") -> float:
        return math.hypot(self.x - other.x, self.y - other.y)


_MARKS = tuple(_Mark(float(index), float(index % 97)) for index in range(200))


def speed_probe() -> float:
    """Seconds that a fixed slice of object-heavy Python takes right now.

    On a shared two-vCPU cloud VM everything ran up to 1.6x slower in
    spells from a fraction of a second to minutes long.  The
    probe runs between timestamps, untimed, and slows down alike, so
    ``Round.scaled`` rescales each timing by the probes around it.  Its
    200 points stay in cache, so the program's own memory use does not
    move it.
    """
    origin = _MARKS[0]
    total = 0.0
    started = clock()
    for _ in range(10):
        for mark in _MARKS:
            total += origin.distance_to(mark)
    return clock() - started


def warm_up(workload: Workload) -> None:
    """Pay lazy imports and first-call costs before anything is timed.

    The first hull-deletion fallback would otherwise import
    ``scipy.spatial`` inside a timed epoch.  Road workloads never build
    plane geometry, so they skip it and the memory it takes.
    """
    if workload.metric == "euclidean":
        delaunay_neighbors(uniform_points(1_600, seed=1))


def run_round(
    workload: Workload, seed: int, scratch: str, traced: bool = False, backend_class=None
) -> Round:
    """Warm up, set up, drive the whole stream once, check, and tear down.

    The benchmark runs each round in a fresh process, so every round pays
    the same warm-up inside ``setup_s``.  ``traced`` wraps the layers in a
    :class:`~perfbench.ledger.LayerTrace` for the round.
    """
    started = clock()
    warm_up(workload)
    if not traced:
        return _serve(workload, seed, scratch, backend_class, started)
    with LayerTrace():
        return _serve(workload, seed, scratch, backend_class, started)


def _serve(workload, seed, scratch, backend_class, started) -> Round:
    result = Round()
    stream = build_stream(workload, seed)
    backend = (backend_class or BACKENDS[workload.transport])(stream, scratch)
    try:
        sessions = [
            backend.open(trajectory[0], k, workload.rho)
            for trajectory, k in zip(stream.trajectories, stream.ks)
        ]
        result.setup_s = clock() - started
        comm_before = backend.communication()
        stats_before = backend.aggregate_stats()
        snapshot_before = backend.metrics_snapshot()
        wal_before = backend.wal_bytes()
        wire_before = backend.wire_bytes(comm_before)
        population = stream.population()
        digest = hashlib.sha256()
        for step in range(1, stream.timestamps):
            batch = stream.batches.get(step)
            if batch is not None:
                result.attempted += 1
                sent = clock()
                try:
                    allocated = backend.apply(batch)
                except Exception as error:  # the driver must keep driving
                    allocated = repr(error)
                result.epoch_s.append(clock() - sent)
                result.epoch_steps.append(len(result.probe_s))
                if allocated != population.apply(batch):
                    _fail(result, f"apply at step {step}: {allocated}")
            result.probe_s.append(speed_probe())
            checked = checked_session(workload, step, len(sessions))
            for index, (session, trajectory) in enumerate(zip(sessions, stream.trajectories)):
                position = trajectory[step]
                result.attempted += 1
                sent = clock()
                try:
                    response = backend.update(session, position)
                except Exception as error:  # the driver must keep driving
                    result.update_s.append(clock() - sent)
                    _fail(result, f"update {index}@{step}: {error!r}")
                    continue
                result.update_s.append(clock() - sent)
                backend.account(session, position, response)
                digest.update(
                    repr((index, step, response.knn, response.knn_distances)).encode()
                )
                if index == checked:
                    result.checked += 1
                    if not check_knn_answer(
                        response.knn, population.distances(position), stream.ks[index]
                    ):
                        _fail(result, f"wrong answer {index}@{step}: {response.knn}")
        result.snapshots = (snapshot_before, backend.metrics_snapshot())
        comm = backend.communication()
        stats = backend.aggregate_stats()
        result.counts = {
            "updates": result.updates,
            "epochs": len(result.epoch_s),
            "messages": comm.messages - comm_before.messages,
            "objects": comm.objects_transmitted - comm_before.objects_transmitted,
            "wire_bytes": backend.wire_bytes(comm) - wire_before,
            "wal_bytes": backend.wal_bytes() - wal_before,
        }
        for name in STAT_COUNTS:
            result.counts[name] = getattr(stats, name) - getattr(stats_before, name)
        result.seconds = {
            name: getattr(stats, name) - getattr(stats_before, name)
            for name in ("maintenance_seconds", "delta_apply_seconds")
        }
        result.digest = digest.hexdigest()
    finally:
        result.rss_mb = backend.close()
    return result
