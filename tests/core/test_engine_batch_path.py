"""The engine's one mutation path, checked on both metrics.

Every batch is all-or-nothing: a rejected batch (a non-finite plane
position, a move of an object that does not exist) applies nothing and
leaves the epoch where it was, so the next valid batch serves exactly like
a twin service that never saw the bad one.  A read replica's
``apply_remote_delta`` guards its epoch the same way.
"""

import math

import pytest

from repro.core.engine import BatchUpdateResult
from repro.errors import GeometryError, QueryError
from repro.geometry.point import Point
from repro.roadnet.generators import grid_network, place_objects
from repro.service import UpdateBatch, open_service
from repro.trajectory.road import network_random_walk
from repro.transport import KNNServer, connect
from repro.workloads.datasets import uniform_points

ROAD_NETWORK = grid_network(7, 7, spacing=50.0)


def make_service(metric):
    if metric == "road":
        objects = place_objects(ROAD_NETWORK, 30, seed=4)
        return open_service(metric="road", network=ROAD_NETWORK, objects=objects)
    return open_service(metric="euclidean", objects=uniform_points(300, seed=3))


def trajectory(metric, steps=6):
    if metric == "road":
        return network_random_walk(ROAD_NETWORK, steps=steps, step_length=25.0, seed=8)
    return [Point(400.0 + 15.0 * step, 500.0 - 10.0 * step) for step in range(steps)]


def valid_batch(metric, service):
    active = service.active_object_indexes()
    if metric == "road":
        vertices = ROAD_NETWORK.vertices()
        return UpdateBatch(
            inserts=(vertices[3],), deletes=(active[0],), moves=((active[1], vertices[9]),)
        )
    return UpdateBatch(
        inserts=(Point(410.0, 490.0),),
        deletes=(active[0],),
        moves=((active[1], Point(420.0, 480.0)),),
    )


def state(service):
    return (
        service.epoch,
        service.object_count,
        tuple(service.active_object_indexes()),
        service.communication.snapshot(),
    )


def answers(service, positions):
    with service.open_session(positions[0], k=4) as session:
        return [session.update(position).knn for position in positions[1:]]


BAD_POSITIONS = (
    Point(math.nan, 1.0),
    Point(1.0, math.inf),
    Point(-math.inf, math.nan),
)


class TestNonFiniteTargets:
    @pytest.mark.parametrize("bad", BAD_POSITIONS)
    @pytest.mark.parametrize("field", ["inserts", "moves"])
    def test_rejected_before_any_mutation(self, bad, field):
        service = make_service("euclidean")
        twin = make_service("euclidean")
        before = state(service)
        if field == "inserts":
            batch = UpdateBatch(inserts=(Point(10.0, 10.0), bad))
        else:
            batch = UpdateBatch(moves=((5, bad),))
        with pytest.raises(GeometryError):
            service.apply(batch)
        assert state(service) == before
        follow_up = valid_batch("euclidean", service)
        assert service.apply(follow_up) == twin.apply(follow_up)
        assert service.epoch == 1
        positions = trajectory("euclidean")
        assert answers(service, positions) == answers(twin, positions)

    def test_single_insert_is_rejected_too(self):
        service = make_service("euclidean")
        with pytest.raises(GeometryError):
            service.insert(Point(math.nan, 1.0))
        assert service.object_count == 300 and service.epoch == 0

    def test_rejected_over_tcp_then_the_next_batch_applies(self):
        service = make_service("euclidean")
        twin = make_service("euclidean")
        positions = trajectory("euclidean")
        with KNNServer(service) as server, connect(server.address) as remote:
            with pytest.raises(GeometryError):
                remote.apply(UpdateBatch(inserts=(Point(math.nan, 1.0),)))
            assert remote.epoch == 0
            batch = valid_batch("euclidean", twin)
            ack = remote.apply(batch)
            expected = twin.apply(batch)
            assert ack.epoch == expected.epoch == 1
            assert ack.new_indexes == expected.new_indexes
            with remote.open_session(positions[0], k=4) as session:
                remote_answers = [session.update(p).knn for p in positions[1:]]
        assert service.object_count == twin.object_count
        assert remote_answers == answers(twin, positions)


@pytest.mark.parametrize("metric", ["euclidean", "road"])
class TestMovesOfMissingObjects:
    def test_unknown_index_applies_nothing(self, metric):
        service = make_service(metric)
        target = valid_batch(metric, service).moves[0][1]
        before = state(service)
        with pytest.raises(QueryError, match="object 99999 does not exist"):
            service.apply(UpdateBatch(moves=((99999, target),)))
        assert state(service) == before

    def test_deleted_index_applies_nothing(self, metric):
        service = make_service(metric)
        batch = valid_batch(metric, service)
        victim = service.active_object_indexes()[2]
        service.apply(UpdateBatch(deletes=(victim,)))
        before = state(service)
        with pytest.raises(QueryError, match=f"object {victim} does not exist"):
            service.apply(UpdateBatch(inserts=batch.inserts, moves=((victim, batch.moves[0][1]),)))
        assert state(service) == before


@pytest.mark.parametrize("metric", ["euclidean", "road"])
class TestMovesWithinOneBatch:
    """Both metrics fold the moves of a batch the way the road index applies
    them: inserts, then moves in order, then deletes."""

    def test_repeated_move_of_one_id_keeps_the_last(self, metric):
        service, twin = make_service(metric), make_service(metric)
        batch = valid_batch(metric, service)
        mover = service.active_object_indexes()[4]
        first, last = batch.moves[0][1], batch.inserts[0]
        service.apply(UpdateBatch(moves=((mover, first), (mover, last))))
        twin.apply(UpdateBatch(moves=((mover, last),)))
        assert service.epoch == twin.epoch == 1
        assert service.object_count == twin.object_count == make_service(metric).object_count
        assert service.active_object_indexes() == twin.active_object_indexes()
        positions = trajectory(metric)
        assert answers(service, positions) == answers(twin, positions)

    def test_moved_and_deleted_id_ends_deleted(self, metric):
        service, twin = make_service(metric), make_service(metric)
        target = valid_batch(metric, service).moves[0][1]
        victim = service.active_object_indexes()[4]
        service.apply(UpdateBatch(deletes=(victim,), moves=((victim, target),)))
        twin.apply(UpdateBatch(deletes=(victim,)))
        assert service.epoch == twin.epoch == 1
        assert victim not in service.active_object_indexes()
        assert service.object_count == twin.object_count
        assert service.active_object_indexes() == twin.active_object_indexes()
        positions = trajectory(metric)
        assert answers(service, positions) == answers(twin, positions)


def test_move_returns_the_batch_result_on_both_metrics():
    for metric in ("euclidean", "road"):
        service = make_service(metric)
        mover = service.active_object_indexes()[4]
        target = valid_batch(metric, service).moves[0][1]
        result = service.move(mover, target)
        assert isinstance(result, BatchUpdateResult)
        assert result.epoch == service.epoch == 1
        if metric == "euclidean":
            assert result.deleted_indexes == (mover,)
            assert result.new_indexes == (max(service.active_object_indexes()),)


@pytest.mark.parametrize("metric", ["euclidean", "road"])
class TestRemoteDeltaEpochGuard:
    def test_current_epoch_delta_is_a_noop(self, metric):
        leader, replica = make_service(metric), make_service(metric)
        _, delta = leader.apply_with_delta(valid_batch(metric, leader))
        replica.apply_remote_delta(delta)
        applied = state(replica)
        assert applied[:3] == state(leader)[:3]
        replica.apply_remote_delta(delta)
        assert state(replica) == applied

    def test_epoch_gap_raises_and_leaves_state_untouched(self, metric):
        leader, replica = make_service(metric), make_service(metric)
        leader.apply(valid_batch(metric, leader))
        _, delta = leader.apply_with_delta(valid_batch(metric, leader))
        assert delta.epoch == 2
        before = state(replica)
        with pytest.raises(QueryError, match="replicas diverged"):
            replica.apply_remote_delta(delta)
        assert state(replica) == before
