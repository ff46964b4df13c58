"""Behavioural tests for the multi-process shard pool."""

import pytest

from repro.errors import ConfigurationError, QueryError
from repro.geometry.point import Point
from repro.roadnet.generators import grid_network, place_objects
from repro.service import UpdateBatch, open_service
from repro.transport import ProcessShardedDispatcher, ServiceSpec
from repro.workloads.datasets import uniform_points
from repro.workloads.scenarios import euclidean_server_scenario, road_server_scenario


@pytest.fixture(scope="module")
def spec():
    return ServiceSpec(
        metric="euclidean", objects=tuple(uniform_points(100, seed=11))
    )


class TestServiceSpec:
    def test_from_scenario_both_metrics(self):
        euclidean = ServiceSpec.from_scenario(
            euclidean_server_scenario(queries=2, object_count=50, k=3, steps=5)
        )
        assert euclidean.metric == "euclidean" and euclidean.network is None
        road = ServiceSpec.from_scenario(
            road_server_scenario(queries=2, object_count=10, k=2, steps=5)
        )
        assert road.metric == "road" and road.network is not None

    def test_build_replicates_the_initial_state(self, spec):
        first, second = spec.build(), spec.build()
        assert first.active_object_indexes() == second.active_object_indexes()
        assert first.metric == spec.metric

    def test_billed_records_follow_the_engine_rule(self, spec):
        moves = ((3, Point(4, 4)),)
        # Euclidean moves decompose into delete + reinsert, so the applied
        # indexes already carry both halves: 4 records, moves add nothing.
        assert spec.engine_class.billed_records((7, 8), (2, 3), moves) == 4
        road = ServiceSpec(metric="road", objects=(0, 1, 2), network=object())
        assert road.engine_class.billed_records((5,), (2,), ((0, 7),)) == 3


def billing_spec(metric):
    if metric == "road":
        network = grid_network(6, 6, spacing=50.0)
        objects = tuple(place_objects(network, 20, seed=4))
        return ServiceSpec(metric="road", objects=objects, network=network)
    return ServiceSpec(metric="euclidean", objects=tuple(uniform_points(60, seed=4)))


@pytest.mark.parametrize("replication", ["recompute", "delta"])
@pytest.mark.parametrize("metric", ["euclidean", "road"])
def test_pool_bills_batches_like_one_engine(metric, replication):
    """The pool de-duplicates exactly what shard 0's engine committed: a
    duplicate delete bills once, a no-op batch bills nothing, and a move
    bills the metric's own record count."""
    spec = billing_spec(metric)
    if metric == "road":
        inserted, moved_to = 3, next(v for v in range(36) if v != spec.objects[7])
    else:
        inserted, moved_to = Point(10.0, 10.0), Point(20.0, 30.0)
    batches = [
        UpdateBatch(deletes=(5, 5)),
        UpdateBatch(deletes=(5,)),
        UpdateBatch(inserts=(inserted,)),
        UpdateBatch(moves=((7, moved_to),)),
    ]
    in_process = spec.build()
    for batch in batches:
        in_process.apply(batch)
    expected = in_process.communication.snapshot()
    with ProcessShardedDispatcher(spec, workers=2, replication=replication) as pool:
        for batch in batches:
            pool.apply(batch)
        assert pool.epoch == in_process.epoch == 3
        bill = pool.communication()
    assert (bill.uplink_messages, bill.uplink_objects) == (
        expected.uplink_messages,
        expected.uplink_objects,
    )
    assert expected.uplink_messages == 3


class TestPoolBehaviour:
    def test_sessions_pin_round_robin(self, spec):
        with ProcessShardedDispatcher(spec, workers=2) as pool:
            sessions = [pool.open_session(Point(i, i), k=3) for i in range(5)]
            assert [session.global_id for session in sessions] == [0, 1, 2, 3, 4]
            workers = [pool._worker_of[id(session)] for session in sessions]
            assert workers == [0, 1, 0, 1, 0]

    def test_advance_preserves_input_order(self, spec):
        with ProcessShardedDispatcher(spec, workers=3) as pool:
            sessions = [pool.open_session(Point(i * 10, 0), k=3) for i in range(6)]
            shuffled = list(reversed(sessions))
            responses = pool.advance(
                [(session, Point(50, 50)) for session in shuffled]
            )
            assert [r.query_id for r in responses] == [
                session.query_id for session in shuffled
            ]
            assert all(len(r.knn) == 3 for r in responses)

    def test_duplicate_session_in_one_dispatch_is_rejected(self, spec):
        with ProcessShardedDispatcher(spec, workers=2) as pool:
            session = pool.open_session(Point(0, 0), k=3)
            with pytest.raises(ConfigurationError, match="twice"):
                pool.advance([(session, Point(1, 1)), (session, Point(2, 2))])

    def test_foreign_session_is_rejected(self, spec):
        service = open_service(metric="euclidean", objects=uniform_points(50, seed=2))
        foreign = service.open_session(Point(0, 0), k=3)
        with ProcessShardedDispatcher(spec, workers=1) as pool:
            with pytest.raises(ConfigurationError, match="not opened"):
                pool.advance([(foreign, Point(1, 1))])

    def test_rejected_batch_raises_everywhere_consistently(self, spec):
        with ProcessShardedDispatcher(spec, workers=2) as pool:
            for i in range(2):
                pool.open_session(Point(i, i), k=3)
            # Deleting every object violates the population guard on every
            # shard identically: the common error is re-raised, nothing is
            # applied, and the shards stay in lockstep.
            doomed = UpdateBatch(deletes=tuple(range(100)))
            with pytest.raises(QueryError):
                pool.apply(doomed)
            assert pool.epoch == 0
            ack = pool.apply(UpdateBatch(inserts=(Point(5, 5),)))
            assert ack.epoch == 1

    def test_per_session_communication_uses_global_ids(self, spec):
        with ProcessShardedDispatcher(spec, workers=2) as pool:
            sessions = [pool.open_session(Point(i, i), k=3) for i in range(4)]
            pool.advance([(s, Point(200, 200)) for s in sessions])
            per_session = pool.per_session_communication()
            assert set(per_session) == {0, 1, 2, 3}
            assert all(stats.messages >= 2 for stats in per_session.values())

    def test_closed_pool_refuses_work(self, spec):
        pool = ProcessShardedDispatcher(spec, workers=1)
        pool.close()
        pool.close()  # idempotent
        with pytest.raises(ConfigurationError):
            pool.open_session(Point(0, 0), k=3)
        with pytest.raises(ConfigurationError):
            pool.communication()

    def test_worker_count_must_be_positive(self, spec):
        with pytest.raises(ConfigurationError):
            ProcessShardedDispatcher(spec, workers=0)
