"""Golden wire corpus: the codec's bytes are frozen, frame by frame.

Write-ahead logs store codec frames, so a frame written by an older
build must still decode to the same message, and a message must still
encode to the same bytes.  The property tests in
``test_codec.py`` check round trips and size prediction against the
codec itself; this module checks the codec against a fixed record:

* ``codec_golden.hex`` (beside this file) holds one hand-built message
  of every frame type, plus the irregular cases (``query_id=None``,
  road positions and vertex targets, empty and non-empty sequences, an
  edge with and without a border offset, non-ASCII strings, every
  :class:`~repro.core.objects.UpdateAction` and region event);
* a small seeded loopback-TCP ``simulate_server`` run per metric is
  pinned by the sha256 of every frame it sent, in order.

For every corpus entry, ``encode`` must give exactly the frozen bytes,
``decode`` of those bytes must give the message back, and ``wire_size``
must equal their length.

The fixture changes only with a deliberate wire-format change.  Print
a fresh one with::

    PYTHONPATH=src python tests/transport/test_codec_golden.py > tests/transport/codec_golden.hex
"""

import hashlib
from pathlib import Path

import pytest

import repro.transport.stream as stream
from repro.core.objects import QueryResult, UpdateAction
from repro.core.stats import CommunicationStats, ProcessorStats
from repro.geometry.point import Point
from repro.queries.influential import InfluentialResult
from repro.queries.messages import InfluentialResponse, OpenQuery, RegionEvent
from repro.queries.region import RegionResult
from repro.roadnet.location import NetworkLocation
from repro.service.messages import KNNResponse, PositionUpdate, UpdateBatch
from repro.simulation.server_sim import simulate_server
from repro.transport.codec import (
    AggregateStatsRequest,
    AggregateStatsResponse,
    BatchApplied,
    CloseSession,
    DeltaAck,
    DrainAck,
    DrainRequest,
    ErrorMessage,
    IndexDelta,
    MetricsRequest,
    MetricsSnapshot,
    ObjectsRequest,
    ObjectsResponse,
    OpenSession,
    RefreshRequest,
    SessionClosed,
    SessionOpened,
    StatsRequest,
    StatsResponse,
    decode,
    encode,
    wire_size,
)
from repro.workloads.scenarios import (
    ChurnSpec,
    euclidean_server_scenario,
    road_server_scenario,
)

FIXTURE = Path(__file__).with_name("codec_golden.hex")

#: Frame types on the wire (the body's first byte), 0x01..0x19.
FRAME_TYPES = 25


def _result(action, knn=(), distances=(), guards=()):
    return dict(
        timestamp=11,
        knn=tuple(knn),
        knn_distances=tuple(distances),
        guard_objects=frozenset(guards),
        action=action,
        was_valid=action is UpdateAction.NONE,
    )


def _envelope(query_id=4):
    return dict(query_id=query_id, objects_shipped=9, round_trips=2, epoch=70000)


def _comm(seed):
    return CommunicationStats(
        uplink_messages=seed,
        uplink_objects=seed + 1,
        downlink_messages=seed + 2,
        downlink_objects=seed + 3,
        uplink_bytes=2**40 + seed,
        downlink_bytes=2**63 - 1 - seed,
    )


def corpus():
    """``(name, message)`` pairs covering every frame type and edge case."""
    cases = [
        ("position-update-point", PositionUpdate(query_id=7, position=Point(1234.5, -678.25))),
        ("position-update-unregistered", PositionUpdate(query_id=None, position=Point(0.0, 1e-300))),
        ("position-update-road", PositionUpdate(query_id=2**31 - 1, position=NetworkLocation(12, 4.75))),
    ]
    for action in UpdateAction:
        cases.append((
            f"knn-response-{action.name.lower()}",
            KNNResponse(
                result=QueryResult(**_result(
                    action, knn=(5, 3, 2**32 - 1), distances=(0.5, 1.25, 7.0),
                    guards=(40, 2, 17, 9),
                )),
                **_envelope(),
            ),
        ))
    cases += [
        ("knn-response-empty", KNNResponse(result=QueryResult(**_result(UpdateAction.NONE)), **_envelope(0))),
        ("influential-response", InfluentialResponse(
            result=InfluentialResult(sites=(8, 4, 15), **_result(
                UpdateAction.INCREMENTAL, knn=(1, 2), distances=(0.5, 1.5), guards=(9,),
            )),
            **_envelope(),
        )),
        ("influential-response-no-sites", InfluentialResponse(
            result=InfluentialResult(sites=(), **_result(UpdateAction.NONE)), **_envelope(),
        )),
        ("region-event-stay", RegionEvent(
            result=RegionResult(event="stay", departed=(), **_result(
                UpdateAction.LOCAL_REORDER, knn=(6,), distances=(2.0,), guards=(1, 3),
            )),
            **_envelope(),
        )),
        ("region-event-enter", RegionEvent(
            result=RegionResult(event="enter", departed=(6, 1), **_result(
                UpdateAction.FULL_RECOMPUTE, knn=(3, 4), distances=(1.0, 2.0),
            )),
            **_envelope(),
        )),
        ("update-batch-empty", UpdateBatch()),
        ("update-batch-plane", UpdateBatch(
            inserts=(Point(1.0, 2.0), Point(-3.5, 4.25)),
            deletes=(7, 2**32 - 1),
            moves=((3, Point(9.0, 9.5)),),
        )),
        ("update-batch-road", UpdateBatch(inserts=(17,), deletes=(4,), moves=((5, 33), (6, 0)))),
        ("open-session-point", OpenSession(
            position=Point(10.0, 20.0), k=8, rho=1.6,
            options=(("validation_mode", "ïncremental"), ("größe", "✓")),
        )),
        ("open-session-road", OpenSession(position=NetworkLocation(3, 0.0), k=1, rho=2.0)),
        ("open-query-influential", OpenQuery(
            kind="influential", position=Point(-1.0, -2.0), k=4, rho=1.5,
            options=(("note", "straße"),),
        )),
        ("open-query-region-road", OpenQuery(kind="region", position=NetworkLocation(0, 9.5), k=3, rho=1.6)),
        ("session-opened", SessionOpened(query_id=41)),
        ("close-session", CloseSession(query_id=41)),
        ("session-closed", SessionClosed(query_id=41)),
        ("refresh-request", RefreshRequest(query_id=2**31 - 1)),
        ("batch-applied-empty", BatchApplied(epoch=0)),
        ("batch-applied", BatchApplied(epoch=12, new_indexes=(300, 301), deleted_indexes=(5,))),
        ("error-ascii", ErrorMessage(kind="query", message="k too large")),
        ("error-non-ascii", ErrorMessage(kind="geometry", message="coördinate ∞ rejected — ünïcode")),
        ("stats-request-aggregate", StatsRequest(per_session=False)),
        ("stats-request-per-session", StatsRequest(per_session=True)),
        ("stats-response-aggregate", StatsResponse(aggregate=_comm(1))),
        ("stats-response-per-session", StatsResponse(
            aggregate=_comm(10), per_session=((0, _comm(20)), (2**31 - 1, _comm(30))),
        )),
        ("objects-request", ObjectsRequest()),
        ("objects-response-empty", ObjectsResponse(epoch=3)),
        ("objects-response", ObjectsResponse(epoch=3, indexes=(9, 1, 4, 2**32 - 1))),
        ("aggregate-stats-request", AggregateStatsRequest()),
        ("aggregate-stats-response", AggregateStatsResponse(stats=ProcessorStats(
            timestamps=1, validations=2, local_reorders=3, incremental_updates=4,
            full_recomputations=5, ins_refreshes=6, absorbed_updates=7,
            transmitted_objects=8, distance_computations=9, index_node_accesses=10,
            settled_vertices=2**64 - 1, construction_seconds=0.125,
            validation_seconds=1.5, precomputation_seconds=2.25,
            maintenance_seconds=3.0, delta_apply_seconds=1e-9,
        ))),
        ("drain-request", DrainRequest()),
        ("drain-ack-empty", DrainAck(wal_seq=0)),
        ("drain-ack", DrainAck(wal_seq=2**63 + 5, session_ids=(0, 3, 2**31 - 1))),
        ("index-delta-empty", IndexDelta(epoch=5, payload=0)),
        ("index-delta-plane", IndexDelta(
            epoch=6, payload=3, full=True,
            new_indexes=(300,), deleted_indexes=(12,), changed=(1, 12, 300),
            points=(Point(5.5, 6.5),),
            neighbors=((1, (2, 300)), (300, ()), (2, (1,))),
            removed_neighbors=(12,),
        )),
        ("index-delta-road", IndexDelta(
            epoch=7, payload=2, bulk=True,
            new_indexes=(20,), changed=(3, 20),
            points=(NetworkLocation(4, 1.5),),
            assignments=((20, 44), (3, 45)),
            groups=((44, (20,)), (46, ())),
            removed_groups=(45,),
            vertices=((44, 20, 0.0), (45, 3, 2.5)),
            removed_vertices=(99,),
            edges=((8, 20, 20, None), (9, 20, 3, 1.75)),
            removed_edges=(10,),
            labels=((20, (44,), (8, 9), (3,)), (3, (), (), ())),
            removed_labels=(12,),
        )),
        ("index-delta-full-bulk", IndexDelta(epoch=2**32 - 1, payload=1, full=True, bulk=True, removed_labels=(1,))),
        ("delta-ack", DeltaAck(epoch=2**32 - 1)),
        ("metrics-request", MetricsRequest()),
        ("metrics-snapshot-empty", MetricsSnapshot()),
        ("metrics-snapshot", MetricsSnapshot(
            counters=(("insq_requests_total", "frame=PositionUpdate", 17), ("insq_x", "", 2**64 - 1)),
            gauges=(("insq_sessions", "shard=0", 3.5), ("insq_µ", "ké=vé", -0.0)),
            histograms=(
                ("insq_codec_seconds", "op=encode,frame=KNNResponse", (0, 4, 1), 0.0125),
                ("insq_empty", "", (), 0.0),
            ),
        )),
    ]
    return cases


def _load_fixture():
    frames = {}
    for line in FIXTURE.read_text(encoding="ascii").splitlines():
        if line and not line.startswith("#"):
            name, hex_frame = line.split()
            frames[name] = bytes.fromhex(hex_frame)
    return frames


CORPUS = corpus()
GOLDEN = _load_fixture()


def test_fixture_covers_the_corpus_and_every_frame_type():
    assert sorted(GOLDEN) == sorted(name for name, _ in CORPUS)
    assert {frame[4] for frame in GOLDEN.values()} == set(range(1, FRAME_TYPES + 1))


@pytest.mark.parametrize("name,message", CORPUS, ids=[name for name, _ in CORPUS])
class TestGoldenFrames:
    def test_encode_gives_the_frozen_bytes(self, name, message):
        assert encode(message).hex() == GOLDEN[name].hex()

    def test_decode_gives_the_message_back(self, name, message):
        back = decode(GOLDEN[name])
        assert type(back) is type(message)
        assert back == message

    def test_wire_size_is_the_frozen_length(self, name, message):
        assert wire_size(message) == len(GOLDEN[name])


#: sha256 over every frame a seeded loopback-TCP run sent, in send order
#: (client and server directions interleaved as the exchanges happen).
TCP_RUNS = {
    "euclidean": (
        lambda: euclidean_server_scenario(
            churn=ChurnSpec(interval=2, inserts=1, deletes=1, moves=1),
            queries=3, object_count=60, k=3, steps=6, seed=29,
        ),
        54,
        3384,
        "a2f5c4258c2b979275a11e2323094d1829e61a2ca35cb0bfd63f76eef8c4e186",
    ),
    "road": (
        lambda: road_server_scenario(
            churn=ChurnSpec(interval=2, inserts=1, deletes=1, moves=1),
            queries=2, object_count=20, k=3, steps=6, seed=31,
        ),
        38,
        1936,
        "e40a025d86621401f80fda777de52e2aabee7bac5ed79de03b6945340e46c71f",
    ),
}


@pytest.mark.parametrize("metric", sorted(TCP_RUNS))
def test_seeded_tcp_run_sends_the_pinned_frames(metric, monkeypatch):
    build, count, nbytes, digest = TCP_RUNS[metric]
    frames = []

    def recording_encode(message, _encode=stream.encode):
        frame = _encode(message)
        frames.append(frame)
        return frame

    monkeypatch.setattr(stream, "encode", recording_encode)
    simulate_server(build(), transport="tcp")
    assert (len(frames), sum(map(len, frames))) == (count, nbytes)
    assert hashlib.sha256(b"".join(frames)).hexdigest() == digest
    for frame in frames:
        message = decode(frame)
        assert encode(message) == frame
        assert wire_size(message) == len(frame)


if __name__ == "__main__":
    print("# name hex-frame (see test_codec_golden.py)")
    for case, message in CORPUS:
        print(case, encode(message).hex())
