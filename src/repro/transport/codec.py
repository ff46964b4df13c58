"""The binary wire codec of the transport layer.

The message protocol (:class:`~repro.service.messages.PositionUpdate`,
:class:`~repro.service.messages.KNNResponse`,
:class:`~repro.service.messages.UpdateBatch` and the control frames of
:mod:`repro.transport.messages`, which this module re-exports) gets a
byte representation here so it can cross a real process boundary.
Design goals, in order:

* **compact** — struct-packed binary (a Euclidean position update is 26
  bytes on the wire), no pickle anywhere, so the measured byte counts are
  an honest communication metric rather than an artefact of a serialiser;
* **predictable** — :func:`wire_size` computes a message's encoded size
  arithmetically, without encoding it; ``len(encode(m)) == wire_size(m)``
  holds exactly for every message, which is what lets the benchmarks
  reconcile measured bytes against codec-predicted bytes;
* **robust** — frames are length-prefixed, so a reader survives partial
  and concatenated reads (:class:`FrameReader`), and every malformed input
  raises :class:`~repro.errors.TransportError` instead of a bare
  ``struct.error``.

Frame layout: a 4-byte big-endian unsigned body length, then the body —
one type byte followed by the frame's fields.

**One table per frame.**  Each frame type is described once, in
``_FRAMES``, as an ordered list of ``(attribute names, field kind)``
entries; ``encode``, ``decode`` and ``wire_size`` are all derived from
that one description, so a layout cannot change in one of them alone.
The field kinds:

* struct scalars (``_U8`` … ``_F64``, ``_BOOL``), optionally mapped to and
  from their wire value (``_QUERY_ID`` sends ``None`` as -1; ``_enum``
  codes index the append-only ``_ACTIONS``/``_REGION_EVENTS`` tables);
* ``_STR``, a u16-prefixed UTF-8 string;
* ``_POSITION`` and ``_TARGET``, tagged unions: a
  :class:`~repro.geometry.point.Point` is two doubles, a
  :class:`~repro.roadnet.location.NetworkLocation` an edge id plus an
  offset, a road vertex one unsigned int — which keeps the codec
  metric-agnostic like the protocol it serialises;
* ``_Seq``, a count (u32 unless given) then the items, scalars or
  ``_Record`` sub-records (``as_set`` ships a frozenset, sorted);
  ``_Seqs`` writes several counts before all the items (with ``shared``,
  one count for parallel arrays);
* ``_Optional``, a presence byte then the value; ``_Flags``, booleans in
  one bit-flags byte; ``_Stats``, a stats dataclass by its field lists.

Each table is compiled once at import: into one generated ``encode``
function per frame, and into ``decode`` and ``wire_size`` closures.
Consecutive scalars share one precompiled :class:`struct.Struct`, and a
counted array of scalars or of scalar records is packed and unpacked in
one call; on decode its count is first checked against the bytes that
remain.
"""

from __future__ import annotations

import dataclasses
import functools
import struct
from itertools import starmap
from operator import attrgetter, itemgetter
from typing import Any, Dict, List, Optional, Tuple

from repro.core.objects import QueryResult, UpdateAction
from repro.core.stats import CommunicationStats, ProcessorStats
from repro.errors import TransportError
from repro.geometry.point import Point
from repro.obs.clock import clock as _obs_clock
from repro.obs.metrics import Histogram, histogram as _obs_histogram, start_timer
from repro.queries.influential import InfluentialResult
from repro.queries.messages import InfluentialResponse, OpenQuery, RegionEvent
from repro.queries.region import RegionResult
from repro.roadnet.location import NetworkLocation
from repro.service.messages import KNNResponse, PositionUpdate, UpdateBatch
from repro.transport.messages import (
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
)

__all__ = [
    "AggregateStatsRequest",
    "AggregateStatsResponse",
    "BatchApplied",
    "CloseSession",
    "DeltaAck",
    "DrainAck",
    "DrainRequest",
    "ErrorMessage",
    "FrameReader",
    "IndexDelta",
    "InfluentialResponse",
    "MetricsRequest",
    "MetricsSnapshot",
    "ObjectsRequest",
    "ObjectsResponse",
    "OpenQuery",
    "OpenSession",
    "RefreshRequest",
    "RegionEvent",
    "SessionClosed",
    "SessionOpened",
    "StatsRequest",
    "StatsResponse",
    "decode",
    "encode",
    "wire_size",
]

#: Upper bound on one frame's body; a declared length beyond this is
#: treated as stream corruption rather than an allocation request.
MAX_FRAME_BYTES = 64 * 1024 * 1024

_LENGTH = struct.Struct("!I")
LENGTH_PREFIX_BYTES = _LENGTH.size

#: Fixed per-frame overhead: the length prefix plus the type byte.
_OVERHEAD = LENGTH_PREFIX_BYTES + 1

#: Wire order of :class:`UpdateAction` values (append-only by contract).
_ACTIONS = (
    UpdateAction.NONE,
    UpdateAction.LOCAL_REORDER,
    UpdateAction.INCREMENTAL,
    UpdateAction.FULL_RECOMPUTE,
)

#: Wire order of the region-monitor event names (append-only by contract).
_REGION_EVENTS = ("stay", "enter")


# ----------------------------------------------------------------------
# Field kinds
# ----------------------------------------------------------------------
# A kind covers ``arity`` message attributes (one, unless it packs several
# into one wire field).  Encoding is generated code (see ``_compile_put``):
# ``emit(exprs, name, lines)`` returns the Python expression that packs
# the values ``exprs`` name.  Decoding and sizing are closures:
# ``take(data, offset) -> (value, offset)`` and ``nbytes(value)``.
# ``size`` is a kind's byte count when fixed (else None) and ``min_size``
# the fewest bytes one value takes, which bounds the items a count may
# claim; ``sized_by``, where set, is the one value of several its size
# follows.  Scalars only carry a struct code and value mappings: each run
# of them becomes one struct.


def _truncated() -> TransportError:
    return TransportError("truncated frame body")


class _Scalar:
    """One struct-coded field, optionally mapped to and from its wire value."""

    arity = 1

    def __init__(self, code: str, to_wire=None, from_wire=None):
        self.code = code
        self.size = self.min_size = struct.calcsize("!" + code)
        self.to_wire, self.from_wire = to_wire, from_wire
        # Unmapped scalars pack a whole counted array in one call.
        self.packed = None if to_wire or from_wire else code


_U8, _U16, _U32, _U64 = _Scalar("B"), _Scalar("H"), _Scalar("I"), _Scalar("Q")
_I32, _F64, _BOOL = _Scalar("i"), _Scalar("d"), _Scalar("?")
#: A session id; ``None`` (not registered yet) travels as -1.
_QUERY_ID = _Scalar(
    "i", lambda qid: -1 if qid is None else qid, lambda qid: None if qid < 0 else qid
)


def _enum(table: Tuple[Any, ...], label: str) -> _Scalar:
    """A one-byte index into the append-only ``table``."""
    codes = {value: code for code, value in enumerate(table)}

    def to_wire(value):
        code = codes.get(value)
        if code is None:
            raise TransportError(f"unknown {label} {value!r}")
        return code

    def from_wire(code):
        if code >= len(table):
            raise TransportError(f"unknown {label} code 0x{code:02x}")
        return table[code]

    return _Scalar("B", to_wire, from_wire)


class _Str:
    """A u16 byte count, then that many bytes of UTF-8."""

    arity, size, min_size = 1, None, 2
    _LEN = struct.Struct("!H")

    def emit(self, exprs: List[str], name, lines: List[str]) -> str:
        data = _local(lines, f"{exprs[0]}.encode('utf-8')")
        return f"{name(self._LEN.pack)}(len({data})) + {data}"

    def take(self, data: bytes, offset: int):
        (length,) = self._LEN.unpack_from(data, offset)
        end = offset + 2 + length
        if end > len(data):
            raise _truncated()
        try:
            return data[offset + 2 : end].decode("utf-8"), end
        except UnicodeDecodeError as error:
            raise TransportError(f"malformed utf-8 string in frame: {error}")

    def nbytes(self, value: str) -> int:
        return 2 + len(value.encode("utf-8"))


_STR = _Str()


class _Union:
    """A tag byte, then the struct of the variant it names.

    Each variant is ``(tag, class, struct code, attribute names)``; no
    attribute names means the value itself is the payload.  On decode a
    record folds the scalars just before a union into it (``prefix``), so
    the run and the union unpack with one struct per variant.
    """

    size = None

    def __init__(self, label: str, *variants, prefix: Tuple[_Scalar, ...] = ()):
        self.label, self.variants = label, variants
        self.arity = n = len(prefix) + 1
        self.sized_by = n - 1
        head = "".join(scalar.code for scalar in prefix)
        at = struct.calcsize("!" + head)  # the tag's offset
        self.packers, layouts, self.sizes = {}, {}, {}
        for tag, cls, code, names in variants:
            self.packers[cls] = _union_packer(tag, code, names)
            layouts[tag] = (struct.Struct("!" + head + "B" + code), cls)
            self.sizes[cls] = layouts[tag][0].size  # prefix included
        self.min_size = min(self.sizes.values())
        from_wire = [(i, s.from_wire) for i, s in enumerate(prefix) if s.from_wire]

        def take(data: bytes, offset: int):
            tag = data[offset + at]
            if tag not in layouts:
                raise TransportError(f"unknown {label} tag 0x{tag:02x}")
            layout, cls = layouts[tag]
            row = layout.unpack_from(data, offset)
            value, end = cls(*row[n:]), offset + layout.size
            if n == 1:
                return value, end
            row = list(row[: n - 1])
            for i, convert in from_wire:
                row[i] = convert(row[i])
            row.append(value)
            return row, end

        self.take = take

    def after(self, prefix: List[_Scalar]) -> "_Union":
        return _Union(self.label, *self.variants, prefix=tuple(prefix))

    def _match(self, value: Any, op: str):
        """The packer (or size) of a subclass instance (exact classes hit a dict)."""
        table = self.packers if op == "encode" else self.sizes
        for cls in table:
            if isinstance(value, cls):
                return table[cls]
        kind = type(value).__name__
        raise TransportError(f"cannot {op} {self.label} of type {kind}")

    def emit(self, exprs: List[str], name, lines: List[str]) -> str:
        value = _local(lines, exprs[0])
        packer = f"{name(self.packers)}.get({value}.__class__)"
        return f"({packer} or {name(self._match)}({value}, 'encode'))({value})"

    def nbytes(self, value: Any) -> int:
        return self.sizes.get(value.__class__) or self._match(value, "size")


def _union_packer(tag: int, code: str, names: Tuple[str, ...]):
    """Pack one variant: its tag byte, then its fields (or the value itself)."""
    tag_byte, pack = bytes((tag,)), struct.Struct("!" + code).pack
    if not names:
        return lambda value: tag_byte + pack(value)
    fields = attrgetter(*names)
    return lambda value: tag_byte + pack(*fields(value))


_POSITION = _Union(
    "position",
    (0x00, Point, "dd", ("x", "y")),
    (0x01, NetworkLocation, "Id", ("edge_id", "offset")),
)
#: A batch target: a Point (Euclidean) or a vertex id (road).
_TARGET = _Union("batch target", (0x00, Point, "dd", ("x", "y")), (0x01, int, "I", ()))


class _Optional:
    """A presence byte, then the scalar when present (``None`` when not)."""

    arity, size, min_size = 1, None, 1

    def __init__(self, scalar: _Scalar):
        self.layout = struct.Struct("!B" + scalar.code)

    def emit(self, exprs: List[str], name, lines: List[str]) -> str:
        value = _local(lines, exprs[0])
        return f"(b'\\x00' if {value} is None else {name(self.layout.pack)}(1, {value}))"

    def take(self, data: bytes, offset: int):
        if not data[offset]:
            return None, offset + 1
        return self.layout.unpack_from(data, offset)[1], offset + self.layout.size

    def nbytes(self, value: Any) -> int:
        return 1 if value is None else self.layout.size


class _Flags:
    """Several booleans in one byte: bit ``i`` is the ``i``-th attribute."""

    size = min_size = 1

    def __init__(self, arity: int):
        self.arity = arity

    def emit(self, exprs: List[str], name, lines: List[str]) -> str:
        bits = [f"({1 << bit} if {expr} else 0)" for bit, expr in enumerate(exprs)]
        return f"bytes(({' | '.join(bits)},))"

    def take(self, data: bytes, offset: int):
        bits = data[offset]
        return tuple(bool(bits >> bit & 1) for bit in range(self.arity)), offset + 1


class _Stats:
    """A stats dataclass as fixed fields: ``(field names, struct code)`` groups."""

    arity = 1

    def __init__(self, cls: type, *groups):
        self.cls = cls
        self.names = tuple(name for names, _ in groups for name in names)
        self.fields = attrgetter(*self.names)
        self.layout = struct.Struct("!" + "".join(c * len(n) for n, c in groups))
        self.size = self.min_size = self.layout.size

    def emit(self, exprs: List[str], name, lines: List[str]) -> str:
        return f"{name(self.layout.pack)}(*{name(self.fields)}({exprs[0]}))"

    def take(self, data: bytes, offset: int):
        values = self.layout.unpack_from(data, offset)
        return self.cls(**dict(zip(self.names, values))), offset + self.size


class _Record:
    """An ordered list of kinds: a sequence item, or a whole frame's fields.

    ``put`` is generated (items read their values by position).  Decoding
    yields the values as one flat tuple; each run of consecutive scalars
    becomes one precompiled struct.  Sizing reads each kind's value(s)
    with ``getter(*keys)`` — item positions by default, attribute names
    for a frame — and counts ``base`` bytes (a frame's length prefix and
    type byte) in every size.
    """

    arity = 1

    def __init__(self, *kinds, keys=None, getter=itemgetter, base: int = 0):
        if keys is None:  # a sequence item: its values by position
            keys = list(range(sum(kind.arity for kind in kinds)))
            values = iter(f"value[{key}]" for key in keys)
            fields = [([next(values) for _ in range(k.arity)], k) for k in kinds]
            self.put = _compile_put(fields, "value")
        takes, sizers = [], []
        fixed, minimum = base, 0
        run: List[_Scalar] = []
        for kind in kinds + (None,):
            if isinstance(kind, _Scalar):
                run.append(kind)
                continue
            if isinstance(kind, _Union) and run:
                kind, run = kind.after(run), []
            if run:
                takes.append(_run_take(run))
                fixed += sum(scalar.size for scalar in run)
                keys, run = keys[len(run) :], []
            if kind is None:
                break
            at = getattr(kind, "sized_by", None)
            sized = getter(*keys[: kind.arity]) if at is None else getter(keys[at])
            keys = keys[kind.arity :]
            takes.append(_take_step(kind.take, kind.arity))
            if kind.size is None:
                sizers.append((sized, kind.nbytes))
                minimum += kind.min_size
            else:
                fixed += kind.size
        self.size = None if sizers else fixed
        self.min_size = fixed + minimum
        plain = all(isinstance(kind, _Scalar) and kind.packed for kind in kinds)
        self.packed = "".join(kind.code for kind in kinds) if plain else None

        def take(data: bytes, offset: int):
            values: List[Any] = []
            for step in takes:
                offset = step(data, offset, values)
            return tuple(values), offset

        def nbytes(value) -> int:
            total = fixed
            for get, size in sizers:
                total += size(get(value))
            return total

        if len(sizers) == 1:
            (sized, size), = sizers
            nbytes = lambda value: fixed + size(sized(value))  # noqa: E731
        elif len(sizers) == 2:
            (sized, size), (sized2, size2) = sizers

            def nbytes(value) -> int:
                return fixed + size(sized(value)) + size2(sized2(value))

        self.take, self.nbytes = take, nbytes


def _run_take(scalars: List[_Scalar]):
    """The take step of a run of scalars: one unpack, then any mappings."""
    layout = struct.Struct("!" + "".join(scalar.code for scalar in scalars))
    unpack_from, size = layout.unpack_from, layout.size
    from_wire = [(i, s.from_wire) for i, s in enumerate(scalars) if s.from_wire]

    def take(data: bytes, offset: int, out: List[Any]) -> int:
        row = unpack_from(data, offset)
        if from_wire:
            row = list(row)
            for i, convert in from_wire:
                row[i] = convert(row[i])
        out.extend(row)
        return offset + size

    return take


def _take_step(take, arity: int):
    def step(data: bytes, offset: int, out: List[Any]) -> int:
        value, offset = take(data, offset)
        if arity == 1:
            out.append(value)
        else:
            out.extend(value)
        return offset

    return step


@functools.lru_cache(maxsize=512)
def _array(code: str, count: int) -> struct.Struct:
    """The struct of ``count`` consecutive ``code`` items.

    Cached here rather than left to :func:`struct.pack`'s own format
    cache, which is cleared whole once it holds 100 formats.
    """
    return struct.Struct(f"!{count}{code}")


class _Seq:
    """A count, then that many items (a tuple on decode).

    Items that are plain scalars, or records of plain scalars, are packed
    and unpacked in one struct call; any other item goes one at a time.
    ``as_set`` ships a frozenset of scalars, sorted.
    """

    arity, size = 1, None

    def __init__(self, item, count: _Scalar = _U32, as_set: bool = False):
        self.count = struct.Struct("!" + count.code)
        self.min_size = head = self.count.size
        self.item, self.item_min, self.as_set = item, item.min_size, as_set
        item_size = item.size
        if isinstance(item, _Scalar):
            code = item.packed

            def take_items(data: bytes, offset: int, count: int):
                values = _array(code, count).unpack_from(data, offset)
                end = offset + count * item_size
                return (frozenset(values) if as_set else values), end

        elif getattr(item, "packed", None):
            records = struct.Struct("!" + item.packed)

            def take_items(data: bytes, offset: int, count: int):
                end = offset + count * item_size
                return tuple(records.iter_unpack(data[offset:end])), end

        else:
            take = item.take
            self.item_put = item.put if isinstance(item, _Record) else _compile_put(
                [(["value"], item)], "value"
            )

            def take_items(data: bytes, offset: int, count: int):
                values = []
                for _ in range(count):
                    value, offset = take(data, offset)
                    values.append(value)
                return tuple(values), offset

        if item_size is None:
            self.items_nbytes = lambda values: sum(map(item.nbytes, values))
            self.nbytes = lambda values: head + sum(map(item.nbytes, values))
        else:
            self.items_nbytes = lambda values: item_size * len(values)
            self.nbytes = lambda values: head + item_size * len(values)
        self.take_items = take_items

    def take(self, data: bytes, offset: int):
        (count,) = self.count.unpack_from(data, offset)
        offset += self.count.size
        if count * self.item_min > len(data) - offset:
            raise _truncated()
        return self.take_items(data, offset, count)

    def emit_items(self, values: str, name) -> str:
        """The expression packing the items of the sequence ``values``."""
        if isinstance(self.item, _Scalar):
            array = f"{name(_array)}({self.item.packed!r}, len({values}))"
            return f"{array}.pack(*{values})"
        if getattr(self.item, "packed", None):
            pack = name(struct.Struct("!" + self.item.packed).pack)
            return f"b''.join({name(starmap)}({pack}, {values}))"
        return f"b''.join(map({name(self.item_put)}, {values}))"

    def emit(self, exprs: List[str], name, lines: List[str]) -> str:
        values = _local(lines, f"sorted({exprs[0]})" if self.as_set else exprs[0])
        return f"{name(self.count.pack)}(len({values})) + {self.emit_items(values, name)}"


class _Seqs:
    """Several u32-counted sequences whose counts all come first.

    With ``shared``, one count covers every sequence (parallel arrays,
    which must then have equal lengths).
    """

    size = None

    def __init__(self, *items, shared: bool = False):
        self.seqs = [_Seq(item) for item in items]
        self.arity = len(items)
        self.shared = shared
        self.counts = struct.Struct("!" + "I" * (1 if shared else len(items)))
        self.min_size = self.counts.size
        if shared and all(item.size is not None for item in items):
            head, row = self.counts.size, sum(item.size for item in items)
            self.sized_by = 0
            self.nbytes = lambda values: head + row * len(values)

    def emit(self, exprs: List[str], name, lines: List[str]) -> str:
        values = [_local(lines, expr) for expr in exprs]
        counts = [f"len({value})" for value in values]
        if self.shared:
            count = _local(lines, counts[0])
            error = f"{name(TransportError)}('parallel sequences differ in length')"
            for other in counts[1:]:
                lines += [f"if {other} != {count}:", f"    raise {error}"]
            counts = [count]
        items = [seq.emit_items(value, name) for seq, value in zip(self.seqs, values)]
        return " + ".join([f"{name(self.counts.pack)}({', '.join(counts)})", *items])

    def take(self, data: bytes, offset: int):
        counts = self.counts.unpack_from(data, offset)
        if self.shared:
            counts *= self.arity
        offset += self.counts.size
        needed = sum(count * seq.item_min for count, seq in zip(counts, self.seqs))
        if needed > len(data) - offset:
            raise _truncated()
        values = []
        for seq, count in zip(self.seqs, counts):
            value, offset = seq.take_items(data, offset, count)
            values.append(value)
        return tuple(values), offset

    def nbytes(self, values) -> int:
        return self.counts.size + sum(
            seq.items_nbytes(value) for seq, value in zip(self.seqs, values)
        )


def _compile_put(fields, arg: str, header: Optional[bytes] = None):
    """Generate one flat packing function from ``(exprs, kind)`` pairs.

    ``exprs`` name each kind's values in terms of the argument ``arg``.
    Every exchange encodes, and a chain of per-field closures measured
    slower in a serving process than the hand-written encoders this
    replaced (the serving work between two frames evicts the many small
    objects such a chain touches); one generated function touches few.
    Each run of scalars becomes one ``pack`` call.  With a ``header`` the
    function encodes a whole frame: type byte, fields, length prefix.
    """
    namespace: Dict[str, Any] = {"_LENGTH": _LENGTH}
    lines: List[str] = []
    parts = [] if header is None else [repr(header)]
    run: List[Tuple[_Scalar, str]] = []

    def name(obj) -> str:
        key = f"_g{len(namespace)}"
        namespace[key] = obj
        return key

    def flush() -> None:
        if run:
            pack = name(struct.Struct("!" + "".join(k.code for k, _ in run)).pack)
            args = [f"{name(k.to_wire)}({e})" if k.to_wire else e for k, e in run]
            parts.append(f"{pack}({', '.join(args)})")
            run.clear()

    for exprs, kind in fields:
        if isinstance(kind, _Scalar):
            run.append((kind, exprs[0]))
            continue
        flush()
        parts.append(kind.emit(exprs, name, lines))
    flush()
    body = parts[0] if len(parts) == 1 else f"b''.join(({', '.join(parts)},))"
    if header is None:
        tail = [f"return {body}"]
    else:
        tail = [f"body = {body}", "return _LENGTH.pack(len(body)) + body"]
    exec("\n    ".join([f"def put({arg}):", *lines, *tail]), namespace)
    return namespace["put"]


def _local(lines: List[str], expr: str) -> str:
    """Bind ``expr`` to a fresh local of the generated function."""
    local = f"v{len(lines)}"
    lines.append(f"{local} = {expr}")
    return local


#: The six CommunicationStats counters shipped per stats record.
_COMM_FIELDS = (
    "uplink_messages",
    "uplink_objects",
    "downlink_messages",
    "downlink_objects",
    "uplink_bytes",
    "downlink_bytes",
)

#: ProcessorStats integer counters (wire order), then the float timers.
_PROC_INT_FIELDS = (
    "timestamps",
    "validations",
    "local_reorders",
    "incremental_updates",
    "full_recomputations",
    "ins_refreshes",
    "absorbed_updates",
    "transmitted_objects",
    "distance_computations",
    "index_node_accesses",
    "settled_vertices",
)
_PROC_FLOAT_FIELDS = (
    "construction_seconds",
    "validation_seconds",
    "precomputation_seconds",
    "maintenance_seconds",
    "delta_apply_seconds",
)

_COMM = _Stats(CommunicationStats, (_COMM_FIELDS, "Q"))
_PROC = _Stats(ProcessorStats, (_PROC_INT_FIELDS, "Q"), (_PROC_FLOAT_FIELDS, "d"))
_IDS = _Seq(_U32)


# ----------------------------------------------------------------------
# Frame schemas
# ----------------------------------------------------------------------
class _Frame:
    """One frame type: its type byte, message class and field schema.

    ``fields`` are ``(attribute names, kind)`` pairs in wire order; one
    entry names several space-separated attributes when its kind has that
    arity.  ``result.*`` attributes live on the message's nested
    ``result``, rebuilt on decode as an instance of ``result``.
    """

    def __init__(
        self, type_byte: int, cls: type, *fields, result: Optional[type] = None
    ):
        self.type_byte, self.cls = type_byte, cls
        names = [name for spec, _ in fields for name in spec.split()]
        layout = _Record(
            *(kind for _, kind in fields), keys=names, getter=attrgetter, base=_OVERHEAD
        )
        take, build = layout.take, _from_values(cls, names, result)

        def decode(body: bytes):
            values, offset = take(body, 1)
            if offset != len(body):
                trailing = len(body) - offset
                raise TransportError(f"frame body has {trailing} trailing bytes")
            return build(values)

        self.encode = _compile_put(
            [([f"message.{a}" for a in spec.split()], kind) for spec, kind in fields],
            "message",
            bytes((type_byte,)),
        )
        self.decode, self.wire_size = decode, layout.nbytes


def _from_values(cls: type, names: List[str], result: Optional[type]):
    """Turn decoded values (in ``names`` order) back into a ``cls``."""
    if result is None:
        # Positional arguments when the wire order is the field order.
        if names == [f.name for f in dataclasses.fields(cls)][: len(names)]:
            return lambda values: cls(*values)
        return lambda values: cls(**dict(zip(names, values)))
    outer = [(name, i) for i, name in enumerate(names) if "." not in name]
    inner = [(name[len("result.") :], i) for i, name in enumerate(names) if "." in name]

    def build(values):
        kwargs = {name: values[i] for name, i in outer}
        kwargs["result"] = result(**{name: values[i] for name, i in inner})
        return cls(**kwargs)

    return build


#: The fields every kind's response shares (the KNNResponse layout).
_RESPONSE = (
    ("query_id", _I32),
    ("objects_shipped", _U32),
    ("round_trips", _U32),
    ("epoch", _U32),
    ("result.timestamp", _I32),
    ("result.action", _enum(_ACTIONS, "update action")),
    ("result.was_valid", _BOOL),
    ("result.knn result.knn_distances", _Seqs(_U32, _F64, shared=True)),
    ("result.guard_objects", _Seq(_U32, as_set=True)),
)
_SESSION = (("k", _U32), ("rho", _F64), ("position", _POSITION))
_OPTIONS = ("options", _Seq(_Record(_STR, _STR), count=_U8))

_FRAMES = (
    _Frame(0x01, PositionUpdate, ("query_id", _QUERY_ID), ("position", _POSITION)),
    _Frame(0x02, KNNResponse, *_RESPONSE, result=QueryResult),
    _Frame(
        0x03,
        UpdateBatch,
        ("inserts deletes moves", _Seqs(_TARGET, _U32, _Record(_U32, _TARGET))),
    ),
    _Frame(0x04, OpenSession, *_SESSION, _OPTIONS),
    _Frame(0x05, SessionOpened, ("query_id", _I32)),
    _Frame(0x06, CloseSession, ("query_id", _I32)),
    _Frame(0x07, SessionClosed, ("query_id", _I32)),
    _Frame(0x08, RefreshRequest, ("query_id", _I32)),
    _Frame(
        0x09,
        BatchApplied,
        ("epoch", _U32),
        ("new_indexes", _IDS),
        ("deleted_indexes", _IDS),
    ),
    _Frame(0x0A, ErrorMessage, ("kind", _STR), ("message", _STR)),
    _Frame(0x0B, StatsRequest, ("per_session", _BOOL)),
    _Frame(
        0x0C,
        StatsResponse,
        ("aggregate", _COMM),
        ("per_session", _Seq(_Record(_I32, _COMM))),
    ),
    _Frame(0x0D, ObjectsRequest),
    _Frame(0x0E, ObjectsResponse, ("epoch", _U32), ("indexes", _IDS)),
    _Frame(0x0F, AggregateStatsRequest),
    _Frame(0x10, AggregateStatsResponse, ("stats", _PROC)),
    _Frame(0x11, DrainRequest),
    _Frame(0x12, DrainAck, ("wal_seq", _U64), ("session_ids", _Seq(_I32))),
    _Frame(
        0x13,
        IndexDelta,
        ("epoch", _U32),
        ("payload", _U32),
        ("full bulk", _Flags(2)),
        ("new_indexes", _IDS),
        ("deleted_indexes", _IDS),
        ("changed", _IDS),
        ("points", _Seq(_POSITION)),
        ("neighbors", _Seq(_Record(_U32, _IDS))),
        ("removed_neighbors", _IDS),
        ("assignments", _Seq(_Record(_U32, _U32))),
        ("groups", _Seq(_Record(_U32, _IDS))),
        ("removed_groups", _IDS),
        ("vertices", _Seq(_Record(_U32, _U32, _F64))),
        ("removed_vertices", _IDS),
        ("edges", _Seq(_Record(_U32, _U32, _U32, _Optional(_F64)))),
        ("removed_edges", _IDS),
        ("labels", _Seq(_Record(_U32, _IDS, _IDS, _IDS))),
        ("removed_labels", _IDS),
    ),
    _Frame(0x14, DeltaAck, ("epoch", _U32)),
    _Frame(0x15, OpenQuery, ("kind", _STR), *_SESSION, _OPTIONS),
    _Frame(
        0x16,
        InfluentialResponse,
        *_RESPONSE,
        ("result.sites", _IDS),
        result=InfluentialResult,
    ),
    _Frame(
        0x17,
        RegionEvent,
        *_RESPONSE,
        ("result.event", _enum(_REGION_EVENTS, "region event")),
        ("result.departed", _IDS),
        result=RegionResult,
    ),
    _Frame(0x18, MetricsRequest),
    _Frame(
        0x19,
        MetricsSnapshot,
        ("counters", _Seq(_Record(_STR, _STR, _U64))),
        ("gauges", _Seq(_Record(_STR, _STR, _F64))),
        ("histograms", _Seq(_Record(_STR, _STR, _Seq(_U64, count=_U16), _F64))),
    ),
)
_FRAME_OF_CLASS = {frame.cls: frame for frame in _FRAMES}
_FRAME_OF_TYPE = {frame.type_byte: frame for frame in _FRAMES}


# ----------------------------------------------------------------------
# The three derived operations
# ----------------------------------------------------------------------
# Per-frame-type codec latency histograms, cached here so the hot path
# never re-derives a label key or touches the registry dict.
_CODEC_HISTOGRAMS: Dict[Tuple[str, str], Histogram] = {}


def _codec_histogram(op: str, frame: str) -> Histogram:
    key = (op, frame)
    hist = _CODEC_HISTOGRAMS.get(key)
    if hist is None:
        hist = _obs_histogram("insq_codec_seconds", op=op, frame=frame)
        _CODEC_HISTOGRAMS[key] = hist
    return hist


def encode(message: Any) -> bytes:
    """Encode one protocol message into one length-prefixed frame.

    Raises:
        TransportError: for unknown message types or out-of-range fields
            (e.g. an object index that does not fit the wire's u32).
    """
    frame = _FRAME_OF_CLASS.get(type(message))
    if frame is None:
        raise TransportError(f"cannot encode message of type {type(message).__name__}")
    started = start_timer()
    try:
        data = frame.encode(message)
    except struct.error as error:
        raise TransportError(
            f"field out of range encoding {type(message).__name__}: {error}"
        )
    if started is not None:
        _codec_histogram("encode", type(message).__name__).observe(
            _obs_clock() - started
        )
    return data


def _decode_body(body: bytes) -> Any:
    if not body:
        raise TransportError("empty frame body")
    frame = _FRAME_OF_TYPE.get(body[0])
    if frame is None:
        raise TransportError(f"unknown frame type 0x{body[0]:02x}")
    started = start_timer()
    try:
        message = frame.decode(body)
    except (struct.error, IndexError):
        raise _truncated()
    if started is not None:
        _codec_histogram("decode", type(message).__name__).observe(
            _obs_clock() - started
        )
    return message


def decode(data: bytes) -> Any:
    """Decode exactly one complete frame (prefix included) into a message.

    Raises:
        TransportError: when ``data`` is not exactly one well-formed frame
            (truncated, trailing bytes, unknown type, malformed body).
    """
    if len(data) < LENGTH_PREFIX_BYTES:
        raise TransportError("frame shorter than its length prefix")
    (length,) = _LENGTH.unpack_from(data, 0)
    if length > MAX_FRAME_BYTES:
        raise TransportError(f"declared frame length {length} exceeds the limit")
    if len(data) != LENGTH_PREFIX_BYTES + length:
        raise TransportError(
            f"frame declares {length} body bytes but carries "
            f"{len(data) - LENGTH_PREFIX_BYTES}"
        )
    return _decode_body(data[LENGTH_PREFIX_BYTES:])


def wire_size(message: Any) -> int:
    """Predicted encoded size of ``message`` in bytes, prefix included.

    Computed arithmetically — ``wire_size(m) == len(encode(m))`` holds
    exactly for every encodable message, which is the codec's reconciliation
    contract: the transport's measured byte counters are provably the sum
    of the per-message predictions.
    """
    frame = _FRAME_OF_CLASS.get(type(message))
    if frame is None:
        raise TransportError(f"cannot size message of type {type(message).__name__}")
    return frame.wire_size(message)


# ----------------------------------------------------------------------
# Incremental framing
# ----------------------------------------------------------------------
class FrameReader:
    """Incremental frame decoder for a byte stream.

    Feed it whatever the socket produced — half a frame, three frames and
    a bit — and it yields each completed message exactly once, in order::

        reader = FrameReader()
        for chunk in socket_chunks:
            for message, nbytes in reader.feed(chunk):
                handle(message)

    Raises :class:`~repro.errors.TransportError` on corrupt input (the
    stream is unrecoverable past that point — close the connection).
    """

    def __init__(self, max_frame_bytes: int = MAX_FRAME_BYTES):
        self._buffer = bytearray()
        self._max_frame_bytes = max_frame_bytes

    @property
    def pending_bytes(self) -> int:
        """Bytes buffered that do not yet form a complete frame."""
        return len(self._buffer)

    def feed(self, data: bytes) -> List[Tuple[Any, int]]:
        """Absorb ``data``; return the completed ``(message, size)`` pairs.

        ``size`` is the frame's full wire size (length prefix included),
        so a transport can bill measured bytes per message.
        """
        self._buffer.extend(data)
        messages: List[Tuple[Any, int]] = []
        while True:
            if len(self._buffer) < LENGTH_PREFIX_BYTES:
                return messages
            (length,) = _LENGTH.unpack_from(self._buffer, 0)
            if length > self._max_frame_bytes:
                raise TransportError(
                    f"declared frame length {length} exceeds the limit"
                )
            frame_size = LENGTH_PREFIX_BYTES + length
            if len(self._buffer) < frame_size:
                return messages
            body = bytes(self._buffer[LENGTH_PREFIX_BYTES:frame_size])
            del self._buffer[:frame_size]
            messages.append((_decode_body(body), frame_size))
