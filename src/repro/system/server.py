"""The DBGC server: receive, decompress (or store raw), persist — and survive.

Frames arrive over TCP as protocol-v2 records (see
:mod:`repro.system.protocol`).  The server either decompresses each bit
sequence and stores the cloud, or bypasses decompression and stores the
payload directly (both modes appear in the paper's Figure 2).

Unlike the v1 prototype (one connection, thread dies on the first bad
byte), this server is built for a lossy uplink *and* a fleet of sensors:

- the accept loop hands every connection to its own handler thread
  (bounded by ``max_clients``), so N clients stream concurrently and a
  disconnect or reconnect of one never stalls the others;
- per-stream state — the dedupe set, ACK ordinals, receipts — is keyed
  by the stream id each connection announces in its HELLO record, so a
  reconnecting client resumes *its* stream and two clients can never
  poison each other's dedupe or ACK accounting;
- a corrupt or undecodable payload is *quarantined* — recorded with its
  bytes and exception — and serving continues;
- in ``decompress`` mode each stream decodes through a stateful
  :class:`~repro.core.temporal.TemporalDecoder` per decode chain (a
  keyframe and the delta frames that follow it), so temporal
  streams (format v3 delta frames between keyframes) decode
  transparently and two streams' predictor states can never mix; a
  delta frame whose predictor is missing or mismatched (e.g. the server
  restarted and lost the in-memory state, or its predecessor was
  quarantined) raises and is quarantined like any undecodable payload —
  the stream heals at its next keyframe, which starts a new chain;
- retransmitted frames are deduplicated per stream, making client
  retries idempotent; DUPLICATE only ever answers a committed frame;
- every frame is acknowledged, so the client can detect loss;
- an END record closes *that client's session* (acknowledged at
  :data:`~repro.system.protocol.END_ACK_INDEX`); the accept loop keeps
  running until the driver calls :meth:`DbgcServer.close`.
"""

from __future__ import annotations

import queue
import socket
import threading
import time
import zlib
from concurrent.futures import CancelledError, Future
from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping

from repro.core.container import container_version
from repro.core.temporal import TemporalDecoder
from repro.geometry.points import PointCloud
from repro.observability import recorder as _obs
from repro.system.durability import ReceiptJournal
from repro.system.faults import FaultyChannel
from repro.system.pool import StickyWorkerPool, pack_array, unpack_array
from repro.system.protocol import (
    ACK_DUPLICATE,
    ACK_FLAG_BUSY,
    ACK_QUARANTINED,
    ACK_STORED,
    END_ACK_INDEX,
    TYPE_ACK,
    TYPE_END,
    TYPE_FRAME,
    TYPE_HELLO,
    CorruptPayloadError,
    ProtocolError,
    Record,
    encode_record,
    read_record,
    recv_exact,
)
from repro.system.storage import FileFrameStore, ShardedFrameStore, SqliteFrameStore

__all__ = [
    "DbgcServer",
    "QuarantinedFrame",
    "RemoteDecodeError",
    "StreamState",
    "recv_exact",
]

#: Smoothing factor of the store-write latency EWMA behind busy hints.
_STORE_EWMA_ALPHA = 0.2

#: Per-stream decode-pipeline cap used when a (pre-v2.2) client's HELLO
#: advertised no window: above this many uncommitted frames the stream's
#: ACKs carry the BUSY congestion hint.
_DEFAULT_STREAM_INFLIGHT = 4


class RemoteDecodeError(ValueError):
    """A decode failure surfaced from a decoder worker process.

    Carries the worker-side exception's ``repr`` as its sole argument
    and *is* that repr, so a quarantine record written through the
    offload path is byte-identical to the inline path's.
    """

    def __repr__(self) -> str:
        return self.args[0]


# -- decode chains ----------------------------------------------------
#
# A decode chain is one keyframe and the delta frames that follow it —
# the temporal context resets at every keyframe, so chains are
# self-contained.  Frames are numbered into their stream's chains on
# arrival (``StreamState.chain_no``), and a decoder table maps each
# stream id to its current chain's stateful TemporalDecoder (bounded
# state: one live decoder per stream, the previous chain's is dropped).
# With ``decode_workers=0`` the table belongs to the server instance and
# decodes run on the handler thread.  With a decode pool each worker
# process owns the table of the chains pinned to its slot: sticky
# routing keys work by ``(stream_id, chain_no)``, so within a chain
# frames land on one worker in arrival order (the delta-ordering
# contract), while *different* chains of the same stream spread
# least-loaded across workers — which is what lets a single stream's
# decode throughput scale with ``decode_workers`` once the client
# pipelines (window > 1).

_WORKER_DECODERS: dict[int | str, tuple[int, TemporalDecoder]] = {}


def _decode_on_chain(
    decoders: dict[int | str, tuple[int, TemporalDecoder]],
    stream_id: int | str,
    chain_no: int,
    payload: bytes,
) -> PointCloud:
    """Decode one frame with its chain's decoder from ``decoders``.

    The chain's first frame finds no decoder for its number and starts
    a fresh one.  Raises whatever the decoder raises.
    """
    entry = decoders.get(stream_id)
    if entry is None or entry[0] != chain_no:
        entry = decoders[stream_id] = (chain_no, TemporalDecoder())
    return entry[1].decode(payload)


def _decode_in_worker(stream_id: int | str, chain_no: int, payload: bytes) -> tuple:
    """:func:`_decode_on_chain` in a decoder worker process; never raises.

    Returns ``("ok", meta, buffers)`` — a :func:`~repro.system.pool.
    pack_array` split of the decoded ``xyz``, shipped out-of-band so the
    parent rebuilds the cloud without copying — or ``("err", repr)`` on
    failure, keeping unpicklable exceptions from wedging the pool.
    """
    try:
        cloud = _decode_on_chain(_WORKER_DECODERS, stream_id, chain_no, payload)
    except Exception as exc:
        return ("err", repr(exc))
    meta, buffers = pack_array(cloud.xyz)
    return ("ok", meta, buffers)


def _pool_outcome(future: Future) -> PointCloud | Exception:
    """A pool decode's result: the decoded cloud, or the error to quarantine."""
    try:
        result = future.result()
    except CancelledError:
        # kill() cancelled the queued work mid-flight; it quarantines
        # like any failure (the ACK goes to a torn-down socket).
        return RemoteDecodeError("decode cancelled by server shutdown")
    if result[0] != "ok":
        return RemoteDecodeError(result[1])
    return PointCloud._adopt(unpack_array(result[1], result[2]))


@dataclass(frozen=True)
class QuarantinedFrame:
    """A payload the server refused to store, kept for forensics."""

    frame_index: int
    payload: bytes = field(repr=False)
    error: str
    received_at: float
    #: Stream the payload arrived on (int id from HELLO, or the implicit
    #: ``"conn-N"`` key of a connection that never sent one).
    stream_id: int | str = 0

    def __str__(self) -> str:
        return (
            f"frame {self.frame_index} (stream {self.stream_id}): "
            f"{self.error} ({len(self.payload)} bytes kept)"
        )


@dataclass(slots=True)
class _Frame:
    """One dedupe-reserved frame on its way from record read to ACK."""

    stream: "StreamState"
    frame_index: int
    payload: bytes = field(repr=False)
    payload_crc: int | None
    received_at: float
    decode_started: float = 0.0


class StreamState:
    """Per-stream ingest state, shared by all of that stream's connections.

    Mutated only under the owning server's :attr:`DbgcServer.lock`
    (``chain_no`` under the stream's ``decode_lock``).
    """

    __slots__ = (
        "stream_id",
        "seen",
        "unsettled",
        "ack_counts",
        "receipts",
        "ended",
        "decode_lock",
        "window",
        "chain_no",
    )

    def __init__(self, stream_id: int | str) -> None:
        self.stream_id = stream_id
        #: Frame indices committed or reserved mid-ingest — the dedupe set.
        self.seen: set[int] = set()
        #: The reserved indices not yet settled (still decoding or
        #: committing); their count feeds the per-stream BUSY hint.
        self.unsettled: set[int] = set()
        #: ACKs issued per index; feeds the fault channel's drop plan.
        self.ack_counts: dict[int, int] = {}
        #: This stream's slice of the server-wide receipts.
        self.receipts: list[tuple[int, int, float, float]] = []
        #: True once the stream's END record arrived.
        self.ended = False
        #: Sliding window the client advertised in HELLO flags (v2.2);
        #: 0 = unknown (pre-v2.2 client).
        self.window = 0
        #: Decode-chain counter: bumped at every keyframe; -1 until the
        #: stream's first frame arrives.
        self.chain_no = -1
        #: Serializes chain numbering with the decode (or the pool
        #: submission) of this stream's frames: predictor state makes
        #: decode order-sensitive, so a reconnect racing the old
        #: connection must not interleave.
        self.decode_lock = threading.Lock()


class DbgcServer:
    """A fault-tolerant multi-client frame sink on background threads.

    Parameters
    ----------
    store:
        Frame store to persist into (file, SQLite, or sharded).
    mode:
        ``"decompress"`` — decompress and store clouds;
        ``"store"`` — store compressed payloads directly.
    host, port:
        Listen address; port 0 picks a free port (see :attr:`address`).
    channel:
        Optional :class:`~repro.system.faults.FaultyChannel` — or a
        mapping of stream id to channel for per-client fault injection;
        the matching ``drop_ack`` plan is consulted before each
        acknowledgement so ACK loss (and the client's retransmit + server
        dedupe path) can be exercised deterministically.
    max_clients:
        Handler-thread cap.  When every slot is busy, new connections
        wait in the TCP backlog until one frees up (backpressure, not
        refusal).
    receipt_journal:
        A :class:`~repro.system.durability.ReceiptJournal` (or a path to
        open one at) making the per-stream dedupe/END state durable: the
        server journals every stored frame and END, and a *restarted*
        server replays the journal on construction — so retransmissions
        of frames stored before a crash are answered with DUPLICATE
        instead of being stored twice.  When a path is given the server
        owns (and closes) the journal; ``journal_rotate_bytes`` is then
        forwarded as its segment-rotation threshold (see
        :class:`~repro.system.durability.ReceiptJournal`), keeping a
        long-lived server's journal from growing without bound.
    busy_threshold_s:
        Backpressure trigger: when the store-write latency EWMA exceeds
        this many seconds (or ``busy_depth`` writes are in flight), ACKs
        carry the protocol-v2 BUSY hint and clients slow down / coarsen.
        ``None`` (default) disables busy hints.
    busy_depth:
        Optional in-flight store-write count that also trips the BUSY
        hint (only consulted when ``busy_threshold_s`` is set).
    max_quarantine:
        Bound on the quarantine list: when full, the oldest entry is
        evicted (counted in :attr:`quarantine_evicted` and the
        ``server.quarantine.evicted`` counter) so a hostile client
        cannot grow server memory without bound.
    max_receipts:
        Bound on :attr:`receipts` (and each stream's receipt slice),
        mirroring ``max_quarantine``: when full, the oldest receipt is
        evicted (counted in :attr:`receipts_evicted` and the
        ``server.receipts.evicted`` counter) so a long-lived server's
        receipt memory stays flat.  ``None`` disables the bound; the
        default (4096) is far above any one batch a client reconciles
        with ``merge_receipts``.
    decode_workers:
        Where ``decompress``-mode frames decode (rejected in ``store``
        mode).  0 (default) decodes in-process on the handler thread.
        N >= 1 fans decoding out to N decoder worker *processes* behind
        a :class:`~repro.system.pool.StickyWorkerPool`: the handler
        thread CRC-validates, dedupes and submits decodes *as frames
        arrive* (v2.2 pipelined ingest), keyed by decode chain, and a
        per-connection drainer settles each frame in submission order
        when its result arrives.  Either way a frame takes the same
        reserve → decode → settle path, so every ordering contract (ACK
        after commit, journal between commit and ACK, quarantine with
        the ``seen`` reservation released) and the stored bytes are the
        same.

    Thread-safety: handler threads append to :attr:`receipts`,
    :attr:`quarantine`, and :attr:`events` while the driver may read
    them; all access goes through :attr:`lock`.  Use :meth:`snapshot` for
    a consistent copy, or read after :meth:`join` returns.
    """

    def __init__(
        self,
        store: FileFrameStore | SqliteFrameStore | ShardedFrameStore,
        mode: str = "decompress",
        host: str = "127.0.0.1",
        port: int = 0,
        channel: FaultyChannel | Mapping[int, FaultyChannel] | None = None,
        max_clients: int = 8,
        receipt_journal: ReceiptJournal | str | Path | None = None,
        busy_threshold_s: float | None = None,
        busy_depth: int | None = None,
        max_quarantine: int = 256,
        max_receipts: int | None = 4096,
        decode_workers: int = 0,
        journal_rotate_bytes: int | None = None,
    ) -> None:
        if mode not in ("decompress", "store"):
            raise ValueError(f"unknown server mode {mode!r}")
        if max_clients < 1:
            raise ValueError(f"max_clients must be >= 1, got {max_clients}")
        if max_quarantine < 1:
            raise ValueError(f"max_quarantine must be >= 1, got {max_quarantine}")
        if max_receipts is not None and max_receipts < 1:
            raise ValueError(f"max_receipts must be >= 1, got {max_receipts}")
        if decode_workers < 0:
            raise ValueError(f"decode_workers must be >= 0, got {decode_workers}")
        if decode_workers and mode != "decompress":
            raise ValueError("decode_workers needs mode='decompress'")
        self.store = store
        self.mode = mode
        self.channel = channel
        self.max_clients = int(max_clients)
        self.busy_threshold_s = busy_threshold_s
        self.busy_depth = busy_depth
        self.max_quarantine = int(max_quarantine)
        self.max_receipts = None if max_receipts is None else int(max_receipts)
        self.decode_workers = int(decode_workers)
        self._listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        try:
            self._listener.bind((host, port))
            self._listener.listen(32)
            # Accept with a short timeout: on Linux, close()ing a listener
            # does not unblock a thread already parked in accept(), so the
            # loop must poll the stop flag to shut down promptly.
            self._listener.settimeout(0.1)
            self._address: tuple[str, int] = self._listener.getsockname()
        except BaseException:
            self._listener.close()
            raise
        self._thread: threading.Thread | None = None
        self._error: BaseException | None = None
        self._stop = threading.Event()
        #: Handler-slot semaphore implementing the ``max_clients`` cap.
        self._slots = threading.Semaphore(self.max_clients)
        #: Guards all shared state below (streams, receipts, quarantine,
        #: events, connection counters) against the handler threads.
        self.lock = threading.Lock()
        self._cond = threading.Condition(self.lock)
        #: Signalled whenever a reserved frame settles (and on shutdown):
        #: a retransmission of an unsettled frame waits on it.
        self._settled = threading.Condition(self.lock)
        self._streams: dict[int | str, StreamState] = {}
        self._conns: set[socket.socket] = set()
        self._active = 0
        self._peak_active = 0
        self._ends_seen = 0
        self._closed = False
        #: Store-write latency EWMA and in-flight write count feeding the
        #: BUSY backpressure hint.
        self._store_ewma_s = 0.0
        self._writes_in_flight = 0
        #: BUSY hints piggybacked on ACKs so far.
        self.busy_hints = 0
        #: Quarantine entries evicted by the ``max_quarantine`` bound.
        self.quarantine_evicted = 0
        #: Receipts evicted by the ``max_receipts`` bound.
        self.receipts_evicted = 0
        #: (frame_index, payload_bytes, received_at, stored_at) per stored frame.
        self.receipts: list[tuple[int, int, float, float]] = []
        #: Payloads rejected with their exception text and bytes (bounded
        #: by ``max_quarantine``, oldest evicted first).
        self.quarantine: list[QuarantinedFrame] = []
        #: Connection-level happenings: ("accept"|"hello"|"disconnect"|
        #: "duplicate"|"resync"|"end"|"recover", detail) in serve order.
        self.events: list[tuple[str, str]] = []
        #: Connections accepted over the server's lifetime.
        self.connections = 0
        #: Durable receipt journal (None = in-memory state only).
        self.journal: ReceiptJournal | None = None
        self._journal_owned = False
        if receipt_journal is not None:
            if isinstance(receipt_journal, (str, Path)):
                # Batched appends keep the journal's write(2) off the ACK
                # hot path (one syscall per 16 receipts).  The widened
                # kill-loss window is safe here — see _record_stored.
                self.journal = ReceiptJournal(
                    receipt_journal, batch=16, rotate_bytes=journal_rotate_bytes
                )
                self._journal_owned = True
            else:
                self.journal = receipt_journal
            self._recover_streams()
        #: In-process decoder table (decode_workers=0): this server's
        #: own, so a killed server and its restart never share state.
        self._decoders: dict[int | str, tuple[int, TemporalDecoder]] = {}
        #: Decode offload tier: one sticky slot per decoder worker; None
        #: in store mode or with decode_workers=0.  The in-flight window
        #: bounds the decode work queue; its depth feeds the BUSY hint
        #: alongside the store-latency EWMA.
        self._decode_pool: StickyWorkerPool | None = None
        if self.decode_workers > 0:
            self._decode_pool = StickyWorkerPool(
                self.decode_workers, max_in_flight=4 * self.decode_workers
            )

    def _recover_streams(self) -> None:
        """Rebuild per-stream dedupe/END state from the receipt journal.

        Runs on construction, before the accept loop starts: a server
        restarted over the same journal answers retransmissions of
        already-stored frames with DUPLICATE instead of double-storing,
        and already-ENDed streams stay ended.
        """
        replay = self.journal.replay()
        recovered_frames = 0
        for stream_id, seen in replay.seen_by_stream().items():
            state = self._streams.setdefault(stream_id, StreamState(stream_id))
            state.seen.update(seen)
            recovered_frames += len(seen)
        for stream_id in replay.ended:
            state = self._streams.setdefault(stream_id, StreamState(stream_id))
            if not state.ended:
                state.ended = True
                self._ends_seen += 1
        if not self._streams and not replay.torn:
            return
        _obs.count("server.recovery.streams", len(self._streams))
        _obs.count("server.recovery.frames", recovered_frames)
        if replay.torn:
            _obs.count("server.recovery.torn_records", replay.torn)
        self.events.append(
            (
                "recover",
                f"{recovered_frames} frame(s) over {len(self._streams)} stream(s), "
                f"{self._ends_seen} ended"
                + (", torn journal tail discarded" if replay.torn else ""),
            )
        )

    @property
    def address(self) -> tuple[str, int]:
        return self._address

    @property
    def active_clients(self) -> int:
        """Connections currently being served."""
        with self.lock:
            return self._active

    @property
    def peak_active_clients(self) -> int:
        """Most connections ever served at once (≤ ``max_clients``)."""
        with self.lock:
            return self._peak_active

    @property
    def streams_ended(self) -> int:
        """Streams whose END record has arrived."""
        with self.lock:
            return self._ends_seen

    def start(self) -> "DbgcServer":
        """Begin accepting client connections in the background."""
        if self._thread is None:
            self._thread = threading.Thread(target=self._serve, daemon=True)
            self._thread.start()
        return self

    def __enter__(self) -> "DbgcServer":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- accept loop ---------------------------------------------------

    def _note(self, kind: str, detail: str = "") -> None:
        with self.lock:
            self.events.append((kind, detail))

    def _serve(self) -> None:
        try:
            while not self._stop.is_set():
                # The slot is taken *before* accept so a full handler pool
                # leaves new clients queued in the TCP backlog.
                if not self._slots.acquire(timeout=0.1):
                    continue
                try:
                    conn, peer = self._listener.accept()
                except socket.timeout:
                    self._slots.release()
                    continue  # re-check the stop flag
                except OSError:
                    self._slots.release()
                    break  # listener closed by close()
                with self.lock:
                    self.connections += 1
                    self._active += 1
                    self._peak_active = max(self._peak_active, self._active)
                    self._conns.add(conn)
                    number = self.connections
                _obs.count("server.clients.total")
                _obs.count("server.clients.active")
                self._note("accept", f"connection {number} from {peer[1]}")
                threading.Thread(
                    target=self._client_thread, args=(conn, number), daemon=True
                ).start()
        except BaseException as exc:  # pragma: no cover - surfaced via join()
            with self._cond:
                self._error = exc
                self._cond.notify_all()
        finally:
            self._listener.close()

    def _client_thread(self, conn: socket.socket, number: int) -> None:
        try:
            self._handle_connection(conn, number)
        except BaseException as exc:  # pragma: no cover - surfaced via join()
            with self._cond:
                if self._error is None:
                    self._error = exc
        finally:
            conn.close()
            with self._cond:
                self._conns.discard(conn)
                self._active -= 1
                self._cond.notify_all()
            _obs.count("server.clients.active", -1)
            self._slots.release()

    # -- per-connection serving ----------------------------------------

    def _stream(self, stream_id: int | str) -> StreamState:
        with self.lock:
            state = self._streams.get(stream_id)
            if state is None:
                state = self._streams[stream_id] = StreamState(stream_id)
        return state

    def stream_state(self, stream_id: int | str) -> StreamState | None:
        """The named stream's state, or ``None`` if it never connected."""
        with self.lock:
            return self._streams.get(stream_id)

    def receipts_for(self, stream_id: int | str) -> list[tuple[int, int, float, float]]:
        """One stream's receipts (feed to that client's ``merge_receipts``)."""
        with self.lock:
            state = self._streams.get(stream_id)
            return list(state.receipts) if state is not None else []

    def _handle_connection(self, conn: socket.socket, number: int) -> None:
        """Serve one connection until its stream ends or the link drops.

        Frames settle on this handler thread, except with a decode pool
        (v2.2 pipelined ingest): then the handler submits each decode
        and a per-connection drainer thread settles the frames in
        submission order as their results arrive.  The send lock
        serializes the drainer's ACKs with the handler's own DUPLICATE /
        CRC-quarantine ACKs on the one socket.
        """
        stream: StreamState | None = None
        send_lock = threading.Lock()
        pipeline: queue.Queue | None = None
        drainer: threading.Thread | None = None
        if self._decode_pool is not None:
            pipeline = queue.Queue()
            drainer = threading.Thread(
                target=self._drain, args=(conn, send_lock, pipeline), daemon=True
            )
            drainer.start()

        def drain_pipeline() -> None:
            # Settle every submitted frame, then park the drainer.
            # Called before the END ACK so end-of-stream is still the
            # last thing the client hears, and on any exit so no pending
            # commit is orphaned by a disconnect.
            nonlocal drainer
            if drainer is not None:
                pipeline.put(None)
                drainer.join()
                drainer = None

        try:
            while not self._stop.is_set():
                try:
                    record = read_record(conn)
                except CorruptPayloadError as exc:
                    received_at = time.perf_counter()
                    if stream is None:
                        stream = self._stream(f"conn-{number}")
                    self._quarantine(
                        stream, exc.frame_index, exc.payload, exc, received_at
                    )
                    self._ack(conn, send_lock, stream, exc.frame_index, ACK_QUARANTINED)
                    continue
                except (ConnectionError, TimeoutError, ProtocolError, OSError) as exc:
                    self._note("disconnect", repr(exc))
                    return
                if record.resync_skipped:
                    self._note(
                        "resync", f"skipped {record.resync_skipped} garbage bytes"
                    )
                if record.type == TYPE_HELLO:
                    stream = self._stream(record.frame_index)
                    if record.flags:
                        # v2.2: the flags byte advertises the client's
                        # sliding window (caps the BUSY-hint threshold).
                        with self.lock:
                            stream.window = record.flags
                    self._note(
                        "hello",
                        f"stream {record.frame_index} on connection {number}"
                        + (f" (window {record.flags})" if record.flags else ""),
                    )
                    continue
                if stream is None:
                    # v2.0 compatibility: frames without a HELLO get a stream
                    # scoped to this connection (no dedupe across reconnects).
                    stream = self._stream(f"conn-{number}")
                if record.type == TYPE_END:
                    drain_pipeline()
                    first_end = False
                    with self._cond:
                        if not stream.ended:
                            stream.ended = True
                            self._ends_seen += 1
                            first_end = True
                        self._cond.notify_all()
                    self._note("end", f"stream {stream.stream_id}")
                    if first_end:
                        _obs.count("server.streams.ended")
                    if first_end and self.journal is not None:
                        # Before the ACK (write-ahead ordering); a lost
                        # append only means the client re-ENDs after a
                        # restart, which is idempotent.
                        self.journal.append_end(stream.stream_id)
                    self._ack(conn, send_lock, stream, END_ACK_INDEX, ACK_STORED)
                    return
                if record.type == TYPE_FRAME:
                    self._ingest(conn, send_lock, pipeline, stream, record)
                # Anything else (stray ACK echoes) is ignored.
        finally:
            drain_pipeline()

    def _reserve(
        self,
        conn: socket.socket,
        send_lock: threading.Lock,
        stream: StreamState,
        frame_index: int,
        payload: bytes,
    ) -> bool:
        """Dedupe-reserve one arriving frame; False = duplicate or shutdown.

        The index is reserved before the decode and the store write, so
        a concurrent retransmission — on another connection *or* behind
        it in this connection's pipeline — dedupes against it.  Such a
        retransmission waits here until the reserved frame settles:
        DUPLICATE only answers a committed frame, and one that was
        quarantined is ingested anew.  The wait ends unanswered on
        :meth:`kill` / :meth:`close`.
        """
        _obs.count("server.ingress")
        _obs.add_bytes("server.ingress", len(payload))
        with self.lock:
            while frame_index in stream.unsettled:
                if self._stop.is_set():
                    return False
                self._settled.wait()
            if frame_index not in stream.seen:
                stream.seen.add(frame_index)
                stream.unsettled.add(frame_index)
                return True
        # Retransmission of a frame that already made it: idempotent.
        self._note("duplicate", f"frame {frame_index}")
        _obs.count("server.duplicates")
        self._ack(conn, send_lock, stream, frame_index, ACK_DUPLICATE)
        return False

    def _ingest(
        self,
        conn: socket.socket,
        send_lock: threading.Lock,
        pipeline: queue.Queue | None,
        stream: StreamState,
        record: Record,
    ) -> None:
        """The one ingest path: reserve → decode → settle.

        Store-mode frames and in-process decodes settle right here, so
        with ``decode_workers=0`` no frame crosses a thread between its
        record read and its ACK.  With a decode pool the decode is
        submitted instead, and the connection's drainer settles it.

        Decoding is by *chain*: every keyframe (intra container) starts
        a new ``(stream_id, chain_no)``, while delta frames (container
        v3) stay on the current chain — so one pipelining client
        saturates many decode workers without ever decoding a delta out
        of order.  A payload that doesn't sniff as any container stays
        on the current chain too and fails decode *there*.
        """
        received_at = time.perf_counter()
        frame_index, payload = record.frame_index, record.payload
        if not self._reserve(conn, send_lock, stream, frame_index, payload):
            return
        frame = _Frame(stream, frame_index, payload, record.payload_crc, received_at)
        if self.mode == "store":
            self._settle(conn, send_lock, frame, None)
            return
        pool = self._decode_pool
        # Number the chain and decode (or submit) under the stream's
        # decode lock: a sticky slot's queue is FIFO, so "submitted in
        # arrival order" becomes "decoded in arrival order" even when a
        # reconnect races the old connection's handler.
        with stream.decode_lock:
            try:
                delta = container_version(payload) == 3
            except Exception:
                delta = True  # undecodable: keep it inside the current chain
            if not delta or stream.chain_no < 0:
                stream.chain_no += 1
            chain = (stream.stream_id, stream.chain_no)
            frame.decode_started = time.perf_counter()
            if pool is None:
                try:
                    outcome = _decode_on_chain(self._decoders, *chain, payload)
                except Exception as exc:
                    outcome = exc
            else:
                depth = pool.depth()
                future = pool.submit(_decode_in_worker, *chain, payload, key=chain)
        if pool is None:
            self._settle(conn, send_lock, frame, outcome)
            return
        _obs.observe("server.decode.queue_depth", depth)
        _obs.count(f"server.decode.worker.{pool.slot_for(chain)}")
        pipeline.put((frame, future))

    def _drain(
        self, conn: socket.socket, send_lock: threading.Lock, pipeline: queue.Queue
    ) -> None:
        """Per-connection drainer: settle pool decodes in submission order.

        Runs on its own thread until the ``None`` sentinel; per chain,
        submission order equals decode-completion order (the sticky
        slots are FIFO).
        """
        while True:
            entry = pipeline.get()
            if entry is None:
                return
            _obs.observe("server.ack_queue_depth", pipeline.qsize())
            frame, future = entry
            self._settle(conn, send_lock, frame, _pool_outcome(future))

    def _settle(
        self,
        conn: socket.socket,
        send_lock: threading.Lock,
        frame: _Frame,
        outcome: PointCloud | Exception | None,
    ) -> None:
        """Quarantine, or commit → receipt → journal; release; then ACK.

        ``outcome`` is the decoded cloud, the decode error, or ``None``
        in store mode (the payload itself is stored).  A frame that was
        undecodable despite an intact CRC, or that the store refused, is
        quarantined; either way serving continues.  The frame's
        reservation is released before its ACK — kept in ``seen`` only
        if committed, so a later (possibly healthy) retransmission of a
        quarantined frame is re-tried — and waiting retransmissions are
        woken.
        """
        stream, frame_index, payload = frame.stream, frame.frame_index, frame.payload
        committed = False
        try:
            if isinstance(outcome, PointCloud):
                _obs.observe(
                    "server.decode_s", time.perf_counter() - frame.decode_started
                )
            if not isinstance(outcome, Exception):
                outcome = self._commit(frame_index, payload, outcome)
            if outcome is not None:
                self._quarantine(stream, frame_index, payload, outcome, frame.received_at)
            else:
                committed = True
                self._record_stored(frame)
        finally:
            with self.lock:
                stream.unsettled.discard(frame_index)
                if not committed:
                    stream.seen.discard(frame_index)
                self._settled.notify_all()
        status = ACK_STORED if committed else ACK_QUARANTINED
        self._ack(conn, send_lock, stream, frame_index, status)

    def _record_stored(self, frame: _Frame) -> None:
        """Receipt and journal entry of a committed frame."""
        stream, frame_index = frame.stream, frame.frame_index
        receipt = (frame_index, len(frame.payload), frame.received_at, time.perf_counter())
        evicted = 0
        with self.lock:
            stream.receipts.append(receipt)
            self.receipts.append(receipt)
            if self.max_receipts is not None:
                while len(self.receipts) > self.max_receipts:
                    self.receipts.pop(0)
                    evicted += 1
                while len(stream.receipts) > self.max_receipts:
                    stream.receipts.pop(0)
                self.receipts_evicted += evicted
        if evicted:
            _obs.count("server.receipts.evicted", evicted)
        _obs.count("server.stored")
        if self.journal is not None:
            # Journal between the store commit and the ACK — textbook
            # write-ahead ordering: any frame the client saw STORED has a
            # receipt at least accepted by the journal.  Batched appends
            # keep this off the syscall path (~one write per 16 frames),
            # and doing it *before* the ACK runs it while the client is
            # still blocked awaiting the ACK, so it never preempts the
            # client's next send.  A kill can still drop up to one batch
            # of un-drained receipts; that loses nothing the client can
            # observe — a retransmission of such a frame is re-committed
            # idempotently (same index, same payload) instead of being
            # answered DUPLICATE.
            payload_crc = frame.payload_crc
            if payload_crc is None:
                payload_crc = zlib.crc32(frame.payload)
            self.journal.append_frame(stream.stream_id, frame_index, payload_crc)

    def _commit(
        self, frame_index: int, payload: bytes, cloud: PointCloud | None
    ) -> Exception | None:
        """Store-commit one frame (its cloud, else its payload).

        Returns the store's exception if it refused the frame.
        """
        with self.lock:
            self._writes_in_flight += 1
        write_started = time.perf_counter()
        try:
            if cloud is not None:
                self.store.put_cloud(frame_index, cloud)
            else:
                self.store.put_payload(frame_index, payload)
        except Exception as exc:
            return exc
        finally:
            elapsed = time.perf_counter() - write_started
            with self.lock:
                self._writes_in_flight -= 1
                self._store_ewma_s = (
                    elapsed
                    if self._store_ewma_s == 0.0
                    else (1.0 - _STORE_EWMA_ALPHA) * self._store_ewma_s
                    + _STORE_EWMA_ALPHA * elapsed
                )
            _obs.observe("server.store_write_s", elapsed)
        return None

    def _quarantine(
        self,
        stream: StreamState,
        frame_index: int,
        payload: bytes,
        exc: BaseException,
        received_at: float,
    ) -> None:
        evicted = False
        with self.lock:
            self.quarantine.append(
                QuarantinedFrame(
                    frame_index, payload, repr(exc), received_at, stream.stream_id
                )
            )
            if len(self.quarantine) > self.max_quarantine:
                # Bounded forensics: a hostile client spraying garbage
                # cannot grow server memory without limit.
                self.quarantine.pop(0)
                self.quarantine_evicted += 1
                evicted = True
        _obs.count("server.quarantined")
        if evicted:
            _obs.count("server.quarantine.evicted")

    def _channel_for(self, stream_id: int | str) -> FaultyChannel | None:
        channel = self.channel
        if channel is None or isinstance(channel, FaultyChannel):
            return channel
        return channel.get(stream_id)

    def _busy_now(self, stream: StreamState | None = None) -> bool:
        """Is the server falling behind?  (Feeds the ACK BUSY hint.)

        Trips on the store-latency EWMA, on ``busy_depth`` store writes
        in flight, or — with a decode offload tier — on ``busy_depth``
        frames deep in the decode work queue.  With a pipelined stream
        (v2.2) it additionally trips when that stream's unsettled
        in-flight count exceeds its advertised window — the per-stream
        congestion signal the client's AIMD halves on — independent of
        ``busy_threshold_s``.
        """
        if stream is not None and self._decode_pool is not None:
            cap = stream.window or _DEFAULT_STREAM_INFLIGHT
            with self.lock:
                if len(stream.unsettled) > cap:
                    return True
        if self.busy_threshold_s is None:
            return False
        if (
            self.busy_depth is not None
            and self._decode_pool is not None
            and self._decode_pool.depth() > self.busy_depth
        ):
            return True
        with self.lock:
            if self._store_ewma_s > self.busy_threshold_s:
                return True
            return (
                self.busy_depth is not None
                and self._writes_in_flight > self.busy_depth
            )

    def _ack(
        self,
        conn: socket.socket,
        send_lock: threading.Lock,
        stream: StreamState,
        frame_index: int,
        status: int,
    ) -> None:
        channel = self._channel_for(stream.stream_id)
        if channel is not None:
            with self.lock:
                ordinal = stream.ack_counts.get(frame_index, 0)
                stream.ack_counts[frame_index] = ordinal + 1
            if channel.drop_ack(frame_index, ordinal):
                return  # injected ACK loss; the client will retransmit
        flags = status
        if self._busy_now(stream):
            flags |= ACK_FLAG_BUSY
            with self.lock:
                self.busy_hints += 1
            _obs.count("server.busy_hints")
        data = encode_record(TYPE_ACK, frame_index, flags=flags)
        try:
            # The drainer and the handler share one socket (v2.2): the
            # send lock keeps their ACK records from interleaving.
            with send_lock:
                conn.sendall(data)
        except OSError:
            pass  # client already gone; it will retransmit on reconnect

    # -- driver-side API ----------------------------------------------

    def snapshot(self) -> tuple[list, list, list]:
        """A consistent (receipts, quarantine, events) copy under the lock."""
        with self.lock:
            return list(self.receipts), list(self.quarantine), list(self.events)

    def wait_for_streams(self, n_streams: int, timeout: float = 30.0) -> None:
        """Block until ``n_streams`` streams have ENDed and no client is active.

        Raises any fatal server error, or :class:`TimeoutError` if the
        condition is not reached in time.  The accept loop keeps running —
        shutdown stays explicit via :meth:`close`.
        """
        with self._cond:
            done = self._cond.wait_for(
                lambda: self._error is not None
                or (self._ends_seen >= n_streams and self._active == 0),
                timeout,
            )
            error = self._error
        if error is not None:
            raise error
        if not done:
            raise TimeoutError(
                f"{n_streams} stream(s) did not end within {timeout:.0f}s"
            )

    def join(self, timeout: float = 30.0) -> None:
        """Wait until at least one stream ended and the server is idle."""
        self.wait_for_streams(1, timeout)

    def kill(self) -> None:
        """SIGKILL-equivalent stop: drop everything on the floor, now.

        Unlike :meth:`close` this neither drains handler threads nor
        waits for in-flight writes — connections are torn down and the
        method returns immediately, modelling a process kill for the
        restart drill.  In-memory state (dedupe sets, receipts) is
        abandoned; only what reached the store and the receipt journal
        survives.  A handler thread mid-``put`` may still complete its
        (idempotent, index-keyed) store write and journal append after
        this returns — exactly the torn timeline a real crash leaves.
        """
        self._stop.set()
        self._listener.close()
        with self.lock:
            self._closed = True  # later close() is a no-op
            conns = list(self._conns)
            self._settled.notify_all()  # end retransmissions' waits
        for conn in conns:
            try:
                conn.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            conn.close()
        if self._decode_pool is not None:
            # No draining: queued decodes are cancelled (their handlers
            # quarantine into the dead server object) and the workers are
            # told to exit without being joined — kill() must not block.
            self._decode_pool.shutdown(wait=False, cancel_futures=True)
        _obs.count("server.killed")

    def close(self) -> None:
        """Stop serving: unblock the accept/recv loops and join the threads.

        Idempotent — a second call (or a call after :meth:`kill`)
        returns immediately.
        """
        with self.lock:
            if self._closed:
                return
            self._closed = True
        self._stop.set()
        self._listener.close()
        with self.lock:
            conns = list(self._conns)
            self._settled.notify_all()  # end retransmissions' waits
        for conn in conns:
            try:
                conn.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            conn.close()
        if self._thread is not None:
            self._thread.join(5.0)
        with self._cond:
            self._cond.wait_for(lambda: self._active == 0, timeout=5.0)
        if self._decode_pool is not None:
            # Handlers have drained, so no decode is in flight by now.
            self._decode_pool.shutdown(wait=True)
        if self._journal_owned and self.journal is not None:
            self.journal.close()
