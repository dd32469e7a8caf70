"""In-process message passing with MPI semantics.

Ranks run sequentially inside one Python process (deterministic, no
threads); messages are buffered eagerly, so the usual seismic-code pattern —
post all ``MPI_ISEND``/``MPI_IRECV``, then drain with ``MPI_WAITANY`` (the
paper's Algorithm 1 wording) — works when the driver executes each rank's
send phase before any rank's wait phase, which is exactly what the
:class:`~repro.mpisim.halo.HaloExchanger` superstep does.

Buffers follow the mpi4py convention for numpy arrays: sends copy out of the
given array, receives land into a caller-provided buffer of matching size
and dtype.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

import numpy as np

from repro.trace.tracer import Tracer
from repro.utils.errors import CommunicationError


@dataclass
class MessageStats:
    """Aggregate traffic counters (consumed by the cluster cost model and
    the tests)."""

    messages: int = 0
    bytes_sent: int = 0

    def record(self, nbytes: int) -> None:
        self.messages += 1
        self.bytes_sent += int(nbytes)


class Request:
    """Handle for a nonblocking operation.

    Send requests complete immediately (eager buffering). Receive requests
    complete when a matching message is popped from the mailbox by
    :meth:`wait` / :meth:`test`.
    """

    def __init__(
        self,
        mpi: "SimMPI",
        kind: str,
        rank: int,
        peer: int,
        tag: int,
        buf: np.ndarray | None = None,
    ):
        self._mpi = mpi
        self.kind = kind
        self.rank = rank
        self.peer = peer
        self.tag = tag
        self._buf = buf
        self.done = kind == "send"

    def test(self) -> bool:
        """Nonblocking completion check; receives complete if a matching
        message is queued."""
        if self.done:
            return True
        key = (self.peer, self.rank, self.tag)
        queue = self._mpi._mailbox.get(key)
        if queue:
            msg = queue.popleft()
            self._deliver(msg)
            self.done = True
        return self.done

    def wait(self) -> None:
        """Complete the operation; raises on guaranteed deadlock (nothing
        queued and ranks are sequential, so nothing can ever arrive)."""
        if self.test():
            return
        raise CommunicationError(
            f"irecv(source={self.peer}, tag={self.tag}) on rank {self.rank} "
            "would deadlock: no matching message buffered"
        )

    def _deliver(self, msg: np.ndarray) -> None:
        assert self._buf is not None
        if msg.size != self._buf.size:
            raise CommunicationError(
                f"message size {msg.size} does not match receive buffer "
                f"{self._buf.size} (rank {self.rank} <- {self.peer}, tag {self.tag})"
            )
        self._buf.ravel()[:] = msg.ravel()


@dataclass
class SimMPI:
    """The 'world': mailboxes shared by all ranks."""

    nranks: int
    _mailbox: dict[tuple[int, int, int], deque] = field(default_factory=dict)
    stats: MessageStats = field(default_factory=MessageStats)
    #: optional trace sink; when set, every send also bumps the
    #: ``mpi.messages`` / ``mpi.bytes`` metrics of the attached registry
    tracer: Tracer | None = None
    #: optional fault injector (duck-typed: ``on_message(rank, dest, tag,
    #: nbytes) -> 'deliver'|'drop'|'duplicate'|'delay'``) consulted by every
    #: send — the resilience layer's mpi-drop/dup/delay faults
    injector: object | None = None
    #: messages held back by a 'delay' verdict: they missed their superstep
    #: (the receiver starves exactly like a drop) and surface only if a
    #: later receive matches before :meth:`flush` clears them
    _delayed: list = field(default_factory=list)

    def __post_init__(self):
        if self.nranks < 1:
            raise CommunicationError("nranks must be >= 1")

    def comm(self, rank: int) -> "RankComm":
        """The communicator handle for ``rank``."""
        if not 0 <= rank < self.nranks:
            raise CommunicationError(f"rank {rank} outside 0..{self.nranks - 1}")
        return RankComm(self, rank)

    def comms(self) -> list["RankComm"]:
        return [self.comm(r) for r in range(self.nranks)]

    def pending_messages(self) -> int:
        return sum(len(q) for q in self._mailbox.values())

    def delayed_messages(self) -> int:
        """Messages held back by an injected ``mpi-delay`` fault."""
        return len(self._delayed)

    def flush(self) -> int:
        """Drop every buffered and delayed message — the recovery layer's
        world reset before retrying a failed exchange (ghost slabs are
        rewritten wholesale by the retry, so discarding in-flight traffic
        is safe). Returns how many messages were discarded."""
        n = self.pending_messages() + len(self._delayed)
        self._mailbox.clear()
        self._delayed.clear()
        return n


class RankComm:
    """Per-rank communicator (the ``MPI_COMM_WORLD`` view of one rank)."""

    def __init__(self, mpi: SimMPI, rank: int):
        self._mpi = mpi
        self.rank = rank

    @property
    def size(self) -> int:
        return self._mpi.nranks

    # ------------------------------------------------------------------
    def isend(self, data: np.ndarray, dest: int, tag: int = 0) -> Request:
        """Nonblocking standard send (eagerly buffered, like MPI_ISEND of
        small ghost faces)."""
        if not 0 <= dest < self.size:
            raise CommunicationError(f"isend dest {dest} outside 0..{self.size - 1}")
        if dest == self.rank:
            raise CommunicationError("self-sends are not supported")
        key = (self.rank, dest, int(tag))
        action = "deliver"
        if self._mpi.injector is not None:
            action = self._mpi.injector.on_message(
                self.rank, dest, int(tag), int(data.nbytes)
            )
        if action == "drop":
            pass  # lost in flight: the matching receive starves
        elif action == "delay":
            # held past its superstep: the receive starves now; the copy
            # lingers until a recovery flush() discards it
            self._mpi._delayed.append((key, np.array(data, copy=True)))
        else:
            queue = self._mpi._mailbox.setdefault(key, deque())
            queue.append(np.array(data, copy=True))
            if action == "duplicate":
                queue.append(np.array(data, copy=True))
        self._mpi.stats.record(data.nbytes)
        if self._mpi.tracer is not None:
            m = self._mpi.tracer.metrics
            m.counter("mpi.messages").add()
            m.counter("mpi.bytes").add(int(data.nbytes))
        return Request(self._mpi, "send", self.rank, dest, int(tag))

    def irecv(self, buf: np.ndarray, source: int, tag: int = 0) -> Request:
        """Nonblocking receive into ``buf``."""
        if not 0 <= source < self.size:
            raise CommunicationError(f"irecv source {source} outside 0..{self.size - 1}")
        if not isinstance(buf, np.ndarray):
            raise CommunicationError("irecv needs a numpy buffer")
        return Request(self._mpi, "recv", self.rank, source, int(tag), buf)

    # ------------------------------------------------------------------
    @staticmethod
    def waitany(requests: list[Request]) -> int:
        """Complete one pending request, returning its index — the paper's
        'corresponding number of MPI_WAITANY calls' loop."""
        for i, req in enumerate(requests):
            if not req.done and req.test():
                return i
        for i, req in enumerate(requests):
            if not req.done:
                req.wait()  # raises with a deadlock diagnosis
                return i
        raise CommunicationError("waitany called with all requests complete")

    @staticmethod
    def waitall(requests: list[Request]) -> None:
        for req in requests:
            req.wait()

    # ------------------------------------------------------------------
    def allreduce_sum(self, value: float, store: dict) -> None:
        """Contribute to a sum reduction; the driver reads
        ``store['sum']`` after all ranks contributed (sequential-rank
        equivalent of MPI_ALLREDUCE)."""
        store["sum"] = store.get("sum", 0.0) + value
        store.setdefault("count", 0)
        store["count"] += 1
