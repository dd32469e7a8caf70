"""Ghost-node (halo) exchange over the simulated MPI world.

Implements the paper's Algorithm 1 ``exchange_boundaries`` step: every rank
posts nonblocking sends of its owned cells adjacent to each face and
nonblocking receives into the matching ghost slabs, then drains them with
``waitany``. Run as a BSP superstep (all sends, then all receives), which
the eager-buffered :mod:`repro.mpisim.comm` executes deterministically.
"""

from __future__ import annotations

import numpy as np

from repro.grid.decomposition import CartesianDecomposition
from repro.mpisim.cluster import SHM_BANDWIDTH, SHM_LATENCY
from repro.mpisim.comm import RankComm, Request, SimMPI
from repro.trace.tracer import Tracer
from repro.utils.errors import CommunicationError
from repro.utils.timer import SimClock


def _face_tag(axis: int, side: str, field_id: int) -> int:
    """Unique tag per (axis, direction, field): receives must match the
    sender's view of the face (our 'lo' send arrives at the peer's 'hi'
    ghost)."""
    return field_id * 100 + axis * 10 + (0 if side == "lo" else 1)


class HaloExchanger:
    """Exchanges halos of one decomposed field set.

    Parameters
    ----------
    decomp:
        The Cartesian decomposition (geometry + neighbour map).
    mpi:
        The message-passing world; must have ``decomp.nranks`` ranks.
    tracer:
        Optional trace sink. When given, each completed face receive is
        emitted as a span on the ``rank:<r>`` track of the ``mpi`` process
        (modelled duration: link latency + bytes/bandwidth) and the
        ``halo.bytes`` / ``halo.messages`` counters accumulate.
    clock:
        Timeline the modelled exchange durations advance; pass the device's
        :class:`~repro.utils.timer.SimClock` to place halo spans on the same
        time axis as the kernels. A ``tracer`` with no clock of its own is
        bound to it, so ``isend`` instants land there too. A private clock
        is used when omitted.
    latency / bandwidth:
        Link cost model; defaults to the intra-node (shared-memory MPI)
        figures of :mod:`repro.mpisim.cluster`.
    sanitizer:
        Optional coherence sanitizer (duck-typed:
        ``on_halo_geometry(decomp)``, ``on_halo_send(rank, name, axis,
        side, nbytes)`` before each face send and ``on_halo_recv(rank,
        name, axis, side, nbytes)`` after each ghost slab lands). See
        :mod:`repro.sanitize`.
    """

    def __init__(
        self,
        decomp: CartesianDecomposition,
        mpi: SimMPI,
        tracer: Tracer | None = None,
        clock: SimClock | None = None,
        latency: float = SHM_LATENCY,
        bandwidth: float = SHM_BANDWIDTH,
        sanitizer: object | None = None,
    ):
        if mpi.nranks != decomp.nranks:
            raise CommunicationError(
                f"world has {mpi.nranks} ranks but decomposition needs {decomp.nranks}"
            )
        self.decomp = decomp
        self.mpi = mpi
        self.comms: list[RankComm] = mpi.comms()
        self.tracer = tracer
        self.clock = clock if clock is not None else SimClock()
        self.latency = latency
        self.bandwidth = bandwidth
        self.sanitizer = sanitizer
        if tracer is not None and clock is not None:
            tracer.bind_default_clock(lambda: clock.now)
        if tracer is not None and mpi.tracer is None:
            mpi.tracer = tracer
        if sanitizer is not None:
            sanitizer.on_halo_geometry(decomp)

    # ------------------------------------------------------------------
    def exchange(self, local_fields: list[dict[str, np.ndarray]]) -> None:
        """One halo swap of every named field on every rank.

        ``local_fields[rank]`` maps field name -> local array (owned +
        halo). All ranks must carry the same field names.
        """
        if len(local_fields) != self.decomp.nranks:
            raise CommunicationError(
                f"expected {self.decomp.nranks} rank field sets, got {len(local_fields)}"
            )
        names = sorted(local_fields[0].keys())
        for fields in local_fields[1:]:
            if sorted(fields.keys()) != names:
                raise CommunicationError("ranks disagree on field names")
        # One superstep per axis: sends of axis k happen after the receives
        # of axis k-1, so edge/corner ghost regions (which ride along in the
        # full-width face slabs) carry already-updated data — the standard
        # sequenced halo exchange.
        for axis in range(self.decomp.grid.ndim):
            for rank, fields in enumerate(local_fields):
                sub = self.decomp.subdomain(rank)
                comm = self.comms[rank]
                for fid, name in enumerate(names):
                    arr = fields[name]
                    for ax, side in sub.halo.exchange_faces():
                        if ax != axis:
                            continue
                        peer = self.decomp.neighbour(rank, axis, side)
                        assert peer is not None
                        sl = self.decomp.send_slices(axis, side, arr.shape)
                        face = np.ascontiguousarray(arr[sl])
                        if self.sanitizer is not None:
                            self.sanitizer.on_halo_send(
                                rank, name, axis, side, int(face.nbytes)
                            )
                        comm.isend(face, dest=peer, tag=_face_tag(axis, side, fid))
                        if self.tracer is not None:
                            self.tracer.instant(
                                f"isend:{name}", process="mpi",
                                track=f"rank:{rank}", cat="halo",
                                axis=axis, side=side, dest=peer,
                                bytes=int(face.nbytes),
                            )
            for rank, fields in enumerate(local_fields):
                sub = self.decomp.subdomain(rank)
                comm = self.comms[rank]
                pending: list[Request] = []
                targets: list[tuple[np.ndarray, tuple[slice, ...], np.ndarray]] = []
                labels: list[tuple[str, str]] = []
                for fid, name in enumerate(names):
                    arr = fields[name]
                    for ax, side in sub.halo.exchange_faces():
                        if ax != axis:
                            continue
                        peer = self.decomp.neighbour(rank, axis, side)
                        assert peer is not None
                        sl = self.decomp.recv_slices(axis, side, arr.shape)
                        buf = np.empty(arr[sl].shape, dtype=arr.dtype)
                        # a peer's send from its opposite face carries our tag
                        opposite = "hi" if side == "lo" else "lo"
                        pending.append(
                            comm.irecv(buf, source=peer, tag=_face_tag(axis, opposite, fid))
                        )
                        targets.append((arr, sl, buf))
                        labels.append((name, side))
                remaining = list(range(len(pending)))
                while remaining:
                    i = RankComm.waitany([pending[j] for j in remaining])
                    idx = remaining.pop(i)
                    arr, sl, buf = targets[idx]
                    arr[sl] = buf
                    if self.sanitizer is not None:
                        name, side = labels[idx]
                        self.sanitizer.on_halo_recv(
                            rank, name, axis, side, int(buf.nbytes)
                        )
                    self._trace_recv(rank, axis, pending[idx], buf.nbytes)
        # Every posted receive has drained, so a clean exchange leaves the
        # world empty. Leftover traffic means a message nobody expected — a
        # duplicated send (injected or real) — and silently consuming it on
        # the *next* exchange would hand a stale face to a future timestep,
        # so fail loudly here where recovery can flush and retry.
        leftover = self.mpi.pending_messages()
        if leftover:
            raise CommunicationError(
                f"halo exchange finished with {leftover} unexpected message(s) "
                "still buffered (duplicated send?)"
            )

    # ------------------------------------------------------------------
    def _trace_recv(self, rank: int, axis: int, req: Request, nbytes: int) -> None:
        """Account one completed face receive on the trace timeline."""
        if self.tracer is None:
            return
        duration = self.latency + nbytes / self.bandwidth
        start = self.clock.now
        self.clock.advance(duration, "halo")
        self.tracer.emit(
            "halo.recv", start, start + duration,
            process="mpi", track=f"rank:{rank}", cat="halo",
            axis=axis, source=req.peer, bytes=int(nbytes),
        )
        m = self.tracer.metrics
        m.counter("halo.messages").add()
        m.counter("halo.bytes").add(int(nbytes))

    # ------------------------------------------------------------------
    def bytes_per_exchange(self, nfields: int, itemsize: int = 4) -> int:
        """Total bytes crossing rank boundaries per swap of ``nfields``."""
        return sum(
            self.decomp.face_bytes(rank, itemsize) for rank in range(self.decomp.nranks)
        ) * nfields
