"""Halo exchange correctness — including the load-bearing equivalence test:
a decomposed propagation with exchange must match the single-domain run."""

import numpy as np
import pytest

from repro.grid import CartesianDecomposition, Grid
from repro.mpisim import HaloExchanger, SimMPI
from repro.stencil import laplacian
from repro.utils.errors import CommunicationError


def exchange_single_field(decomp, locals_):
    """One exchange of one field per rank in a fresh world."""
    HaloExchanger(decomp, SimMPI(decomp.nranks)).exchange([{"f": a} for a in locals_])


class TestExchangeBasics:
    def test_ghosts_match_neighbours(self, rng):
        g = Grid((32, 32))
        d = CartesianDecomposition(g, (2, 1), halo=4)
        field = rng.standard_normal(g.shape).astype(np.float32)
        locals_ = [sub.scatter(field) for sub in d]
        # corrupt the exchangeable ghost slabs
        for sub, loc in zip(d, locals_):
            for axis, side in sub.halo.exchange_faces():
                loc[d.recv_slices(axis, side, loc.shape)] = -999.0
        exchange_single_field(d, locals_)
        for sub, loc in zip(d, locals_):
            np.testing.assert_array_equal(loc, sub.scatter(field))

    def test_multifield_exchange(self, rng):
        g = Grid((24, 24))
        d = CartesianDecomposition(g, (2, 2), halo=3)
        mpi = SimMPI(d.nranks)
        ex = HaloExchanger(d, mpi)
        fa = rng.standard_normal(g.shape).astype(np.float32)
        fb = rng.standard_normal(g.shape).astype(np.float32)
        locals_ = [
            {"a": sub.scatter(fa), "b": sub.scatter(fb)} for sub in d
        ]
        for loc in locals_:
            for arr in loc.values():
                arr[:3, :] = -1  # corrupt a lo-z ghost (only filled if neighbour)
        ex.exchange(locals_)
        for sub, loc in zip(d, locals_):
            if sub.halo.lo[0]:
                np.testing.assert_array_equal(loc["a"], sub.scatter(fa))
                np.testing.assert_array_equal(loc["b"], sub.scatter(fb))

    def test_rank_count_mismatch(self):
        g = Grid((24, 24))
        d = CartesianDecomposition(g, (2, 2), halo=3)
        with pytest.raises(CommunicationError):
            HaloExchanger(d, SimMPI(3))

    def test_field_name_mismatch(self):
        g = Grid((24, 24))
        d = CartesianDecomposition(g, (2, 1), halo=3)
        ex = HaloExchanger(d, SimMPI(2))
        with pytest.raises(CommunicationError):
            ex.exchange([{"a": np.zeros((15, 30), np.float32)},
                         {"b": np.zeros((15, 30), np.float32)}])

    def test_bytes_per_exchange(self):
        g = Grid((32, 32))
        d = CartesianDecomposition(g, (2, 1), halo=4)
        ex = HaloExchanger(d, SimMPI(2))
        one = ex.bytes_per_exchange(1)
        assert ex.bytes_per_exchange(3) == 3 * one
        # two faces of 4 rows x full local width (32 + 2*4 ghosts) float32
        assert one == 2 * 4 * 40 * 4


class TestDecomposedStencilEquivalence:
    def test_decomposed_laplacian_matches_global(self, rng):
        """The fundamental correctness property of the ghost-node scheme:
        stencil(decomposed + exchange) == stencil(global), bitwise on the
        owned regions."""
        g = Grid((48, 40), spacing=(7.0, 9.0))
        field = rng.standard_normal(g.shape).astype(np.float32)
        reference = laplacian(field, g.spacing)
        for dims in ((2, 1), (1, 2), (2, 2), (3, 1)):
            d = CartesianDecomposition(g, dims, halo=4)
            locals_ = [sub.scatter(field) for sub in d]
            exchange_single_field(d, locals_)
            out = np.zeros(g.shape, dtype=np.float32)
            for sub, loc in zip(d, locals_):
                local_lap = laplacian(loc, g.spacing)
                sub.gather_into(out, local_lap)
            # interior only: the global border lacks stencil support
            np.testing.assert_array_equal(
                out[4:-4, 4:-4], reference[4:-4, 4:-4]
            )

    def test_repeated_exchange_stable(self, rng):
        """Exchanging twice must be idempotent (ghosts already correct)."""
        g = Grid((32, 32))
        d = CartesianDecomposition(g, (2, 2), halo=4)
        field = rng.standard_normal(g.shape).astype(np.float32)
        locals_ = [sub.scatter(field) for sub in d]
        exchange_single_field(d, locals_)
        snapshot = [loc.copy() for loc in locals_]
        exchange_single_field(d, locals_)
        for a, b in zip(snapshot, locals_):
            np.testing.assert_array_equal(a, b)
