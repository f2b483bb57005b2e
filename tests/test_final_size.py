"""Arrays built at their final size: the multiplier system S of the hybridized
solve owns exactly its entries, the layout stores its multiplier ids and
signs compactly, and StressSpace.dual_bases is the stack of the elements'
dual bases bit for bit."""

import numpy as np
import pytest
import scipy.sparse as sp

from afw3d import assembly
from afw3d.interp import StressSpace
from afw3d.mesh import OrderMap
from conftest import element_inverses


@pytest.mark.parametrize(
    "mesh_name, orders_of",
    [("cube2", lambda mesh: OrderMap.uniform(mesh, 1)),
     ("cube1", lambda mesh: OrderMap.random(mesh, 0, 2, seed=1))],
    ids=["cube2-r1", "cube1-random"],
)
def test_multiplier_system_owns_exactly_its_entries(request, material, mesh_name, orders_of):
    mesh = request.getfixturevalue(mesh_name)
    system = assembly.assemble(mesh, orders_of(mesh), material, None)
    n_mult, parts = system.layout
    inverses = element_inverses(system)
    S = assembly._multiplier_system(n_mult, parts, inverses, np.arange(n_mult))
    for a in (S.data, S.indices):
        assert a.size == S.nnz
        assert a.base is None or a.base.size == S.nnz      # no longer array behind a view
    # the arrays of the canonical matrix of the same entries built through COO triplets
    triplets = []
    for inv, (_, mult, sign) in zip(inverses, parts):
        pair = (sign != 0)[:, :, None] & (sign != 0)[:, None, :]
        s_i, s_j, m_i, m_j = (np.broadcast_to(a, pair.shape)[pair] for a in (
            sign[:, :, None], sign[:, None, :], mult[:, :, None], mult[:, None, :]))
        triplets.append((inv[pair] * (s_i * s_j), m_i, m_j))
    vals, rows, cols = (np.concatenate(c) for c in zip(*triplets))
    want = sp.csc_matrix((vals, (rows, cols)), shape=(n_mult, n_mult))
    assert want.nnz < len(vals)                 # entries of two tets were summed
    for name in ("data", "indices", "indptr"):
        assert np.array_equal(getattr(S, name), getattr(want, name))
    assert S.data.tobytes() == want.data.tobytes()


def test_layout_keeps_int32_multiplier_ids_and_int8_signs(cube1, material):
    system = assembly.assemble(cube1, OrderMap.random(cube1, 0, 2, seed=1), material, None)
    n_mult, parts = system.layout
    for glob, mult, sign in parts:
        assert mult.dtype == np.int32 and sign.dtype == np.int8
        assert np.array_equal(sign != 0, mult < n_mult)
        assert set(np.unique(sign).tolist()) <= {-1, 0, 1}


def test_dual_bases_are_the_stacked_dual_basis_of_each_tet(cube1):
    space = StressSpace(cube1, OrderMap.random(cube1, 0, 2, seed=1))
    blocks = list(assembly.signature_blocks(space))
    assert len(blocks) > 1
    for _, tets in blocks:
        want = np.stack([space.elements[t].dual_basis() for t in tets])
        got = space.dual_bases(tets)
        assert got.shape == want.shape and got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()
