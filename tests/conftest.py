import numpy as np
import pytest

from afw3d import interp, tensor_ops
from afw3d.mesh import OrderMap, build_complex, unit_cube_mesh


def cpus(monkeypatch, n):
    """Make map_blocks see n usable CPUs: n - 1 workers, or the serial loop for 1."""
    monkeypatch.setattr(interp.os, "sched_getaffinity", lambda pid: set(range(n)))


@pytest.fixture
def block_calls(monkeypatch):
    """The number of items of every map_blocks call."""
    calls, map_blocks = [], interp.map_blocks

    def counted(fn, items):
        items = list(items)
        calls.append(len(items))
        return map_blocks(fn, items)

    monkeypatch.setattr(interp, "map_blocks", counted)
    return calls


def element_block(system, t, a11):
    """K_e = [[a11, B1_e^T, -B2_e^T], [B1_e, 0, 0], [-B2_e, 0, 0]] of tet t, one
    np.block from the per-tet views.

    With a11 = A_e, the one-element problem with displacement data, in
    element dof order [stress | displacement | rotation].
    """
    B = np.vstack([system.B1_loc[t], -system.B2_loc[t]])
    return np.block([[a11, B.T], [B, np.zeros((len(B), len(B)))]])


def element_inverses(system, inv=np.linalg.inv):
    """Per block of system.blocks, the stack of inv of each tet's K_e with a11 = A_e."""
    return [np.stack([inv(element_block(system, t, system.A_loc[t]))
                      for t in tets]) for _, tets, _, _ in system.blocks]


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture(scope="session")
def single_tet():
    verts = np.array(
        [[0.0, 0.0, 0.0], [1.1, 0.1, 0.0], [0.2, 0.9, 0.05], [0.1, 0.2, 1.3]]
    )
    return build_complex(verts, np.array([[0, 1, 2, 3]]))


@pytest.fixture(scope="session")
def two_tets():
    verts = np.array(
        [[0.0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1], [1.1, 1.0, 0.9]]
    )
    return build_complex(verts, np.array([[0, 1, 2, 3], [1, 2, 3, 4]]))


@pytest.fixture(scope="session")
def cube1():
    return unit_cube_mesh(1)


@pytest.fixture(scope="session")
def cube2():
    return unit_cube_mesh(2)


@pytest.fixture(scope="session")
def material():
    return tensor_ops.Material(1.0, 1.0)


def random_matrix_poly(rng, deg, scale=1.0):
    from afw3d import monomials as mo

    return interp.FieldSample.from_poly(
        scale * rng.standard_normal((3, 3, mo.count(3, deg))), deg
    )


def per_tet_matvec(system, x):
    """K x from the per-tet stacks A_blocks, B1_blocks and B2_blocks: stacked
    products per block of system.blocks, one np.bincount."""
    globs, ys = [glob for glob, _, _ in system.layout[1]], []
    for glob, A, B1, B2 in zip(globs, system.A_blocks, system.B1_blocks, system.B2_blocks):
        xs, xu, xp = np.split(x[glob, None], [A.shape[1], A.shape[1] + B1.shape[1]], axis=1)
        ys.append(np.hstack([A @ xs + np.swapaxes(B1, 1, 2) @ xu - np.swapaxes(B2, 1, 2) @ xp,
                             B1 @ xs, -(B2 @ xs)]))
    return np.bincount(np.concatenate([glob.ravel() for glob in globs]),
                       np.concatenate([y.ravel() for y in ys]), len(x))
