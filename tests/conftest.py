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


def class_stacks(system, mats):
    """One matrix per class, mats, expanded over the tets of its class:
    (per block of system.blocks, the stack of its tets' matrices; per tet in
    tet order, its slice of those stacks).  The slices keep the class
    matrices' memory layout, A_e column-major and B1_e and B2_e row-major."""
    stacks = []
    for cls in system.classes:
        m = mats[cls[0]]
        out = (np.empty((len(cls),) + m.shape) if m.flags.c_contiguous
               else np.empty((len(cls),) + m.shape[::-1]).swapaxes(1, 2))
        stacks.append(np.stack([mats[c] for c in cls], out=out))
    views = [m for stack in stacks for m in stack]
    order = np.argsort(np.concatenate([tets for _, tets, _, _ in system.blocks]))
    return stacks, [views[k] for k in order]


def element_block(system, t, a11):
    """K_e = [[a11, B1_e^T, -B2_e^T], [B1_e, 0, 0], [-B2_e, 0, 0]] of tet t, one
    np.block from the tet's class matrices.

    With a11 = A_e, the one-element problem with displacement data, in
    element dof order [stress | displacement | rotation].
    """
    B1, B2 = (class_stacks(system, mats)[1][t] for mats in (system.B1_classes, system.B2_classes))
    B = np.vstack([B1, -B2])
    return np.block([[a11, B.T], [B, np.zeros((len(B), len(B)))]])


def element_inverses(system, inv=np.linalg.inv):
    """Per block of system.blocks, the stack of inv of each tet's K_e with a11 = A_e."""
    A_blocks, _ = class_stacks(system, system.A_classes)
    return [np.stack([inv(element_block(system, t, A)) for t, A in zip(tets, stack)])
            for (_, tets, _, _), stack in zip(system.blocks, A_blocks)]


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
    """K x from per-block stacks of the class matrices (class_stacks):
    stacked products per block of system.blocks, one np.bincount."""
    globs, ys = [glob for glob, _, _ in system.layout[1]], []
    A_blocks, B1_blocks, B2_blocks = (class_stacks(system, mats)[0] for mats in
                                      (system.A_classes, system.B1_classes, system.B2_classes))
    for glob, A, B1, B2 in zip(globs, A_blocks, B1_blocks, B2_blocks):
        xs, xu, xp = np.split(x[glob, None], [A.shape[1], A.shape[1] + B1.shape[1]], axis=1)
        ys.append(np.hstack([A @ xs + np.swapaxes(B1, 1, 2) @ xu - np.swapaxes(B2, 1, 2) @ xp,
                             B1 @ xs, -(B2 @ xs)]))
    return np.bincount(np.concatenate([glob.ravel() for glob in globs]),
                       np.concatenate([y.ravel() for y in ys]), len(x))
