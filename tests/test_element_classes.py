import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from afw3d import assembly, linalg
from afw3d.mesh import OrderMap, unit_cube_mesh
from conftest import class_stacks, element_block, element_inverses


@pytest.fixture(scope="module")
def cube3():
    return unit_cube_mesh(3)


@pytest.fixture(scope="module")
def cube5():
    return unit_cube_mesh(5)


def _a11_classes(system, a11):
    return system.A_classes if a11 == "compliance" else system.stress_grams[2]


def _representatives(system):
    """The first tet of each class, in block order."""
    cls = np.concatenate(system.classes)
    tets = np.concatenate([tets for _, tets, _, _ in system.blocks])
    _, first = np.unique(cls, return_index=True)
    return tets[first]


@pytest.mark.parametrize("mesh_name, n_classes", [("cube2", 6), ("cube3", 6), ("cube5", 6)])
def test_lu_factor_runs_once_per_class(request, monkeypatch, material, mesh_name, n_classes):
    mesh = request.getfixturevalue(mesh_name)
    system = assembly.assemble(mesh, OrderMap.uniform(mesh, 1), material, None)
    calls, lu_factor = [], linalg.lu_factor
    monkeypatch.setattr(linalg, "lu_factor", lambda K: calls.append(len(K)) or lu_factor(K))
    assembly.hybrid_operator(system, system.A_classes)
    assert len(calls) == n_classes < mesh.n_tets
    assert len(_representatives(system)) == n_classes


@pytest.mark.parametrize("mesh_name", ["cube1", "two_tets"])
def test_every_tet_is_its_own_class_on_the_small_meshes(request, material, mesh_name):
    mesh = request.getfixturevalue(mesh_name)
    system = assembly.assemble(mesh, OrderMap.uniform(mesh, 1), material, None)
    assert sorted(_representatives(system)) == list(range(mesh.n_tets))


@pytest.mark.parametrize("a11", ["compliance", "hdiv"])
@pytest.mark.parametrize("orders_of", [lambda mesh: OrderMap.uniform(mesh, 1),
                                       lambda mesh: OrderMap.random(mesh, 0, 2, seed=1)],
                         ids=["r1", "random"])
def test_each_tet_gets_the_inverse_of_its_own_block_bit_for_bit(monkeypatch, cube2, material,
                                                                orders_of, a11):
    # the class inverse that hybrid_operator keeps for each tet against
    # lu_factor plus lu_inverse of that tet's own np.block
    system = assembly.assemble(cube2, orders_of(cube2), material, None)
    a11_blocks, _ = class_stacks(system, _a11_classes(system, a11))
    kept, lu_inverse = [], linalg.lu_inverse
    monkeypatch.setattr(linalg, "lu_inverse", lambda f: kept.append(lu_inverse(f)) or kept[-1])
    assembly.hybrid_operator(system, _a11_classes(system, a11))
    assert len(kept) < cube2.n_tets
    for (_, tets, _, _), stack, cls in zip(system.blocks, a11_blocks, system.classes):
        for t, a11_e, c in zip(tets, stack, cls):
            want = lu_inverse(linalg.lu_factor(element_block(system, t, a11_e)))
            assert np.array_equal(kept[c], want)


@pytest.mark.parametrize("a11", ["compliance", "hdiv"])
@pytest.mark.parametrize("orders_of", [lambda mesh: OrderMap.uniform(mesh, 1),
                                       lambda mesh: OrderMap.random(mesh, 0, 2, seed=1)],
                         ids=["r1", "random"])
def test_shared_class_inverses_leave_the_operator_bit_for_bit(monkeypatch, cube2, material,
                                                              orders_of, a11):
    # H from the class table against H with every tet its own class, and
    # against a sparse direct solve of the saddle matrix with the same a11
    system = assembly.assemble(cube2, orders_of(cube2), material, None)
    H = assembly.hybrid_operator(system, _a11_classes(system, a11))
    sizes = np.cumsum([0] + [len(tets) for _, tets, _, _ in system.blocks])
    monkeypatch.setattr(assembly, "_class_table", lambda mesh, ws, blocks: [
        np.arange(lo, hi) for lo, hi in zip(sizes[:-1], sizes[1:])])
    per_tet = assembly.assemble(cube2, orders_of(cube2), material, None)
    H_per_tet = assembly.hybrid_operator(per_tet, _a11_classes(per_tet, a11))
    M = system.A if a11 == "compliance" else system.stress_grams[0] + system.stress_grams[1]
    K = sp.bmat([[M, system.B1.T, -system.B2.T], [system.B1, None, None],
                 [-system.B2, None, None]], format="csc")
    rng = np.random.default_rng(3)
    for _ in range(2):
        b = rng.standard_normal(system.dofmap.n_total)
        x = H(b)
        assert np.array_equal(x, H_per_tet(b))
        want = spla.spsolve(K, b)
        assert np.linalg.norm(x - want) <= 1e-10 * np.linalg.norm(want)


def test_singular_representative_names_its_tet(cube2, material):
    system = assembly.assemble(cube2, OrderMap.uniform(cube2, 1), material, None)
    cls = np.concatenate(system.classes)
    rep = _representatives(system)[np.bincount(cls).argmax()]     # a class of several tets
    for stack in (system.A_classes, system.B1_classes, system.B2_classes):
        stack[np.bincount(cls).argmax()][...] = 0.0
    with pytest.raises(assembly.FactorizationBreakdown, match=rf"tet {rep} is singular"):
        assembly.hybrid_operator(system, system.A_classes)


SHARED_CLASSES = pytest.mark.parametrize(
    "mesh_name, orders_of",
    [("cube2", lambda mesh: OrderMap.random(mesh, 0, 2, seed=1)),
     ("cube3", lambda mesh: OrderMap.uniform(mesh, 1))],
    ids=["cube2-random", "cube3-r1"])


@SHARED_CLASSES
def test_S_read_through_the_class_table_has_the_bits_of_per_tet_inverses(
        request, monkeypatch, material, mesh_name, orders_of):
    # the S that hybrid_operator builds from its class inverses and the class
    # rows of class_layout against S from a stack of per-tet inverses, each
    # lu_factor plus lu_inverse of the tet's own np.block
    mesh = request.getfixturevalue(mesh_name)
    system = assembly.assemble(mesh, orders_of(mesh), material, None)
    built, multiplier_system = [], assembly._multiplier_system
    monkeypatch.setattr(assembly, "_multiplier_system",
                        lambda *args: built.append(multiplier_system(*args)) or built[-1])
    assembly.hybrid_operator(system, system.A_classes)
    n_mult, parts = system.layout
    inverses = element_inverses(system, lambda K: linalg.lu_inverse(linalg.lu_factor(K)))
    want = multiplier_system(n_mult, parts, inverses, np.arange(n_mult))
    (got,) = built
    assert len(system.A_classes) < mesh.n_tets
    for name in ("data", "indices", "indptr"):
        assert np.array_equal(getattr(got, name), getattr(want, name))


@SHARED_CLASSES
def test_kept_class_inverses_are_row_major(request, monkeypatch, material, mesh_name, orders_of):
    mesh = request.getfixturevalue(mesh_name)
    system = assembly.assemble(mesh, orders_of(mesh), material, None)
    kept, multiplier_system = [], assembly._multiplier_system
    monkeypatch.setattr(assembly, "_multiplier_system", lambda n_mult, parts, inverses, ids:
                        kept.extend(inverses) or multiplier_system(n_mult, parts, inverses, ids))
    assembly.hybrid_operator(system, system.A_classes)
    assert len(kept) == len(system.A_classes) < mesh.n_tets
    # lu_inverse returns column-major arrays; apply's products sum in the order of
    # row-major inverses, which the reports' bits were fixed with
    assert all(inv.flags.c_contiguous for inv in kept)
