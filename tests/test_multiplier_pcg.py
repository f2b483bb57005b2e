"""The two solvers of the multiplier system S of the hybridized solve: the
sparse factor below assembly.PCG_MIN_MULTIPLIERS and two-level PCG from it on."""

import numpy as np
import pytest
import scipy.sparse as sp

from afw3d import assembly, cli, linalg, stability_lab
from afw3d.assembly import ManufacturedCase
from afw3d.mesh import OrderMap, unit_cube_mesh
from conftest import element_inverses

MESHES = pytest.mark.parametrize(
    "mesh_name, orders_of",
    [("cube1", lambda mesh: OrderMap.random(mesh, 0, 2, seed=1)),
     ("two_tets", lambda mesh: OrderMap.uniform(mesh, 1))],
    ids=["cube1-random", "two_tets-r1"],
)


@pytest.fixture
def pcg_calls(monkeypatch):
    """Every solve takes the PCG path; the list counts its PCG solves."""
    calls, pcg = [], linalg.pcg

    def counted(*args):
        calls.append(args[1].shape)
        return pcg(*args)

    monkeypatch.setattr(assembly, "PCG_MIN_MULTIPLIERS", 0)
    monkeypatch.setattr(linalg, "pcg", counted)
    return calls


@pytest.mark.parametrize("case_name", ["taylor", "sine"])
@MESHES
def test_pcg_solve_matches_monolithic_oracle(request, monkeypatch, pcg_calls, material,
                                             case_name, mesh_name, orders_of):
    mesh = request.getfixturevalue(mesh_name)
    case = (stability_lab.default_convergence_case(material) if case_name == "taylor"
            else ManufacturedCase.sine_cube(material))
    g = None if case.zero_boundary else case.u
    system = assembly.assemble(mesh, orders_of(mesh), material, case.f, boundary_g=g)
    monkeypatch.setattr(assembly, "split_solution", lambda system, x: x)
    x = assembly.solve_saddle(system)
    oracle = linalg.solve_sparse(system.full_matrix(), system.full_rhs())
    assert np.linalg.norm(x - oracle) <= 1e-10 * np.linalg.norm(oracle)
    assert pcg_calls == [(system.layout[0],)] * 2       # the first solve and the refinement step


@MESHES
def test_face_blocks_and_coarse_matrix_are_blocks_of_S(request, monkeypatch, material,
                                                       mesh_name, orders_of):
    mesh = request.getfixturevalue(mesh_name)
    system = assembly.assemble(mesh, orders_of(mesh), material, None)
    n_mult, parts = system.layout[0], system.class_layout[1]
    inverses = assembly._class_inverses(system, system.A_classes)
    S = assembly._multiplier_system(n_mult, parts, inverses, np.arange(n_mult))
    dense = S.toarray()
    blocks = assembly._face_blocks(system, inverses)
    ids = np.concatenate([i.ravel() for i, _ in blocks])
    assert np.array_equal(np.sort(ids), np.arange(n_mult))
    for face_ids, D in blocks:
        assert np.array_equal(np.diff(face_ids, axis=1), np.ones_like(face_ids[:, 1:]))
        for f, block in zip(face_ids, D):
            assert np.array_equal(block, dense[np.ix_(f, f)])
    factored, spd_factor = [], linalg.spd_factor
    monkeypatch.setattr(linalg, "spd_factor", lambda M: factored.append(M) or spd_factor(M))
    assembly._pcg_solver(system, inverses)
    coarse = np.sort(np.concatenate([f[:, :3].ravel() for f, _ in blocks]))
    assert len(factored) == 1
    assert np.array_equal(factored[0].toarray(), dense[np.ix_(coarse, coarse)])


@pytest.mark.parametrize("mesh_of, orders_of, sizes", [
    ("cube1", lambda mesh: OrderMap.random(mesh, 0, 2, seed=1), {9, 18, 30}),
    ("two_tets", lambda mesh: OrderMap.uniform(mesh, 1), {18}),
    (lambda: unit_cube_mesh(3), lambda mesh: OrderMap.uniform(mesh, 1), {18}),
    (lambda: unit_cube_mesh(3), lambda mesh: OrderMap.random(mesh, 0, 2, seed=1), {9, 18, 30}),
], ids=["cube1-random", "two_tets-r1", "cube3-r1", "cube3-random"])
def test_class_product_is_S_times_v(request, rng, material, mesh_of, orders_of, sizes):
    mesh = request.getfixturevalue(mesh_of) if isinstance(mesh_of, str) else mesh_of()
    system = assembly.assemble(mesh, orders_of(mesh), material, None)
    n_mult, parts = system.layout[0], system.class_layout[1]
    inverses = assembly._class_inverses(system, system.A_classes)
    S = assembly._multiplier_system(n_mult, parts, inverses, np.arange(n_mult))
    v = rng.standard_normal(n_mult)
    got, want = assembly._multiplier_product(n_mult, parts, inverses)(v), S @ v
    assert np.linalg.norm(got - want) <= 1e-14 * np.linalg.norm(want)
    assert {ids.shape[1] for ids, _ in assembly._face_blocks(system, inverses)} == sizes


def test_pcg_solve_builds_no_S(cube1, material, pcg_calls, monkeypatch):
    # the builder of R S R^T runs on the PCG path for the coarse matrix only
    sizes, multiplier_system = [], assembly._multiplier_system

    def recorded(n_mult, parts, inverses, ids):
        sizes.append(len(ids))
        return multiplier_system(n_mult, parts, inverses, ids)

    monkeypatch.setattr(assembly, "_multiplier_system", recorded)
    case = stability_lab.default_convergence_case(material)
    system = assembly.assemble(cube1, OrderMap.uniform(cube1, 1), material, case.f,
                               boundary_g=case.u)
    assembly.solve_saddle(system)
    assert pcg_calls == [(system.layout[0],)] * 2
    assert sizes and all(n < system.layout[0] for n in sizes)


def test_multiplier_system_is_the_canonical_matrix_of_its_triplets(cube1, material):
    # the CSC that spd_factor hands to SuperLU is, array for array, the one a
    # COO build of the same entries gives, so the factor path is unchanged
    system = assembly.assemble(cube1, OrderMap.random(cube1, 0, 2, seed=1), material, None)
    n_mult, parts = system.layout
    inverses = element_inverses(system)
    triplets = []
    for inv, (_, mult, sign) in zip(inverses, parts):
        pair = (sign != 0)[:, :, None] & (sign != 0)[:, None, :]
        s_i, s_j, m_i, m_j = (np.broadcast_to(a, pair.shape)[pair] for a in (
            sign[:, :, None], sign[:, None, :], mult[:, :, None], mult[:, None, :]))
        triplets.append((inv[pair] * (s_i * s_j), m_i, m_j))
    vals, rows, cols = (np.concatenate(c) for c in zip(*triplets))
    want = sp.csc_matrix((vals, (rows, cols)), shape=(n_mult, n_mult))
    got = sp.csc_matrix(assembly._multiplier_system(n_mult, parts, inverses, np.arange(n_mult)))
    for name in ("data", "indices", "indptr"):
        assert np.array_equal(getattr(got, name), getattr(want, name))


def test_pcg_past_its_iteration_cap_is_a_breakdown(cube1, material, pcg_calls, monkeypatch):
    monkeypatch.setattr(assembly, "PCG_MAX_ITER", 1)
    case = stability_lab.default_convergence_case(material)
    system = assembly.assemble(cube1, OrderMap.uniform(cube1, 1), material, case.f,
                               boundary_g=case.u)
    with pytest.raises(assembly.FactorizationBreakdown,
                       match="multiplier system: PCG did not reach .* in 1 iterations"):
        assembly.solve_saddle(system)


def test_solve_exits_3_when_pcg_does_not_converge(tmp_path, capsys, pcg_calls, monkeypatch):
    monkeypatch.setattr(assembly, "PCG_MAX_ITER", 1)
    code = cli.main(["solve", "--n", "1", "--out", str(tmp_path)])
    err = capsys.readouterr().err
    assert code == cli.EXIT_NUMERICAL_FAILURE == 3
    assert err.count("\n") == 1 and "FactorizationBreakdown" in err and "PCG" in err


def test_lab_constants_factor_S_above_the_switch(material, monkeypatch):
    # 4,860 multipliers at n=3, r=1: solve_saddle takes PCG there, while the
    # lab's eigensolvers, which apply the operator 50-70 times, keep the factor
    mesh = unit_cube_mesh(3)
    orders = OrderMap.uniform(mesh, 1)
    system = assembly.assemble(mesh, orders, material, None)
    n_mult = system.layout[0]
    assert n_mult == 4860 >= assembly.PCG_MIN_MULTIPLIERS
    factored, spd_factor = [], linalg.spd_factor

    def no_pcg(*args):
        raise AssertionError("the lab ran PCG")

    monkeypatch.setattr(linalg, "spd_factor", lambda M: factored.append(M.shape) or spd_factor(M))
    monkeypatch.setattr(linalg, "pcg", no_pcg)
    beta = stability_lab.infsup_constant(mesh, orders, material, system)
    kc = stability_lab.kernel_coercivity(mesh, orders, material, system)
    assert factored == [(n_mult, n_mult)] * 2
    assert 0 < beta < 1 and kc.ratio > 0
