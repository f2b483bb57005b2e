"""The one moment-matrix builder of the trimmed and stress element systems,
the homotopy parameter t selected from its trimmed matrices, and the cached
edge tables its bases are built from."""

from dataclasses import replace

import numpy as np
import pytest

from afw3d import interp, monomials as mo, polyspace as ps
from afw3d.mesh import OrderMap, unit_cube_mesh

# select_t of every signature of OrderMap.random(unit_cube_mesh(1), 0, 3,
# seed), as j with t = j / 64, recorded before the trimmed rows moved to
# moment_matrix.  Over these maps the best score of the t scan leads the
# runner-up by at least 2.07e-4 (tet 3, faces (3, 2, 2, 3), t = 1.0).
SELECTED_T = {
    0: {(0, (0, 0, 0, 0), (0, 0, 0, 0, 0, 0)): 0,
        (1, (1, 0, 1, 1), (1, 0, 0, 1, 1, 0)): 0,
        (1, (1, 1, 0, 1), (0, 1, 0, 1, 0, 1)): 0,
        (2, (2, 1, 2, 2), (2, 0, 1, 2, 2, 1)): 64,
        (2, (2, 2, 2, 1), (1, 0, 2, 1, 2, 2)): 64,
        (3, (3, 2, 2, 3), (2, 2, 0, 3, 2, 2)): 64},
    1: {(0, (0, 0, 0, 0), (0, 0, 0, 0, 0, 0)): 0,
        (1, (1, 1, 1, 1), (1, 1, 0, 1, 1, 1)): 0,
        (2, (2, 0, 2, 1), (1, 0, 0, 1, 2, 0)): 64,
        (3, (3, 0, 3, 3), (3, 0, 0, 3, 3, 0)): 64,
        (3, (3, 1, 3, 3), (3, 0, 1, 3, 3, 1)): 21},
    2: {(0, (0, 0, 0, 0), (0, 0, 0, 0, 0, 0)): 0,
        (1, (1, 1, 0, 1), (0, 1, 0, 1, 0, 1)): 0,
        (1, (1, 1, 1, 1), (1, 0, 1, 1, 1, 1)): 0,
        (1, (1, 1, 1, 1), (1, 1, 0, 1, 1, 1)): 0,
        (3, (3, 0, 1, 3), (1, 0, 0, 3, 1, 0)): 12,
        (3, (3, 1, 3, 1), (1, 0, 1, 1, 3, 1)): 18},
    3: {(0, (0, 0, 0, 0), (0, 0, 0, 0, 0, 0)): 0,
        (3, (3, 0, 0, 3), (0, 0, 0, 3, 0, 0)): 8,
        (3, (3, 0, 3, 0), (0, 0, 0, 0, 3, 0)): 64},
}


@pytest.mark.parametrize("seed", sorted(SELECTED_T))
def test_select_t_matches_the_recorded_table(cube1, seed):
    om = OrderMap.random(cube1, 0, 3, seed=seed)
    sigs = {om.ref_orders(cube1, t) for t in range(cube1.n_tets)}
    got = {(ro.tet, ro.faces, ro.edges): interp.select_t(ro) * 64 for ro in sigs}
    assert got == SELECTED_T[seed]


def test_builder_rejects_a_non_square_system(monkeypatch):
    families = interp._aux_families
    monkeypatch.setattr(interp, "_aux_families",
                        lambda r: tuple(np.concatenate([f, f[:1]]) for f in families(r)))
    n = 3 * ps.dim_lambda2_minus(3)
    with pytest.raises(interp.DimensionMismatch, match=rf"2minus system for .* is {n + 1}x{n}"):
        interp.build_moment_system_2minus(ps.RefOrders.uniform(2), 1.0)


@pytest.mark.filterwarnings("ignore:Diagonal number")
def test_singular_stress_system_is_a_typed_error(monkeypatch):
    # the divergence-free interior family with its first member repeated
    interior = interp._divfree_interior
    monkeypatch.setattr(interp, "_divfree_interior", lambda rt: replace(
        interior(rt), coeffs=np.concatenate([interior(rt).coeffs[:1], interior(rt).coeffs[:-1]])))
    with pytest.raises(interp.SingularMomentSystem, match="stress element system .* is singular"):
        interp.StressSpace._build_system(ps.RefOrders.uniform(1), ((0, 1, 2),) * 4)


def test_edge_tables_are_built_once_per_edge_and_degree(monkeypatch):
    # the trimmed bases of a mixed-order map take many edge traces, but each
    # (edge, degree) substitution is built once
    mesh = unit_cube_mesh(2)
    om = OrderMap.random(mesh, 0, 2, seed=1)
    sigs = {om.ref_orders(mesh, t) for t in range(mesh.n_tets)}
    substitute, calls = mo.substitution_matrix, []

    def counted(dim, deg, L, b):
        if np.shape(L) == (3, 1):
            calls.append((deg, np.asarray(L).tobytes(), np.asarray(b).tobytes()))
        return substitute(dim, deg, L, b)

    monkeypatch.setattr(mo, "substitution_matrix", counted)
    for cached in (ps._ref_edge_subst, ps.basis_variable, ps.basis_lambda1_minus_edge_zero):
        cached.cache_clear()
    for ro in sigs:
        ps.basis_lambda1_minus_edge_zero(ro.shifted(2))
    assert len(calls) == len(set(calls)) <= 6 * len({ro.tet for ro in sigs})
