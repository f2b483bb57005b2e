"""The one moment-matrix builder of the trimmed and stress element systems,
whose trimmed auxiliary rows test against the gradient complement, the
cached edge tables its bases are built from, and the right-hand sides of the
same systems."""

from dataclasses import replace

import numpy as np
import pytest

from afw3d import interp, monomials as mo, polyspace as ps
from afw3d.mesh import OrderMap, unit_cube_mesh


@pytest.mark.parametrize("seed", range(4))
def test_trimmed_systems_factor_and_reproduce_members(cube1, seed):
    # these maps reach r = 3 signatures with edges below their local faces,
    # e.g. tet 3, faces (3, 1, 3, 3), edges (3, 0, 1, 3, 3, 1)
    ws = interp.Workspace(cube1, OrderMap.random(cube1, 0, 3, seed=seed))
    for ro in ws.signature_groups:
        assert all(s.lu is not None for s in interp.reference_systems(ro))
    rng = np.random.default_rng(seed)
    for which, (push, interpolant) in enumerate([("op2", interp.interp_p2minus),
                                                  ("op1", interp.interp_p1minus)]):
        systems = [interp.reference_systems(ws.ref_orders(t))[which] for t in range(cube1.n_tets)]
        x, member = _member(ws, push, [s.basis for s in systems], rng)
        for tets in ws.signature_groups.values():
            got = interpolant(ws, tets, member.as_sample())
            for t, c in zip(tets, got):
                want = np.einsum("b,bcn->cn", x[t], systems[t].basis.coeffs)
                assert np.abs(c - want).max() < 1e-10 * max(1, np.abs(want).max())


def test_builder_rejects_a_non_square_system(monkeypatch):
    family = interp._aux_family
    monkeypatch.setattr(interp, "_aux_family", lambda r: replace(
        family(r), coeffs=np.concatenate([family(r).coeffs, family(r).coeffs[:1]])))
    n = 3 * ps.dim_lambda2_minus(3)
    with pytest.raises(interp.DimensionMismatch, match=rf"2minus system for .* is {n + 1}x{n}"):
        interp.build_moment_system("2minus", ps.RefOrders.uniform(2))


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


@pytest.fixture(scope="module")
def mixed_ws(cube1):
    # orders 1,1,2,2,0,0: faces of either sign, and signature blocks whose
    # tets have several face vertex orders
    ws = interp.Workspace(cube1, OrderMap.random(cube1, 0, 2, seed=1))
    assert any(len(np.unique(ws.face_perms[tets], axis=0)) > 1 for tets in ws.signature_groups.values())
    return ws


def _member(ws, kind, bases, rng):
    """(random coefficients x per tet, the field sum_b x_b basis_b of kind)."""
    x = [rng.standard_normal(b.dim) for b in bases]
    coeffs = [np.einsum("b,bcn->cn", xt, b.coeffs) for xt, b in zip(x, bases)]
    return x, interp.DiscreteField(ws.mesh, kind, [b.deg for b in bases], coeffs)


def test_stress_rhs_of_a_member_is_its_signed_moments(mixed_ws):
    space = interp.StressSpace(mixed_ws.mesh, mixed_ws.orders, mixed_ws)
    assert any(np.any(elem.signs < 0) for elem in space.elements)
    x, member = _member(mixed_ws, "piola", [e.basis for e in space.elements], np.random.default_rng(5))
    for tets in mixed_ws.signature_groups.values():
        got = space.element_rhs(tets, member.as_sample())
        want = np.stack([space.elements[t].signs * (space.elements[t].C @ x[t]) for t in tets])
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


@pytest.mark.parametrize("which, push", [(0, "op2"), (1, "op1")], ids=["2minus", "1minus"])
def test_trimmed_rhs_of_a_member_is_its_moments(mixed_ws, which, push):
    systems = [interp.reference_systems(mixed_ws.ref_orders(t))[which] for t in range(mixed_ws.mesh.n_tets)]
    x, member = _member(mixed_ws, push, [s.basis for s in systems], np.random.default_rng(6))
    for tets in mixed_ws.signature_groups.values():
        Uhat = interp._pullback(push, member.as_sample(), mixed_ws.mesh.affine.take(tets))
        got = interp._rhs(mixed_ws, tets, systems[tets[0]], Uhat)
        want = np.stack([systems[t].matrix @ x[t] for t in tets])
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


def test_rhs_of_a_system_of_another_length_is_a_typed_error(mixed_ws):
    sysm = interp.reference_systems(mixed_ws.ref_orders(0))[0]
    short = replace(sysm, matrix=sysm.matrix[:-1, :-1])
    Uhat = interp._pullback("op2", interp.FieldSample.constant(np.eye(3)), mixed_ws.mesh.affine.take(0))
    with pytest.raises(interp.DimensionMismatch, match=rf"2minus system .* has {sysm.dim - 1} rows"):
        interp._rhs(mixed_ws, 0, short, Uhat)
