import numpy as np
import pytest
import scipy.sparse as sp

from afw3d import assembly, interp, monomials as mo, polyspace as ps, quadrature, tensor_ops
from afw3d.assembly import ManufacturedCase
from afw3d.interp import FieldSample, Workspace
from afw3d.mesh import OrderMap, affine_of, unit_cube_mesh
from conftest import class_stacks, element_block, element_inverses


def test_dof_counts_single_tet(single_tet):
    om = OrderMap.uniform(single_tet, 0)
    dof = assembly.build_dof_map(single_tet, om)
    # stress: 4 faces x 3 x dim P_1(F) = 36; u, p: 3 each
    assert dof.n_stress == 36
    assert dof.n_disp == 3 and dof.n_rot == 3


def test_dof_counts_match_polyspace(two_tets):
    om = OrderMap.from_tet_orders(two_tets, [1, 1])
    dof = assembly.build_dof_map(two_tets, om)
    # shared face counted once
    per_face = 3 * mo.count(2, 2)
    n_faces = two_tets.n_faces
    interior_per_tet = dof.stress_elem_dofs[0].max()  # sanity only
    ring = ps.basis_ring("lambda2", 2).dim
    # div dofs: 3*(n3(1)-1) = 9; interior: div-free subspace of the ring
    assert dof.n_stress == n_faces * per_face + 2 * (9 + 9)


def test_variable_leq_uniform(cube1):
    om_hi = OrderMap.uniform(cube1, 2)
    om_mix = OrderMap.from_tet_orders(cube1, [2, 1, 0, 2, 1, 0])
    d_hi = assembly.build_dof_map(cube1, om_hi)
    d_mix = assembly.build_dof_map(cube1, om_mix)
    assert d_mix.n_total <= d_hi.n_total


def test_A_block_spd(cube1, material):
    om = OrderMap.uniform(cube1, 0)
    system = assembly.assemble(cube1, om, material, None)
    w = np.linalg.eigvalsh(system.A.toarray())
    assert w.min() > 0


def test_B2_kernel_on_symmetric_fields(two_tets, material, rng):
    # a discrete stress interpolating a symmetric field has small
    # asymmetry pairing; an exactly symmetric discrete member gives zero
    om = OrderMap.from_tet_orders(two_tets, [1, 1])
    ws = Workspace(two_tets, om)
    system = assembly.assemble(two_tets, om, material, None, ws=ws)
    # constant symmetric stress is in the space: interpolate it
    S = np.array([[1.0, 0.2, 0.1], [0.2, 0.7, 0.3], [0.1, 0.3, 0.4]])
    dofs = np.zeros(system.dofmap.n_stress)
    for t in range(two_tets.n_tets):
        dofs[system.dofmap.stress_elem_dofs[t]] = system.space.dofs_of_field(
            t, FieldSample.constant(S)
        )
    resid = system.B2 @ dofs
    assert np.abs(resid).max() < 1e-12


def test_constant_fields_residual_hand_quadrature(single_tet, material):
    # first-equation residual against hand-computed closed-form integrals
    om = OrderMap.uniform(single_tet, 0)
    system = assembly.assemble(single_tet, om, material, None)
    sbar = np.array([[0.5, 0.1, 0.0], [0.1, 0.8, 0.2], [0.0, 0.2, 0.3]])
    ubar = np.array([0.4, -0.3, 0.2])
    pbar = np.array([0.1, 0.6, -0.2])
    tau = np.array([[0.3, -0.4, 0.2], [0.7, 0.1, 0.0], [0.2, 0.5, -0.6]])
    gs = np.zeros(system.dofmap.n_stress)
    gs[system.dofmap.stress_elem_dofs[0]] = system.space.dofs_of_field(
        0, FieldSample.constant(sbar)
    )
    gt = np.zeros_like(gs)
    gt[system.dofmap.stress_elem_dofs[0]] = system.space.dofs_of_field(
        0, FieldSample.constant(tau)
    )
    # displacement/rotation dof vectors of the constant fields
    gu = np.zeros(system.dofmap.n_disp)
    gp = np.zeros(system.dofmap.n_rot)
    modes = ps.volume_modes(0)[:, 0, :]
    for c in range(3):
        gu[c] = ubar[c] / modes[0, 0]
        gp[c] = pbar[c] / modes[0, 0]
    resid = gt @ (system.A @ gs) + (system.B1 @ gt) @ gu - (system.B2 @ gt) @ gp
    vol = affine_of(single_tet, 0).det / 6.0
    hand = vol * (
        np.sum(tensor_ops.compliance_apply(material, sbar) * tau)
        - np.dot(tensor_ops.s2(tau), pbar)
    )
    assert abs(resid - hand) < 1e-12 * max(1.0, abs(hand))


def test_zero_load_zero_solution(cube1, material):
    om = OrderMap.uniform(cube1, 0)
    system = assembly.assemble(cube1, om, material, FieldSample.constant(np.zeros(3)))
    sol = assembly.solve_saddle(system)
    for f in sol:
        assert max(np.abs(c).max() for c in f.coeffs) < 1e-12


@pytest.mark.parametrize("r", [0, 1, 2, 3])
def test_patch_test(cube1, material, r):
    case = ManufacturedCase.constant_stress(material)
    om = OrderMap.uniform(cube1, r)
    system, sol = assembly.solve_case(cube1, om, case)
    errs = assembly.error_norms(cube1, om, sol, case)
    assert errs.sigma_l2 < 1e-10
    assert errs.p_l2 < 1e-10
    # displacement matches its elementwise L2 projection
    ws = system.space.ws
    pu = interp.project_l2_p3(cube1, om, case.u, ws)
    du = sol[1] - pu
    assert interp.l2_norm(cube1, du, 6) < 1e-10


def test_patch_test_mixed_orders(cube1, material):
    case = ManufacturedCase.constant_stress(material)
    om = OrderMap.from_tet_orders(cube1, [0, 1, 2, 1, 0, 2])
    system, sol = assembly.solve_case(cube1, om, case)
    errs = assembly.error_norms(cube1, om, sol, case)
    assert errs.sigma_l2 < 1e-10 and errs.p_l2 < 1e-10


@pytest.mark.parametrize("tet_orders", [[4] * 6, [0, 1, 2, 3, 4, 1]], ids=["r4", "mixed0to4"])
def test_patch_test_up_to_order_4_solves(cube1, material, tet_orders):
    # no FactorizationBreakdown; the stress error still misses 1e-10 here
    case = ManufacturedCase.constant_stress(material)
    om = OrderMap.from_tet_orders(cube1, tet_orders)
    _, sol = assembly.solve_case(cube1, om, case)
    assert assembly.error_norms(cube1, om, sol, case).sigma_l2 < 1e-8


def test_weak_equations_hold_after_solve(cube1, material):
    from afw3d import linalg

    case = ManufacturedCase.sine_cube(material)
    om = OrderMap.uniform(cube1, 1)
    system = assembly.assemble(cube1, om, material, case.f)
    K = system.full_matrix()
    rhs = system.full_rhs()
    x = linalg.solve_sparse(K, rhs)
    nd = system.dofmap
    resid = K @ x - rhs
    scale = 1 + np.abs(rhs).max()
    # second equation: <div sigma, v> = <f, v> for every v
    assert np.abs(resid[nd.n_stress : nd.n_stress + nd.n_disp]).max() < 1e-9 * scale
    # third equation: <s2 sigma, q> = 0 for every q
    assert np.abs(resid[nd.n_stress + nd.n_disp :]).max() < 1e-9 * scale


def test_system_symmetric(cube1, material):
    om = OrderMap.uniform(cube1, 0)
    system = assembly.assemble(cube1, om, material, None)
    K = system.full_matrix()
    d = (K - K.T).tocoo()
    assert np.abs(d.data).max() < 1e-12 if d.nnz else True


def test_div_stress_representable(two_tets, material, rng):
    # div of any stress dof field is exactly representable in the
    # displacement space: projecting changes nothing
    om = OrderMap.from_tet_orders(two_tets, [1, 1])
    system = assembly.assemble(two_tets, om, material, None)
    g = rng.standard_normal(system.dofmap.n_stress)
    sig = assembly.split_solution(
        system, np.concatenate([g, np.zeros(system.dofmap.n_disp + system.dofmap.n_rot)])
    )[0]
    div = interp.field_divergence(sig)
    ws = system.space.ws
    p = interp.project_l2_p3(two_tets, om, div, ws)
    assert interp.l2_norm(two_tets, p - div, 8) < 1e-11 * max(
        1.0, interp.l2_norm(two_tets, div, 8)
    )


def test_error_norms_quadrature_refinement_oracle(cube1, material):
    case = ManufacturedCase.sine_cube(material)
    om = OrderMap.uniform(cube1, 0)
    system, sol = assembly.solve_case(cube1, om, case)
    e1 = assembly.error_norms(cube1, om, sol, case, quad_deg=8)
    e2 = assembly.error_norms(cube1, om, sol, case, quad_deg=12)
    for a, b in [(e1.sigma_hdiv, e2.sigma_hdiv), (e1.u_l2, e2.u_l2), (e1.p_l2, e2.p_l2)]:
        assert abs(a - b) < 1e-6 * abs(b)


def test_error_norms_zero_solution_is_field_norm(cube1, material):
    case = ManufacturedCase.sine_cube(material)
    om = OrderMap.uniform(cube1, 0)
    system = assembly.assemble(cube1, om, material, case.f)
    zero = assembly.split_solution(system, np.zeros(system.dofmap.n_total))
    errs = assembly.error_norms(cube1, om, zero, case, quad_deg=10)
    direct = interp.l2_norm(cube1, case.u, 10)
    assert abs(errs.u_l2 - direct) < 1e-9 * direct


def test_manufactured_case_consistency(material, rng, single_tet):
    # f equals div sigma* via finite differences at random points
    case = ManufacturedCase.sine_cube(material)
    pts = rng.random((5, 3)) * 0.6 + 0.2
    h = 1e-6
    for q in range(5):
        x = pts[q]
        div_fd = np.zeros(3)
        for j in range(3):
            xp = x.copy(); xp[j] += h
            xm = x.copy(); xm[j] -= h
            div_fd += (case.sigma.value(xp[None, :])[0][:, j]
                       - case.sigma.value(xm[None, :])[0][:, j]) / (2 * h)
        assert np.abs(div_fd - case.f.value(x[None, :])[0]).max() < 1e-5


def test_export_solution(tmp_path, cube1, material):
    case = ManufacturedCase.constant_stress(material)
    om = OrderMap.uniform(cube1, 0)
    system, sol = assembly.solve_case(cube1, om, case)
    prefix = str(tmp_path / "sol")
    assembly.export_solution(prefix, cube1, om, sol)
    assert (tmp_path / "sol_coeffs.txt").exists()
    csv = (tmp_path / "sol_samples.csv").read_text().splitlines()
    assert csv[0].startswith("tet,x,y,z,sigma_00")
    assert len(csv) > 1


def test_error_norms_independent_of_quad_deg(cube1, material):
    case = ManufacturedCase.sine_cube(material)
    om = OrderMap.uniform(cube1, 0)
    system, sol = assembly.solve_case(cube1, om, case)
    sigma_h = sol[0]
    div_h = interp.field_divergence(sigma_h)
    # fixed degree-24 rule, summed by hand
    rule = quadrature.rule_for(3, 24)
    total = 0.0
    for t in range(cube1.n_tets):
        amap = affine_of(cube1, t)
        x = amap.apply(rule.points)
        ds = case.sigma.value(x) - sigma_h.evaluate_ref(t, rule.points)
        dd = case.f.value(x) - div_h.evaluate_ref(t, rule.points)
        total += amap.det * rule.weights @ (
            np.sum(ds.reshape(len(x), -1) ** 2, axis=1) + np.sum(dd**2, axis=1)
        )
    fixed = np.sqrt(total)
    vals = [assembly.error_norms(cube1, om, sol, case, quad_deg=q).sigma_hdiv
            for q in (None, 4, 8, 12)]
    assert max(vals) - min(vals) < 1e-9 * fixed
    assert abs(vals[0] - fixed) < 1e-7 * fixed


def test_raw_gram_data_matches_plain_einsum():
    mesh = unit_cube_mesh(1)
    om = OrderMap.random(mesh, 0, 2, seed=1)
    sigs = {om.ref_orders(mesh, t) for t in range(mesh.n_tets)}
    assert len(sigs) > 1
    for ro in sigs:
        basis, G4, divG, B1W, W3 = assembly._raw_gram_data(ro)
        deg = ro.tet + 1
        mats = basis.coeffs.reshape(basis.dim, 3, 3, -1)
        G3 = mo.gram_simplex(3, deg)
        divs = ps.differentiate(basis.coeffs, deg, "div")
        Gd = mo.gram_simplex(3, ro.tet)
        modes = ps.volume_modes(ro.tet)[:, 0, :]
        modesE = mo.embed(modes, 3, ro.tet, deg)
        expected = [
            np.einsum("bpqn,nm,cpsm->bcqs", mats, G3, mats),
            np.einsum("bln,nm,clm->bc", divs, Gd, divs),
            np.einsum("bln,nm,jm->blj", divs, Gd, modes),
            np.einsum("bcn,nm,jm->bcj", basis.coeffs, G3, modesE),
        ]
        for got, want in zip((G4, divG, B1W, W3), expected):
            assert got.shape == want.shape
            assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


# ---------------------------------------------------------------------------
# hybridized saddle-point solve

def _saddle_vector(system, monkeypatch):
    """The solution vector of solve_saddle, taken before it is split."""
    with monkeypatch.context() as m:
        m.setattr(assembly, "split_solution", lambda system, x: x)
        return assembly.solve_saddle(system)


def _case(name, material):
    from afw3d import stability_lab

    if name == "taylor":
        return stability_lab.default_convergence_case(material)
    return ManufacturedCase.sine_cube(material)


@pytest.mark.parametrize("case_name", ["taylor", "sine"])
@pytest.mark.parametrize(
    "mesh_name, orders_of",
    [
        ("cube1", lambda mesh: OrderMap.uniform(mesh, 0)),
        ("cube1", lambda mesh: OrderMap.uniform(mesh, 1)),
        ("cube1", lambda mesh: OrderMap.uniform(mesh, 2)),
        ("cube1", lambda mesh: OrderMap.random(mesh, 0, 2, seed=1)),
        ("two_tets", lambda mesh: OrderMap.uniform(mesh, 1)),
    ],
    ids=["cube1-r0", "cube1-r1", "cube1-r2", "cube1-random", "two_tets-r1"],
)
def test_hybrid_solve_matches_monolithic_oracle(request, monkeypatch, material,
                                                case_name, mesh_name, orders_of):
    from afw3d import linalg

    mesh = request.getfixturevalue(mesh_name)
    om = orders_of(mesh)
    case = _case(case_name, material)
    g = None if case.zero_boundary else case.u
    system = assembly.assemble(mesh, om, material, case.f, boundary_g=g)
    x = _saddle_vector(system, monkeypatch)
    oracle = linalg.solve_sparse(system.full_matrix(), system.full_rhs())
    assert np.linalg.norm(x - oracle) <= 1e-10 * np.linalg.norm(oracle)


def test_solve_saddle_refinement_meets_residual_gate_at_r3(cube1, material):
    # one hybrid pass leaves a residual above the 1e-9 gate here; the
    # refinement step of solve_saddle brings it below
    case = _case("taylor", material)
    om = OrderMap.uniform(cube1, 3)
    system, sol = assembly.solve_case(cube1, om, case)
    assert np.isfinite(assembly.error_norms(cube1, om, sol, case).total)


def _zero_element_block(system, t):
    """Zero the A_e, B1_e and B2_e of tet t's class, so that its K_e is 0."""
    c = next(cls[tets == t][0] for (_, tets, _, _), cls in zip(system.blocks, system.classes)
             if t in tets)
    for stack in (system.A_classes, system.B1_classes, system.B2_classes):
        stack[c][...] = 0.0


def test_singular_element_block_names_its_tet(cube1, material):
    system = assembly.assemble(cube1, OrderMap.uniform(cube1, 0), material, None)
    _zero_element_block(system, 2)
    with pytest.raises(assembly.FactorizationBreakdown, match="tet 2"):
        assembly.solve_saddle(system)


def test_singular_element_block_in_a_multi_tet_block_names_its_tet(cube1, material):
    system = assembly.assemble(cube1, OrderMap.random(cube1, 0, 2, seed=1), material, None)
    tets = next(tets for _, tets, _, _ in system.blocks if len(tets) > 1)
    bad = int(tets[-1])
    _zero_element_block(system, bad)
    with pytest.raises(assembly.FactorizationBreakdown, match=rf"tet {bad} is singular"):
        assembly.solve_saddle(system)


@pytest.mark.parametrize("a11", ["compliance", "hdiv"])
@pytest.mark.parametrize(
    "mesh_name, orders_of",
    [("cube1", lambda mesh: OrderMap.random(mesh, 0, 2, seed=1)),
     ("two_tets", lambda mesh: OrderMap.uniform(mesh, 1))],
    ids=["cube1-random", "two_tets-r1"],
)
def test_hybrid_operator_factors_each_element_block_bit_for_bit(request, monkeypatch, material,
                                                               mesh_name, orders_of, a11):
    # every K_e that hybrid_operator hands to lu_factor, in block and tet order,
    # against the per-tet np.block of the same a11, B1_e and B2_e
    from afw3d import linalg

    mesh = request.getfixturevalue(mesh_name)
    system = assembly.assemble(mesh, orders_of(mesh), material, None)
    a11_classes = system.A_classes if a11 == "compliance" else system.stress_grams[2]
    a11_blocks, _ = class_stacks(system, a11_classes)
    factored, lu_factor = [], linalg.lu_factor
    monkeypatch.setattr(linalg, "lu_factor",
                        lambda K: factored.append(np.array(K)) or lu_factor(K))
    assembly.hybrid_operator(system, a11_classes)
    want = [element_block(system, t, a11_e) for (_, tets, _, _), stack in
            zip(system.blocks, a11_blocks) for t, a11_e in zip(tets, stack)]
    assert len(factored) == len(want) == mesh.n_tets
    for got, K in zip(factored, want):
        assert got.shape == K.shape and np.array_equal(got, K)


@pytest.mark.parametrize("a11", ["compliance", "hdiv"])
@pytest.mark.parametrize(
    "mesh_name, orders_of",
    [("cube1", lambda mesh: OrderMap.random(mesh, 0, 2, seed=1)),
     ("two_tets", lambda mesh: OrderMap.uniform(mesh, 1))],
    ids=["cube1-random", "two_tets-r1"],
)
def test_hybrid_operator_matches_dense_saddle_solve(request, material, mesh_name, orders_of, a11):
    # the operator alone, on random right-hand sides, against a dense solve of the
    # saddle matrix with the same (1,1) block
    mesh = request.getfixturevalue(mesh_name)
    system = assembly.assemble(mesh, orders_of(mesh), material, None)
    if a11 == "compliance":
        H = assembly.hybrid_operator(system, system.A_classes)
        K = system.full_matrix()
    else:
        Ml2, Mdiv, hdiv = system.stress_grams
        H = assembly.hybrid_operator(system, hdiv)
        K = sp.bmat([[Ml2 + Mdiv, system.B1.T, -system.B2.T],
                     [system.B1, None, None], [-system.B2, None, None]])
    rng = np.random.default_rng(7)
    for _ in range(3):
        b = rng.standard_normal(system.dofmap.n_total)
        want = np.linalg.solve(K.toarray(), b)
        assert np.linalg.norm(H(b) - want) <= 1e-10 * np.linalg.norm(want)


def test_multiplier_system_that_does_not_factor_is_a_breakdown(cube1, material,
                                                               monkeypatch):
    from afw3d import linalg

    def singular(*args, **kwargs):
        raise RuntimeError("Factor is exactly singular")

    system = assembly.assemble(cube1, OrderMap.uniform(cube1, 0), material, None)
    monkeypatch.setattr(linalg.spla, "splu", singular)
    with pytest.raises(assembly.FactorizationBreakdown, match="multiplier system"):
        assembly.solve_saddle(system)


def test_solve_saddle_builds_no_assembled_matrix(cube1, material, monkeypatch):
    from afw3d import linalg

    om = OrderMap.random(cube1, 0, 2, seed=1)
    case = _case("taylor", material)

    def system():
        return assembly.assemble(cube1, om, material, case.f, boundary_g=case.u)

    reference = system()
    oracle = linalg.solve_sparse(reference.full_matrix(), reference.full_rhs())

    def no_full_matrix(self):
        raise AssertionError("solve_saddle built full_matrix()")

    monkeypatch.setattr(assembly.BlockSaddleSystem, "full_matrix", no_full_matrix)
    fresh = system()
    x = _saddle_vector(fresh, monkeypatch)
    assert np.linalg.norm(x - oracle) <= 1e-10 * np.linalg.norm(oracle)
    assert not {"A", "B1", "B2"} & set(vars(fresh))


def test_blockwise_matvec_matches_assembled_matrix(cube1, material, rng):
    system = assembly.assemble(cube1, OrderMap.random(cube1, 0, 2, seed=1), material, None)
    x = rng.standard_normal(system.dofmap.n_total)
    Kx = system.full_matrix() @ x
    assert np.linalg.norm(system.matvec(x) - Kx) <= 1e-13 * np.linalg.norm(Kx)


def test_elements_of_one_signature_share_one_basis(cube1, material):
    om = OrderMap.random(cube1, 0, 2, seed=1)
    space = assembly.assemble(cube1, om, material, None).space
    by_signature = {}
    for t, elem in enumerate(space.elements):
        ro = space.ws.ref_orders(t)
        assert elem.basis is by_signature.setdefault(ro, elem.basis)
        assert elem.basis is assembly._raw_gram_data(ro)[0]
    assert len(by_signature) < cube1.n_tets


def _per_tet_assembly(mesh, om, material, f, g, space):
    """A_e, B1_e, B2_e, F and G built one tet at a time from the reference Grams."""
    ws = space.ws
    dofmap = assembly.build_dof_map(mesh, om, space)
    lam, mu = material.lame_lambda, material.lame_mu
    c_tr = lam / (2 * mu * (2 * mu + 3 * lam))
    S2M = tensor_ops.S2_MATRIX.reshape(3, 3, 3)
    rule = ws.vol_rule
    A_locs, B1_locs, B2_locs = [], [], []
    F, G = np.zeros(dofmap.n_disp), np.zeros(dofmap.n_stress)
    for t in range(mesh.n_tets):
        ro, amap, elem = ws.ref_orders(t), mesh.amaps[t], space.elements[t]
        J = amap.det
        basis, G4, divG, B1W, W3 = assembly._raw_gram_data(ro)
        nb = basis.dim
        X = elem.dual_basis()
        M_raw = np.einsum("bcqs,sq->bc", G4, amap.A.T @ amap.A) / J
        trv = np.einsum("bpqn,pq->bn", basis.coeffs.reshape(nb, 3, 3, -1), amap.A)
        T_raw = trv @ mo.gram_simplex(3, ro.tet + 1) @ trv.T / J
        A_locs.append(X.T @ (M_raw / (2 * mu) - c_tr * T_raw) @ X)
        B1_locs.append(B1W.reshape(nb, -1).T @ X)
        B2_raw = np.einsum("cpq,qk,bpkj->cjb", S2M, amap.A, W3.reshape(nb, 3, 3, -1))
        B2_locs.append(B2_raw.reshape(-1, nb) @ X)
        modes = ps.volume_modes(ro.tet)[:, 0, :]
        mv = mo.evaluate(modes, 3, ro.tet, rule.points)
        fq = f.value(amap.apply(rule.points), t)
        F[dofmap.disp_elem_dofs[t]] += J * np.einsum("q,jq,qc->cj", rule.weights, mv, fq).ravel()
        G_raw = np.zeros(nb)
        for lf in range(4):
            fid = mesh.tet_faces[t][lf]
            if not mesh.boundary_face[fid]:
                continue
            pts, w = ws.face_points[fid], ws.face_weights[fid]
            bref = mo.evaluate(basis.coeffs, 3, ro.tet + 1, amap.pull(pts))
            bref = np.moveaxis(bref.reshape(nb, 3, 3, -1), -1, 1)
            n_out = interp._outward_normal(mesh, t, lf)
            bn = np.einsum("bqjk,kl,l->bqj", bref, amap.A.T / J, n_out)
            G_raw += np.einsum("q,bqj,qj->b", w, bn, g.value(pts, t))
        G[elem.dof_ids] += X.T @ G_raw
    return A_locs, B1_locs, B2_locs, F, G


def test_blocked_assembly_matches_per_tet_loop(cube1, material):
    from afw3d import stability_lab

    om = OrderMap.random(cube1, 0, 2, seed=1)
    case = stability_lab.default_convergence_case(material)
    system = assembly.assemble(cube1, om, material, case.f, boundary_g=case.u)
    A, B1, B2, F, G = _per_tet_assembly(cube1, om, material, case.f, case.u, system.space)
    A_loc, B1_loc, B2_loc = (class_stacks(system, mats)[1] for mats in
                             (system.A_classes, system.B1_classes, system.B2_classes))

    def close(got, want):
        return np.abs(got - want).max() <= 1e-12 * np.abs(want).max()

    for t in range(cube1.n_tets):
        assert close(A_loc[t], A[t])
        assert close(B1_loc[t], B1[t])
        assert close(B2_loc[t], B2[t])
    assert close(system.F, F) and close(system.G, G)


def test_raw_grams_are_made_once_per_signature_and_kept_by_nobody(cube1, material,
                                                                  monkeypatch):
    import gc
    import weakref
    from collections import Counter

    om = OrderMap.random(cube1, 0, 2, seed=1)
    monkeypatch.setattr(assembly, "BLOCK_ENTRIES", 1)       # one tet per block
    raw_gram_data, calls, refs = assembly._raw_gram_data, Counter(), []

    def counted(ro):
        basis, *grams = raw_gram_data(ro)
        calls[ro] += 1
        refs.extend(weakref.ref(a) for a in grams)          # G4, divG, B1W, W3
        return (basis, *grams)

    monkeypatch.setattr(assembly, "_raw_gram_data", counted)
    system = assembly.assemble(cube1, om, material, None)
    blocks_of = Counter(ro for ro, _, _, _ in system.blocks)
    assert max(blocks_of.values()) > 1
    assert calls == Counter(set(blocks_of))
    calls.clear()
    assembly.assemble_stress_grams(system)
    assert calls == Counter(set(blocks_of))
    gc.collect()
    assert len(refs) == 8 * len(blocks_of)
    assert all(ref() is None for ref in refs)
    assert len(class_stacks(system, system.A_classes)[0]) == len(system.blocks)   # still alive


@pytest.mark.parametrize(
    "mesh_name, orders_of",
    [("cube1", lambda mesh: OrderMap.random(mesh, 0, 2, seed=1)),
     ("two_tets", lambda mesh: OrderMap.uniform(mesh, 1))],
    ids=["cube1-random", "two_tets-r1"],
)
def test_multiplier_system_equals_dense_sum(request, material, mesh_name, orders_of):
    # S = sum_e E_e K_e^{-1} E_e^T formed densely, with E_e from the signs and
    # multiplier ids of system.layout, against the sparse build from the same inverses
    mesh = request.getfixturevalue(mesh_name)
    system = assembly.assemble(mesh, orders_of(mesh), material, None)
    n_mult, parts = system.layout
    inverses, S = element_inverses(system), np.zeros((n_mult, n_mult))
    for inv, (_, mult, sign) in zip(inverses, parts):
        for k in range(len(inv)):
            shared = np.flatnonzero(sign[k])
            E = np.zeros((n_mult, len(sign[k])))
            E[mult[k, shared], shared] = sign[k, shared]
            S += E @ inv[k] @ E.T
    got = assembly._multiplier_system(n_mult, parts, inverses).toarray()
    assert np.abs(S).max() > 0
    assert np.abs(got - S).max() == 0


def test_solve_and_error_norms_build_no_per_face_or_per_tet_objects(material):
    # the geometry is read from the stacked mesh.affine; the per-face frames
    # and per-tet AffineMap views stay unbuilt through a solve and its norms
    mesh = unit_cube_mesh(2)
    orders = OrderMap.random(mesh, 0, 2, seed=1)
    case = ManufacturedCase.sine_cube(material)
    _, solution = assembly.solve_case(mesh, orders, case)
    assembly.error_norms(mesh, orders, solution, case)
    assert "affine" in vars(mesh)
    assert "face_frames" not in vars(mesh) and "amaps" not in vars(mesh)
