import numpy as np
import pytest

from afw3d import interp, linalg, monomials as mo, polyspace as ps, quadrature
from afw3d.interp import DiscreteField, FieldSample, Workspace
from afw3d.mesh import OrderMap, affine_of, build_complex, unit_cube_mesh
from conftest import random_matrix_poly


@pytest.fixture(scope="module")
def ws1(single_tet):
    return Workspace(single_tet, OrderMap.uniform(single_tet, 2))


@pytest.fixture(scope="module")
def ws2(two_tets):
    return Workspace(two_tets, OrderMap.from_tet_orders(two_tets, [2, 1]))


# ---------------------------------------------------------------------------
# L2 projection

def test_project_reproduces_members(single_tet, rng):
    om = OrderMap.uniform(single_tet, 2)
    ws = Workspace(single_tet, om)
    c = rng.standard_normal((3, mo.count(3, 2)))
    f = DiscreteField(single_tet, "compose", [2], [c])
    out = interp.project_l2_p3(single_tet, om, f.as_sample(), ws)
    assert np.abs(out.coeffs[0] - c).max() < 1e-12


def test_project_constant(cube1, rng):
    om = OrderMap.from_tet_orders(cube1, [0, 1, 2, 0, 1, 2])
    v = rng.standard_normal(3)
    out = interp.project_l2_p3(cube1, om, FieldSample.constant(v))
    for t in range(6):
        vals = out.evaluate_ref(t, np.array([[0.2, 0.3, 0.1]]))
        assert np.abs(vals - v).max() < 1e-13


def test_project_dense_oracle(single_tet):
    # derived oracle: dense normal-equation solve in the monomial frame
    om = OrderMap.uniform(single_tet, 2)
    ws = Workspace(single_tet, om)
    f = FieldSample.from_sympy(["sin(x)", "0", "0"])
    out = interp.project_l2_p3(single_tet, om, f, ws)
    amap = ws.amaps[0]
    rule = quadrature.rule_for(3, 12)
    V = mo.eval_basis(3, 2, rule.points)
    G = np.einsum("q,qi,qj->ij", rule.weights, V, V)
    fv = f.value(amap.apply(rule.points), 0)
    rhs = np.einsum("q,qi,qc->ci", rule.weights, V, fv)
    coef = np.linalg.solve(G, rhs.T).T
    assert np.abs(out.coeffs[0] - coef).max() < 1e-10


def test_project_galerkin_orthogonality(single_tet, rng):
    om = OrderMap.uniform(single_tet, 1)
    ws = Workspace(single_tet, om)
    f = FieldSample.from_sympy(["sin(x)*y", "cos(y)", "x*z*z"])
    out = interp.project_l2_p3(single_tet, om, f, ws)
    d = f - out.as_sample()
    amap = ws.amaps[0]
    rule = ws.vol_rule
    vals = d.value(amap.apply(rule.points), 0)
    V = mo.eval_basis(3, 1, rule.points)
    resid = np.einsum("q,qi,qc->ci", rule.weights, V, vals)
    assert np.abs(resid).max() < 1e-11


# ---------------------------------------------------------------------------
# moment systems

def test_moment_systems_square_and_t0_nonsingular():
    # linalg.lu_factor raises SingularMatrix on a singular matrix
    for r in range(0, 3):
        for kind in ("2minus", "1minus"):
            sysm = interp.build_moment_system(kind, ps.RefOrders.uniform(r))
            assert sysm.kind == kind
            assert sysm.matrix.shape[0] == sysm.matrix.shape[1]
            linalg.lu_factor(sysm.matrix)
            assert sysm.groups["face"].start == 0  # row order: face, div, aux
            assert sysm.groups["aux"].stop - sysm.groups["aux"].start == ps.curl_dim(r)


def test_select_t_r0_all_grid_admissible():
    # r = 0 has no auxiliary rows; both systems are nonsingular
    ro = ps.RefOrders.uniform(0)
    assert ps.curl_dim(0) == 0
    for kind in ("2minus", "1minus"):
        sysm = interp.build_moment_system(kind, ro)
        assert sysm.groups["aux"].stop == sysm.groups["aux"].start
        linalg.lu_factor(sysm.matrix)


def test_select_t_deterministic_and_nonsingular():
    # the systems are a function of the orders alone, and reference_systems
    # LU-factors both (_lu_factor raises if one is singular)
    for r in [0, 1, 2]:
        ro = ps.RefOrders.uniform(r)
        for kind, sysm in zip(("2minus", "1minus"), interp.reference_systems(ro)):
            assert sysm.kind == kind and sysm.lu is not None
            again = interp.build_moment_system(kind, ro)
            assert np.array_equal(again.matrix, sysm.matrix)


# ---------------------------------------------------------------------------
# element interpolants

def _random_member(sysm, rng):
    xi = rng.standard_normal(sysm.basis.dim)
    return np.einsum("b,bcn->cn", xi, sysm.basis.coeffs)


def test_op2minus_reproduces_members(single_tet, ws1, rng):
    ro = ws1.ref_orders(0)
    sys2, sys1 = interp.reference_systems(ro)
    for _ in range(5):
        c = _random_member(sys2, rng)
        df = DiscreteField(single_tet, "op2", [ro.tet + 1], [c])
        out = interp.interp_p2minus(ws1, 0, df.as_sample())
        assert np.abs(out - c).max() < 1e-10 * max(1, np.abs(c).max())


def test_op1minus_reproduces_members(single_tet, ws1, rng):
    ro = ws1.ref_orders(0)
    _, sys1 = interp.reference_systems(ro)
    for _ in range(5):
        c = _random_member(sys1, rng)
        df = DiscreteField(single_tet, "op1", [ro.tet + 2], [c])
        out = interp.interp_p1minus(ws1, 0, df.as_sample())
        assert np.abs(out - c).max() < 1e-10 * max(1, np.abs(c).max())


def test_idempotence(two_tets, ws2, rng):
    U = random_matrix_poly(rng, 3)
    df = interp.interp_p2minus_global(two_tets, ws2.orders, U, ws2)
    df2 = interp.interp_p2minus_global(two_tets, ws2.orders, df.as_sample(), ws2)
    for a, b in zip(df.coeffs, df2.coeffs):
        assert np.abs(a - b).max() < 1e-11 * max(1.0, np.abs(a).max())


def interp_p2minus_physical(ws, t, U):
    """Assemble and solve the flux moment system directly on element t.

    Same element space (pushed-forward reference basis), but with the
    physically-defined conditions; agrees with interp_p2minus by the
    intertwining property of the pullback.
    """
    orders = ws.ref_orders(t)
    sys2, _ = interp.reference_systems(orders)
    amap = ws.amaps[t]
    basis = sys2.basis
    nb = basis.dim
    deg = orders.tet + 1
    A, Ainv, Ainv_T = amap.A, amap.A_inv, amap.A_inv.T
    rule = ws.vol_rule
    # physical values of the mapped basis at volume points
    ref_vals = mo.evaluate(basis.coeffs, 3, deg, rule.points)   # (nb,9,q)
    ref_vals = np.moveaxis(ref_vals.reshape(nb, 3, 3, -1), -1, 1)  # (nb,q,3,3)
    phys_vals = np.einsum("ij,bqjk,kl->bqil", Ainv_T, ref_vals, A.T)
    rows = []
    rhs = []
    xq = amap.apply(rule.points)
    wq = rule.weights * amap.det
    Uv = U.value(xq, t)
    # face rows: physical frames and monomial test modes
    for f in range(4):
        rf = orders.faces[f]
        if rf < 0:
            continue
        fid = ws.mesh.tet_faces[t][f]
        frame = ps.make_face_frame(ws.mesh.vertices[ws.mesh.faces[fid]])
        pts = ws.face_points[fid]
        w = ws.face_weights[fid]
        y = frame.to_y(pts)
        mv = mo.eval_basis(2, rf, y)                      # (q, ns)
        xhat = amap.pull(pts)
        bref = mo.evaluate(basis.coeffs, 3, deg, xhat)    # (nb,9,q)
        bref = np.moveaxis(bref.reshape(nb, 3, 3, -1), -1, 1)
        bphys = np.einsum("ij,bqjk,kl->bqil", Ainv_T, bref, A.T)
        n_out = interp._outward_normal(ws.mesh, t, f)
        bn = np.einsum("bqij,j->bqi", bphys, n_out)
        Ufv = U.value(pts, t)
        Un = np.einsum("qij,j->qi", Ufv, n_out)
        for s in range(mv.shape[1]):
            for l in range(3):
                rows.append(np.einsum("q,bq->b", w * mv[:, s], bn[:, :, l]))
                rhs.append(np.sum(w * mv[:, s] * Un[:, l]))
    # div rows: physical centered monomials of degree 1..rt
    rt = orders.tet
    centroid = ws.mesh.tet_vertices(t).mean(axis=0)
    exps = mo.exponents(3, rt)
    divs = ps.differentiate(basis.coeffs, deg, "div")      # (nb,3,n3(rt))
    div_ref = mo.evaluate(divs, 3, rt, rule.points)        # (nb,3,q)
    # physical divergence of the mapped basis: see the pullback chain rule
    div_phys = np.einsum("ij,bjq->biq", Ainv_T, div_ref)
    Ujac = U.jacobian(xq, t)
    divU = np.einsum("qijj->qi", Ujac)
    xc = (xq - centroid) / max(amap.h, 1e-30)
    for e in exps:
        if e.sum() == 0:
            continue
        eta = xc[:, 0] ** e[0] * xc[:, 1] ** e[1] * xc[:, 2] ** e[2]
        for l in range(3):
            rows.append(np.einsum("q,bq->b", rule.weights * eta, div_phys[:, l, :]))
            rhs.append(np.sum(rule.weights * eta * divU[:, l]))
    # aux rows: A g(xhat) A^{-1}
    fam = interp._aux_family(rt)
    if fam.dim:
        hv = mo.evaluate(fam.coeffs, 3, fam.deg, rule.points)   # (k,9,q)
        hv = np.moveaxis(hv.reshape(-1, 3, 3, hv.shape[-1]), -1, 1)
        h_phys = np.einsum("ij,kqjl,lm->kqim", A, hv, Ainv)
        for k in range(h_phys.shape[0]):
            rows.append(
                np.einsum("q,bqij,qij->b", wq, phys_vals, h_phys[k]) / amap.det
            )
            rhs.append(np.einsum("q,qij,qij->", wq, Uv, h_phys[k]) / amap.det)
    C = np.array(rows)
    if C.shape[0] != C.shape[1]:
        raise interp.DimensionMismatch(f"physical system is {C.shape}")
    x = linalg.lu_solve(C, np.array(rhs))
    return np.einsum("b,bcn->cn", x, basis.coeffs)


def test_pullback_consistency(two_tets, ws2, rng):
    U = random_matrix_poly(rng, 3)
    for t in range(2):
        a = interp.interp_p2minus(ws2, t, U)
        b = interp_p2minus_physical(ws2, t, U)
        assert np.abs(a - b).max() < 1e-10 * max(1.0, np.abs(a).max())


def test_cd_div_trimmed(two_tets, ws2, rng):
    # projected divergence commutes for the trimmed interpolant
    for _ in range(3):
        U = random_matrix_poly(rng, 3)
        df = interp.interp_p2minus_global(two_tets, ws2.orders, U, ws2)
        P3divU = interp.project_l2_p3(two_tets, ws2.orders, U.divergence(), ws2)
        div_sample = FieldSample(
            (3,),
            lambda pts, t: np.einsum("qijj->qi", df.as_sample().jacobian(pts, t)),
            None,
        )
        P3div2 = interp.project_l2_p3(two_tets, ws2.orders, div_sample, ws2)
        num = interp.l2_norm(two_tets, P3div2 - P3divU, ws2.vol_deg)
        den = max(interp.l2_norm(two_tets, P3divU, ws2.vol_deg), 1e-30)
        assert num / den < 1e-10


def test_cd_s1_elementwise(two_tets, ws2, rng):
    for _ in range(3):
        W = random_matrix_poly(rng, 3)
        p1 = interp.interp_p1minus_global(two_tets, ws2.orders, W, ws2)
        lhs = interp.interp_p2minus_global(
            two_tets, ws2.orders, p1.as_sample().apply_s1(), ws2
        )
        rhs = interp.interp_p2minus_global(two_tets, ws2.orders, W.apply_s1(), ws2)
        num = interp.l2_norm(two_tets, lhs - rhs, ws2.vol_deg)
        den = max(interp.l2_norm(two_tets, rhs, ws2.vol_deg), 1e-30)
        assert num / den < 1e-9


def test_op1_scaling_bound(rng):
    # curl of the interpolant stays bounded by h^-1 L2 + H1 data norms
    base = np.array(
        [[0.0, 0, 0], [1.0, 0.05, 0], [0.1, 0.9, 0.1], [0.2, 0.1, 1.1]]
    )
    W = FieldSample.from_sympy(
        [["sin(x)*y", "cos(z)", "x*y"], ["exp(x/2)", "sin(y+z)", "z*x"],
         ["cos(x*y)", "y*z", "sin(z)"]]
    )
    ratios = []
    for s in [1.0, 0.5, 0.25]:
        mesh = build_complex(base * s, np.array([[0, 1, 2, 3]]))
        om = OrderMap.uniform(mesh, 1)
        ws = Workspace(mesh, om)
        c = interp.interp_p1minus(ws, 0, W)
        df = DiscreteField(mesh, "op1", [3], [c])
        rule = quadrature.rule_for(3, 8)
        amap = ws.amaps[0]
        jac = df.jacobian_ref(0, rule.points)
        eps = np.zeros((3, 3, 3))
        eps[0, 1, 2] = eps[1, 2, 0] = eps[2, 0, 1] = 1
        eps[0, 2, 1] = eps[1, 0, 2] = eps[2, 1, 0] = -1
        curl = np.einsum("cab,miba->mic", eps, jac)
        curl_norm = np.sqrt(amap.det * np.sum(rule.weights * np.sum(curl.reshape(len(curl), -1) ** 2, axis=1)))
        l2 = interp.l2_norm(mesh, W, 8)
        h1 = interp.h1_norm(mesh, W, 8)
        ratios.append(curl_norm / (l2 / amap.h + h1))
    assert max(ratios) < 3.0 * min(ratios)


# ---------------------------------------------------------------------------
# conformity and global assembly

def test_elementwise_to_global_single_tet(single_tet, ws1, rng):
    U = random_matrix_poly(rng, 2)
    c = interp.interp_p2minus(ws1, 0, U)
    df = interp.elementwise_to_global(
        single_tet, "op2", [3], [c]
    )
    assert np.abs(df.coeffs[0] - c).max() == 0.0


def test_global_interp_conforming(two_tets, ws2, rng):
    U = random_matrix_poly(rng, 3)
    df = interp.interp_p2minus_global(two_tets, ws2.orders, U, ws2)
    err, scale = interp.conformity_error(df)
    assert err < 1e-11 * max(scale, 1.0)
    W = random_matrix_poly(rng, 3)
    df1 = interp.interp_p1minus_global(two_tets, ws2.orders, W, ws2)
    err, scale = interp.conformity_error(df1)
    assert err < 1e-11 * max(scale, 1.0)


def test_discontinuous_input_rejected(two_tets, ws2, rng):
    ro0 = ws2.ref_orders(0)
    ro1 = ws2.ref_orders(1)
    c0 = np.zeros((9, mo.count(3, ro0.tet + 1)))
    c1 = rng.standard_normal((9, mo.count(3, ro1.tet + 1)))
    with pytest.raises(interp.ConformityViolation):
        interp.elementwise_to_global(
            two_tets, "op2",
            [ro0.tet + 1, ro1.tet + 1], [c0, c1],
        )


# ---------------------------------------------------------------------------
# Clement smoother and stabilized interpolant

def test_clement_constant(two_tets, rng):
    C = FieldSample.constant(rng.standard_normal((3, 3)))
    R = interp.clement(two_tets, C)
    pts = np.array([[0.1, 0.2, 0.3], [0.25, 0.25, 0.25]])
    for t in range(2):
        assert np.abs(R.evaluate_ref(t, pts) - C.value(np.zeros((2, 3)))).max() < 1e-13


def test_clement_linear_patch_centroid(cube1):
    # vertex value of a linear field equals its value at the patch centroid
    G = np.array([[0.3, -0.2, 0.5], [0.1, 0.7, -0.4], [0.2, 0.0, 0.9]])
    W = FieldSample.from_poly(_linear_matrix_coeffs(G), 1)
    R = interp.clement(cube1, W)
    rule = quadrature.rule_for(3, 2)
    sums = np.zeros((cube1.n_vertices, 3))
    vols = np.zeros(cube1.n_vertices)
    for t in range(cube1.n_tets):
        amap = affine_of(cube1, t)
        pts = amap.apply(rule.points)
        centroid_part = amap.det * np.einsum("q,qi->i", rule.weights, pts)
        for v in cube1.tets[t]:
            sums[v] += centroid_part
            vols[v] += amap.det / 6.0
    centroids = sums / vols[:, None]
    for v in range(cube1.n_vertices):
        t = next(t for t in range(cube1.n_tets) if v in cube1.tets[t])
        lv = list(cube1.tets[t]).index(v)
        from afw3d.reftet import VERTICES

        val = R.evaluate_ref(t, VERTICES[lv][None, :])[0]
        expect = W.value(centroids[v][None, :])[0]
        assert np.abs(val - expect).max() < 1e-12


def _linear_matrix_coeffs(G):
    """Coefficients of W(x) = G . x pattern: W_ij = G_ij * x_j (simple linear)."""
    c = np.zeros((3, 3, mo.count(3, 1)))
    idx = mo.index_of(3, 1)
    units = [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
    for i in range(3):
        for j in range(3):
            c[i, j, idx[units[j]]] = G[i, j]
    return c


def test_clement_h_estimate_across_levels(material):
    # ||W - R_h W||_L2(T) <= c h_T ||W||_H1(patch) with one c
    from afw3d.mesh import unit_cube_mesh

    W = FieldSample.from_sympy(
        [["sin(pi*x)", "0", "0"], ["0", "sin(pi*x)", "0"], ["0", "0", "sin(pi*x)"]]
    )
    consts = []
    for n in [1, 2, 4]:
        mesh = unit_cube_mesh(n)
        R = interp.clement(mesh, W)
        worst = 0.0
        for t in range(mesh.n_tets):
            amap = affine_of(mesh, t)
            patch = [
                t2
                for t2 in range(mesh.n_tets)
                if set(mesh.tets[t2]) & set(mesh.tets[t])
            ]
            num = interp.l2_norm(mesh, W - R.as_sample(), 8, tets=[t])
            den = amap.h * interp.h1_norm(mesh, W, 8, tets=patch)
            worst = max(worst, num / den)
        consts.append(worst)
    assert max(consts) < 1.0  # bounded
    assert max(consts) <= 2.5 * min(consts)


def test_stabilized_reproduces_constants(two_tets, ws2, rng):
    C = FieldSample.constant(rng.standard_normal((3, 3)))
    out = interp.interp_p1minus_stabilized(two_tets, ws2.orders, C, ws2)
    pts = np.array([[0.2, 0.3, 0.1]])
    for t in range(2):
        assert np.abs(out.evaluate_ref(t, pts) - C.value(np.zeros((1, 3)))).max() < 1e-12


def test_cd_s1_stabilized_global(two_tets, ws2, rng):
    W = random_matrix_poly(rng, 3)
    pbar = interp.interp_p1minus_stabilized(two_tets, ws2.orders, W, ws2)
    lhs = interp.interp_p2minus_global(two_tets, ws2.orders, pbar.as_sample().apply_s1(), ws2)
    rhs = interp.interp_p2minus_global(two_tets, ws2.orders, W.apply_s1(), ws2)
    num = interp.l2_norm(two_tets, lhs - rhs, ws2.vol_deg)
    den = max(interp.l2_norm(two_tets, rhs, ws2.vol_deg), 1e-30)
    assert num / den < 1e-9


def test_stabilized_curl_bound_across_levels():
    # || curl PIbar W || <= c ||W||_H1 with stable c across refinements
    from afw3d.mesh import unit_cube_mesh

    W = FieldSample.from_sympy(
        [["sin(pi*x)*y", "cos(pi*y)", "z"], ["x*z", "sin(pi*z)", "y*y"],
         ["cos(pi*x)", "x*y", "sin(pi*y)*z"]]
    )
    consts = []
    for n in [1, 2, 4]:
        mesh = unit_cube_mesh(n)
        om = OrderMap.uniform(mesh, 0)
        ws = Workspace(mesh, om)
        pbar = interp.interp_p1minus_stabilized(mesh, om, W, ws)
        rule = quadrature.rule_for(3, 6)
        eps = np.zeros((3, 3, 3))
        eps[0, 1, 2] = eps[1, 2, 0] = eps[2, 0, 1] = 1
        eps[0, 2, 1] = eps[1, 0, 2] = eps[2, 1, 0] = -1
        total = 0.0
        for t in range(mesh.n_tets):
            amap = affine_of(mesh, t)
            jac = pbar.jacobian_ref(t, rule.points)
            curl = np.einsum("cab,miba->mic", eps, jac)
            total += amap.det * np.sum(rule.weights * np.sum(curl.reshape(len(curl), -1) ** 2, axis=1))
        c = np.sqrt(total) / interp.h1_norm(mesh, W, 8)
        consts.append(c)
    spread = (max(consts) - min(consts)) / max(consts)
    assert spread <= 0.25


def test_interp_p2_reproduction_and_bound(two_tets, ws2, rng):
    space = interp.StressSpace(two_tets, ws2.orders, ws2)
    U = random_matrix_poly(rng, 3)
    sig = interp.interp_p2(two_tets, ws2.orders, U, space, ws2)
    sig2 = interp.interp_p2(two_tets, ws2.orders, sig.as_sample(), space, ws2)
    for a, b in zip(sig.coeffs, sig2.coeffs):
        assert np.abs(a - b).max() < 1e-10 * max(1.0, np.abs(a).max())


def test_interp_p2_h1_bound_stable():
    from afw3d.mesh import unit_cube_mesh

    U = FieldSample.from_sympy(
        [["sin(pi*x)", "y*z", "cos(pi*y)"], ["x*x", "sin(pi*z)", "y"],
         ["z", "cos(pi*x)*y", "x+y+z"]]
    )
    consts = []
    for n in [1, 2, 4]:
        mesh = unit_cube_mesh(n)
        om = OrderMap.uniform(mesh, 0)
        ws = Workspace(mesh, om)
        sig = interp.interp_p2(mesh, om, U, ws=ws)
        c = interp.l2_norm(mesh, sig, 8) / interp.h1_norm(mesh, U, 8)
        consts.append(c)
    spread = (max(consts) - min(consts)) / max(consts)
    assert spread <= 0.5  # measured, not asserted tightly


# ---------------------------------------------------------------------------
# L2 norms of analytic data


def test_l2_norm_of_analytic_field_matches_closed_form():
    # int_[0,1]^3 sin(pi x)^2 = 1/2; a degree-2 start must refine itself
    from afw3d.mesh import unit_cube_mesh

    f = FieldSample.from_sympy(["sin(pi*x)", "0", "0"])
    got = interp.l2_norm(unit_cube_mesh(1), f, 2)
    assert abs(got - np.sqrt(0.5)) < 1e-7 * np.sqrt(0.5)


def test_l2_norm_raises_when_rules_never_agree():
    # x^(-1/2) is integrable but no rule up to MAX_DEGREE settles on it
    from afw3d.mesh import unit_cube_mesh

    f = FieldSample.from_sympy(["x**(-0.25)"])
    with pytest.raises(quadrature.DegreeTooHigh):
        interp.l2_norm(unit_cube_mesh(1), f, 4)


def test_h1_seminorm_of_analytic_field_matches_closed_form():
    # int_[0,1]^3 (pi cos(pi x))^2 = pi^2/2; a degree-2 start must refine itself
    from afw3d.mesh import unit_cube_mesh

    f = FieldSample.from_sympy(["sin(pi*x)", "0", "0"])
    got = interp.h1_seminorm(unit_cube_mesh(1), f, 2)
    assert abs(got - np.pi / np.sqrt(2)) < 1e-7 * np.pi / np.sqrt(2)


# ---------------------------------------------------------------------------
# block evaluation against per-tet loops

def _discrete_values(df, t, ref_pts):
    """Physical values of df on tet t, computed from its coefficients alone."""
    amap = df.mesh.amaps[t]
    v = np.moveaxis(mo.evaluate(df.coeffs[t], 3, df.degs[t], ref_pts), -1, 0)
    if v.shape[1] == 3:
        return v
    W = v.reshape(-1, 3, 3)
    if df.kind == "piola":
        return W @ amap.A.T / amap.det
    assert df.kind == "compose"
    return W


def _per_tet_l2(mesh, values, deg, tets):
    """sqrt(sum_t det_t sum_q w_q |values(t, x_q, xhat_q)|^2), one tet at a time."""
    rule = quadrature.rule_for(3, deg)
    total = 0.0
    for t in tets:
        amap = mesh.amaps[t]
        v = values(t, amap.apply(rule.points), rule.points).reshape(len(rule.weights), -1)
        total += amap.det * (rule.weights @ np.sum(v**2, axis=1))
    return np.sqrt(total)


def test_block_l2_norm_matches_per_tet_loop_on_mixed_orders(cube2, rng):
    # degree 2 data against a piola field of degrees 1..3: the integrand has
    # degree 6, so l2_norm settles at its first pair of rules (6 and 8)
    om = OrderMap.random(cube2, 0, 2, seed=1)
    assert len(set(om.tet_orders.tolist())) > 1
    U = random_matrix_poly(rng, 2)
    sig = interp.interp_p2(cube2, om, U)
    got = interp.l2_norm(cube2, U, 8, minus=sig)
    want = _per_tet_l2(cube2, lambda t, x, xh: U.value(x) - _discrete_values(sig, t, xh),
                       8, range(cube2.n_tets))
    assert abs(got - want) <= 1e-13 * want


def test_block_l2_norm_passes_tet_hints_on_a_subset(cube2, rng):
    W = random_matrix_poly(rng, 2)
    R = interp.clement(cube2, W)
    subset = [0, 5, 17, 30, 47]
    got = interp.l2_norm(cube2, W - R.as_sample(), 6, tets=subset)
    want = _per_tet_l2(cube2, lambda t, x, xh: W.value(x) - _discrete_values(R, t, xh), 6, subset)
    assert abs(got - want) <= 1e-13 * want


def test_block_l2_norm_matches_per_tet_loop_over_several_blocks(rng):
    from afw3d.mesh import unit_cube_mesh

    mesh = unit_cube_mesh(3)
    om = OrderMap.uniform(mesh, 1)
    f = FieldSample.from_poly(rng.standard_normal((3, mo.count(3, 3))), 3)
    proj = interp.project_l2_p3(mesh, om, f)
    n_pts = len(quadrature.rule_for(3, 10).weights) + len(quadrature.rule_for(3, 12).weights)
    assert mesh.n_tets * n_pts > interp.BLOCK_POINTS
    assert len(interp.tet_blocks(np.arange(mesh.n_tets), n_pts)) > 1
    got = interp.l2_norm(mesh, f, 12, minus=proj)
    want = _per_tet_l2(mesh, lambda t, x, xh: f.value(x) - _discrete_values(proj, t, xh),
                       12, range(mesh.n_tets))
    assert abs(got - want) <= 1e-13 * want


def test_face_frames_are_built_once_per_mesh(cube1):
    om = OrderMap.random(cube1, 0, 2, seed=1)
    space = interp.StressSpace(cube1, om)
    assert space.face_frames is cube1.face_frames
    fr = ps.make_face_frame(cube1.vertices[cube1.faces[3]])
    assert np.array_equal(cube1.face_frames[3].normal, fr.normal)


def test_face_rows_depend_only_on_signature_and_vertex_order(cube1):
    # the face dofs live on the sorted vertices of each face, so under the
    # flux map an affine image of the mesh has the same face rows, bit for bit
    om = OrderMap.random(cube1, 0, 2, seed=1)
    M = np.array([[2.0, 0.5, 0.0], [0.0, 1.5, -0.4], [0.3, 0.0, 0.8]])
    assert np.linalg.det(M) > 0
    image = build_complex(cube1.vertices @ M.T, cube1.tets)
    a = interp.StressSpace(cube1, om)
    b = interp.StressSpace(image, OrderMap.from_tet_orders(image, om.tet_orders))
    for ea, eb in zip(a.elements, b.elements):
        k = ea.div_slice.start
        assert k > 0 and np.array_equal(ea.C[:k], eb.C[:k])


def test_face_tables_do_not_grow_with_the_mesh(cube1, cube2, monkeypatch):
    # a face row comes from a table keyed by local face, vertex order and
    # degrees, so a finer mesh builds no more tables
    substitute = mo.substitution_matrix
    calls = []

    def counted(*args):
        calls.append(args)
        return substitute(*args)

    interp.StressSpace(cube1, OrderMap.uniform(cube1, 1))      # warm the other caches
    monkeypatch.setattr(mo, "substitution_matrix", counted)
    counts = []
    for mesh in (cube1, cube2):
        interp._face_test_table.cache_clear()
        calls.clear()
        interp.StressSpace(mesh, OrderMap.uniform(mesh, 1))
        counts.append(len(calls))
    interp._face_test_table.cache_clear()
    assert 0 < counts[0] == counts[1] <= 8


def test_stress_space_factors_one_moment_matrix_per_key(monkeypatch):
    # the 162 tets of cube n=3 at r=1 have one order signature and two
    # patterns of face vertex orders
    mesh = unit_cube_mesh(3)
    factor, shapes = linalg.lu_factor, []

    def counted(A):
        shapes.append(np.shape(A))
        return factor(A)

    monkeypatch.setattr(linalg, "lu_factor", counted)
    space = interp.StressSpace(mesh, OrderMap.uniform(mesh, 1))
    assert len(space.elements) == 162 and shapes == [(90, 90)] * 2


def test_dual_basis_inverts_the_signed_moment_matrix(cube1):
    space = interp.StressSpace(cube1, OrderMap.random(cube1, 0, 2, seed=1))
    assert any(np.any(elem.signs < 0) for elem in space.elements)
    for elem in space.elements:
        C = elem.signs[:, None] * elem.C
        assert np.abs(elem.dual_basis() @ C - np.eye(len(C))).max() <= 1e-10


def test_moment_matrices_do_not_depend_on_the_geometry(cube1):
    # the interior rows pair the flux pullbacks on the reference tet, so the
    # whole moment matrix, not only its face rows, is the same bit for bit on
    # an affine image of the mesh
    om = OrderMap.random(cube1, 0, 2, seed=1)
    M = np.array([[2.0, 0.5, 0.0], [0.0, 1.5, -0.4], [0.3, 0.0, 0.8]])
    image = build_complex(cube1.vertices @ M.T, cube1.tets)
    a = interp.StressSpace(cube1, om)
    b = interp.StressSpace(image, OrderMap.from_tet_orders(image, om.tet_orders))
    assert any(ea.int_slice.stop > ea.int_slice.start for ea in a.elements)
    for ea, eb in zip(a.elements, b.elements):
        assert np.array_equal(ea.C, eb.C)
        assert np.array_equal(ea.dual_basis(), eb.dual_basis())


@pytest.mark.parametrize("ids", [[0, 0, 3, 1, 3, 3, 5], [2, 0, 4, 2, 0, 4]],
                         ids=["uneven", "even-unsorted"])
def test_discrete_sample_takes_one_tet_per_point(cube2, rng, ids):
    om = OrderMap.random(cube2, 0, 2, seed=1)
    sig = interp.interp_p2(cube2, om, random_matrix_poly(rng, 2))
    ids = np.array(ids)
    xhat = rng.random((len(ids), 3)) / 3.0
    x = np.array([cube2.amaps[t].apply(p)[0] for t, p in zip(ids, xhat)])
    sample = sig.as_sample()
    values = np.array([_discrete_values(sig, t, p[None])[0] for t, p in zip(ids, xhat)])
    jacobians = np.array([sig.jacobian_ref(t, p[None])[0] for t, p in zip(ids, xhat)])
    for got, want in ((sample.value(x, ids), values), (sample.jacobian(x, ids), jacobians)):
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


def test_stress_space_reads_face_frames_on_first_use(rng):
    from afw3d.mesh import unit_cube_mesh

    mesh = unit_cube_mesh(1)
    space = interp.StressSpace(mesh, OrderMap.uniform(mesh, 1))
    assert "face_frames" not in vars(mesh)
    space.element_rhs(0, random_matrix_poly(rng, 1))
    assert space.face_frames is vars(mesh)["face_frames"]


def test_one_tet_is_a_block_of_one(cube1, rng):
    om = OrderMap.random(cube1, 0, 2, seed=1)
    ws = Workspace(cube1, om)
    space = interp.StressSpace(cube1, om, ws)
    U = random_matrix_poly(rng, 3)
    block = max(ws.signature_groups.values(), key=len)
    assert len(block) > 1
    for call in (lambda t, U: interp.interp_p2minus(ws, t, U),
                 lambda t, U: interp.interp_p1minus(ws, t, U), space.element_rhs):
        stacked = call(block, U)
        for t, got in zip(block, stacked):
            want = call(t, U)
            assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()


@pytest.mark.parametrize("r", [0, 1])
def test_moment_interpolants_evaluate_the_field_per_block_not_per_tet(cube2, rng, r):
    # each block of one signature evaluates the field once per face rule and
    # at most twice on the volume rule (values and derivatives); the
    # stabilized interpolant adds one evaluation for its Clement smoother
    om = OrderMap.uniform(cube2, r)
    ws = Workspace(cube2, om)
    space = interp.StressSpace(cube2, om, ws)
    n_blocks = len(list(ws.blocks()))
    assert 6 * n_blocks < cube2.n_tets
    U = random_matrix_poly(rng, 2)
    calls = []

    def counted(fn):
        def evaluate(pts, tet):
            calls.append(len(pts))
            return fn(pts, tet)
        return evaluate

    W = FieldSample((3, 3), counted(U.value), counted(U.jacobian))
    runs = (
        (lambda: interp.interp_p2minus_global(cube2, om, W, ws), 0),
        (lambda: interp.interp_p1minus_stabilized(cube2, om, W, ws), 1),
        (lambda: interp.interp_p2(cube2, om, W, space), 0),
    )
    for run, extra in runs:
        calls.clear()
        run()
        assert 0 < len(calls) <= 6 * n_blocks + extra
