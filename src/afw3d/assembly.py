"""Assembly and hybridized solution of the three-field mixed system.

Stress lives in the H(div)-conforming matrix-valued space of order r+1
(face-shared dofs from interp.StressSpace); displacement and rotation are
elementwise vector polynomials of order r with L2-orthonormal reference
modes, so their mass matrices are det(A) times the identity.  All
bilinear blocks are integrated exactly through reference Gram matrices;
only load and boundary data use quadrature, and so do the error norms
against exact fields, whose rule checks itself (interp.l2_norm).

`assemble` keeps the dense element blocks A_e, B1_e, B2_e and builds the
global A, B1, B2 from them.  `solve_saddle` solves the symmetric
indefinite system K x = b by hybridization at the level of dofs (Arnold &
Brezzi 1985; for weak symmetry Cockburn, Gopalakrishnan & Guzman 2010):
every stress face dof shared by two tets is split into one copy per tet,
and a Lagrange multiplier forces the copies to be equal, which is the
continuity of the normal trace tested against P_{r_F+1}(F).  The stress
rows of b go to the first tet that holds each dof.  Each element block
K_e = [[A_e, B1_e^T, -B2_e^T], [B1_e, 0, 0], [-B2_e, 0, 0]], the
one-element problem with displacement data, is factored densely; the
multipliers solve the symmetric positive definite S = sum_e E_e K_e^{-1}
E_e^T, factored once, and the element fields are recovered locally.  One
refinement step against the assembled K follows, and the relative
residual of K must stay below 1e-9.
"""

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
import scipy.sparse as sp

from . import interp, linalg, monomials as mo, polyspace as ps, quadrature, tensor_ops
from .interp import DiscreteField, FieldSample, StressSpace, Workspace


class FactorizationBreakdown(Exception):
    pass


@dataclass
class DofMap:
    """Global numbering: [stress | displacement | rotation]."""

    n_stress: int
    n_disp: int
    n_rot: int
    stress_elem_dofs: list     # per tet: global stress dof ids (row order)
    disp_elem_dofs: list       # per tet: global displacement ids
    rot_elem_dofs: list
    face_signs: np.ndarray     # (T, 4) orientation signs of face dofs

    @property
    def n_total(self):
        return self.n_stress + self.n_disp + self.n_rot


@dataclass
class BlockSaddleSystem:
    A: sp.csr_matrix           # <compliance sigma, tau>
    B1: sp.csr_matrix          # <div tau, u>
    B2: sp.csr_matrix          # <s2 tau, q>
    F: np.ndarray              # <f, v>
    G: np.ndarray              # boundary displacement term on stress dofs
    A_loc: list                # per tet: dense A, B1, B2 blocks in element dof order
    B1_loc: list
    B2_loc: list
    dofmap: DofMap
    space: StressSpace
    material: object
    mesh: object
    orders: object

    def full_matrix(self):
        return sp.bmat(
            [
                [self.A, self.B1.T, -self.B2.T],
                [self.B1, None, None],
                [-self.B2, None, None],
            ],
            format="csc",
        )

    def full_rhs(self):
        return np.concatenate([self.G, self.F, np.zeros(self.dofmap.n_rot)])


def build_dof_map(mesh, orders, space=None):
    """Dof layout for the stress/displacement/rotation triple."""
    space = StressSpace(mesh, orders) if space is None else space
    n_stress = space.n_dofs
    disp, rot = [], []
    off_u = 0
    counts = []
    for t in range(mesh.n_tets):
        nm = mo.count(3, int(orders.tet_orders[t]))
        counts.append(3 * nm)
        disp.append(np.arange(off_u, off_u + 3 * nm, dtype=np.int64))
        off_u += 3 * nm
    n_disp = off_u
    off_p = 0
    for t in range(mesh.n_tets):
        rot.append(np.arange(off_p, off_p + counts[t], dtype=np.int64))
        off_p += counts[t]
    return DofMap(
        n_stress=n_stress,
        n_disp=n_disp,
        n_rot=off_p,
        stress_elem_dofs=[e.dof_ids for e in space.elements],
        disp_elem_dofs=disp,
        rot_elem_dofs=rot,
        face_signs=mesh.tet_face_sign.copy(),
    )


@lru_cache(maxsize=None)
def _raw_gram_data(ro):
    """Signature-cached exact reference Grams of the stress basis.

    Contraction order: the monomial Gram multiplies one factor first, then
    G4 and divG are each one GEMM of the two factors over their remaining
    axes; B1W and W3 multiply the factor by the small product Gram @ modes^T.
    """
    basis = ps.to_matrix_rows(ps.basis_variable("lambda2", ro.shifted(1)))
    deg = ro.tet + 1
    nb = basis.dim
    mats = basis.coeffs.reshape(nb, 3, 3, -1)
    G3 = mo.gram_simplex(3, deg)
    # G4[b, b', q, s] = int sum_p psi_b[p,q] psi_b'[p,s]: rows (b, q), columns (p, n)
    X = mats.transpose(0, 2, 1, 3).reshape(3 * nb, -1)
    XG = (mats @ G3.T).transpose(0, 2, 1, 3).reshape(3 * nb, -1)
    G4 = (X @ XG.T).reshape(nb, 3, nb, 3).transpose(0, 2, 1, 3)
    divs = ps.differentiate(basis.coeffs, deg, "div")   # (nb, 3, n3(rt))
    Gd = mo.gram_simplex(3, ro.tet)
    divG = divs.reshape(nb, -1) @ (divs @ Gd.T).reshape(nb, -1).T
    modes = ps.volume_modes(ro.tet)[:, 0, :]            # (nm, n3(rt))
    B1W = divs @ (Gd @ modes.T)                         # (nb, 3, nm)
    modesE = mo.embed(modes, 3, ro.tet, deg)
    W3 = basis.coeffs @ (G3 @ modesE.T)                 # (nb, 9, nm)
    return basis, G4, divG, B1W, W3


def assemble(mesh, orders, material, f, boundary_g=None, space=None, ws=None):
    """Assemble the symmetric block system of the mixed formulation.

    boundary_g, when given, is the prescribed boundary displacement; it
    enters the first equation as the natural term int_dOmega g . (tau n).
    """
    ws = Workspace(mesh, orders) if ws is None else ws
    space = StressSpace(mesh, orders, ws) if space is None else space
    dofmap = build_dof_map(mesh, orders, space)
    lam, mu = material.lame_lambda, material.lame_mu
    c_tr = lam / (2 * mu * (2 * mu + 3 * lam))

    A_locs, B1_locs, B2_locs = [], [], []
    F = np.zeros(dofmap.n_disp)
    G = np.zeros(dofmap.n_stress)
    rule = ws.vol_rule
    for t in range(mesh.n_tets):
        ro = ws.ref_orders(t)
        amap = ws.amaps[t]
        J = amap.det
        basis, G4, divG, B1W, W3 = _raw_gram_data(ro)
        nb = basis.dim
        elem = space.elements[t]
        X = elem.X
        M = amap.A.T @ amap.A
        # <sigma_b, sigma_c> = (1/J) int psihat_b : (psihat_c M)
        M_raw = np.einsum("bcqs,sq->bc", G4, M) / J
        trv = np.einsum("bpqn,pq->bn", basis.coeffs.reshape(nb, 3, 3, -1), amap.A)
        G3 = mo.gram_simplex(3, ro.tet + 1)
        T_raw = (trv @ G3 @ trv.T) / J
        A_raw = M_raw / (2 * mu) - c_tr * T_raw
        A_loc = X.T @ A_raw @ X
        B1_raw = B1W.reshape(nb, -1).T              # ((c,j) c-major, b)
        B1_loc = B1_raw @ X
        # S2(psihat A^T)_c = sum_{p,q,k} S2M[c, 3p+q] A[q,k] psihat[p,k]
        S2M = tensor_ops.S2_MATRIX.reshape(3, 3, 3)
        B2_raw = np.einsum("cpq,qk,bpkj->cjb", S2M, amap.A, W3.reshape(nb, 3, 3, -1))
        B2_loc = B2_raw.reshape(-1, nb) @ X
        A_locs.append(A_loc); B1_locs.append(B1_loc); B2_locs.append(B2_loc)
        sd = elem.dof_ids
        ud = dofmap.disp_elem_dofs[t]
        # load vector
        if f is not None:
            fq = f.value(ws.vol_points(t), t)       # (q, 3)
            modes = ps.volume_modes(ro.tet)[:, 0, :]
            mv = mo.evaluate(modes, 3, ro.tet, rule.points)
            F[ud] += J * np.einsum("q,jq,qc->cj", rule.weights, mv, fq).reshape(-1)
        # natural boundary term
        if boundary_g is not None:
            G_raw = np.zeros(nb)
            for lf in range(4):
                fid = mesh.tet_faces[t][lf]
                if not mesh.boundary_face[fid]:
                    continue
                pts = ws.face_points[fid]
                w = ws.face_weights[fid]
                xhat = amap.pull(pts)
                bref = mo.evaluate(basis.coeffs, 3, ro.tet + 1, xhat)
                bref = np.moveaxis(bref.reshape(nb, 3, 3, -1), -1, 1)
                bphys = np.einsum("bqjk,kl->bqjl", bref, amap.A.T) / J
                n_out = interp._outward_normal(mesh, t, lf)
                bn = np.einsum("bqjl,l->bqj", bphys, n_out)
                gv = boundary_g.value(pts, t)
                G_raw += np.einsum("q,bqj,qj->b", w, bn, gv)
            G[sd] += X.T @ G_raw

    def build(locs, row_dofs, n_rows):
        sds = dofmap.stress_elem_dofs
        rows = [np.repeat(rd, len(sd)) for rd, sd in zip(row_dofs, sds)]
        cols = [np.tile(sd, len(rd)) for rd, sd in zip(row_dofs, sds)]
        vals = [loc.ravel() for loc in locs]
        return sp.coo_matrix(
            (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
            shape=(n_rows, dofmap.n_stress),
        ).tocsr()

    return BlockSaddleSystem(
        A=build(A_locs, dofmap.stress_elem_dofs, dofmap.n_stress),
        B1=build(B1_locs, dofmap.disp_elem_dofs, dofmap.n_disp),
        B2=build(B2_locs, dofmap.rot_elem_dofs, dofmap.n_rot),
        F=F, G=G, A_loc=A_locs, B1_loc=B1_locs, B2_loc=B2_locs, dofmap=dofmap,
        space=space, material=material, mesh=mesh, orders=orders,
    )


def assemble_stress_grams(system):
    """(L2 Gram, div Gram) of the stress space in its global dof basis."""
    mesh, orders, ws = system.mesh, system.orders, system.space.ws
    space, dofmap = system.space, system.dofmap
    rowsL, colsL, valsL = [], [], []
    valsD = []
    for t in range(mesh.n_tets):
        ro = ws.ref_orders(t)
        amap = ws.amaps[t]
        basis, G4, divG, B1W, W3 = _raw_gram_data(ro)
        nb = basis.dim
        elem = space.elements[t]
        X = elem.X
        M = amap.A.T @ amap.A
        M_raw = np.einsum("bcqs,sq->bc", G4, M) / amap.det
        D_raw = divG / amap.det
        sd = elem.dof_ids
        rowsL.append(np.repeat(sd, nb)); colsL.append(np.tile(sd, nb))
        valsL.append((X.T @ M_raw @ X).ravel())
        valsD.append((X.T @ D_raw @ X).ravel())
    n_s = dofmap.n_stress
    rows = np.concatenate(rowsL); cols = np.concatenate(colsL)
    Ml2 = sp.coo_matrix((np.concatenate(valsL), (rows, cols)), shape=(n_s, n_s)).tocsr()
    Mdiv = sp.coo_matrix((np.concatenate(valsD), (rows, cols)), shape=(n_s, n_s)).tocsr()
    return Ml2, Mdiv


def vq_mass_diag(system):
    """Diagonal of the (block-diagonal) L2 mass on displacement+rotation."""
    mesh = system.mesh
    d = np.zeros(system.dofmap.n_disp + system.dofmap.n_rot)
    for t in range(mesh.n_tets):
        J = system.space.ws.amaps[t].det
        d[system.dofmap.disp_elem_dofs[t]] = J
        d[system.dofmap.n_disp + system.dofmap.rot_elem_dofs[t]] = J
    return d


def element_block(system, t):
    """K_e = [[A_e, B1_e^T, -B2_e^T], [B1_e, 0, 0], [-B2_e, 0, 0]] of tet t.

    The one-element problem with displacement data, in element dof order
    [stress | displacement | rotation].
    """
    B = np.vstack([system.B1_loc[t], -system.B2_loc[t]])
    return np.block([[system.A_loc[t], B.T], [B, np.zeros((len(B), len(B)))]])


def hybrid_operator(system):
    """x = H(b): the hybridized solve of K x = b for any right-hand side b.

    E_e maps the stress copies of tet e onto their multipliers, with sign
    +1 at the owner (the first tet that holds the dof) and -1 at the other
    tet.  Only the owner's copy receives the stress rows of b, and the
    owner's copy is the stress value of x.
    """
    dof = system.dofmap
    sds = dof.stress_elem_dofs
    n_s, n_u = dof.n_stress, dof.n_disp
    all_sd = np.concatenate(sds)
    tet_of = np.repeat(np.arange(len(sds)), [len(sd) for sd in sds])
    _, first, counts = np.unique(all_sd, return_index=True, return_counts=True)
    owner = tet_of[first]
    shared = counts > 1
    n_mult = int(shared.sum())
    mult = np.full(n_s, -1, dtype=np.int64)
    mult[shared] = np.arange(n_mult)
    elems, rows, cols, vals = [], [], [], []
    for t, sd in enumerate(sds):
        try:
            lu = linalg.lu_factor(element_block(system, t))
        except linalg.SingularMatrix as exc:
            raise FactorizationBreakdown(f"element block of tet {t} is singular") from exc
        ud, pd = dof.disp_elem_dofs[t], dof.rot_elem_dofs[t]
        glob = np.concatenate([sd, n_s + ud, n_s + n_u + pd])
        owned = np.concatenate([owner[sd] == t, np.ones(len(ud) + len(pd), dtype=bool)])
        pos = np.flatnonzero(shared[sd])
        m = mult[sd[pos]]
        sign = np.where(owned[pos], 1.0, -1.0)
        ET = np.zeros((len(glob), len(pos)))
        ET[pos, np.arange(len(pos))] = sign
        Z = linalg.lu_apply(lu, ET)                 # K_e^{-1} E_e^T
        rows.append(np.repeat(m, len(m))); cols.append(np.tile(m, len(m)))
        vals.append((sign[:, None] * Z[pos]).ravel())
        elems.append((lu, glob, owned, pos, m, sign, Z))
    S = sp.coo_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(n_mult, n_mult),
    )
    try:
        S_lu = linalg.spd_factor(S)
    except linalg.SingularMatrix as exc:
        raise FactorizationBreakdown(f"multiplier system: {exc}") from exc

    def apply(b):
        ys, g = [], np.zeros(n_mult)
        for lu, glob, owned, pos, m, sign, Z in elems:
            y = linalg.lu_apply(lu, np.where(owned, b[glob], 0.0))
            g[m] += sign * y[pos]
            ys.append(y)
        lam = S_lu.solve(g)
        x = np.empty(dof.n_total)
        for y, (lu, glob, owned, pos, m, sign, Z) in zip(ys, elems):
            x[glob[owned]] = (y - Z @ lam[m])[owned]
        return x

    return apply


def solve_saddle(system):
    """Hybridized solve of the symmetric indefinite block system.

    x = H(rhs) by hybrid_operator, whose stress rows of rhs go to the
    first tet that holds each dof; then one fixed refinement step
    x += H(rhs - K x) against the assembled K = full_matrix().  The step is
    part of the solve, not an option: on cube n=1, r=3 with the default
    convergence case one pass leaves a relative residual of 1.5e-9 and the
    step brings it to 8e-11.  Raises
    FactorizationBreakdown if an element block (named by its tet) or the
    multiplier system does not factor, or if the residual gate
    ||K x - rhs|| / (1 + ||rhs||) <= 1e-9 fails.
    """
    K = system.full_matrix()
    rhs = system.full_rhs()
    H = hybrid_operator(system)
    x = H(rhs)
    x += H(rhs - K @ x)
    resid = np.linalg.norm(K @ x - rhs) / (1.0 + np.linalg.norm(rhs))
    if not np.isfinite(resid) or resid > 1e-9:
        raise FactorizationBreakdown(f"algebraic residual {resid:.3e}")
    return split_solution(system, x)


def split_solution(system, x):
    """(sigma_h, u_h, p_h) DiscreteFields from a solution vector."""
    mesh, orders = system.mesh, system.orders
    dof = system.dofmap
    gs = x[: dof.n_stress]
    gu = x[dof.n_stress : dof.n_stress + dof.n_disp]
    gp = x[dof.n_stress + dof.n_disp :]
    sig_c, u_c, p_c, degs_s, degs_u = [], [], [], [], []
    for t in range(mesh.n_tets):
        elem = system.space.elements[t]
        sig_c.append(system.space.coeffs_from_dofs(t, gs[elem.dof_ids]))
        degs_s.append(elem.deg)
        rt = int(orders.tet_orders[t])
        modes = ps.volume_modes(rt)[:, 0, :]
        nm = modes.shape[0]
        cu = gu[dof.disp_elem_dofs[t]].reshape(3, nm) @ modes
        cp = gp[dof.rot_elem_dofs[t]].reshape(3, nm) @ modes
        u_c.append(cu)
        p_c.append(cp)
        degs_u.append(rt)
    sigma = DiscreteField(mesh, orders, "piola", degs_s, sig_c, space="stress_full")
    u = DiscreteField(mesh, orders, "compose", degs_u, u_c, space="p3_vec")
    p = DiscreteField(mesh, orders, "compose", degs_u, p_c, space="p3_vec")
    return sigma, u, p


# ---------------------------------------------------------------------------
# manufactured cases

@dataclass
class ManufacturedCase:
    """Exact solution data derived symbolically from a displacement."""

    material: object
    u: FieldSample
    sigma: FieldSample
    p: FieldSample
    f: FieldSample
    zero_boundary: bool

    @staticmethod
    def from_displacement(u_exprs, material, zero_boundary=False):
        import sympy as spy

        xyz = spy.symbols("x y z")
        u = [spy.sympify(e) for e in u_exprs]
        grad = [[spy.diff(u[i], xyz[j]) for j in range(3)] for i in range(3)]
        eps = [
            [spy.Rational(1, 2) * (grad[i][j] + grad[j][i]) for j in range(3)]
            for i in range(3)
        ]
        lam, mu = material.lame_lambda, material.lame_mu
        tr_eps = sum(eps[i][i] for i in range(3))
        sigma = [
            [2 * mu * eps[i][j] + (lam * tr_eps if i == j else 0) for j in range(3)]
            for i in range(3)
        ]
        skw = [
            [spy.Rational(1, 2) * (grad[i][j] - grad[j][i]) for j in range(3)]
            for i in range(3)
        ]
        # axial vector of the skew part
        p = [skw[2][1], skw[0][2], skw[1][0]]
        f = [sum(spy.diff(sigma[i][j], xyz[j]) for j in range(3)) for i in range(3)]
        return ManufacturedCase(
            material=material,
            u=FieldSample.from_sympy(u),
            sigma=FieldSample.from_sympy(sigma),
            p=FieldSample.from_sympy(p),
            f=FieldSample.from_sympy(f),
            zero_boundary=zero_boundary,
        )

    @staticmethod
    def sine_cube(material):
        """Smooth displacement vanishing on the unit-cube boundary."""
        e = "sin(pi*x)*sin(pi*y)*sin(pi*z)"
        return ManufacturedCase.from_displacement([e, e, e], material, zero_boundary=True)

    @staticmethod
    def constant_stress(material, eps_matrix=None):
        """Linear displacement: constant stress and rotation, zero load."""
        if eps_matrix is None:
            eps_matrix = np.array([[1.0, 0.3, 0.1], [0.3, 0.8, -0.2], [0.1, -0.2, 0.5]])
        rows = []
        for i in range(3):
            rows.append(
                f"({eps_matrix[i][0]})*x + ({eps_matrix[i][1]})*y + ({eps_matrix[i][2]})*z"
            )
        return ManufacturedCase.from_displacement(rows, material, zero_boundary=False)


def solve_case(mesh, orders, case, ws=None):
    """Assemble and solve the discrete system for a manufactured case."""
    g = None if case.zero_boundary else case.u
    system = assemble(mesh, orders, case.material, case.f, boundary_g=g, ws=ws)
    return system, solve_saddle(system)


@dataclass
class ErrorNorms:
    sigma_l2: float
    sigma_hdiv: float
    u_l2: float
    p_l2: float

    @property
    def total(self):
        return self.sigma_hdiv + self.u_l2 + self.p_l2


def error_norms(mesh, orders, solution, case, quad_deg=None):
    """Norm gaps between the discrete triple and the exact fields.

    Each norm is interp.l2_norm of the exact field minus the discrete one.
    quad_deg (default 2 r_max + 4) is the lowest quadrature degree whose
    result is returned; the degree rises in steps of two until the rules of
    the last two degrees agree on each squared norm to interp.L2_SQ_RTOL
    relative (1e-7 on the norm), or to within the roundoff floor of the
    subtraction.  So the result does not depend on quad_deg beyond that
    tolerance.  Raises quadrature.DegreeTooHigh if the rules still disagree
    at quadrature.MAX_DEGREE.
    """
    sigma_h, u_h, p_h = solution
    rmax = int(orders.tet_orders.max())
    qd = 2 * rmax + 4 if quad_deg is None else quad_deg
    s_l2 = interp.l2_norm(mesh, case.sigma, qd, minus=sigma_h)
    div_err = interp.l2_norm(mesh, case.f, qd, minus=interp.field_divergence(sigma_h))
    return ErrorNorms(
        sigma_l2=s_l2,
        sigma_hdiv=float(np.hypot(s_l2, div_err)),
        u_l2=interp.l2_norm(mesh, case.u, qd, minus=u_h),
        p_l2=interp.l2_norm(mesh, case.p, qd, minus=p_h),
    )


def export_solution(prefix, mesh, orders, solution, n_sample=2):
    """Text dump of coefficients plus a CSV of sampled field values."""
    sigma_h, u_h, p_h = solution
    with open(f"{prefix}_coeffs.txt", "w") as fh:
        fh.write("afw3d-solution v1\n")
        for name, fld in (("sigma", sigma_h), ("u", u_h), ("p", p_h)):
            fh.write(f"field {name}\n")
            for t in range(mesh.n_tets):
                row = " ".join(repr(float(v)) for v in fld.coeffs[t].ravel())
                fh.write(f"{t} {row}\n")
    rule = quadrature.rule_for(3, n_sample)
    lines = ["tet,x,y,z," + ",".join(f"sigma_{i}{j}" for i in range(3) for j in range(3))
             + ",u_0,u_1,u_2,p_0,p_1,p_2"]
    for t in range(mesh.n_tets):
        pts = mesh.amaps[t].apply(rule.points)
        sv = sigma_h.evaluate_ref(t, rule.points).reshape(len(pts), -1)
        uv = u_h.evaluate_ref(t, rule.points)
        pv = p_h.evaluate_ref(t, rule.points)
        for q in range(len(pts)):
            vals = [t] + list(pts[q]) + list(sv[q]) + list(uv[q]) + list(pv[q])
            lines.append(",".join(repr(float(v)) if isinstance(v, float) else str(v) for v in vals))
    with open(f"{prefix}_samples.csv", "w") as fh:
        fh.write("\n".join(lines) + "\n")
