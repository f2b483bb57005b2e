"""Numerical verification of discrete stability and quasi-optimality.

Measures the inf-sup constant of the mixed form through a Schur
complement eigenproblem and the coercivity of the compliance form on the
discrete constraint kernel, both by shift-invert Lanczos through the
hybridized saddle operator, the residuals of the three commuting
diagrams, and h-convergence against elementwise best-approximation
errors.
"""

import json
import time
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from . import assembly, interp, linalg, monomials as mo, polyspace as ps, tensor_ops
from .interp import FieldSample, Workspace
from .mesh import OrderMap, unit_cube_mesh


def _hdiv_gram(system):
    Ml2, Mdiv, _ = system.stress_grams
    return (Ml2 + Mdiv).tocsc()


def infsup_constant(mesh, orders, material=None, system=None):
    """Discrete inf-sup constant of the divergence/asymmetry form.

    beta_h^2 is the smallest eigenvalue of the pencil S y = lam D y, where
    S = B M_h^{-1} B^T is the Schur complement of B = [B1; -B2] against the
    H(div) Gram M_h of the stress space and D is the L2 mass of the
    displacement/rotation pair (vq_mass_diag): the numerical inf-sup test
    of Chapelle & Bathe (1993).  S is never formed.  hybrid_operator,
    factored once per element class (BlockSaddleSystem.classes) on the
    H(div) Grams per class of assemble_stress_grams in place of A_e, solves
    [[M_h, B^T], [B, 0]] [x; y] = [0; g], whose displacement and rotation
    rows are y = -S^{-1} g, and linalg.sym_eig_min runs shift-invert
    Lanczos on g -> S^{-1} g.  When every element block and the multiplier
    system factor, that saddle matrix is nonsingular, so B has full row
    rank and S is SPD.
    """
    material = tensor_ops.Material(1.0, 1.0) if material is None else material
    if system is None:
        system = assembly.assemble(mesh, orders, material, None)
    H = assembly.hybrid_operator(system, system.stress_grams[2])
    pad = np.zeros(system.dofmap.n_stress)

    def schur_inv(g):
        return -H(np.concatenate([pad, g]))[len(pad):]

    lam, _ = linalg.sym_eig_min(schur_inv, sp.diags(assembly.vq_mass_diag(system)))
    return float(np.sqrt(max(lam, 0.0)))


@dataclass
class KernelCoercivity:
    ratio: float
    kernel_dim: int
    max_kernel_div: float


def kernel_coercivity(mesh, orders, material, system=None):
    """min over the discrete constraint kernel of <A tau, tau>/||tau||^2.

    ratio is the smallest eigenvalue of the pencil A x = lam M_h x on
    ker C, C = [B1; B2], with M_h the H(div) Gram of the stress space.  No
    kernel basis is formed: the stress rows of H([g; 0; 0]), H =
    hybrid_operator(system, system.A_classes) with one A_e per element
    class, are the x in ker C that minimizes <A x, x>/2 - <g, x> there, so
    g -> x is the inverse of A on the kernel, and linalg.sym_eig_min runs
    shift-invert Lanczos on it.
    When every element block and the multiplier system factor, K is
    nonsingular, so C has full row rank and the kernel has dimension
    n_stress - n_disp - n_rot.  On the kernel the divergence vanishes
    identically (it is tested against a space containing it), so the
    H(div) norm reduces to L2; max_kernel_div is ||div x|| of the computed
    minimizer x, normalized to x^T M_h x = 1, and measures that roundoff.
    """
    if system is None:
        system = assembly.assemble(mesh, orders, material, None)
    dof = system.dofmap
    H = assembly.hybrid_operator(system, system.A_classes)
    pad = np.zeros(dof.n_disp + dof.n_rot)

    def kernel_inv(g):
        return H(np.concatenate([g, pad]))[:dof.n_stress]

    ratio, x = linalg.sym_eig_min(kernel_inv, _hdiv_gram(system))
    _, Mdiv, _ = system.stress_grams
    div_sq = x @ (Mdiv @ x)
    return KernelCoercivity(
        ratio=ratio,
        kernel_dim=dof.n_stress - dof.n_disp - dof.n_rot,
        max_kernel_div=float(np.sqrt(max(div_sq, 0.0))),
    )


# ---------------------------------------------------------------------------
# commuting diagrams

def _sample_fields(rmax, n_samples, seed):
    rng = np.random.default_rng(seed)
    deg = rmax + 2
    fields = [
        FieldSample.from_poly(rng.standard_normal((3, 3, mo.count(3, deg))), deg)
        for _ in range(n_samples)
    ]
    transcendental = [
        [["sin(pi*x)*sin(pi*y)", "cos(pi*z)", "x*y*z"],
         ["exp(x-y)", "sin(pi*y)*z", "cos(pi*x)*y"],
         ["x*sin(pi*z)", "y*cos(pi*y)", "exp(-x*z)"]],
        [["cos(x+y+z)", "sin(x-y)", "z*z*cos(x)"],
         ["y*exp(z-1)", "cos(2*y)", "sin(x)*sin(z)"],
         ["x*x*y", "cos(y+z)", "exp(x*y/2)"]],
        [["sin(2*x)*y", "z*cos(y)", "exp(-x)"],
         ["x+cos(z)", "sin(y*z)", "y*y*z"],
         ["cos(x)*cos(y)", "x*z*z", "sin(x+z)"]],
    ]
    fields += [FieldSample.from_sympy(t) for t in transcendental]
    return fields


def commuting_diagram_suite(mesh, orders, n_samples=5, seed=0):
    """Max relative residual of the three commuting diagrams."""
    ws = Workspace(mesh, orders)
    space = interp.StressSpace(mesh, orders, ws)
    rmax = int(orders.tet_orders.max())
    fields = _sample_fields(rmax, n_samples, seed)
    res = []
    qd = ws.vol_deg
    for U in fields:
        divU = U.divergence()
        P3div = interp.project_l2_p3(mesh, orders, divU, ws)
        scale = max(interp.l2_norm(mesh, P3div, qd), 1e-30)
        # diagram 1: div of the full-space interpolant
        sig = interp.interp_p2(mesh, orders, U, space, ws)
        r1 = interp.l2_norm(mesh, interp.field_divergence(sig) - P3div, qd) / scale
        # diagram 2: projected div of the trimmed interpolant
        df2 = interp.interp_p2minus_global(mesh, orders, U, ws)
        P3div2 = interp.project_l2_p3(mesh, orders, df2.as_sample().divergence(), ws)
        r2 = interp.l2_norm(mesh, P3div2 - P3div, qd) / scale
        # diagram 3: trimmed-flux interpolant of S1 of the stabilized
        # edge interpolant
        pbar = interp.interp_p1minus_stabilized(mesh, orders, U, ws)
        lhs = interp.interp_p2minus_global(mesh, orders, pbar.as_sample().apply_s1(), ws)
        rhs = interp.interp_p2minus_global(mesh, orders, U.apply_s1(), ws)
        scale3 = max(interp.l2_norm(mesh, rhs, qd), 1e-30)
        r3 = interp.l2_norm(mesh, lhs - rhs, qd) / scale3
        res.append((r1, r2, r3))
    # np.max, unlike max, keeps a NaN residual, so that its check fails
    return dict(zip(("d1", "d2", "d3"), np.max(res, axis=0)))


# ---------------------------------------------------------------------------
# best approximation and convergence studies

QUAD_DEG = 10      # lowest degree of the convergence study's error norms (l2_norm raises it)


def best_approximation_errors(mesh, orders, case, system=None):
    """Best-approximation errors (stress in H(div), u, p in L2) of the exact fields.

    The stress error is that of the H(div) projection Pi_h sigma onto the
    stress space, ||sigma - Pi_h sigma|| and ||f - div Pi_h sigma|| each
    measured by interp.l2_norm against the projected field itself; u and p
    are measured against their elementwise L2 projections.
    """
    material = case.material
    if system is None:
        system = assembly.assemble(mesh, orders, material, None)
    ws = system.space.ws
    Mh = _hdiv_gram(system)
    space = system.space
    rhs = np.zeros(system.dofmap.n_stress)
    w = ws.vol_rule.weights
    aff = mesh.affine
    for ro, tets, sds, _ in system.blocks:
        basis = ps.stress_basis(ro)
        nb, deg = basis.dim, ro.tet + 1
        sv = interp.block_values(mesh, case.sigma, tets, ws.vol_rule.points)   # (tets, q, 3, 3)
        fv = interp.block_values(mesh, case.f, tets, ws.vol_rule.points)       # div sigma*
        # int psi_b : sigma* + div psi_b . div sigma*, with psi_b = (1/J) psihat_b A^T
        ref = mo.evaluate(basis.coeffs, 3, deg, ws.vol_rule.points)               # (nb, 9, q)
        div_ref = mo.evaluate(ps.differentiate(basis.coeffs, deg, "div"), 3, deg - 1,
                              ws.vol_rule.points)                                 # (nb, 3, q)
        svA = (w[:, None, None] * (sv @ aff.A[tets][:, None])).reshape(len(tets), -1)
        raw = svA @ np.swapaxes(ref, 1, 2).reshape(nb, -1).T
        wfv = (w[:, None] * fv).reshape(len(tets), -1)
        raw += wfv @ np.swapaxes(div_ref, 1, 2).reshape(nb, -1).T
        np.add.at(rhs, sds, (np.swapaxes(space.dual_bases(tets), 1, 2) @ raw[..., None])[..., 0])
    proj = space.field(linalg.solve_sparse(Mh, rhs))
    best_sigma = np.hypot(
        interp.l2_norm(mesh, case.sigma, QUAD_DEG, minus=proj),
        interp.l2_norm(mesh, case.f, QUAD_DEG, minus=interp.field_divergence(proj)),
    )
    pu = interp.project_l2_p3(mesh, orders, case.u, ws)
    pp = interp.project_l2_p3(mesh, orders, case.p, ws)
    best_u = interp.l2_norm(mesh, case.u, QUAD_DEG, minus=pu)
    best_p = interp.l2_norm(mesh, case.p, QUAD_DEG, minus=pp)
    return float(best_sigma), best_u, best_p


def convergence_study(case, r, levels=(1, 2, 4)):
    """Rows of errors, rates and quasi-optimality ratios over uniform refinements."""
    rows = []
    prev = None
    for n in levels:
        t0 = time.time()
        mesh = unit_cube_mesh(n)
        orders = OrderMap.uniform(mesh, r)
        system, sol = assembly.solve_case(mesh, orders, case)
        errs = assembly.error_norms(mesh, orders, sol, case, quad_deg=QUAD_DEG)
        bs, bu, bp = best_approximation_errors(mesh, orders, case, system)
        best_total = bs + bu + bp
        total = errs.total
        ratio = total / best_total if best_total > 0 else np.nan
        row = dict(
            n=n,
            h=mesh.h_max(),
            ndof=system.dofmap.n_total,
            sigma_l2=errs.sigma_l2,
            sigma_hdiv=errs.sigma_hdiv,
            u_l2=errs.u_l2,
            p_l2=errs.p_l2,
            total=total,
            best_total=best_total,
            quasi_ratio=ratio,
            rate=np.nan if prev is None else float(np.log2(prev["total"] / total)),
            rate_u=np.nan if prev is None else float(np.log2(prev["u_l2"] / errs.u_l2)),
            runtime=time.time() - t0,
        )
        rows.append(row)
        prev = row
    return rows


def default_convergence_case(material=None):
    """Smooth displacement whose low-order Taylor content dominates.

    The linear and quadratic parts put the mandated refinement levels in
    the asymptotic regime; the small sine perturbation keeps every error
    component active.  The boundary displacement is nonzero and enters
    through the natural boundary term.
    """
    material = tensor_ops.Material(1.0, 1.0) if material is None else material
    s = "0.01*sin(pi*x)*sin(pi*y)*sin(pi*z)"
    u1 = f"0.4*x + 0.3*y - 0.2*z + 0.5*x**2 + 0.25*x*y - 0.3*y*z + {s}"
    u2 = f"-0.2*x + 0.5*y + 0.1*z + 0.3*y**2 - 0.2*x*z + 0.15*x*y + {s}"
    u3 = f"0.1*x - 0.25*y + 0.6*z + 0.4*z**2 + 0.2*x*z - 0.1*y**2 + {s}"
    return assembly.ManufacturedCase.from_displacement(
        [u1, u2, u3], material, zero_boundary=False
    )


# ---------------------------------------------------------------------------
# machine-readable reports

def write_csv(path, rows, columns):
    lines = [",".join(columns)]
    for row in rows:
        lines.append(",".join(_fmt(row.get(c)) for c in columns))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def _fmt(v):
    if v is None:
        return ""
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, float):
        return repr(float(v))
    return str(v)


def write_json(path, obj):
    def clean(o):
        if isinstance(o, dict):
            return {k: clean(v) for k, v in o.items()}
        if isinstance(o, (list, tuple)):
            return [clean(v) for v in o]
        if isinstance(o, (np.integer,)):
            return int(o)
        if isinstance(o, (np.floating, float)):
            v = float(o)
            return v if np.isfinite(v) else None
        return o

    with open(path, "w") as fh:
        json.dump(clean(obj), fh, indent=2, sort_keys=True)
        fh.write("\n")
