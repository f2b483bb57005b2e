import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp

from afw3d import assembly, linalg, stability_lab
from afw3d.mesh import OrderMap


def _dense_max_div_sq(Z, Mdiv):
    return np.einsum("ki,ij,kj->k", Z, Mdiv.toarray(), Z).max()


def _dense_kernel_ratio(system):
    """ratio from the dense inverse of K.  Its stress block P maps g to the
    minimizer of <A x, x>/2 - <g, x> on ker [B1; B2], so 1/ratio is the
    largest eigenvalue of the pencil M_h P M_h y = nu M_h y.

    An SVD basis Z of the kernel is no oracle at 1e-12: on cube n=1 with
    orders 2,1,0,2,1,0 the eigenvalue of Z A Z^T against Z M_h Z^T is
    6e-12 below the exact 0.2 (the ratio of tau = I), this one 1e-15."""
    Ml2, Mdiv, _ = system.stress_grams
    Mh = (Ml2 + Mdiv).toarray()
    ns = system.dofmap.n_stress
    K = system.full_matrix().toarray()
    P = np.linalg.solve(K, np.eye(len(K))[:, :ns])[:ns]
    MPM = Mh @ (0.5 * (P + P.T)) @ Mh
    return 1.0 / scipy.linalg.eigh(0.5 * (MPM + MPM.T), Mh, eigvals_only=True)[-1]


def _dense_beta(system):
    """beta_h from the dense Schur complement B M_h^{-1} B^T against the
    displacement/rotation mass."""
    Ml2, Mdiv, _ = system.stress_grams
    B = sp.vstack([system.B1, -system.B2]).toarray()
    S = B @ np.linalg.solve((Ml2 + Mdiv).toarray(), B.T)
    w = scipy.linalg.eigh(0.5 * (S + S.T), np.diag(assembly.vq_mass_diag(system)),
                          eigvals_only=True)
    return np.sqrt(w[0])


def test_kernel_div_norms_match_dense_formula(cube1, material):
    om = OrderMap.uniform(cube1, 0)
    system = assembly.assemble(cube1, om, material, None)
    _, Mdiv, _ = assembly.assemble_stress_grams(system)
    # on the true kernel the divergence vanishes: both forms are roundoff
    kc = stability_lab.kernel_coercivity(cube1, om, material, system)
    Z = linalg.nullspace(sp.vstack([system.B1, system.B2]).toarray())
    floor = 1e-13 * abs(Mdiv).max()
    assert _dense_max_div_sq(Z, Mdiv) <= floor
    assert kc.max_kernel_div**2 <= floor
    assert abs(kc.max_kernel_div**2 - _dense_max_div_sq(Z, Mdiv)) <= floor


@pytest.mark.parametrize("tet_orders", [[0] * 6, [1] * 6, [2, 1, 0, 2, 1, 0]])
def test_lab_constants_match_dense_oracles(cube1, material, tet_orders):
    om = OrderMap.from_tet_orders(cube1, np.array(tet_orders))
    system = assembly.assemble(cube1, om, material, None)
    kc = stability_lab.kernel_coercivity(cube1, om, material, system)
    beta = stability_lab.infsup_constant(cube1, om, material, system)
    assert kc.kernel_dim == len(linalg.nullspace(sp.vstack([system.B1, system.B2]).toarray()))
    ratio = _dense_kernel_ratio(system)
    assert abs(kc.ratio - ratio) <= 1e-12 * ratio
    want = _dense_beta(system)
    assert abs(beta - want) <= 1e-12 * want


def test_lab_constants_are_bit_identical_on_repeat(cube1, material):
    om = OrderMap.uniform(cube1, 0)
    system = assembly.assemble(cube1, om, material, None)

    def beta():
        return stability_lab.infsup_constant(cube1, om, material, system)

    def ratio():
        return stability_lab.kernel_coercivity(cube1, om, material, system).ratio

    # beta first, then kernel twice, then beta: each is called in either order
    b1, r1, r2, b2 = beta(), ratio(), ratio(), beta()
    assert b1 == b2 and r1 == r2
