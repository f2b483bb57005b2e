import numpy as np
import scipy.sparse as sp

from afw3d import assembly, linalg, stability_lab
from afw3d.mesh import OrderMap


def _dense_max_div_sq(Z, Mdiv):
    return np.einsum("ki,ij,kj->k", Z, Mdiv.toarray(), Z).max()


def test_kernel_div_norms_match_dense_formula(cube1, material, monkeypatch):
    om = OrderMap.uniform(cube1, 0)
    system = assembly.assemble(cube1, om, material, None)
    _, Mdiv = assembly.assemble_stress_grams(system)
    # on the true kernel the divergence vanishes: both forms are roundoff
    kc = stability_lab.kernel_coercivity(cube1, om, material, system)
    Z = linalg.nullspace(sp.vstack([system.B1, system.B2]).toarray())
    floor = 1e-13 * abs(Mdiv).max()
    assert kc.max_kernel_div**2 <= floor
    assert abs(kc.max_kernel_div**2 - _dense_max_div_sq(Z, Mdiv)) <= floor
    # on rows that are not in the kernel the div-norms are O(1) and must agree
    rng = np.random.default_rng(3)
    Q, _ = np.linalg.qr(rng.standard_normal((Mdiv.shape[0], 12)))
    monkeypatch.setattr(linalg, "nullspace", lambda C: Q.T)
    kc = stability_lab.kernel_coercivity(cube1, om, material, system)
    want = np.sqrt(_dense_max_div_sq(Q.T, Mdiv))
    assert kc.kernel_dim == 12 and want > 0.1
    assert abs(kc.max_kernel_div - want) <= 1e-12 * want
