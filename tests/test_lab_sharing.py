import numpy as np

from afw3d import assembly, stability_lab
from afw3d.mesh import OrderMap


def test_lab_assembles_the_stress_grams_once_per_system(cube1, material, monkeypatch):
    calls = []
    grams = assembly.assemble_stress_grams
    monkeypatch.setattr(assembly, "assemble_stress_grams",
                        lambda system: calls.append(1) or grams(system))
    om = OrderMap.uniform(cube1, 0)
    system = assembly.assemble(cube1, om, material, None)
    case = stability_lab.default_convergence_case(material)
    stability_lab.infsup_constant(cube1, om, material, system)
    stability_lab.kernel_coercivity(cube1, om, material, system)
    stability_lab.best_approximation_errors(cube1, om, case, system)
    assert len(calls) == 1


def test_best_stress_approximation_of_a_constant_stress_is_roundoff(cube1, material):
    # the stress space holds constants: the best error is roundoff, not the
    # square root of a cancelled difference of squared norms (4e-7 at r=1);
    # above r=1 the moment matrices lose digits, as in the patch test
    case = assembly.ManufacturedCase.constant_stress(material)
    for r in (0, 1):
        best_sigma, _, _ = stability_lab.best_approximation_errors(
            cube1, OrderMap.uniform(cube1, r), case)
        assert best_sigma < 1e-10


def test_best_stress_approximation_is_below_the_discrete_error(cube1, material):
    om = OrderMap.uniform(cube1, 0)
    case = stability_lab.default_convergence_case(material)
    system, sol = assembly.solve_case(cube1, om, case)
    errs = assembly.error_norms(cube1, om, sol, case, quad_deg=10)
    best_sigma, _, _ = stability_lab.best_approximation_errors(cube1, om, case, system)
    assert 0 < best_sigma <= errs.sigma_hdiv * (1 + 1e-12)
    assert np.isfinite(best_sigma)
