"""The element matrices A_e, B1_e and B2_e kept once per congruence class."""

import numpy as np
import pytest

from afw3d import assembly, stability_lab
from afw3d.mesh import OrderMap
from conftest import class_stacks, per_tet_matvec

MAPS = pytest.mark.parametrize("orders_of", [lambda mesh: OrderMap.uniform(mesh, 1),
                                             lambda mesh: OrderMap.random(mesh, 0, 2, seed=1)],
                               ids=["r1", "random"])


def _one_class_per_tet(blocks):
    sizes = np.cumsum([0] + [len(blk[1]) for blk in blocks])
    return [np.arange(lo, hi) for lo, hi in zip(sizes[:-1], sizes[1:])]


def _assemble(cube2, orders_of, material):
    case = stability_lab.default_convergence_case(material)
    return assembly.assemble(cube2, orders_of(cube2), material, case.f, boundary_g=case.u)


@MAPS
def test_derived_stacks_equal_stacks_formed_per_tet(monkeypatch, cube2, material, orders_of):
    system = _assemble(cube2, orders_of, material)
    monkeypatch.setattr(assembly, "_class_table",
                        lambda mesh, ws, blocks: _one_class_per_tet(blocks))
    per_tet = _assemble(cube2, orders_of, material)
    assert len(system.A_classes) < len(per_tet.A_classes) == cube2.n_tets

    def expanded(s):
        """A_e, B1_e, B2_e and the H(div) Grams of s, as per-block stacks."""
        return [class_stacks(s, mats)[0] for mats in
                (s.A_classes, s.B1_classes, s.B2_classes, s.stress_grams[2])]

    for got, want in zip(expanded(system), expanded(per_tet)):
        assert len(got) == len(want)
        for a, b in zip(got, want):
            assert a.shape == b.shape and a.strides == b.strides and np.array_equal(a, b)
    assert np.array_equal(system.F, per_tet.F) and np.array_equal(system.G, per_tet.G)
    # the global matrices scattered from the class matrices, array for array
    for got, want in [(system.A, per_tet.A), (system.B1, per_tet.B1), (system.B2, per_tet.B2),
                      (system.stress_grams[0], per_tet.stress_grams[0]),
                      (system.stress_grams[1], per_tet.stress_grams[1])]:
        for name in ("data", "indices", "indptr"):
            assert np.array_equal(getattr(got, name), getattr(want, name))


@MAPS
def test_class_matvec_equals_the_per_tet_products_bit_for_bit(monkeypatch, cube2, material,
                                                              orders_of, rng):
    system = _assemble(cube2, orders_of, material)
    # the slices' memory layout fixes the bits: A_e column-major, B1_e and B2_e row-major
    # (and the class inverses row-major for apply's products: test_element_classes)
    assert all(A.flags.f_contiguous for A in system.A_classes)
    assert all(B.flags.c_contiguous for B in system.B1_classes + system.B2_classes)
    x = rng.standard_normal(system.dofmap.n_total)
    want = per_tet_matvec(system, x)
    assert np.abs(want).max() > 0
    assert np.array_equal(system.matvec(x), want)
    # every tet its own class, its matrices formed on their own
    monkeypatch.setattr(assembly, "_class_table",
                        lambda mesh, ws, blocks: _one_class_per_tet(blocks))
    per_tet = _assemble(cube2, orders_of, material)
    assert len(per_tet.A_classes) == len(per_tet.class_layout[1]) == cube2.n_tets
    assert np.array_equal(per_tet.matvec(x), want)


def test_solve_and_lab_build_no_per_tet_stacks(monkeypatch, cube2, material):
    case = stability_lab.default_convergence_case(material)
    system, _ = assembly.solve_case(cube2, OrderMap.uniform(cube2, 1), case)
    assert len(system.A_classes) == 6
    orders = OrderMap.uniform(cube2, 0)
    lab = assembly.assemble(cube2, orders, material, None)
    # the lab's stress Grams are formed for the class representatives only
    gram_tets, l2_grams = [], assembly._l2_grams
    monkeypatch.setattr(assembly, "_l2_grams",
                        lambda space, G4, tets: gram_tets.append(len(tets)) or
                        l2_grams(space, G4, tets))
    stability_lab.infsup_constant(cube2, orders, material, lab)
    stability_lab.kernel_coercivity(cube2, orders, material, lab)
    assert sum(gram_tets) == len(lab.A_classes) == 6 < cube2.n_tets


def test_zeroed_class_matrix_names_its_representative(cube2, material):
    # the class of most tets whose representative is not the first tet of its block
    system = assembly.assemble(cube2, OrderMap.uniform(cube2, 1), material, None)
    reps = system.class_layout[0]
    sizes = np.bincount(np.concatenate(system.classes))
    c = max(np.flatnonzero(reps[:, 1] > 0), key=lambda c: sizes[c])
    b, k = reps[c]
    rep = system.blocks[b][1][k]
    assert sizes[c] > 1
    for stack in (system.A_classes, system.B1_classes, system.B2_classes):
        stack[c][...] = 0.0
    with pytest.raises(assembly.FactorizationBreakdown, match=rf"tet {rep} is singular"):
        assembly.solve_saddle(system)
    zeroed = [t for (_, tets, _, _), stack in zip(system.blocks,
                                                  class_stacks(system, system.A_classes)[0])
              for t, A in zip(tets, stack) if not A.any()]
    assert len(zeroed) == sizes[c] and rep in zeroed
