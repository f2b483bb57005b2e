"""interp.map_signatures, the one map over order signatures, and the moment
interpolants that glue their blocks through it: the results come in member
order and equal the one-CPU build bit for bit."""

import numpy as np
import pytest

from afw3d import interp, stability_lab
from afw3d.mesh import OrderMap, unit_cube_mesh
from conftest import cpus


# three signature runs of 2, 1 and 3 members; the third entries are not passed to fn
MEMBERS = [("a", 0, "x"), ("a", 1, "x"), ("b", 2, "y"), ("c", 3, "z"), ("c", 4, "z"), ("c", 5, "z")]


@pytest.mark.parametrize("n_cpus", [1, 2])
def test_results_come_in_member_order(monkeypatch, n_cpus):
    cpus(monkeypatch, n_cpus)
    got = interp.map_signatures(lambda ro, xs: [f"{ro}{x}" for x in xs], MEMBERS)
    assert got == ["a0", "a1", "b2", "c3", "c4", "c5"]


def test_fn_gets_the_signature_and_the_second_entries_of_its_members():
    seen = []

    def fn(ro, xs):
        seen.append((ro, xs))
        return xs

    interp.map_signatures(fn, MEMBERS)
    assert seen == [("a", [0, 1]), ("b", [2]), ("c", [3, 4, 5])]


def test_one_map_blocks_call_with_one_item_per_signature_run(monkeypatch, block_calls):
    cpus(monkeypatch, 2)
    interp.map_signatures(lambda ro, xs: xs, MEMBERS)
    assert block_calls == [3]


MESHES = pytest.mark.parametrize("orders_of, n_signatures", [
    (lambda mesh: OrderMap.random(mesh, 0, 2, seed=1), 28),
    (lambda mesh: OrderMap.uniform(mesh, 1), 1),
], ids=["cube2-random", "cube2-r1"])


@MESHES
def test_edge_interpolants_equal_the_one_cpu_build(monkeypatch, orders_of, n_signatures):
    mesh = unit_cube_mesh(2)
    orders = orders_of(mesh)
    ws = interp.Workspace(mesh, orders)
    blocks = ws.blocks()
    assert len(ws.signature_groups) == n_signatures
    assert len(blocks) > n_signatures                   # some signature has several blocks
    sigma = stability_lab.default_convergence_case().sigma
    runs = (interp.interp_p1minus_stabilized, interp.interp_p1minus_global)
    cpus(monkeypatch, 1)
    serial = [run(mesh, orders, sigma, ws) for run in runs]
    cpus(monkeypatch, 2)
    for run, want in zip(runs, serial):
        got = run(mesh, orders, sigma, ws)
        assert len(got.coeffs) == mesh.n_tets
        assert all(np.array_equal(c, d) for c, d in zip(got.coeffs, want.coeffs))
