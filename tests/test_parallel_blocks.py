"""interp.map_blocks and the block-parallel parts of assembly and the L2 norms:
the results equal those of the serial loop bit for bit."""

import sys
import threading
import time

import numpy as np
import pytest

from afw3d import assembly, expr, interp, stability_lab
from afw3d.mesh import OrderMap, unit_cube_mesh
from conftest import cpus


def _solve(monkeypatch, mesh, orders, n_cpus):
    """(system, error norms) of the default convergence case, with n_cpus usable CPUs."""
    cpus(monkeypatch, n_cpus)
    case = stability_lab.default_convergence_case()
    system, solution = assembly.solve_case(mesh, orders, case)
    return system, assembly.error_norms(mesh, orders, solution, case, quad_deg=10)


CASES = pytest.mark.parametrize("n, orders_of", [
    (3, lambda mesh: OrderMap.uniform(mesh, 1)),
    (2, lambda mesh: OrderMap.random(mesh, 0, 2, seed=1)),
], ids=["cube3-r1", "cube2-random"])


@CASES
def test_assemble_and_norms_equal_the_serial_loop(monkeypatch, block_calls, n, orders_of):
    mesh = unit_cube_mesh(n)
    orders = orders_of(mesh)
    serial, serial_norms = _solve(monkeypatch, mesh, orders, 1)
    block_calls.clear()
    system, norms = _solve(monkeypatch, mesh, orders, 2)
    assert max(block_calls) > 1                     # some call went through the worker pool
    if n == 3:
        assert len(system.blocks) == 6
    for name in ("A_classes", "B1_classes", "B2_classes"):
        a, b = getattr(system, name), getattr(serial, name)
        assert len(a) == len(b) and all(np.array_equal(x, y) for x, y in zip(a, b))
    assert np.array_equal(system.F, serial.F) and np.array_equal(system.G, serial.G)
    assert norms == serial_norms


def test_l2_norm_equals_the_serial_loop(monkeypatch, block_calls):
    mesh = unit_cube_mesh(3)
    case = stability_lab.default_convergence_case()
    cpus(monkeypatch, 1)
    serial = interp.l2_norm(mesh, case.sigma, 10)
    cpus(monkeypatch, 2)
    block_calls.clear()
    assert interp.l2_norm(mesh, case.sigma, 10) == serial
    assert max(block_calls) > 1


def test_map_blocks_keeps_item_order(monkeypatch):
    cpus(monkeypatch, 3)
    threads = set()

    def slow(k):
        threads.add(threading.get_ident())
        time.sleep(0.002 * (k % 3))
        return k * k

    assert interp.map_blocks(slow, range(20)) == [k * k for k in range(20)]
    assert len(threads) > 1
    assert interp.map_blocks(slow, []) == []


def test_map_blocks_takes_each_item_once_under_stress(monkeypatch):
    """More workers than cores and a short switch interval: no item is lost or
    taken twice, and a Jacobian first called by all threads at once is compiled once."""
    cpus(monkeypatch, 8)
    compiled, compile_trees = [], expr.compile_trees

    def counted(trees):
        compiled.append(len(trees))
        return compile_trees(trees)

    monkeypatch.setattr(expr, "compile_trees", counted)
    field = interp.FieldSample.from_sympy(["x*y", "z", "x"])
    pts = np.ones((2, 3))
    taken, interval = [], sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(20):
            results = interp.map_blocks(lambda k: (taken.append(k), field.jacobian(pts))[1][0, 0, 1] + k,
                                        range(200))
            assert results == [k + 1.0 for k in range(200)]
    finally:
        sys.setswitchinterval(interval)
    assert sorted(taken) == sorted(list(range(200)) * 20)
    assert compiled == [3, 9]


def test_map_blocks_raises_a_workers_exception(monkeypatch):
    cpus(monkeypatch, 2)

    def fails_on_a_worker(k):
        time.sleep(0.005)
        if threading.current_thread() is not threading.main_thread():
            raise ValueError(f"item {k}")
        return k

    with pytest.raises(ValueError, match="item"):
        interp.map_blocks(fails_on_a_worker, range(6))


def test_map_blocks_raises_the_first_failing_item(monkeypatch):
    cpus(monkeypatch, 2)

    def fails_from_3(k):
        time.sleep(0.002)
        if k >= 3:
            raise ValueError(f"item {k}")
        return k

    with pytest.raises(ValueError, match="item 3"):
        interp.map_blocks(fails_from_3, range(10))


def test_map_blocks_runs_serially_inside_an_item(monkeypatch):
    cpus(monkeypatch, 2)

    def inner(k):
        time.sleep(0.002)
        return threading.get_ident()

    def outer(k):
        time.sleep(0.002)
        return threading.get_ident(), interp.map_blocks(inner, range(4))

    results = []        # a nested wait would hang: fail after a timeout instead
    caller = threading.Thread(target=lambda: results.extend(interp.map_blocks(outer, range(4))),
                              daemon=True)
    caller.start()
    caller.join(timeout=60)
    assert not caller.is_alive(), "nested map_blocks calls wait on each other"
    assert len({ident for ident, _ in results}) > 1
    for ident, inner_idents in results:
        assert inner_idents == [ident] * 4


def test_jacobian_is_compiled_once_on_first_use(monkeypatch):
    compiled, compile_trees = [], expr.compile_trees

    def counted(trees):
        compiled.append(len(trees))
        return compile_trees(trees)

    monkeypatch.setattr(expr, "compile_trees", counted)
    field = interp.FieldSample.from_sympy([["x*y", "sin(z)", "x"]] * 3)
    assert compiled == [9]                          # the values only
    pts = np.random.default_rng(0).uniform(size=(5, 3))
    cpus(monkeypatch, 3)
    jacs = interp.map_blocks(lambda k: field.jacobian(pts), range(6))
    assert compiled == [9, 27]
    assert all(np.array_equal(j, jacs[0]) for j in jacs)
    assert np.array_equal(jacs[0][:, 0, 0], pts[:, [1, 0, 2]] * [1, 1, 0])
