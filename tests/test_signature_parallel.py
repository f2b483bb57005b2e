"""The order signature as the item of interp.map_blocks: on a variable-order
mesh built from cold caches, the stress space, assembly, the stress Grams and
the moment interpolants equal the one-CPU build bit for bit, and each
signature's reference data is built once."""

import sys
import threading
from collections import Counter

import numpy as np
import pytest

from afw3d import assembly, interp, stability_lab
from afw3d.mesh import OrderMap, unit_cube_mesh


def _cpus(monkeypatch, n):
    """Make map_blocks see n usable CPUs: n - 1 workers, or the serial loop for 1."""
    monkeypatch.setattr(interp.os, "sched_getaffinity", lambda pid: set(range(n)))


def _clear_caches():
    """Empty every lru_cache of afw3d, so the next build makes all its reference data."""
    for name, module in list(sys.modules.items()):
        if name == "afw3d" or name.startswith("afw3d."):
            for obj in vars(module).values():
                if hasattr(obj, "cache_clear"):
                    obj.cache_clear()


@pytest.fixture
def block_calls(monkeypatch):
    """The number of items of every map_blocks call."""
    calls, map_blocks = [], interp.map_blocks

    def counted(fn, items):
        items = list(items)
        calls.append(len(items))
        return map_blocks(fn, items)

    monkeypatch.setattr(interp, "map_blocks", counted)
    return calls


def _mixed(seed=1):
    mesh = unit_cube_mesh(2)
    return mesh, OrderMap.random(mesh, 0, 2, seed=seed)


def _build(monkeypatch, n_cpus):
    """Space, system, stress Grams and interpolants on cube 2 with mixed orders
    0..2, from cold caches, with n_cpus usable CPUs."""
    _cpus(monkeypatch, n_cpus)
    _clear_caches()
    mesh, orders = _mixed()
    case = stability_lab.default_convergence_case()
    ws = interp.Workspace(mesh, orders)
    space = interp.StressSpace(mesh, orders, ws)
    system = assembly.assemble(mesh, orders, case.material, case.f, boundary_g=case.u,
                               space=space, ws=ws)
    grams = assembly.assemble_stress_grams(system)
    p2 = interp.interp_p2(mesh, orders, case.sigma, space)
    p2minus = interp.interp_p2minus_global(mesh, orders, case.sigma, ws)
    return ws, space, system, grams, (p2, p2minus)


def _same_csr(a, b):
    return all(np.array_equal(getattr(a, k), getattr(b, k)) for k in ("indptr", "indices", "data"))


def test_signature_items_equal_the_serial_build(monkeypatch, block_calls):
    _, serial_space, serial, serial_grams, serial_fields = _build(monkeypatch, 1)
    block_calls.clear()
    ws, space, system, grams, fields = _build(monkeypatch, 2)
    # one item per signature: the space, assembly, the stress Grams and two interpolants
    assert len(ws.signature_groups) > 1 and block_calls.count(len(ws.signature_groups)) == 5

    assert list(space.systems) == list(serial_space.systems)
    for key, elem in space.systems.items():
        assert np.array_equal(elem.C, serial_space.systems[key].C)
        assert np.array_equal(elem.X, serial_space.systems[key].X)
    for name in ("A_blocks", "B1_blocks", "B2_blocks"):
        a, b = getattr(system, name), getattr(serial, name)
        assert len(a) == len(b) and all(np.array_equal(x, y) for x, y in zip(a, b))
    assert np.array_equal(system.F, serial.F) and np.array_equal(system.G, serial.G)
    assert np.any(system.G)

    (L2, div, hdiv), (L2_s, div_s, hdiv_s) = grams, serial_grams
    assert _same_csr(L2, L2_s) and _same_csr(div, div_s)
    assert len(hdiv) == len(hdiv_s) and all(np.array_equal(x, y) for x, y in zip(hdiv, hdiv_s))
    for field, serial_field in zip(fields, serial_fields):
        assert all(np.array_equal(c, d) for c, d in zip(field.coeffs, serial_field.coeffs))


def test_each_signature_is_built_once(monkeypatch, block_calls):
    lock, counts, threads = threading.Lock(), Counter(), set()
    build_system, raw_gram_data = interp.StressSpace._build_system, assembly._raw_gram_data

    def counted(fn):
        def call(*args):
            with lock:
                counts[args] += 1
                threads.add(threading.get_ident())
            return fn(*args)
        return call

    monkeypatch.setattr(interp.StressSpace, "_build_system", staticmethod(counted(build_system)))
    monkeypatch.setattr(assembly, "_raw_gram_data", counted(raw_gram_data))
    _cpus(monkeypatch, 2)
    _clear_caches()
    mesh, orders = _mixed(seed=2)       # a signature's keys first appear after other signatures
    case = stability_lab.default_convergence_case()
    ws = interp.Workspace(mesh, orders)
    keys = list(dict.fromkeys((ws.ref_orders(t), tuple(map(tuple, perms)))
                              for t, perms in enumerate(ws.face_perms.tolist())))
    once_per_signature = Counter((ro,) for ro in ws.signature_groups)

    space = interp.StressSpace(mesh, orders, ws)
    assert counts == Counter(keys)
    assert list(space.systems) == keys              # in order of first appearance
    assert len(threads) > 1                         # the signatures ran on the worker too
    counts.clear()
    system = assembly.assemble(mesh, orders, case.material, case.f, space=space, ws=ws)
    assert counts == once_per_signature
    counts.clear()
    assembly.assemble_stress_grams(system)
    assert counts == once_per_signature
    assert block_calls.count(len(once_per_signature)) == 3


def test_signatures_share_cold_caches_under_stress(monkeypatch):
    """More workers than cores and a short switch interval, from cold caches:
    signatures that build the same table at once still give the serial keys
    and moment matrices bit for bit."""
    mesh, orders = _mixed()
    _cpus(monkeypatch, 1)
    _clear_caches()
    serial = interp.StressSpace(mesh, orders)
    _cpus(monkeypatch, 8)
    _clear_caches()
    spaces, interval = [], sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        builder = threading.Thread(target=lambda: spaces.append(interp.StressSpace(mesh, orders)),
                                   daemon=True)
        builder.start()
        builder.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not builder.is_alive() and len(spaces) == 1
    assert list(spaces[0].systems) == list(serial.systems)
    for key, elem in spaces[0].systems.items():
        assert np.array_equal(elem.C, serial.systems[key].C)
        assert np.array_equal(elem.X, serial.systems[key].X)
