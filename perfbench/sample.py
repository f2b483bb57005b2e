"""One benchmark sample: one workload in this fresh process, with cold caches.

    python3 perfbench/sample.py WORKLOAD SEED SPAWN_NS TRACE

SPAWN_NS is the CLOCK_MONOTONIC time in ns at which the parent started this
process, so setup_s covers interpreter start, imports and input generation.
TRACE is 1 for a traced sample. The sample prints one JSON object on stdout:
its times, peak RSS, the raw values of every checked operation and, when
traced, its spans and per-layer figures. Pass/fail is decided by run.py.

Every workload drives afw3d only through its public functions. A traced
sample makes the same calls as an untraced one, inside spans. Only after the
timed part does it make the warm repeats and the extra factorization that
some per-layer figures need.
"""

import collections
import contextlib
import json
import resource
import sys
import time
import traceback

import numpy as np
import scipy.sparse.linalg as spla

from afw3d import assembly, stability_lab as sl
from afw3d.interp import StressSpace, Workspace
from afw3d.mesh import OrderMap, unit_cube_mesh
from afw3d.tensor_ops import Material

# Distinct order signatures per tet order that every p-mixed map has: the
# census of OrderMap.random(unit_cube_mesh(2), 0, 2, seed=1). The cold cost
# of p-mixed follows the number of distinct order-2 signatures (4.8 s for 10
# of them, 10.2 s for 20), so maps are drawn until one has this census.
P_MIXED_CENSUS = {0: 1, 1: 12, 2: 15}
MAX_DRAWS = 100_000


class Tracer:
    """Nested wall-clock spans, kept in memory until the sample ends."""

    def __init__(self, enabled):
        self.enabled = enabled
        self.spans = []     # [name, parent index or None, start_ns, end_ns]
        self._open = []

    def span(self, name):
        return self._span(name) if self.enabled else contextlib.nullcontext()

    @contextlib.contextmanager
    def _span(self, name):
        parent = self._open[-1] if self._open else None
        idx = len(self.spans)
        self.spans.append([name, parent, time.perf_counter_ns(), None])
        self._open.append(idx)
        try:
            yield
        finally:
            self._open.pop()
            self.spans[idx][3] = time.perf_counter_ns()

    def total_s(self, name):
        return sum(end - start for n, _, start, end in self.spans if n == name) / 1e9

    def self_s(self, name):
        """Time inside spans called name that no child span covers."""
        ids = {i for i, s in enumerate(self.spans) if s[0] == name}
        children = sum(end - start for _, parent, start, end in self.spans
                       if parent in ids)
        return self.total_s(name) - children / 1e9


def _census(mesh, tet_orders):
    """Distinct order signatures per tet order, by the minimum rule of
    OrderMap.from_tet_orders, vectorised so that a draw costs microseconds."""
    faces = np.full(mesh.n_faces, np.iinfo(np.int64).max)
    np.minimum.at(faces, mesh.tet_faces.ravel(), np.repeat(tet_orders, 4))
    edges = np.full(mesh.n_edges, np.iinfo(np.int64).max)
    np.minimum.at(edges, mesh.face_edges.ravel(), np.repeat(faces, 3))
    sigs = np.unique(np.column_stack([tet_orders, faces[mesh.tet_faces],
                                      edges[mesh.tet_edges]]), axis=0)
    return collections.Counter(sigs[:, 0].tolist())


def census_matched_map(mesh, seed):
    """First draw of random tet orders 0..2 whose map has P_MIXED_CENSUS.

    The first draw is OrderMap.random(mesh, 0, 2, seed), so seed 1 gives
    that map itself.
    """
    rng = np.random.default_rng(seed)
    for _ in range(MAX_DRAWS):
        tet_orders = rng.integers(0, 3, size=mesh.n_tets)
        if _census(mesh, tet_orders) == P_MIXED_CENSUS:
            orders = OrderMap.from_tet_orders(mesh, tet_orders)
            sigs = {orders.ref_orders(mesh, t) for t in range(mesh.n_tets)}
            if collections.Counter(ro.tet for ro in sigs) != P_MIXED_CENSUS:
                raise RuntimeError("census differs from the OrderMap signatures")
            return orders
    raise RuntimeError(f"no order map with census {P_MIXED_CENSUS} for seed {seed}")


def build_levels(workload, seed):
    """[(n, mesh, orders)] for the workload."""
    if workload == "h-uniform":
        mesh = unit_cube_mesh(3)
        return [(3, mesh, OrderMap.uniform(mesh, 1))]
    if workload == "p-mixed":
        mesh = unit_cube_mesh(2)
        return [(2, mesh, census_matched_map(mesh, seed))]
    if workload == "lab":
        return [(n, m, OrderMap.uniform(m, 0)) for n, m in
                ((n, unit_cube_mesh(n)) for n in (1, 2))]
    raise ValueError(f"unknown workload {workload!r}")


def _op(name, fn):
    """Run one checked operation; an exception is recorded, not raised."""
    try:
        return {"name": name, **fn()}
    except Exception as exc:  # a failing public call is a result to report
        return {"name": name, "error": f"{type(exc).__name__}: {exc}",
                "traceback": traceback.format_exc()}


def _build_system(mesh, orders, material, case, tr, built):
    """Workspace, stress space and assembly, each in its own span."""
    with tr.span("interp.workspace"):
        ws = Workspace(mesh, orders)
    with tr.span("interp.space"):
        space = StressSpace(mesh, orders, ws)
    f = None if case is None else case.f
    g = None if case is None or case.zero_boundary else case.u
    with tr.span("assembly.assemble"):
        system = assembly.assemble(mesh, orders, material, f, boundary_g=g,
                                   space=space, ws=ws)
    built.append(dict(mesh=mesh, orders=orders, material=material, f=f, g=g,
                      ws=ws, system=system))
    return system


def run_solve(levels, case, tr, built):
    """solve_case followed by error_norms(quad_deg=10), as `afw3d solve` does."""
    (_, mesh, orders), = levels

    def solve():
        system = _build_system(mesh, orders, case.material, case, tr, built)
        with tr.span("linalg.solve"):
            sol = assembly.solve_saddle(system)
        with tr.span("assembly.error_norms"):
            errs = assembly.error_norms(mesh, orders, sol, case, quad_deg=10)
        return {"error_total": errs.total, "sigma_hdiv": errs.sigma_hdiv,
                "u_l2": errs.u_l2, "p_l2": errs.p_l2}

    return [_op("solve", solve)]


def run_lab(levels, case, tr, built):
    """The `afw3d infsup` and `afw3d verify commute` defaults."""
    material = Material(1.0, 1.0)
    ops = []
    for n, mesh, orders in levels:
        try:
            system = _build_system(mesh, orders, material, None, tr, built)
        except Exception as exc:  # both operations of this level fail
            err = {"error": f"{type(exc).__name__}: {exc}",
                   "traceback": traceback.format_exc()}
            ops += [{"name": f"infsup_n{n}", **err}, {"name": f"kernel_n{n}", **err}]
            continue

        def infsup():
            with tr.span("stability_lab.infsup"):
                return {"beta": sl.infsup_constant(mesh, orders, material, system)}

        def kernel():
            with tr.span("stability_lab.kernel"):
                kc = sl.kernel_coercivity(mesh, orders, material, system)
            return {"ratio": kc.ratio, "kernel_dim": kc.kernel_dim,
                    "bound": material.compliance_lower_bound}

        ops.append(_op(f"infsup_n{n}", infsup))
        ops.append(_op(f"kernel_n{n}", kernel))
    _, mesh1, orders1 = levels[0]

    def commute():
        with tr.span("stability_lab.commute"):
            return sl.commuting_diagram_suite(mesh1, orders1, n_samples=3, seed=0)

    ops.append(_op("commute", commute))
    return ops


def _timed(fn, *args, **kw):
    t0 = time.perf_counter()
    fn(*args, **kw)
    return time.perf_counter() - t0


def layer_figures(workload, levels, built, tr, ops):
    """Per-layer figures of a traced sample, taken after its timed part.

    The warm repeats reuse the per-signature caches the timed part filled,
    so cold minus warm is the time spent building per-signature data.
    """
    space_warm = assemble_warm = commute_warm = 0.0
    space_dofs = lu_flops = ndof = nnz = fill = 0
    for b in built:
        mesh, orders, ws, system = b["mesh"], b["orders"], b["ws"], b["system"]
        space_warm += _timed(StressSpace, mesh, orders, ws)
        assemble_warm += _timed(assembly.assemble, mesh, orders, b["material"], b["f"],
                                boundary_g=b["g"], space=system.space, ws=ws)
        space_dofs += system.space.n_dofs
        lu_flops += sum(2.0 / 3.0 * el.C.shape[0] ** 3 for el in system.space.elements)
        K = system.full_matrix()
        ndof += system.dofmap.n_total
        nnz += K.nnz
        lu = spla.splu(K.tocsc())    # the ordering linalg.solve_sparse uses
        fill += lu.L.nnz + lu.U.nnz
    if workload == "lab":
        _, mesh1, orders1 = levels[0]
        commute_warm = _timed(sl.commuting_diagram_suite, mesh1, orders1,
                              n_samples=3, seed=0)
    sig_build = (tr.total_s("interp.space") - space_warm
                 + tr.total_s("assembly.assemble") - assemble_warm
                 + tr.total_s("stability_lab.commute") - commute_warm)
    sigs = {orders.ref_orders(mesh, t) for _, mesh, orders in levels
            for t in range(mesh.n_tets)}
    n_tets = sum(mesh.n_tets for _, mesh, _ in levels)
    return {
        "mesh.build_s": tr.total_s("mesh.build"),
        "mesh.n_tets": n_tets,
        "mesh.signatures": len(sigs),
        "mesh.sig_share": 1.0 - len(sigs) / n_tets,
        "polyspace.sig_build_s": sig_build,
        "interp.workspace_s": tr.total_s("interp.workspace"),
        "interp.space_s": space_warm,
        "interp.space_dofs": space_dofs,
        "interp.elem_lu_flops": lu_flops,
        "assembly.assemble_s": assemble_warm,
        "assembly.ndof": ndof,
        "assembly.nnz": nnz,
        "assembly.error_norms_s": tr.total_s("assembly.error_norms"),
        "linalg.solve_s": tr.total_s("linalg.solve"),
        "linalg.fill_nnz": fill,
        "linalg.fill_ratio": fill / nnz if nnz else 0.0,
        "stability_lab.infsup_s": tr.total_s("stability_lab.infsup"),
        "stability_lab.kernel_s": tr.total_s("stability_lab.kernel"),
        "stability_lab.kernel_dim": sum(op.get("kernel_dim", 0) for op in ops),
        "stability_lab.commute_s": commute_warm,
        "trace.unspanned_s": tr.self_s("run"),
    }


def main(argv):
    workload, seed, spawn_ns, trace = argv[1], int(argv[2]), int(argv[3]), argv[4] == "1"
    tr = Tracer(trace)
    with tr.span("mesh.build"):
        levels = build_levels(workload, seed)
    case = None if workload == "lab" else sl.default_convergence_case()
    setup_s = (time.monotonic_ns() - spawn_ns) / 1e9

    run = run_lab if workload == "lab" else run_solve
    built = []
    t0 = time.perf_counter()
    with tr.span("run"):
        ops = run(levels, case, tr, built)
    run_s = time.perf_counter() - t0
    out = {
        "setup_s": setup_s,
        "run_s": run_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ops": ops,
    }
    if trace:
        out["layers"] = layer_figures(workload, levels, built, tr, ops)
        t_ref = tr.spans[0][2]
        out["spans"] = [{"name": n, "parent": p, "start_s": (s - t_ref) / 1e9,
                         "end_s": (e - t_ref) / 1e9} for n, p, s, e in tr.spans]
    print(json.dumps(out, default=lambda o: o.item()))


if __name__ == "__main__":
    main(sys.argv)
