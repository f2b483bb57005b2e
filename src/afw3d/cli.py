"""Command-line front end: mesh generation, verification suites,
stability runs and convergence studies.

Every subcommand writes a CSV table and a JSON report (schema
afw3d-report/1) into the output directory and prints a summary.  Identical
configuration and seed produce byte-identical output files for a fixed
number of BLAS threads, so runtimes are printed but never written.  The
number of usable CPUs does not change the files (interp.map_blocks keeps
the bits of its serial loop), but OpenBLAS rounds some products
differently on another thread count, and with OPENBLAS_NUM_THREADS unset
it takes one thread per usable CPU, so the files then depend on the CPUs
too.  CI and perfbench set OPENBLAS_NUM_THREADS=1.

Exit codes:
  0  every check passed its tolerance;
  1  a check failed its tolerance;
  2  the configuration or the --mesh file is invalid (one line on stderr);
  3  a numerical failure stopped the run: FactorizationBreakdown (an
     element block or the multiplier system does not factor, PCG on the
     multiplier system does not converge, or the solve misses its residual
     gate), SingularMomentSystem, NoAdmissibleT, ConformityViolation or
     DegreeTooHigh (one line on stderr).
"""

import argparse
import os
import sys

import numpy as np

from . import assembly, interp, linalg, monomials as mo, polyspace as ps
from . import quadrature, stability_lab as sl
from . import tensor_ops
from .mesh import (
    DegenerateTet,
    NonManifoldFace,
    OrderMap,
    read_mesh,
    unit_cube_mesh,
    write_mesh,
)

SCHEMA = "afw3d-report/1"
R_MAX_CAP = 4

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_CONFIG_ERROR = 2
EXIT_NUMERICAL_FAILURE = 3

NUMERICAL_FAILURES = (
    assembly.FactorizationBreakdown,
    interp.SingularMomentSystem,
    interp.NoAdmissibleT,
    interp.ConformityViolation,
    quadrature.DegreeTooHigh,
)


class ConfigError(Exception):
    pass


def _load_config_file(path):
    out = {}
    try:
        with open(path) as fh:
            for lineno, line in enumerate(fh, 1):
                line = line.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise ConfigError(f"{path}:{lineno}: expected key=value")
                k, v = line.split("=", 1)
                out[k.strip().replace("-", "_")] = v.strip()
    except OSError as exc:
        raise ConfigError(f"cannot read config file: {exc}") from exc
    return out


def _merged(args, keys):
    """Config-file values filled in wherever the flag was not given."""
    cfg = _load_config_file(args.config) if args.config else {}
    merged = {}
    for k in keys:
        v = getattr(args, k)
        if v is None and k in cfg:
            v = cfg[k]
        merged[k] = v
    return merged


def _parse_orders(text, n_tets):
    orders = []
    for i, e in enumerate(e for e in text.split(",") if e != ""):
        try:
            orders.append(int(e))
        except ValueError:
            raise ConfigError(f"order list entry for tet {i} is not an integer: {e!r}")
    return _checked_orders(orders, n_tets)


def _checked_orders(orders, n_tets):
    """One order in [0, R_MAX_CAP] per tet, as an array."""
    for i, v in enumerate(orders):
        if v < 0 or v > R_MAX_CAP:
            raise ConfigError(f"order for tet {i} out of range [0, {R_MAX_CAP}]: {v}")
    if len(orders) != n_tets:
        raise ConfigError(
            f"order list has {len(orders)} entries for a mesh with {n_tets} tets"
        )
    return np.array(orders, dtype=np.int64)


def _int_opt(opts, key, default, lo, hi=None):
    """opts[key] as an integer in [lo, hi], or default when it is not set."""
    v = opts.get(key)
    if v is None or v == "":
        return default
    try:
        v = int(v)
    except ValueError:
        raise ConfigError(f"{FLAGS[key][0]} is not an integer: {v!r}") from None
    if hi is None and v < lo:
        raise ConfigError(f"{FLAGS[key][0]} must be at least {lo}, not {v}")
    if hi is not None and not lo <= v <= hi:
        raise ConfigError(f"{FLAGS[key][0]} out of range [{lo}, {hi}]: {v}")
    return v


def _get_mesh(opts):
    if opts.get("mesh"):
        try:
            return read_mesh(opts["mesh"])
        except (OSError, ValueError, IndexError, DegenerateTet, NonManifoldFace) as exc:
            raise ConfigError(f"cannot read mesh file {opts['mesh']}: {exc}") from exc
    return unit_cube_mesh(_int_opt(opts, "n", 1, 1)), None


def _get_orders(mesh, opts, file_orders=None):
    if opts.get("orders"):
        return OrderMap.from_tet_orders(mesh, _parse_orders(opts["orders"], mesh.n_tets))
    if file_orders is not None:
        return OrderMap.from_tet_orders(mesh, _checked_orders(file_orders, mesh.n_tets))
    return OrderMap.uniform(mesh, _int_opt(opts, "r", 0, 0, R_MAX_CAP))


def _material(opts):
    try:
        return tensor_ops.Material(*(float(1.0 if opts.get(k) is None else opts[k])
                                     for k in ("lame_lambda", "mu")))
    except ValueError as exc:
        raise ConfigError(f"invalid Lame parameters: {exc}") from exc


def _outdir(opts):
    out = opts.get("out") or "afw3d-out"
    os.makedirs(out, exist_ok=True)
    return out


def _finish(name, opts, checks, rows, columns):
    """Write the CSV/JSON pair, print the table, return the exit code."""
    out = _outdir(opts)
    sl.write_csv(os.path.join(out, f"{name}.csv"), rows, columns)
    ok = all(c["pass"] for c in checks)
    report = {
        "schema": SCHEMA,
        "command": name,
        "seed": opts.get("seed"),
        "config": {k: v for k, v in opts.items() if v is not None},
        "checks": checks,
        "rows": rows,
        "pass": bool(ok),
    }
    sl.write_json(os.path.join(out, f"{name}.json"), report)
    width = max((len(c["name"]) for c in checks), default=10)
    for c in checks:
        status = "pass" if c["pass"] else "FAIL"
        print(f"  {c['name']:<{width}}  {c['value']:.3e}  (tol {c['tol']:.1e})  {status}")
    print(f"report: {out}/{name}.json -> {'PASS' if ok else 'FAIL'}")
    return EXIT_OK if ok else EXIT_CHECK_FAILED


def _check(name, value, tol):
    return {"name": name, "value": float(value), "tol": float(tol), "pass": bool(value <= tol)}


def _tol_scale(opts):
    v = opts.get("tol_scale")
    if v is None or v == "":
        return 1.0
    try:
        v = float(v)
    except ValueError:
        raise ConfigError(f"--tol-scale is not a number: {v!r}") from None
    if not v > 0:
        raise ConfigError(f"--tol-scale must be positive: {v}")
    return v


# ---------------------------------------------------------------------------
# subcommands

def cmd_mesh_gen(opts):
    mesh, _ = _get_mesh(opts)
    tet_orders = None
    if opts.get("orders"):
        tet_orders = _parse_orders(opts["orders"], mesh.n_tets)
    out = _outdir(opts)
    path = os.path.join(out, "mesh.txt")
    write_mesh(path, mesh, tet_orders)
    rows = [dict(vertices=mesh.n_vertices, edges=mesh.n_edges,
                 faces=mesh.n_faces, tets=mesh.n_tets)]
    checks = [_check("euler_characteristic",
                     abs(mesh.n_vertices - mesh.n_edges + mesh.n_faces - mesh.n_tets - 1), 0)]
    print(f"mesh written to {path}")
    return _finish("mesh_gen", opts, checks, rows, ["vertices", "edges", "faces", "tets"])


def cmd_verify_tensor(opts):
    seed = _int_opt(opts, "seed", 0, 0)
    ts = _tol_scale(opts)
    rng = np.random.default_rng(seed)
    checks = []
    # 1: inverse identity
    err = max(
        np.abs(tensor_ops.s1_inv(tensor_ops.s1(W)) - W).max()
        for W in rng.standard_normal((100, 3, 3))
    )
    checks.append(_check("s1_inverse_identity", err, 1e-13 * ts))
    # 2: self-adjointness
    err = 0.0
    for _ in range(100):
        W, Q = rng.standard_normal((2, 3, 3))
        err = max(err, abs(np.sum(tensor_ops.s1(W) * Q) - np.sum(W * tensor_ops.s1(Q))))
    checks.append(_check("s1_by_parts", err, 1e-13 * ts))
    # 3: s2 equals the axial-vector form
    err = max(
        np.abs(tensor_ops.s2(U) - tensor_ops.vec_of_antisym(U.T - U)).max()
        for U in rng.standard_normal((100, 3, 3))
    )
    checks.append(_check("s2_axial_form", err, 1e-13 * ts))
    # 4: div s1 W + s2 curl W = 0 as polynomials
    err = 0.0
    for _ in range(20):
        W = rng.standard_normal((9, mo.count(3, 3)))
        s1W = np.einsum("pq,qn->pn", tensor_ops.S1_MATRIX, W)
        div_s1 = ps.differentiate(s1W, 3, "div")
        curlW = ps.differentiate(W, 3, "curl")
        s2curl = np.einsum("pq,qn->pn", tensor_ops.S2_MATRIX, curlW)
        err = max(err, np.abs(div_s1 + s2curl).max())
    checks.append(_check("div_s1_plus_s2_curl", err, 1e-12 * ts))
    # 5: zero tangential traces force zero normal trace of s1 W
    err = _trace_lemma_error(rng, 10)
    checks.append(_check("tangential_normal_trace", err, 1e-11 * ts))
    # 6: similarity transform of s1 under the edge pullback
    err = 0.0
    for _ in range(100):
        A = rng.standard_normal((3, 3)) + 3 * np.eye(3)
        What = rng.standard_normal((3, 3))
        W = A @ What @ np.linalg.inv(A)
        lhs = tensor_ops.s1(W)
        rhs = np.linalg.inv(A).T @ tensor_ops.s1(What) @ A.T
        err = max(err, np.abs(lhs - rhs).max() / max(1.0, np.abs(rhs).max()))
    checks.append(_check("s1_similarity_transform", err, 1e-12 * ts))
    rows = [dict(check=c["name"], error=c["value"], tol=c["tol"], passed=c["pass"])
            for c in checks]
    return _finish("verify_tensor", opts, checks, rows, ["check", "error", "tol", "passed"])


def _trace_lemma_error(rng, n_samples, deg=3, face=0):
    """Max L2(F) norm of s1(W).n for W with zero tangential traces on F."""
    full = np.eye(9 * mo.count(3, deg)).reshape(-1, 9, mo.count(3, deg))
    tr = ps.trace(full, deg, face, "tangential-face")   # (nb, 3, 2, n2)
    rows = tr.reshape(full.shape[0], -1).T
    combos = linalg.nullspace(rows)
    frame = ps.REF_FACE_FRAMES[face]
    rule = quadrature.rule_for(2, 2 * deg + 2)
    y = rule.points @ (frame.yverts[1:] - frame.yverts[0]) + frame.yverts[0]
    pts3 = frame.to_x(y)
    err = 0.0
    for _ in range(n_samples):
        w = combos.T @ rng.standard_normal(combos.shape[0])
        W = np.einsum("b,bcn->cn", w, full)
        s1W = np.einsum("pq,qn->pn", tensor_ops.S1_MATRIX, W)
        vals = mo.evaluate(s1W.reshape(3, 3, -1), 3, deg, pts3)   # (3,3,q)
        sn = np.einsum("ijq,j->iq", vals, frame.normal)
        norm = np.sqrt(np.sum(rule.weights * np.sum(sn**2, axis=0)) * 2 * frame.area)
        scale = max(np.abs(W).max(), 1.0)
        err = max(err, norm / scale)
    return err


def cmd_verify_spaces(opts):
    ts = _tol_scale(opts)
    checks = []
    err = max(
        abs(ps.basis_full("lambda3", r).dim - (r + 1) * (r + 2) * (r + 3) // 6)
        for r in range(7)
    )
    checks.append(_check("dim_scalar_spaces", err, 0))
    err = 0
    for r in range(5):
        err = max(err, abs(ps.basis_full("lambda2_minus", r).dim - ps.dim_lambda2_minus(r)))
        err = max(err, abs(ps.basis_full("lambda1_minus", r).dim - ps.dim_lambda1_minus(r)))
    checks.append(_check("dim_trimmed_spaces", err, 0))
    err = max(
        abs(ps.curl_image_basis(r).dim - (2 * r + 5) * r * (r - 1) // 2)
        for r in range(1, 6)
    )
    checks.append(_check("dim_curl_image", err, 0))
    # ring members have vanishing traces
    worst = 0.0
    for r in [2, 3]:
        ring = ps.basis_ring("lambda2_minus", r)
        for f in range(4):
            if ring.dim:
                worst = max(worst, np.abs(ps.trace(ring.coeffs, r, f, "normal")).max())
    checks.append(_check("ring_zero_traces", worst, 1e-12 * ts))
    # variable-order trace degrees
    worst = 0.0
    ro = ps.RefOrders(3, (1, 2, 1, 3), (1, 1, 1, 1, 1, 1))
    b = ps.basis_variable("lambda2", ro)
    for f in range(4):
        tr = ps.trace(b.coeffs, b.deg, f, "normal")
        cut = mo.count(2, ro.faces[f])
        if cut < tr.shape[-1]:
            worst = max(worst, np.abs(tr[:, cut:]).max())
    checks.append(_check("variable_trace_degrees", worst, 1e-11 * ts))
    rows = [dict(check=c["name"], error=c["value"], tol=c["tol"], passed=c["pass"])
            for c in checks]
    return _finish("verify_spaces", opts, checks, rows, ["check", "error", "tol", "passed"])


def cmd_verify_commute(opts):
    seed = _int_opt(opts, "seed", 0, 0)
    ts = _tol_scale(opts)
    mesh, file_orders = _get_mesh(opts)
    orders = _get_orders(mesh, opts, file_orders)
    n_samples = _int_opt(opts, "samples", 3, 0)
    res = sl.commuting_diagram_suite(mesh, orders, n_samples=n_samples, seed=seed)
    checks = [
        _check("diagram1_div_full", res["d1"], 1e-9 * ts),
        _check("diagram2_div_trimmed", res["d2"], 1e-9 * ts),
        _check("diagram3_s1_stabilized", res["d3"], 1e-8 * ts),
    ]
    rows = [dict(diagram=c["name"], residual=c["value"], tol=c["tol"], passed=c["pass"])
            for c in checks]
    return _finish("verify_commute", opts, checks, rows,
                   ["diagram", "residual", "tol", "passed"])


def cmd_infsup(opts):
    ts = _tol_scale(opts)
    material = _material(opts)
    try:
        levels = [int(x) for x in str(opts.get("levels") or "1,2").split(",") if x]
    except ValueError as exc:
        raise ConfigError(f"infsup --levels is a comma list of n: {exc}") from exc
    if not levels or min(levels) < 1:
        raise ConfigError(f"infsup --levels is a comma list of n >= 1, not {opts['levels']!r}")
    rows = []
    betas = []
    for n in levels:
        mesh = unit_cube_mesh(n)
        orders = _get_orders(mesh, opts)
        system = assembly.assemble(mesh, orders, material, None)
        beta = sl.infsup_constant(mesh, orders, material, system)
        kc = sl.kernel_coercivity(mesh, orders, material, system)
        betas.append(beta)
        rows.append(
            dict(n=n, ndof=system.dofmap.n_total, beta=beta,
                 kernel_ratio=kc.ratio, kernel_dim=kc.kernel_dim)
        )
    # np.min and np.max, unlike min and max, pass a NaN on to its check
    checks = [_check("beta_positive", -np.min(betas), -1e-6)]
    if len(betas) > 1:
        drift = (np.max(betas) - np.min(betas)) / np.max(betas)
        checks.append(_check("beta_drift", drift, 0.20 * ts))
    bound = material.compliance_lower_bound
    worst = np.min([r["kernel_ratio"] for r in rows if r["kernel_dim"]], initial=np.inf)
    checks.append(_check("kernel_coercivity_gap", bound - worst, 1e-9 * ts))
    return _finish("infsup", opts, checks, rows,
                   ["n", "ndof", "beta", "kernel_ratio", "kernel_dim"])


def cmd_solve(opts):
    ts = _tol_scale(opts)
    material = _material(opts)
    mesh, file_orders = _get_mesh(opts)
    orders = _get_orders(mesh, opts, file_orders)
    case_name = opts.get("case") or "taylor"
    if case_name == "patch":
        case = assembly.ManufacturedCase.constant_stress(material)
    elif case_name == "sine":
        case = assembly.ManufacturedCase.sine_cube(material)
    elif case_name == "taylor":
        case = sl.default_convergence_case(material)
    else:
        raise ConfigError(f"unknown case {case_name!r} (patch, sine, taylor)")
    system, sol = assembly.solve_case(mesh, orders, case)
    errs = assembly.error_norms(mesh, orders, sol, case, quad_deg=10)
    out = _outdir(opts)
    assembly.export_solution(os.path.join(out, "solution"), mesh, orders, sol)
    rows = [dict(ndof=system.dofmap.n_total, sigma_l2=errs.sigma_l2,
                 sigma_hdiv=errs.sigma_hdiv, u_l2=errs.u_l2, p_l2=errs.p_l2)]
    checks = []
    if case_name == "patch":
        checks.append(_check("patch_sigma_error", errs.sigma_l2, 1e-10 * ts))
        checks.append(_check("patch_rotation_error", errs.p_l2, 1e-10 * ts))
    else:
        checks.append(_check("solve_finite", 0.0 if np.isfinite(errs.total) else 1.0, 0.5))
    return _finish("solve", opts, checks, rows,
                   ["ndof", "sigma_l2", "sigma_hdiv", "u_l2", "p_l2"])


def cmd_converge(opts):
    ts = _tol_scale(opts)
    material = _material(opts)
    r = _int_opt(opts, "r", 0, 0, R_MAX_CAP)
    n_levels = str(opts.get("levels") or 3)
    if not n_levels.isdigit() or int(n_levels) < 1:
        raise ConfigError(f"converge --levels is a number of levels >= 1, not {n_levels!r}")
    levels = [2**k for k in range(int(n_levels))]
    case = sl.default_convergence_case(material)
    rows = [{k: v for k, v in row.items() if k != "runtime"}
            for row in sl.convergence_study(case, r, levels=levels)]
    last = rows[-1]
    checks = []
    if len(rows) > 1:
        if r == 0:
            checks.append(_check("last_rate_deficit", max(0.9 - last["rate"], 0.0), 0.0))
        else:
            checks.append(
                _check("last_u_rate_deficit", max(1.9 - last["rate_u"], 0.0), 0.0)
            )
        ratios = [row["quasi_ratio"] for row in rows]
        drift = (np.max(ratios) - np.min(ratios)) / np.max(ratios)
        checks.append(_check("quasi_ratio_drift", drift, 0.30 * ts))
    cols = ["n", "h", "ndof", "sigma_l2", "sigma_hdiv", "u_l2", "p_l2", "total",
            "best_total", "quasi_ratio", "rate", "rate_u"]
    return _finish("converge", opts, checks, rows, cols)


# ---------------------------------------------------------------------------

# option key (the argparse dest and the config-file key) -> flag, add_argument kwargs
FLAGS = {
    "config": ("--config", dict(help="key=value file; flags take precedence")),
    "out": ("--out", dict(help="output directory (default afw3d-out)")),
    "seed": ("--seed", dict(type=int, help="random seed, recorded in reports")),
    "tol_scale": ("--tol-scale", dict(type=float,
                                      help="multiply every check tolerance by this factor")),
    "mesh": ("--mesh", dict(help="mesh file (afw3d-mesh v1)")),
    "n": ("--n", dict(type=int, help="unit-cube subdivisions")),
    "r": ("--r", dict(type=int, help="uniform polynomial order")),
    "orders": ("--orders", dict(help="comma list of per-tet orders (min rule)")),
    "lame_lambda": ("--lambda", dict(type=float, help="Lame lambda")),
    "mu": ("--mu", dict(type=float, help="Lame mu")),
    "samples": ("--samples", dict(type=int, help="sampled fields per diagram")),
    "case": ("--case", dict(help="patch | sine | taylor")),
    "levels": ("--levels", dict()),
}
LEVELS_HELP = {
    "infsup": "comma list of n (default 1,2)",
    "converge": "number of levels, n = 1, 2, 4, ... (default 3)",
}

# (subcommand, function, help, the option keys it reads)
COMMON = ("seed", "out", "tol_scale", "config")
COMMANDS = (
    ("mesh gen", cmd_mesh_gen, "generate a unit-cube mesh",
     ("n", "orders", "mesh", "seed", "out", "config")),
    ("verify tensor", cmd_verify_tensor, "tensor-operator identities", COMMON),
    ("verify spaces", cmd_verify_spaces, "polynomial-space dimensions and traces",
     ("out", "tol_scale", "config")),
    ("verify commute", cmd_verify_commute, "commuting-diagram residuals",
     ("n", "r", "orders", "mesh", "samples") + COMMON),
    ("infsup", cmd_infsup, "inf-sup constant and kernel coercivity",
     ("r", "orders", "levels", "lame_lambda", "mu") + COMMON),
    ("solve", cmd_solve, "solve a manufactured case",
     ("n", "r", "orders", "mesh", "lame_lambda", "mu", "case") + COMMON),
    ("converge", cmd_converge, "h-convergence study",
     ("r", "levels", "lame_lambda", "mu") + COMMON),
)


def build_parser():
    p = argparse.ArgumentParser(prog="afw3d", description=__doc__)
    sub = p.add_subparsers(dest="command")
    groups = {
        name: sub.add_parser(name, help=text).add_subparsers(dest="subcommand")
        for name, text in (("mesh", "mesh utilities"), ("verify", "verification suites"))
    }
    for name, fn, text, keys in COMMANDS:
        *group, leaf = name.split()
        cp = (groups[group[0]] if group else sub).add_parser(leaf, help=text)
        for key in keys:
            flag, kwargs = FLAGS[key]
            if key == "levels":
                kwargs = dict(kwargs, help=LEVELS_HELP[name])
            cp.add_argument(flag, dest=key, **kwargs)
        cp.set_defaults(func=fn, keys=keys)
    return p


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    func = getattr(args, "func", None)
    if func is None:
        parser.print_help()
        return EXIT_CONFIG_ERROR
    try:
        return func(_merged(args, args.keys))
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG_ERROR
    except NUMERICAL_FAILURES as exc:
        print(f"numerical failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL_FAILURE


if __name__ == "__main__":
    sys.exit(main())
