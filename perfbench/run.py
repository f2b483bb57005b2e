"""afw3d benchmark runner.

    python3 perfbench/run.py --workload h-uniform|p-mixed|lab|all \
        [--seed 1] [--seconds 40] [--trace 0|1]

Runs samples of one workload until --seconds have passed, one sample at a
time, each in a fresh Python process (perfbench/sample.py), so every sample
pays the cold per-signature caches as every `afw3d` CLI call does. BLAS
libraries run on one thread. Every operation of every sample is checked, a
record of the run is written to .perfbench/, and the last line of stdout is
one JSON object: {"correct", "attempted", "failed", "metrics"}.

With --trace 0 the metrics are the end-to-end ones, medians over samples.
With --trace 1 each round runs an untraced and a traced sample, and the
metrics are the per-layer ones; trace.overhead_s is the traced minus the
untraced median run time. See perfbench/README.md.
"""

import argparse
import hashlib
import json
import math
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("h-uniform", "p-mixed", "lab")
BLAS_THREADS = 1
MIN_ROUNDS = {0: 3, 1: 1}
SAMPLE_TIMEOUT_S = 150
REL_TOL = 1e-6      # agreement with references.json (summation-order noise ~3e-8)

END_TO_END = {"setup_s": "s", "run_s": "s", "peak_rss_mb": "MB"}
PER_LAYER = {
    "mesh.build_s": "s",
    "mesh.n_tets": "count",
    "mesh.signatures": "count",
    "mesh.sig_share": "ratio",
    "polyspace.sig_build_s": "s",
    "interp.workspace_s": "s",
    "interp.space_s": "s",
    "interp.space_dofs": "count",
    "interp.elem_lu_flops": "flop",
    "assembly.assemble_s": "s",
    "assembly.ndof": "count",
    "assembly.nnz": "count",
    "assembly.error_norms_s": "s",
    "linalg.solve_s": "s",
    "linalg.fill_nnz": "count",
    "linalg.fill_ratio": "ratio",
    "stability_lab.infsup_s": "s",
    "stability_lab.kernel_s": "s",
    "stability_lab.kernel_dim": "count",
    "stability_lab.commute_s": "s",
    "stability_lab.gate_margin": "ratio",
    "trace.run_s": "s",
    "trace.untraced_run_s": "s",
    "trace.overhead_s": "s",
    "trace.unspanned_s": "s",
}
# The layer times that partition a traced sample's run_s.
RUN_PARTS = ("interp.workspace_s", "interp.space_s", "assembly.assemble_s",
             "polyspace.sig_build_s", "linalg.solve_s", "assembly.error_norms_s",
             "stability_lab.infsup_s", "stability_lab.kernel_s",
             "stability_lab.commute_s", "trace.unspanned_s")


class BenchError(Exception):
    pass


# ---------------------------------------------------------------------------
# correctness

def _gate(name, value, tol):
    """A CLI check: passes when value <= tol, as cli._check decides."""
    return {"name": name, "value": value, "tol": tol, "pass": value <= tol}


def _reference(refs, workload, seed, op_name):
    if workload == "h-uniform":
        return refs["h-uniform"]["error_total"]
    if workload == "p-mixed":
        return refs["p-mixed"]["error_total"].get(str(seed))
    if op_name.startswith("infsup_n"):
        return refs["lab"]["beta"].get(op_name[len("infsup_n"):])
    return None


def check_sample(workload, seed, ops, refs):
    """Verdict for each operation of one sample.

    An operation fails if it raised, gave a non-finite value, moved from its
    reference by more than REL_TOL relative, or missed its CLI gate at that
    gate's tolerance. The first three make its output wrong; a gate miss
    leaves the output as the program computes it, so it only fails the op.
    """
    betas = [op["beta"] for op in ops if op["name"].startswith("infsup_n") and "beta" in op]
    last_infsup = max((op["name"] for op in ops if op["name"].startswith("infsup_n")),
                      default=None)
    verdicts = []
    for op in ops:
        name = op["name"]
        v = {"name": name, "wrong": [], "gates": []}
        verdicts.append(v)
        if "error" in op:
            v["wrong"].append(f"raised {op['error']}")
            continue
        values = {k: x for k, x in op.items() if k != "name"}
        bad = [k for k, x in values.items() if not math.isfinite(x)]
        if bad:
            v["wrong"].append("non-finite " + ", ".join(bad))
            continue
        if name == "solve":
            value = op["error_total"]
        elif name.startswith("infsup_n"):
            value = op["beta"]
            v["gates"].append(_gate("beta_positive", -value, -1e-6))
            if name == last_infsup and len(betas) > 1:
                drift = (max(betas) - min(betas)) / max(betas)
                v["gates"].append(_gate("beta_drift", drift, 0.20))
        elif name.startswith("kernel_n"):
            value = None
            v["gates"].append(_gate("kernel_coercivity_gap", op["bound"] - op["ratio"], 1e-9))
        elif name == "commute":
            value = None
            v["gates"] += [_gate("diagram1_div_full", op["d1"], 1e-9),
                           _gate("diagram2_div_trimmed", op["d2"], 1e-9),
                           _gate("diagram3_s1_stabilized", op["d3"], 1e-8)]
        else:
            raise BenchError(f"unknown operation {name!r}")
        if value is not None:
            ref = v["reference"] = _reference(refs, workload, seed, name)
            if ref is not None and abs(value - ref) > REL_TOL * abs(ref):
                v["wrong"].append(f"{value!r} differs from reference {ref!r}")
    for v in verdicts:
        v["failed"] = bool(v["wrong"]) or not all(g["pass"] for g in v["gates"])
    return verdicts


def gate_margin(verdicts):
    """Worst value/tolerance over the gates with a positive tolerance."""
    ratios = [g["value"] / g["tol"] for v in verdicts for g in v["gates"] if g["tol"] > 0]
    return max(ratios, default=0.0)


# ---------------------------------------------------------------------------
# running samples

def _sample_env():
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    return env


def run_sample(workload, seed, traced):
    cmd = [sys.executable, str(HERE / "sample.py"), workload, str(seed),
           str(time.monotonic_ns()), "1" if traced else "0"]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=_sample_env(), capture_output=True,
                              text=True, timeout=SAMPLE_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"sample exceeded {SAMPLE_TIMEOUT_S} s") from exc
    if proc.returncode != 0:
        raise BenchError(f"sample exited with {proc.returncode}:\n{proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_rounds(workload, seed, seconds, trace):
    """Rounds of samples until the next round would end after `seconds`."""
    kinds = (False, True) if trace else (False,)
    samples = []
    t0 = time.perf_counter()
    rounds = 0
    while True:
        for traced in kinds:
            s = run_sample(workload, seed, traced)
            s["traced"] = traced
            samples.append(s)
        rounds += 1
        elapsed = time.perf_counter() - t0
        if rounds >= MIN_ROUNDS[trace] and elapsed * (rounds + 1) / rounds > seconds:
            return samples


# ---------------------------------------------------------------------------
# metrics and record

def _median(samples, key):
    return statistics.median(s[key] for s in samples)


def metrics_of(samples, verdicts, trace):
    untraced = [s for s in samples if not s["traced"]]
    if not trace:
        values = {k: _median(untraced, k) for k in END_TO_END}
        units = END_TO_END
    else:
        traced = [s for s in samples if s["traced"]]
        values = {k: statistics.median(s["layers"][k] for s in traced)
                  for k in traced[0]["layers"]}
        values["stability_lab.gate_margin"] = gate_margin(verdicts)
        values["trace.run_s"] = _median(traced, "run_s")
        values["trace.untraced_run_s"] = _median(untraced, "run_s")
        values["trace.overhead_s"] = values["trace.run_s"] - values["trace.untraced_run_s"]
        units = PER_LAYER
    if set(values) != set(units):
        raise BenchError(f"metric names {sorted(values)} do not match {sorted(units)}")
    return {k: {"value": values[k], "unit": units[k]} for k in units}


def _git_sha():
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def _src_digest():
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def environment_record(seed, n_samples):
    import numpy
    import scipy

    return {
        "git_sha": _git_sha(),
        "src_sha256": _src_digest(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas_threads": BLAS_THREADS,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "seed": seed,
        "sample_count": n_samples,
    }


def run_workload(workload, seed, seconds, trace, refs):
    samples = run_rounds(workload, seed, seconds, trace)
    verdicts = [check_sample(workload, seed, s["ops"], refs) for s in samples]
    flat = [v for vs in verdicts for v in vs]
    metrics = metrics_of(samples, verdicts[-1], trace)
    result = {
        "correct": not any(v["wrong"] for v in flat),
        "attempted": len(flat),
        "failed": sum(v["failed"] for v in flat),
        "metrics": metrics,
    }
    record = {"workload": workload, "trace": trace,
              **environment_record(seed, len(samples)),
              "result": result, "verdicts": verdicts, "samples": samples}
    out_dir = ROOT / ".perfbench"
    out_dir.mkdir(exist_ok=True)
    path = out_dir / f"{workload}-seed{seed}-trace{trace}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")
    report(workload, seed, trace, samples, verdicts[-1], result, path)
    return result


def report(workload, seed, trace, samples, last_verdicts, result, path):
    print(f"workload {workload}  seed {seed}  trace {trace}  samples {len(samples)}  "
          f"BLAS threads {BLAS_THREADS}")
    for name, m in result["metrics"].items():
        print(f"  {name:<28} {m['value']:>14.6g} {m['unit']}")
    if trace:
        parts = sum(result["metrics"][k]["value"] for k in RUN_PARTS)
        print(f"  layer times sum to {parts:.6g} s; trace.run_s is "
              f"{result['metrics']['trace.run_s']['value']:.6g} s")
    frac = result["failed"] / result["attempted"]
    print(f"  {'ops_failed_frac':<28} {frac:>14.6g} 1  "
          f"({result['failed']} of {result['attempted']} operations failed)")
    for v in last_verdicts:
        for g in v["gates"]:
            if not g["pass"]:
                print(f"  FAIL {v['name']}: {g['name']} {g['value']:.3e} > tol {g['tol']:.1e}")
        for w in v["wrong"]:
            print(f"  WRONG {v['name']}: {w}")
        if "reference" in v and v["reference"] is None:
            print(f"  note {v['name']}: no recorded reference for this seed")
    print(f"  record: {path.relative_to(ROOT)}")


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=40)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    # SIGTERM becomes SystemExit, so subprocess.run kills and reaps a running sample
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (ROOT / "src" / "afw3d" / "__init__.py").is_file():
        print(f"perfbench: afw3d sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    refs = json.loads((HERE / "references.json").read_text())
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    results = []
    try:
        for w in workloads:
            results.append(run_workload(w, args.seed, args.seconds, args.trace, refs))
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    for r in results:
        print(json.dumps(r))
    return 0


if __name__ == "__main__":
    sys.exit(main())
