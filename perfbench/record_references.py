"""Print the reference values that run.py checks outputs against.

    PYTHONPATH=src OPENBLAS_NUM_THREADS=1 python3 perfbench/record_references.py \
        > perfbench/references.json

Records the h-uniform error total, the lab inf-sup constants and the p-mixed
error total for seeds 0..P_MIXED_SEEDS-1. Re-record only in a change that
alters these numbers on purpose, and say so in that change.
"""

import json

import sample

P_MIXED_SEEDS = 32


def _values(workload, seed):
    levels = sample.build_levels(workload, seed)
    case = None if workload == "lab" else sample.sl.default_convergence_case()
    run = sample.run_lab if workload == "lab" else sample.run_solve
    return {op["name"]: op for op in run(levels, case, sample.Tracer(False), [])}


def main():
    lab = _values("lab", 1)
    refs = {
        "h-uniform": {"error_total": _values("h-uniform", 1)["solve"]["error_total"]},
        "p-mixed": {"error_total": {
            str(s): _values("p-mixed", s)["solve"]["error_total"]
            for s in range(P_MIXED_SEEDS)}},
        "lab": {"beta": {name[len("infsup_n"):]: op["beta"]
                         for name, op in lab.items() if name.startswith("infsup_n")}},
    }
    print(json.dumps(refs, indent=1))


if __name__ == "__main__":
    main()
