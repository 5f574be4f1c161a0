"""mixopt benchmark: one seeded run of one workload.

    python3 perfbench/run.py --workload field_train --seed 0 --seconds 30 --trace 0

Run from the repository root. Every run executes the whole pipeline (field
training, GA sweep, PPO training and policy queries) in this one process;
``--workload`` picks the stage that gets the rest of the ``--seconds``
measuring budget. With ``--trace 0`` it prints the end-to-end metrics, with
``--trace 1`` the per-layer split from in-memory spans (written to
``.bench_out/`` at the end). The last line of standard output is one JSON
object; the exit code is non-zero if any output check fails.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def single_thread_blas() -> None:
    """One BLAS thread, set before numpy loads.

    The run has one caller. On a 2-CPU machine two BLAS threads were no
    faster for these matrix sizes (blocks of 1024 x 64), and one thread keeps
    each timing exposed to the load on one CPU only.
    """
    for var in BLAS_VARS:
        os.environ[var] = "1"


def blas_threads() -> int | None:
    """Threads OpenBLAS actually uses, read from the loaded library."""
    import ctypes
    import glob

    import numpy as np

    libdir = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    for path in glob.glob(os.path.join(libdir, "*openblas*")):
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                     "openblas_get_num_threads"):
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def run_record() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name, blas_version = blas.get("name"), blas.get("version")
    except (TypeError, KeyError):
        blas_name = blas_version = None
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name,
        "blas_version": blas_version,
        "blas_threads": blas_threads(),
        "blas_thread_env": {v: os.environ[v] for v in BLAS_VARS},
        "nproc": nproc(),
        "cpu": cpu_model(),
    }


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=("field_train", "ga_sweep", "ppo_policy"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "mixopt", "__init__.py")):
        print(f"mixopt sources not found under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    single_thread_blas()
    sys.path[:0] = [SRC, HERE]

    import logging

    # degenerate designs log one warning each; the run counts them instead
    logging.getLogger("mixopt").addHandler(logging.NullHandler())

    import pipeline
    import report

    record = run_record()
    print("# run record: " + json.dumps(record, sort_keys=True))
    os.makedirs(OUT, exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    rec = pipeline.Recorder(traced=bool(args.trace))
    try:
        with tempfile.TemporaryDirectory(dir=OUT) as workdir:
            stages, inputs = pipeline.run(args.workload, args.seed, args.seconds, rec, workdir)
    except pipeline.CheckFailed as exc:
        print(f"output check failed: {exc}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": max(rec.attempted, 1),
                          "failed": rec.failed, "metrics": {}}))
        return 1

    if args.trace:
        named = report.per_layer(rec, stages, inputs)
        trace_path = os.path.join(OUT, f"trace-{tag}.jsonl")
        rec.tracer.write_jsonl(trace_path)
        print(f"# spans: {len(rec.tracer.spans)} written to {os.path.relpath(trace_path, ROOT)}")
        extra = {}
    else:
        named = report.end_to_end(rec, stages)
        extra = {"raw": report.raw(rec)}
        print("# before gauge rescaling: " + json.dumps(extra["raw"], sort_keys=True))
    metrics = {k: {"value": v, "unit": u} for k, (v, u) in named.items()}
    for k, m in metrics.items():
        print(f"# {k} = {m['value']!r} {m['unit']}")
    result = {"correct": True, "attempted": rec.attempted, "failed": rec.failed,
              "metrics": metrics}
    with open(os.path.join(OUT, f"result-{tag}.json"), "w") as fh:
        json.dump({"record": record, "args": vars(args), **extra, **result}, fh, indent=1,
                  sort_keys=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
