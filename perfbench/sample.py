"""One sample of a workload, in a fresh process started by run.py.

    python3 perfbench/sample.py --root DIR --workload NAME --seed N
                                [--trace] [--setup-only]

Imports the package from DIR/src first and notes the time (set-up ends
there), then runs the workload's CLI calls in-process through
lensdirac.cli.main, checks every answer and prints one JSON line.

The host's speed drifts by tens of percent over minutes, for this process
and for any other.  So fixed work that calls nothing in the package, the
probe, is timed before the first call and after every call; run.py
scales the sample's times by how fast the probe ran (see run.py).
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import io
import json
import resource
import time
from pathlib import Path

import numpy as np


def blas_info() -> dict:
    """OpenBLAS version and thread count as the loaded library reports."""
    info = {"numpy": np.__version__, "blas": None, "blas_threads": None}
    try:
        info["blas"] = np.__config__.CONFIG["Build Dependencies"]["blas"]["version"]
    except (AttributeError, KeyError, TypeError):
        pass
    with open("/proc/self/maps") as fh:
        libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    for path in libs:
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                     "openblas_get_num_threads"):
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                info["blas_threads"] = fn()
                return info
    return info


PROBE_ITERATIONS = 25_000
PROBE_REPEATS = 3


def probe_keys() -> np.ndarray:
    """The probe's numpy input: 2**20 fixed int64 keys below 2**16 (8 MB)."""
    return np.random.default_rng(0).integers(0, 1 << 16, size=1 << 20)


def probe(keys: np.ndarray) -> list[float]:
    """Seconds taken by each of PROBE_REPEATS runs of fixed work that
    calls nothing in the package: a pure-Python integer loop, which
    follows the interpreter's speed, then a bincount over `keys`, which
    follows the speed of memory-bound numpy code."""
    times = []
    for _ in range(PROBE_REPEATS):
        started = time.perf_counter()
        total = 0
        for i in range(PROBE_ITERATIONS):
            total += i * i
        np.bincount(keys, minlength=1 << 16)
        times.append(time.perf_counter() - started)
    return times


def cpu_seconds() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def run_cli(argv) -> tuple[int, str, float]:
    import lensdirac.cli

    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        started = time.perf_counter()
        rc = lensdirac.cli.main(list(argv))
        elapsed = time.perf_counter() - started
    return rc, out.getvalue(), elapsed


def main(args, imported: float) -> dict:
    import lensdirac
    from lensdirac import lattice

    import spans
    import workloads

    root = Path(args.root).resolve()
    pkg = Path(lensdirac.__file__).resolve()
    if root / "src" not in pkg.parents:
        raise SystemExit(f"lensdirac imported from {pkg}, not from {root / 'src'}")
    result = {"imported": imported, "env": blas_info()}
    if args.setup_only:
        keys = probe_keys()
        result["probe_s"] = [t for _ in range(5) for t in probe(keys)]
        return result

    out_dir = root / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    if args.workload == "queries":
        plan = workloads.query_plan(args.seed, workloads.load_pool())
        calls = [q.argv for q in plan]
    else:
        plan = workloads.census_plan(args.workload)
        calls = [c.argv(out_dir) for c in plan]
        for c in plan:
            for path in c.files(out_dir):
                path.unlink(missing_ok=True)

    tracer = spans.Tracer() if args.trace else None
    restore = spans.install(tracer) if tracer else None
    outcomes, ops, cpus = [], [], []
    keys = probe_keys()
    probes = probe(keys)
    for argv in calls:
        if args.workload == "queries":
            lattice.clear_caches()
        cpu0 = cpu_seconds()
        rc, text, elapsed = run_cli(argv)
        cpus.append(cpu_seconds() - cpu0)
        ops.append(elapsed)
        outcomes.append((rc, text))
        probes += probe(keys)
    if restore:
        restore()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    failures = []
    if args.workload == "queries":
        for q, (rc, text) in zip(plan, outcomes):
            if not workloads.query_ok(q, rc, text):
                failures.append(" ".join(q.argv) + f" -> exit {rc}")
        items = len(plan)
    else:
        items = 0
        for c, (rc, _) in zip(plan, outcomes):
            bad = (list(range(c.q_min, c.q_max + 1)) if rc != 0
                   else workloads.census_failures(c, out_dir))
            failures += [f"n={c.n} q={q}" for q in bad]
            if rc == 0:
                items += workloads.census_classes(c, out_dir)
    result.update({
        "wall_s": sum(ops),
        "cpu_s": sum(cpus),
        "peak_rss_mb": peak_rss_mb,
        "items": items,
        "op_s": ops,
        "probe_s": probes,
        "attempted": len(plan),
        "failures": failures,
    })
    if tracer:
        result["trace"] = tracer.summary()
        with open(out_dir / f"spans-{args.workload}.csv", "w") as fh:
            fh.write("id,parent,name,start,end,q,m\n")
            for sid, parent, name, start, end, q, m, _ in tracer.spans:
                fh.write(f"{sid},{parent},{name},{start!r},{end!r},{q},{m}\n")
    return result


if __name__ == "__main__":
    parser = argparse.ArgumentParser()
    parser.add_argument("--root", required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    cli_args = parser.parse_args()
    import lensdirac.cli  # noqa: F401  (set-up ends when this import does)

    print(json.dumps(main(cli_args, time.monotonic())))
