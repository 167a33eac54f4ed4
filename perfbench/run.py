"""Benchmark entry point for lensdirac.

    python3 perfbench/run.py --workload census-d7|census-hi|queries
                             --seed N --seconds S --trace 0|1

Run from the root of a source checkout: the package is imported from its
src/ directory, never from an installed copy.  Each sample is a fresh
process (perfbench/sample.py) with LENSDIRAC_THREADS, OPENBLAS_NUM_THREADS
and OMP_NUM_THREADS removed from its environment, so the program's own
defaults are measured.  Samples repeat while one more of average length
fits in S seconds; every answer is checked.  Times are scaled to a fixed
host speed: each process also times fixed work that calls nothing in the
package (the probe, sample.probe) before its first call and after every
call, and its times are multiplied by PROBE_NOMINAL_S over the median
probe time.  This
host's speed drifts by tens of percent over minutes; the probe takes that
out of the comparison between two versions of the program.  The raw
times and the probe times are in the BENCH record.  The last line of standard
output is one JSON object with the keys correct, attempted, failed and
metrics: the end-to-end metrics (medians over samples) with --trace 0, the
per-layer metrics of the traced samples with --trace 1.  Machine details and
every sample go to .perfbench_out/BENCH_<workload>_seed<N>_trace<T>.json.
A sample still running at the deadline (DEADLINE_S after start) is killed
and dropped: it is not a failed operation.  If that leaves nothing to
report and no answer was wrong, the run prints no result and exits 3.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("census-d7", "census-hi", "queries")
SCRUBBED = ("LENSDIRAC_THREADS", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
DEADLINE_S = 170.0
SETUP_PROBES = 5
# the probe's median time on the 2-core machine where this was written
PROBE_NOMINAL_S = 5.0e-3

CALLS = ("search.enumerate_classes", "spectrum.fingerprint",
         "lattice.reduced_counts", "lattice.count", "spectrum.multiplicity",
         "spectrum.dirac_isospectral", "lens.find_isometry",
         "oracle.oracle_compare")
SELF = ("search.enumerate_classes", "lens.self_transport_pairs",
        "spectrum.fingerprint", "lattice.reduced_counts", "lattice.count",
        "spectrum.spectrum_table", "spectrum.multiplicity", "search.run_census",
        "search.save_results", "search.export_csv", "lens.find_isometry",
        "lens.canonical_key", "search.verify_family",
        "oracle.generating_coeffs", "cli.main")


class SampleFailed(Exception):
    pass


class SampleTimeout(Exception):
    pass


def host_speed(probe_s: list[float]) -> float:
    """The factor that scales a process's times to the host speed at
    which the probe takes PROBE_NOMINAL_S."""
    return PROBE_NOMINAL_S / statistics.median(probe_s)


def spawn(workload: str, seed: int, *, trace: bool = False,
          setup_only: bool = False, timeout: float) -> dict:
    """Run one sample process and return its report plus setup_s."""
    cmd = [sys.executable, str(HERE / "sample.py"), "--root", str(ROOT),
           "--workload", workload, "--seed", str(seed)]
    cmd += ["--trace"] * trace + ["--setup-only"] * setup_only
    env = {k: v for k, v in os.environ.items() if k not in SCRUBBED}
    env["PYTHONPATH"] = str(ROOT / "src")
    started = time.monotonic()
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True,
                              text=True, timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        raise SampleTimeout(f"timeout after {timeout:.0f} s")
    if proc.returncode != 0 or not proc.stdout.strip():
        raise SampleFailed(f"sample exited {proc.returncode}: "
                           f"{proc.stderr.strip()[-2000:]}")
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    report["speed"] = host_speed(report["probe_s"])
    report["setup_s"] = (report["imported"] - started) * report["speed"]
    return report


def percentile(values: list[float], pct: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def end_to_end(samples: list[dict], setups: list[float]) -> dict:
    """Medians over samples; times scaled by each sample's speed."""
    med = lambda f: statistics.median(f(s) for s in samples)  # noqa: E731
    ops_ms = [1000.0 * t * s["speed"] for s in samples for t in s["op_s"]]
    if not ops_ms:
        return {}
    return {
        "wall_s": (med(lambda s: s["wall_s"] * s["speed"]), "s"),
        "cpu_s": (med(lambda s: s["cpu_s"] * s["speed"]), "s"),
        "peak_rss_mb": (med(lambda s: s["peak_rss_mb"]), "MB"),
        "setup_s": (statistics.median(setups), "s"),
        "items_per_s": (med(lambda s: s["items"] / (s["wall_s"] * s["speed"])),
                        "1/s"),
        "op_p50_ms": (percentile(ops_ms, 50), "ms"),
        "op_p95_ms": (percentile(ops_ms, 95), "ms"),
    }


def layer_values(sample: dict) -> dict:
    tr = sample["trace"]
    by = tr["by_name"]
    out = {}
    for name in CALLS:
        out[f"{name}.calls"] = (by.get(name, {}).get("calls", 0), "count")
    for name in SELF:
        out[f"{name}.self_s"] = (by.get(name, {}).get("self_s", 0.0), "s")
    out["search.classes"] = (tr["classes"], "count")
    out["lattice.reduced_counts.distinct_inputs"] = (
        tr["distinct"].get("lattice.reduced_counts", 0), "count")
    out["bench.unattributed_s"] = (sample["wall_s"] - tr["root_s"], "s")
    out["bench.probe_ms"] = (1000.0 * statistics.median(sample["probe_s"]), "ms")
    return out


def per_layer(plain: list[dict], traced: list[dict]) -> dict:
    rows = [layer_values(s) for s in traced]
    out = {k: (statistics.median(r[k][0] for r in rows), unit)
           for k, (_, unit) in rows[0].items()}
    out["bench.trace_overhead_s"] = (
        statistics.median(s["wall_s"] * s["speed"] for s in traced)
        - statistics.median(s["wall_s"] * s["speed"] for s in plain), "s")
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (ROOT / "src" / "lensdirac" / "__init__.py").is_file():
        print(f"error: no package source at {ROOT / 'src' / 'lensdirac'}",
              file=sys.stderr)
        return 2

    t0 = time.monotonic()
    left = lambda: DEADLINE_S - (time.monotonic() - t0)  # noqa: E731
    info = {"workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace,
            "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "loadavg_start": os.getloadavg()}
    plain: list[dict] = []
    traced: list[dict] = []
    setups: list[float] = []
    error = timeout = None
    try:
        # the first import may write bytecode caches; it is not timed
        info.update(spawn(args.workload, args.seed, setup_only=True,
                          timeout=left())["env"])
        for _ in range(SETUP_PROBES):
            setups.append(spawn(args.workload, args.seed, setup_only=True,
                                timeout=left())["setup_s"])
        # a round is one sample, or an untraced and a traced one; another
        # round starts only if one as long as the mean fits in --seconds
        started = time.monotonic()
        rounds = 0
        while True:
            plain.append(spawn(args.workload, args.seed, timeout=left()))
            if args.trace:
                traced.append(spawn(args.workload, args.seed, trace=True,
                                    timeout=left()))
            rounds += 1
            spent = time.monotonic() - started
            if spent * (rounds + 1) / rounds > min(args.seconds, spent + left()):
                break
    except SampleFailed as exc:
        error = str(exc)
        print(f"error: {error}", file=sys.stderr)
    except SampleTimeout as exc:
        timeout = str(exc)
        print(f"error: sample dropped, {timeout}", file=sys.stderr)

    samples = plain + traced
    setups += [s["setup_s"] for s in samples]
    attempted = sum(s["attempted"] for s in samples) + (error is not None)
    failures = [f for s in samples for f in s["failures"]]
    failed = len(failures) + (error is not None)
    for line in failures[:20]:
        print(f"failed: {line}", file=sys.stderr)
    metrics = {}
    if plain and (traced or not args.trace):
        metrics = per_layer(plain, traced) if args.trace else end_to_end(plain, setups)
    result = {"correct": failed == 0 and bool(metrics),
              "attempted": max(attempted, 1), "failed": failed,
              "metrics": {k: {"value": v, "unit": u}
                          for k, (v, u) in metrics.items()}}

    info["loadavg_end"] = os.getloadavg()
    out_dir = ROOT / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    record = dict(info, error=error, timeout=timeout,
                  setup_probes_s=setups[:SETUP_PROBES], samples=samples,
                  result=result)
    path = out_dir / f"BENCH_{args.workload}_seed{args.seed}_trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps({"env": info, "timeout": timeout,
                      "plain_samples": len(plain),
                      "traced_samples": len(traced), "ops_per_sample":
                      [len(s["op_s"]) for s in plain],
                      "fail_ratio": failed / max(attempted, 1)}))
    if timeout and not metrics and not failed:
        return 3
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
