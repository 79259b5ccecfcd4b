"""Closed-loop benchmark of the transvector CLI.

    python3 perfbench/run.py --workload certify --seed 1 --seconds 20 --trace 0

One client sends each request through transvector.cli.run(argv) only after the
previous verdict returned, the way a CLI user or a CI job waits on a verifier.
Every verdict is checked against its known answer (perfbench/mixes.py).  The
last line of stdout is one JSON object: end-to-end metrics (times scaled to a
reference machine speed) with --trace 0, per-layer metrics from a separately
traced pass with --trace 1.
See perfbench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
MIN_REQUESTS = 100        # ten samples beyond the p90
SETUPS = 3                # set-ups per run; setup_s is their median
BLAS_THREADS = "1"
REFERENCE_S = 0.002       # probe() time at the reference speed

# Tiny matrices gain nothing from BLAS threads, and spinning OpenBLAS workers
# made latencies swing tenfold when the other core was busy; pin one thread
# before numpy loads.  TRANSVECTOR_THREADS stays unset: the package default.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS
os.environ.pop("TRANSVECTOR_THREADS", None)
sys.path.insert(0, str(SRC))
sys.path.insert(0, str(HERE))

import mixes  # noqa: E402
import tracing  # noqa: E402

END_TO_END = (("requests_per_s", "1/s"), ("latency_p50_ms", "ms"),
              ("latency_p90_ms", "ms"), ("success_ratio", "ratio"),
              ("setup_s", "s"), ("peak_rss_mb", "MB"))


_PROBE_ROWS = [[Fraction((3 * i + 5 * j) % 7 - 3, 1 + (i + j) % 3) for j in range(6)]
               for i in range(6)]


def probe() -> float:
    """Seconds for a fixed slice of exact and float64 work, fixed here and
    independent of the program: the machine's speed at this moment.

    The shared machine's speed swings by up to 1.7x within tens of seconds,
    and every time is scaled by REFERENCE_S over the probes taken right
    before and after it (see README.md)."""
    import numpy as np
    from scipy.linalg import expm

    m = np.array([[0.1 * (i - j) + 0.05j * i * j for j in range(3)] for i in range(3)])
    start = time.perf_counter()
    v = tuple(Fraction(k - 2, 2) for k in range(6))
    for _ in range(8):
        v = tuple(sum((a * x for a, x in zip(row, v)), Fraction(0)) for row in _PROBE_ROWS)
    for _ in range(12):
        g = expm(m)
        w, u = np.linalg.eigh(g @ g.conj().T)
        np.linalg.solve(g, (u * np.log(w)) @ u.conj().T)
    return time.perf_counter() - start


def scaled(seconds, before, after):
    """`seconds` at the reference speed."""
    return seconds * REFERENCE_S * 2.0 / (before + after)


def setup(workload: str, seed: int, work: str):
    """Import, write the inputs, one untimed warm-up pass; returns (seconds,
    seconds at the reference speed).  Probing first would import numpy
    early, so both probes follow the set-up."""
    start = time.perf_counter()
    import transvector.algfile  # noqa: F401  (the cold-algebra parser)
    import transvector.cli
    from transvector import data

    mixes.write_inputs(workload, work, os.path.dirname(data.__file__))
    for argv, _ in mixes.Mix(workload, seed, work).warmup():
        transvector.cli.run(argv)
    raw = time.perf_counter() - start
    return raw, scaled(raw, probe(), probe())


def setup_elsewhere(workload: str, seed: int, work: str):
    """One set-up in a fresh interpreter, so that import is paid again."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--setup-only",
         "--workload", workload, "--seed", str(seed), "--seconds", "0",
         "--work", work],
        capture_output=True, text=True, timeout=120, check=True)
    raw, at_ref = proc.stdout.split()[-2:]
    return float(raw), float(at_ref)


def send(argv, shape, failures):
    """One request; returns (latency, latency at the reference speed) and
    records a mismatch in failures."""
    import transvector.cli

    report_path = argv[argv.index("--out") + 1]
    latency = None
    before = probe()
    start = time.perf_counter()
    try:
        status = transvector.cli.run(argv)
        latency = time.perf_counter() - start
        with open(report_path) as fh:
            problem = shape.check(status, json.load(fh))
    except Exception:  # a raising request or report is a failed verdict
        if latency is None:
            latency = time.perf_counter() - start
        problem = traceback.format_exc(limit=3)
    after = probe()
    if problem:
        failures.append((argv, problem))
        print("MISMATCH [%s] %s: %s" % (shape.key, " ".join(argv), problem),
              file=sys.stderr)
    return latency, scaled(latency, before, after)


def measure(mix, seconds, failures):
    """Whole rounds until `seconds` passed and MIN_REQUESTS were sent (capped
    at four times `seconds`); returns [(latency, latency at reference speed)]."""
    latencies = []
    start = time.perf_counter()
    r = 0
    while True:
        for argv, shape in mix.round(r):
            latencies.append(send(argv, shape, failures))
        r += 1
        elapsed = time.perf_counter() - start
        if elapsed >= seconds and (len(latencies) >= MIN_REQUESTS
                                   or elapsed >= 4 * seconds):
            return latencies


def traced_run(mix, seconds, failures, work):
    """Each round twice, untraced then traced, over whole rotations until
    `seconds` passed.  Returns (per-layer metrics per traced request,
    requests sent)."""
    from transvector.catalog import build_space

    tracer = tracing.Tracer()
    plain = traced = 0.0
    hits = misses = 0
    start = time.perf_counter()
    r = 0
    while r == 0 or r % mix.rotation or time.perf_counter() - start < seconds:
        requests = mix.round(r)
        plain += sum(send(argv, shape, failures)[1] for argv, shape in requests)
        info = build_space.cache_info()
        tracer.install()
        try:
            for argv, shape in requests:
                traced += send(argv, shape, failures)[1]
                tracer.request += 1
                tracer.bytes_written += os.path.getsize(argv[argv.index("--out") + 1])
        finally:
            tracer.uninstall()
        after = build_space.cache_info()
        hits += after.hits - info.hits
        misses += after.misses - info.misses
        r += 1
    tracer.write(os.path.join(work, "spans.tsv"))
    metrics = tracing.layer_metrics(tracer, tracer.request, hits, misses,
                                    plain / traced)
    return metrics, 2 * tracer.request


def quantile(values, q):
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def timings(latencies, setups):
    return {"requests_per_s": len(latencies) / sum(latencies),
            "latency_p50_ms": 1e3 * statistics.median(latencies),
            "latency_p90_ms": 1e3 * quantile(latencies, 90),
            "setup_s": statistics.median(setups)}


def header(args, requests):
    import numpy
    import scipy

    blas = numpy.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "requests": requests,
        "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "blas": blas.get("name"),
        "blas_version": blas.get("version"), "blas_threads": BLAS_THREADS,
        "transvector_threads": os.environ.get("TRANSVECTOR_THREADS"),
        "git_commit": git_commit(),
    }


def git_commit():
    """HEAD of the checkout, or None outside a git work tree."""
    git = ROOT / ".git"
    try:
        ref = (git / "HEAD").read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        if (git / name).exists():
            return (git / name).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(mixes.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    ap.add_argument("--work", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if not (SRC / "transvector" / "cli.py").is_file():
        print("no transvector sources under %s" % SRC, file=sys.stderr)
        return 2
    if args.setup_only:
        print("%r %r" % setup(args.workload, args.seed, args.work))
        return 0

    work = WORK / ("%s-seed%d-trace%d" % (args.workload, args.seed, args.trace))
    shutil.rmtree(work, ignore_errors=True)
    failures = []
    if args.trace:
        setup(args.workload, args.seed, str(work / "main"))
        mix = mixes.Mix(args.workload, args.seed, str(work / "main"))
        metrics, attempted = traced_run(mix, args.seconds, failures, str(work))
    else:
        setups = [setup_elsewhere(args.workload, args.seed, str(work / ("setup%d" % i)))
                  for i in range(SETUPS - 1)]
        setups.append(setup(args.workload, args.seed, str(work / "main")))
        mix = mixes.Mix(args.workload, args.seed, str(work / "main"))
        pairs = measure(mix, args.seconds, failures)
        raw, values = (timings([p[i] for p in pairs], [s[i] for s in setups])
                       for i in (0, 1))
        values["success_ratio"] = 1.0 - len(failures) / len(pairs)
        values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END}
        attempted = len(pairs)
    head = header(args, attempted)
    (work / "header.json").write_text(json.dumps(head, indent=1) + "\n")
    print("# header " + json.dumps(head, sort_keys=True))
    print("# failed_ratio %.6f (%d of %d)" % (len(failures) / max(1, attempted),
                                             len(failures), attempted))
    if not args.trace:
        print("# as measured, unscaled: " + " ".join(
            "%s=%.6g" % item for item in raw.items()))
    for name, m in metrics.items():
        print("# %-45s %14.6g %s" % (name, m["value"], m["unit"]))
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
