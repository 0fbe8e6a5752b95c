"""Run one benchmark workload and print its metrics as a JSON last line.

    python3 perfbench/run.py --workload exact --seed 1 --seconds 40 --trace 0

Runs from the root of a source checkout and imports ``stringfock`` from its
``src/``.  One closed-loop client runs one operation at a time for
``--seconds`` seconds, checks every result against its oracle and reports
the end-to-end metrics (``--trace 0``) or the per-layer metrics of a
traced run (``--trace 1``).  README.md lists the metrics and workloads.
Exit code 0 means every operation passed its oracle; 1 means one failed;
2 means the checkout or the arguments are unusable.
"""

import time

T_START = time.perf_counter()   # set-up time counts from here

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
WORKLOAD_NAMES = ("exact", "lattice", "cone")
SETUP_PROBES = 6          # extra processes that only set up, for the set-up median
PROBE_TIMEOUT_S = 60
# one client, no extra threads: numpy's BLAS pools and the library's own
# STRINGFOCK_THREADS pools stay at one worker
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def _read(path):
    try:
        return Path(path).read_text().strip()
    except OSError:
        return None


def git_commit():
    head = _read(ROOT / ".git" / "HEAD")
    if head is None:
        return "unknown (not a git checkout)"
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    sha = _read(ROOT / ".git" / ref)
    if sha:
        return sha
    for line in (_read(ROOT / ".git" / "packed-refs") or "").splitlines():
        if line.endswith(" " + ref):
            return line.split()[0]
    return f"unknown ({ref})"


def cpu_info():
    model = None
    for line in (_read("/proc/cpuinfo") or "").splitlines():
        if line.startswith("model name"):
            model = line.split(":", 1)[1].strip()
            break
    caches = {}
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    for idx in sorted(base.glob("index*")):
        level, kind, size = (_read(idx / f) for f in ("level", "type", "size"))
        if level and size:
            caches[f"L{level}{'' if kind == 'Unified' else kind[0].lower()}"] = size
    return model or platform.processor() or "unknown", caches


def environment(args, threads_env, cone_grid_points):
    import numpy
    import scipy
    model, caches = cpu_info()
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "nproc_usable": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "cpu_caches_per_core_or_shared": caches,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_commit": git_commit(),
        "STRINGFOCK_THREADS": threads_env,
        "cone_array_bytes": cone_grid_points * 8,
        "cone_array_note": "one float64 cone array against the caches above; "
                           "stringcone.bytes_moved is computed from array sizes, "
                           "not a measured bandwidth",
    }


def tail_percentile(samples):
    """Highest whole percentile above p50 with at least ten samples above it, or None."""
    n = len(samples)
    pct = math.floor(100 * (n - 10) / n) if n > 10 else 0
    if pct <= 50:
        return None
    ordered = sorted(samples)
    return pct, ordered[min(n - 1, math.ceil(pct / 100 * n) - 1)]


@dataclass
class Loop:
    times: list        # wall time of every op that passed its oracle
    attempted: int
    failures: list     # oracle details or tracebacks of the failed ops
    used: float        # worst tolerance_used over the ops
    busy: float        # wall time spent in ops, passed or failed


def run_ops(op, inputs, seconds, between=None):
    """Closed loop: start the next op only after the last one finished.

    At least one op runs; after that, no op starts that would take the time
    spent in ops past ``seconds`` if it took as long as the last one.
    ``between()``, if given, runs after every op and is not timed.
    """
    loop = Loop([], 0, [], 0.0, 0.0)
    while True:
        t = time.perf_counter()
        try:
            check = op(inputs)
        except Exception:  # an op that raises is a failed op, not a crash
            loop.failures.append(traceback.format_exc())
            check = None
        dt = time.perf_counter() - t
        loop.busy += dt
        loop.attempted += 1
        if check is not None:
            loop.used = max(loop.used, check.tolerance_used)
            if check.ok:
                loop.times.append(dt)
            else:
                loop.failures.append(check.detail)
        if between:
            between()
        if loop.busy + dt > seconds:
            break
    return loop


def traced_run(op, inputs, seconds, tracer):
    """Untraced ops for the first half of ``seconds``, traced ops for the second.

    Returns the two loops and the per-layer metrics of each traced op,
    including the kernel time and minor page faults of the process.
    """
    plain = run_ops(op, inputs, seconds / 2.0)
    labels, usage = [], []

    def traced_op(inp):
        tracer.op = f"op{len(labels)}"
        labels.append(tracer.op)
        before = resource.getrusage(resource.RUSAGE_SELF)
        try:
            return op(inp)
        finally:
            after = resource.getrusage(resource.RUSAGE_SELF)
            usage.append({"os.sys_s": after.ru_stime - before.ru_stime,
                          "os.minor_faults": after.ru_minflt - before.ru_minflt})

    tracer.install()
    try:
        traced = run_ops(traced_op, inputs, seconds / 2.0)
    finally:
        tracer.uninstall()
    per_op = [{**layers, **os_usage}
              for layers, os_usage in zip(tracer.layer_metrics(labels), usage)]
    return plain, traced, per_op


def probe_setup(args):
    """Set-up time of one fresh process that only sets up."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "0", "--setup-only"]
    res = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                         timeout=PROBE_TIMEOUT_S, check=True)
    return json.loads(res.stdout.strip().splitlines()[-1])["setup_s"]


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "stringfock" / "__init__.py").is_file():
        print(f"error: no stringfock sources under {SRC}", file=sys.stderr)
        return 2
    threads_env = os.environ.pop("STRINGFOCK_THREADS", None) or "unset"
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    import numpy as np
    import stringfock
    if Path(stringfock.__file__).resolve().parent != (SRC / "stringfock").resolve():
        print(f"error: stringfock imported from {stringfock.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    import workloads
    import spans

    setup, op = workloads.WORKLOADS[args.workload]
    tracer = spans.Tracer() if args.trace else None
    if tracer:
        tracer.install()
    inputs = setup(np.random.default_rng(args.seed))
    setup_s = time.perf_counter() - T_START
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0
    if tracer:
        tracer.uninstall()

    cone = workloads.CONE_CONFIG
    cone_side = int(round(2 * cone["extent"] / cone["h"])) + 1
    env = environment(args, threads_env, cone_side ** (cone["d_cm"] - 1 + cone["n_modes"]))
    print("environment " + json.dumps(env), flush=True)
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {"environment": env}

    if not tracer:
        # set-up probes run between ops, so their samples spread over the run
        setup_samples = [setup_s]

        def probe():
            if len(setup_samples) <= SETUP_PROBES:
                setup_samples.append(probe_setup(args))

        loop = run_ops(op, inputs, args.seconds, between=probe)
        while len(setup_samples) <= SETUP_PROBES:
            probe()
        p50 = statistics.median(loop.times) if loop.times else float("nan")
        metrics = {
            "ops_per_s": {"value": len(loop.times) / loop.busy, "unit": "1/s"},
            "setup_s": {"value": statistics.median(setup_samples), "unit": "s"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                            / 1024.0, "unit": "MB"},
        }
        tail = tail_percentile(loop.times)
        record.update(op_s=loop.times, setup_samples=setup_samples,
                      op_s_tail=None if tail is None else {"percentile": tail[0],
                                                           "value": tail[1]})
        print(f"op_s: {len(loop.times)} samples, p50 {p50:.4f} s, "
              + (f"p{tail[0]} {tail[1]:.4f} s" if tail else
                 "no percentile above p50 has ten samples beyond it"))
        attempted, failures, used = loop.attempted, loop.failures, loop.used
    else:
        plain, traced, per_op = traced_run(op, inputs, args.seconds, tracer)
        units = dict(spans.LAYER_METRICS, **{"os.sys_s": "s", "os.minor_faults": "count"})
        metrics = {name: {"value": (statistics.median_low if unit == "count" else
                                    statistics.median)([o[name] for o in per_op]),
                          "unit": unit}
                   for name, unit in units.items()}
        overhead = (statistics.median(traced.times) - statistics.median(plain.times)
                    if plain.times and traced.times else float("nan"))
        metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
        record.update(op_s_untraced=plain.times, op_s_traced=traced.times,
                      per_op_layers=per_op)
        tracer.write(OUT / f"spans-{stem}.json", {"environment": env})
        attempted = plain.attempted + traced.attempted
        failures = plain.failures + traced.failures
        used = max(plain.used, traced.used)

    failed = len(failures)
    metrics_checks = {"fail_ratio": failed / attempted, "tolerance_used": used}
    if tracer:
        for name, val in metrics_checks.items():
            metrics[name] = {"value": val, "unit": "ratio"}
    print(f"checks: {attempted} ops attempted, {failed} failed, "
          f"fail_ratio {failed / attempted}, tolerance_used {used}")
    for detail in failures:
        print("failed op: " + detail, file=sys.stderr)
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    record.update(result=result, checks=metrics_checks, failures=failures)
    with open(OUT / f"result-{stem}.json", "w") as fh:
        json.dump(record, fh, indent=1, default=str)
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
