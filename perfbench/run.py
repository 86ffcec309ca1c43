"""Closed-loop benchmark of the rydcomp pipeline.

    python3 perfbench/run.py --workload gadget-verify --seed 1 --seconds 30 --trace 0

One client, one process: the next op starts only after the previous one
has finished and been checked.  Ops run in whole passes over the
workload's input cycle until ``--seconds`` have elapsed, so a run may
overshoot by at most one pass.  ``--workload all`` runs every workload in
turn, each in its own process.

With ``--trace 0`` the run prints the end-to-end metrics.  With
``--trace 1`` its passes alternate between untraced and traced; it prints
the per-layer metrics from the traced passes and writes their spans to
``perfbench/out/``.  The last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit
code is 1 when any op raised or failed its check, 2 when the package
source is missing.
"""

import os

# One BLAS thread: the load comes from a single thread of a single process,
# and block spectra read steadier without BLAS threads competing for cores.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import ctypes
import itertools
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
WORKLOAD_NAMES = ("gadget-verify", "ladder-front", "spectrum-block")
SETUP_REPEATS = 11
TAIL_BEYOND = 10  # ops that must lie above the reported tail percentile
DENSE_LIMIT = 20  # physics.spectrum enumerates up to this many atoms densely

END_TO_END = (
    ("setup_s", "s"),
    ("throughput_ops_s", "1/s"),
    ("op_p50_s", "s"),
    ("op_tail_s", "s"),
    ("peak_rss_mb", "MB"),
)
LAYERS = (
    "gadgets.make",
    "programming.balance",
    "physics.spectrum",
    "reports.report",
    "problems.parse",
    "parity.compile",
    "assembly.assemble",
    "assembly.certify",
    "programming.tail",
    "programming.homogenize",
)
# per-layer count metric -> (span, count recorded from the call's return value)
COUNTS = {
    "programming.anchors": ("programming.balance", "anchors"),
    "physics.atoms": ("physics.spectrum", "atoms"),
    "physics.states_in_window": ("physics.spectrum", "states"),
    "assembly.atoms": ("assembly.assemble", "atoms"),
    "assembly.logical_states": ("assembly.certify", "logical_states"),
}


class Tracer:
    """Spans kept in memory: one per op, one per call into a module.

    A span's ``op`` is the index of the outermost span around it, so every
    span of one op shares it.
    """

    def __init__(self):
        self.spans = []
        self._stack = []  # (index, op) of the open spans

    @contextlib.contextmanager
    def span(self, name, **attrs):
        counts = {}
        index = len(self.spans)
        parent, op = self._stack[-1] if self._stack else (None, index)
        self.spans.append(None)
        self._stack.append((index, op))
        start = time.perf_counter()
        try:
            yield counts
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[index] = {"name": name, "op": op, "parent": parent,
                                 "start": start, "end": end, **attrs, **counts}


_UNTRACED = contextlib.nullcontext({})


def untraced(name, **attrs):
    return _UNTRACED


class Run:
    """Outcome of one measured loop."""

    def __init__(self):
        self.latencies = []
        self.attempted = 0
        self.failed = 0
        self.elapsed = 0.0

    @property
    def throughput(self):
        return (self.attempted - self.failed) / self.elapsed


def measure(workload, seconds, spans=(untraced,), log=sys.stderr):
    """Run whole passes of the cycle until ``seconds`` have elapsed.

    Passes take their span function from ``spans`` in turn, and each span
    function gets its own :class:`Run`.  Alternating untraced and traced
    passes lets both see the same spells of a machine whose speed drifts.
    An op that raises or fails its check counts as failed and gives no
    latency.  Latency covers the package calls only; input generation and
    the check run outside it but inside the elapsed time.
    """
    runs = [Run() for _ in spans]
    inputs = workload.inputs()
    start = time.perf_counter()
    for k in itertools.count():
        run, span = runs[k % len(spans)], spans[k % len(spans)]
        pass_start = time.perf_counter()
        for _ in range(len(workload.cycle)):
            item = workload.prepare(next(inputs))
            run.attempted += 1
            try:
                with span("op", label=item.label):
                    t0 = time.perf_counter()
                    output = workload.run(item, span)
                    latency = time.perf_counter() - t0
                problems = workload.check(item, output)
            except Exception:  # an op's failure is counted, the loop goes on
                run.failed += 1
                print(f"op {run.attempted} ({item.label}) raised:\n{traceback.format_exc()}",
                      file=log)
                continue
            if problems:
                run.failed += 1
                print(f"op {run.attempted} ({item.label}) failed its check: {problems}",
                      file=log)
                continue
            run.latencies.append(latency)
        end = time.perf_counter()
        run.elapsed += end - pass_start
        if end - start >= seconds and k % len(spans) == len(spans) - 1:
            return runs


def tail(latencies):
    """(percentile, value): the highest percentile with TAIL_BEYOND ops above it."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return 100.0, ordered[-1]
    return 100.0 * (n - TAIL_BEYOND) / n, ordered[n - TAIL_BEYOND - 1]


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def layer_metrics(spans, overhead):
    ops = [s for s in spans if s["name"] == "op"]
    n_ops = max(1, len(ops))
    by_name = {}
    for s in spans:
        by_name.setdefault(s["name"], []).append(s)
    metrics = {}
    for layer in LAYERS:
        busy = sum(s["end"] - s["start"] for s in by_name.get(layer, ()))
        metrics[f"{layer}_s"] = (busy / n_ops, "s")
    for metric, (layer, key) in COUNTS.items():
        values = [s[key] for s in by_name.get(layer, ()) if key in s]
        metrics[metric] = (statistics.fmean(values) if values else 0.0, "count")
    calls = [s["atoms"] for s in by_name.get("physics.spectrum", ()) if "atoms" in s]
    share = sum(a > DENSE_LIMIT for a in calls) / len(calls) if calls else 0.0
    metrics["physics.block_share"] = (share, "share")
    inside = sum(s["end"] - s["start"] for s in spans if s["parent"] is not None)
    total = sum(s["end"] - s["start"] for s in ops)
    metrics["op.unattributed_s"] = ((total - inside) / n_ops, "s")
    metrics["trace.overhead"] = (overhead, "ratio")
    return metrics


def blas_threads():
    """Thread count reported by the OpenBLAS library numpy loaded."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return "unknown"
    for lib in sorted(libs):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                return fn()
    return "unknown"


def git_commit():
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        head = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        dirty = subprocess.run(["git", "-C", str(ROOT), "status", "--porcelain", "--", "src"],
                               capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    commit = head.stdout.strip() or "unknown"
    return commit + ("+dirty-src" if dirty.stdout.strip() else "")


def environment(seed, seconds):
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (AttributeError, KeyError, TypeError):
        blas_name = "unknown"
    return {
        "commit": git_commit(),
        "seed": seed,
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name,
        "blas_threads": blas_threads(),
        "python_threads": threading.active_count(),
        "run_seconds": seconds,
    }


def setup(name, seed, out_dir):
    """Import the package, build the workload and run one checked warm-up op."""
    sys.path.insert(0, str(SRC))
    import workloads

    workload = workloads.WORKLOADS[name](seed, out_dir)
    item = workload.prepare(workload.warmup_item)
    problems = workload.check(item, workload.run(item, untraced))
    if problems:
        raise RuntimeError(f"warm-up op {item.label} failed its check: {problems}")
    return workload


def timed_setup(name, seed, out_dir):
    """Seconds :func:`setup` takes; run in a fresh interpreter, so the import counts."""
    t0 = time.perf_counter()
    setup(name, seed, out_dir)
    return time.perf_counter() - t0


def setup_times(name, seed, out_dir):
    """SETUP_REPEATS set-ups, each in a fresh interpreter, one after another."""
    code = (f"import sys; sys.path.insert(0, {str(HERE)!r}); import run; "
            f"print(run.timed_setup({name!r}, {seed!r}, {out_dir!r}))")
    times = []
    for _ in range(SETUP_REPEATS):
        child = subprocess.run([sys.executable, "-c", code], capture_output=True,
                               text=True, timeout=170)
        if child.returncode != 0:
            sys.stderr.write(child.stderr)
            raise RuntimeError(f"set-up of {name} exited {child.returncode}")
        times.append(float(child.stdout.split()[-1]))
    return times


def run_workload(name, seed, seconds, trace):
    out_dir = OUT / f"scratch-{os.getpid()}"
    out_dir.mkdir(parents=True, exist_ok=True)
    try:
        setups = setup_times(name, seed, str(out_dir))
        workload = setup(name, seed, str(out_dir))
        if trace:
            tracer = Tracer()
            plain, run = measure(workload, seconds, (untraced, tracer.span))
            overhead = plain.throughput / run.throughput
            run.attempted += plain.attempted
            run.failed += plain.failed
            run.elapsed += plain.elapsed
        else:
            [run] = measure(workload, seconds)
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)

    record = environment(seed, seconds)
    record["measured_seconds"] = run.elapsed
    print(f"workload {name}  seed {seed}  seconds {seconds:g}  trace {int(trace)}")
    print("record " + json.dumps(record, sort_keys=True))
    done = run.attempted - run.failed
    print(f"failed_share {run.failed / run.attempted!r} share ({run.failed} of {run.attempted} ops)")
    if trace:
        metrics = layer_metrics(tracer.spans, overhead)
        path = OUT / f"trace-{name}-seed{seed}.json"
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"record": record, "spans": tracer.spans}, fh)
        print(f"spans {len(tracer.spans)} written to {path.relative_to(ROOT)}")
    else:
        pct, tail_s = tail(run.latencies) if run.latencies else (100.0, 0.0)
        values = {
            "setup_s": statistics.median(setups),
            "throughput_ops_s": run.throughput,
            "op_p50_s": statistics.median(run.latencies) if run.latencies else 0.0,
            "op_tail_s": tail_s,
            "peak_rss_mb": peak_rss_mb(),
        }
        metrics = {key: (values[key], unit) for key, unit in END_TO_END}
        print("set-ups in fresh interpreters: " + ", ".join(f"{t:.4f}" for t in setups) + " s")
        print(f"op_tail_s is p{pct:.2f} of {done} ops")
    for key, (value, unit) in metrics.items():
        print(f"{key} {value!r} {unit}")
    result = {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if run.failed == 0 else 1


def run_all(seed, seconds, trace):
    """Every workload in turn, each in a fresh process so set-up is measured whole."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    code = 0
    for name in WORKLOAD_NAMES:
        child = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(trace))],
            capture_output=True, text=True, timeout=900,
        )
        sys.stdout.write(child.stdout)
        sys.stderr.write(child.stderr)
        lines = child.stdout.strip().splitlines()
        if child.returncode == 2 or not lines:
            return child.returncode or 1
        code = code or child.returncode
        result = json.loads(lines[-1])
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for key, value in result["metrics"].items():
            combined["metrics"][f"{name}:{key}"] = value
    print(json.dumps(combined))
    return code


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (SRC / "rydcomp" / "__init__.py").is_file():
        print(f"error: package source not found at {SRC / 'rydcomp'}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args.seed, args.seconds, args.trace)
    return run_workload(args.workload, args.seed, args.seconds, args.trace)


if __name__ == "__main__":
    sys.exit(main())
