#!/usr/bin/env python3
"""evacsim benchmark: three workloads, end-to-end metrics, traced layer timings.

Run from the repository root:

    python3 bench/run.py --workload paper-grid --seed 1 --seconds 30 --trace 0

--trace 0 sets up the workload several times, then repeats its timed pass
until --seconds have passed, checks every pass's outputs and prints the
end-to-end metrics. --trace 1 runs one untraced and one traced pass of
fixed size (span shims from bench/tracer.py) and prints the per-layer
metrics. Either way the last line of stdout is one JSON object with the
keys correct, attempted, failed and metrics; the lines before it are a
readable report. The exit code is 1 when an output check failed, and 2,
with no JSON line, when the checkout holds no usable evacsim or the
metrics differ from those BENCHMARK.json declares.

The benchmark imports evacsim from ./src of the checkout it lives in and
writes only under ./.bench_work, which it removes before exiting.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import itertools
import json
import math
import multiprocessing
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

# One BLAS/OpenMP thread: the OLS fit starts no threads of its own, so the
# sweep pool's workers are the only parallelism and fit results do not
# depend on a thread count. Must be set before numpy is imported.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"
sys.dont_write_bytecode = True

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def _die(message: str) -> None:
    print(f"bench: {message}", file=sys.stderr)
    sys.exit(2)


def _import_program():
    if not (SRC / "evacsim" / "__init__.py").is_file():
        _die(f"no evacsim package under {SRC}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import evacsim  # noqa: F401  (fails loudly if the package is broken)

    if Path(evacsim.__file__).resolve().parent != SRC / "evacsim":
        _die(f"imported evacsim from {evacsim.__file__}, not from {SRC}")


def environment(nproc: int, workers: int) -> dict:
    import numpy

    commit = "unknown"
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        commit = ref
        if ref.startswith("ref: "):
            ref_file = ROOT / ".git" / ref[5:]
            if ref_file.is_file():
                commit = ref_file.read_text().strip()
    src = hashlib.sha256()
    for path in sorted((SRC / "evacsim").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": nproc,
        "workers": workers,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": commit,
        "src_sha256": src.hexdigest()[:16],
    }


def peak_rss_mb(pool: bool) -> float:
    """Peak RSS of this process, plus that of its largest finished child if
    the workload ran a sweep pool. Without a pool the only children are the
    speed sampler and set-up helpers, which are not the program."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss if pool else 0
    return (own + child) / 1024.0


class _Point:
    __slots__ = ("x", "y", "k")

    def __init__(self, x: float, y: float, k: int):
        self.x = x
        self.y = y
        self.k = k


def _reference_kernel(n: int = 400) -> float:
    """Fixed pure-Python work with the program's kind of operations:
    small objects, dict grouping, float math, CSV-style formatting and
    parsing, a sort. It calls no evacsim code, so no change to the program
    can change its time; only the machine's speed can."""
    pts = [_Point(i * 0.37 % 97.0, i * 0.61 % 89.0, i % 13) for i in range(n)]
    groups: dict[int, list[_Point]] = {}
    for p in pts:
        groups.setdefault(p.k, []).append(p)
    acc = 0.0
    for group in groups.values():
        for p in group:
            acc += math.hypot(p.x - 50.0, p.y - 40.0)
    text = "\n".join(f"{p.k},{p.x:.3f},{p.y:.3f}" for p in pts)
    rows = [tuple(float(c) for c in line.split(",")) for line in text.splitlines()]
    rows.sort()
    return acc + len(rows)


def _sample_speed(conn, cpus: list[int]) -> None:
    """Sampler process: every 25 ms, time the reference kernel in CPU time
    on the next of cpus in turn, until told to stop; then send the
    (start ns, cpu ns) pairs back."""
    gc.disable()
    samples = []
    for i in itertools.count():
        os.sched_setaffinity(0, {cpus[i % len(cpus)]})
        t = time.perf_counter_ns()
        c = time.thread_time_ns()
        _reference_kernel()
        samples.append((t, time.thread_time_ns() - c))
        if conn.poll(0.025):
            break
    conn.send(samples)
    conn.close()


class SpeedSampler:
    """Times a fixed kernel in a separate process (under a tenth of one
    CPU), so each timed pass can be divided by the speed of the CPUs it ran
    on, during that pass. Started before evacsim and numpy are imported, so
    the forked sampler stays small in memory."""

    WINDOW_NS = 250_000_000  # samples this close to a pass also count for it

    def __init__(self, cpus: list[int]):
        ctx = multiprocessing.get_context("fork")
        self._conn, child = ctx.Pipe()
        self._proc = ctx.Process(target=_sample_speed, args=(child, cpus), daemon=True)
        self._proc.start()
        child.close()
        self.samples: list[tuple[int, int]] | None = None

    def stop(self) -> list[tuple[int, int]]:
        if self.samples is None:
            self._conn.send("stop")
            self.samples = self._conn.recv()
            self._proc.join()
        return self.samples

    def reference(self, t0: int, t1: int) -> float:
        """Median kernel CPU time of the samples taken in or near [t0, t1]."""
        samples = self.stop()
        near = [c for t, c in samples if t0 - self.WINDOW_NS <= t <= t1 + self.WINDOW_NS]
        return statistics.median(near or [c for _, c in samples])


def measure(wl, seconds: float, speed: SpeedSampler) -> tuple[dict, list[str], int, int, list[str]]:
    """Untraced run: end-to-end metrics, report lines, attempted, failures."""
    start = time.perf_counter()
    setup_s: list[float] = []
    passes = []
    spans = []
    while True:
        elapsed = time.perf_counter() - start
        # Set-ups are spread evenly over the run, so their median sees the
        # same drift in machine speed as the timed passes do.
        while len(setup_s) < wl.setups and len(setup_s) <= elapsed / seconds * wl.setups:
            t0 = time.perf_counter()
            wl.setup()
            setup_s.append(time.perf_counter() - t0)
        if elapsed >= seconds and len(passes) >= wl.min_passes:
            break
        # Every pass starts from a collected heap, whatever set-up or pass
        # left garbage behind.
        gc.collect()
        t0 = time.perf_counter_ns()
        passes.append(wl.timed())
        spans.append((t0, time.perf_counter_ns()))
    refs = [speed.reference(t0, t1) for t0, t1 in spans]

    attempted = sum(p.ops for p in passes)
    failures = [f for p in passes for f in p.failures]
    failed = sum(p.ops for p in passes if p.failures)
    if wl.same_bytes_every_pass:
        first = passes[0].sha
        for k, p in enumerate(passes[1:], start=1):
            if p.sha != first and not p.failures:
                failures.append(f"pass {k} output sha256 {p.sha} != pass 0 {first}")
                failed += p.ops

    times = [p.seconds for p in passes]
    wall = statistics.median(times)
    metrics = {
        # The speed of this machine's CPUs drifts by up to half over minutes
        # (other tenants), and the reference kernel timed during each pass
        # drifts with it; their ratio is what stays put.
        "wall_ref": (statistics.median(p.ns / r for p, r in zip(passes, refs)), "ref"),
        "peak_rss_mb": (peak_rss_mb(wl.workers > 1), "MB"),
        "setup_s": (statistics.median(setup_s), "s"),
    }
    lines = [f"passes {len(passes)}, pass seconds min {min(times):.4f} max {max(times):.4f}",
             f"reference_ms = {statistics.median(refs) / 1e6:.4f} ms ({len(speed.samples)} samples)"]
    extra = {"wall_s": (wall, "s"), **wl.extra(passes, wall),
             "error_rate": (failed / attempted, "ratio")}
    for name, (value, unit) in extra.items():
        lines.append(f"{name} = {value:.6g} {unit}")
    lines += wl.describe(passes)
    return metrics, lines, attempted, failed, failures


def trace(wl) -> tuple[dict, list[str], int, int, list[str]]:
    """Traced run: per-layer metrics from a traced pass between two
    untraced ones, whose mean is the base of the tracing overhead."""
    from tracer import LAYER_SPANS, READ_STATE, Tracer, layer_metrics, traced

    wl.setup()
    before = wl.trace_pass()
    tracer = Tracer()
    with traced(tracer):
        shimmed = wl.trace_pass()
    after = wl.trace_pass()
    metrics, summary = layer_metrics(tracer, shimmed.ns, (before.ns + after.ns) // 2)

    runs = (before, shimmed, after)
    failures = [f for p in runs for f in p.failures]
    attempted = sum(p.ops for p in runs)
    failed = sum(p.ops for p in runs if p.failures)
    if not shimmed.sha == before.sha == after.sha:
        failures.append(f"traced outputs sha256 {shimmed.sha} != untraced {before.sha}, "
                        f"{after.sha}")
        failed += shimmed.ops
    if not summary["consistent"]:
        failures.append("a span lies outside its parent, its children outlast it, "
                        "or the spans cover more than the traced wall")
        failed += shimmed.ops
    ops, checks = wl.trace_checks(shimmed, tracer.counts)
    attempted += ops
    failures += checks
    failed += shimmed.ops * len(checks)

    lines = [f"outputs_sha256 {shimmed.sha}",
             f"{'span':32} {'calls':>9} {'self_ms':>12}"]
    for name in LAYER_SPANS + (READ_STATE,):
        if summary["calls"][name]:
            lines.append(f"{name:32} {summary['calls'][name]:9d} "
                         f"{summary['self_ns'][name] / 1e6:12.3f}")
    return metrics, lines, attempted, failed, failures


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["paper-grid", "cold-simulate", "analyze-large"])
    parser.add_argument("--seed", type=int, default=1, help="workload seed")
    parser.add_argument("--seconds", type=float, default=30.0,
                        help="how long the untraced run repeats its timed pass")
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0,
                        help="1: traced run reporting per-layer metrics")
    args = parser.parse_args(argv)

    cpus = sorted(os.sched_getaffinity(0))
    speed = None
    if not args.trace:
        if args.workload != "paper-grid":
            # A one-process workload and the sampler share one CPU: the two
            # CPUs' speeds drift apart, and with the sampler on the other
            # CPU wall_ref spread 13% over ten cold-simulate runs, against
            # about 1% on the same CPU. paper-grid's workers use every CPU,
            # and the sampler visits each in turn.
            os.sched_setaffinity(0, {cpus[0]})
        speed = SpeedSampler(sorted(os.sched_getaffinity(0)))
    work = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    try:
        _import_program()
        from workloads import WORKLOADS

        work.mkdir(parents=True)
        wl = WORKLOADS[args.workload](work, args.seed)
        if args.trace:
            metrics, lines, attempted, failed, failures = trace(wl)
        else:
            metrics, lines, attempted, failed, failures = measure(wl, args.seconds, speed)
    finally:
        if speed is not None:
            speed.stop()
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass  # absent, or another run is using it

    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = [(m["name"], m["unit"]) for m in declared["per_layer" if args.trace else "end_to_end"]]
    if sorted(declared) != sorted((name, unit) for name, (_, unit) in metrics.items()):
        _die("the metrics measured differ from those BENCHMARK.json declares")

    env = environment(len(cpus), 1 if args.trace else wl.workers)
    print(f"workload {args.workload} seed {args.seed} trace {args.trace} "
          + " ".join(f"{k}={v}" for k, v in env.items()))
    for line in lines:
        print(line)
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value} {unit}")
    for f in failures:
        print(f"CHECK FAILED: {f}", file=sys.stderr)
    failed = min(failed, attempted)
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
