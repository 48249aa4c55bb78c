#!/usr/bin/env python3
"""Benchmark of the evdeform chain: simulate, record, extract, calibrate, measure.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root; the package is imported from ./src. With
--trace 0 the last line of standard output is a JSON object holding the
end-to-end metrics; with --trace 1 it holds the per-layer metrics of a
traced run, and the spans go to perfbench/.work/traces/. End-to-end times
are scaled by a fixed reference kernel timed next to each setup and pass,
which takes out the shared host's changes of speed. See
perfbench/README.md for the workloads and what each metric should move.
"""
from __future__ import annotations

import os

# One BLAS thread: the solves are tiny (at most 30x30), and a second BLAS
# thread only contends with the interpreter for the machine's cores.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import ctypes
import gc
import json
import math
import platform
import shutil
import statistics
import sys
import threading
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = Path(__file__).resolve().parent / ".work"
SETUP_REPEATS = 3
# Nominal seconds of reference_kernel(): the time a pass is scaled to.
REFERENCE_S = 0.18

END_TO_END = {  # name: unit
    "setup_s": "s",
    "wall_s": "s",
    "realtime_x": "s/s",
    "peak_mb": "MB",
}

# name: (unit, better, how the traced run measures it)
#   ("span", name)          seconds in that span per pass
#   ("rate", count, span)   count per second of span time
#   ("count", name, scale)  counter per pass, times scale
#   ("figure", name)        figure of merit from the checks
# Spans and counts come from the setup when the layer runs only there.
PER_LAYER = {
    "simulator.simulate_s": ("s", "lower", ("span", "simulator.simulate")),
    "simulator.events_per_s": ("events/s", "higher", ("rate", "simulator.events", "simulator.simulate")),
    "simulator.export_truth_s": ("s", "lower", ("span", "simulator.export_ground_truth")),
    "events.write_csv_s": ("s", "lower", ("span", "events.write_stream.csv")),
    "events.csv_mb": ("MB", "lower", ("count", "events.csv_bytes", 1e-6)),
    "events.read_csv_s": ("s", "lower", ("span", "events.read_stream.csv")),
    "events.read_binary_s": ("s", "lower", ("span", "events.read_stream.binary")),
    "extraction.extract_s": ("s", "lower", ("span", "extraction.extract_center_sequence")),
    "extraction.events_per_s": ("events/s", "higher", ("rate", "extraction.events", "extraction.extract_center_sequence")),
    "extraction.match_s": ("s", "lower", ("span", "extraction.match_corresponding")),
    "extraction.center_err_px": ("px", "lower", ("figure", "extraction.center_err_px")),
    "calibration.calibrate_s": ("s", "lower", ("span", "calibration.calibrate")),
    "calibration.bundle_adjust_s": ("s", "lower", ("span", "calibration.bundle_adjust")),
    "calibration.factorize_s": ("s", "lower", ("span", "calibration.projective_factorize")),
    "calibration.ransac_s": ("s", "lower", ("span", "calibration.estimate_fundamental_ransac")),
    "calibration.upgrade_s": ("s", "lower", ("span", "calibration.euclidean_upgrade")),
    "calibration.ba_steps": ("count", "lower", ("count", "calibration.ba_steps", 1.0)),
    "calibration.outer_iterations": ("count", "lower", ("count", "calibration.outer_iterations", 1.0)),
    "calibration.reproj_px": ("px", "lower", ("figure", "calibration.reproj_px")),
    "calibration.focal_rel_err": ("ratio", "lower", ("figure", "calibration.focal_rel_err")),
    "calibration.rotation_err_deg": ("deg", "lower", ("figure", "calibration.rotation_err_deg")),
    "deformation.measure_s": ("s", "lower", ("span", "deformation.measure_deformation")),
    "deformation.samples_per_s": ("samples/s", "higher", ("rate", "deformation.samples", "deformation.measure_deformation")),
    "deformation.undistort_calls": ("count", "lower", ("count", "deformation.undistort_calls", 1.0)),
    "deformation.rmse_mm": ("mm", "lower", ("figure", "deformation.rmse_mm")),
    "deformation.pole_rel_err": ("ratio", "lower", ("figure", "deformation.pole_rel_err")),
    "deformation.amplitude_rel_err": ("ratio", "lower", ("figure", "deformation.amplitude_rel_err")),
    "trace.overhead_ratio": ("ratio", "lower", ("overhead",)),
}


def blas_info() -> dict:
    """BLAS library and its thread count, read from the loaded OpenBLAS."""
    import numpy as np

    info = {"name": None, "threads": None}
    try:
        info["name"] = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (KeyError, TypeError):
        pass
    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:
        libs = []
    for path in libs:
        lib = ctypes.CDLL(path)
        for prefix in ("scipy_openblas_", "openblas_"):
            for suffix in ("64_", ""):
                fn = getattr(lib, f"{prefix}get_num_threads{suffix}", None)
                if fn is not None:
                    fn.restype = ctypes.c_int
                    info["threads"] = fn()
                    info["library"] = Path(path).name
                    return info
    return info


def environment(args, workload, passes: dict) -> dict:
    import numpy
    import scipy

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "scenario_seeds": workload.seeds,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas_info(),
        "passes": passes,
    }


class ResidentPeak:
    """Peak growth of the resident set over a block, in bytes.

    A thread samples /proc/self/statm every millisecond. Free heap is handed
    back to the system first (malloc_trim), so growth counts the memory the
    block itself takes, Python objects and numpy buffers alike, at close to
    full speed. tracemalloc hooks every allocation and slowed a pass of
    simulate plus CSV write about elevenfold on a 2-core VM.
    """

    def __init__(self):
        self._page = os.sysconf("SC_PAGE_SIZE")
        self._stop = threading.Event()
        self.peak = 0

    def _rss(self) -> int:
        with open("/proc/self/statm") as fh:
            return int(fh.read().split()[1]) * self._page

    def _sample(self) -> None:
        while not self._stop.is_set():
            self.peak = max(self.peak, self._rss())
            time.sleep(0.001)

    def __enter__(self):
        gc.collect()
        try:
            ctypes.CDLL(None).malloc_trim(0)
        except (OSError, AttributeError):  # not glibc
            pass
        self.base = self.peak = self._rss()
        self._interval = sys.getswitchinterval()
        sys.setswitchinterval(0.0005)  # let the sampler in between bytecodes
        self._thread = threading.Thread(target=self._sample, daemon=True)
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join()
        sys.setswitchinterval(self._interval)
        self.peak = max(self.peak, self._rss())
        self.growth = self.peak - self.base


def reference_kernel() -> float:
    """Seconds taken by a fixed mix of the kinds of work evdeform does.

    Text parsing in the interpreter, a sort, masked gathers and elementwise
    passes over a few tens of MB with numpy, and small dense solves: about
    0.19 s on a 2-core VM. Its time tracks how fast the shared machine runs
    the program at that moment.
    """
    rng = np.random.default_rng(12345)
    start = time.perf_counter()
    text = "\n".join(f"{i * 37},{i * 7 % 640},{i * 13 % 480},{i & 1}" for i in range(12_000))
    rows = np.array([[int(v) for v in line.split(",")] for line in text.splitlines()])
    keys = rng.integers(0, 1 << 20, 400_000)
    ordered = keys[np.argsort(keys, kind="stable")]
    np.sqrt(ordered[(ordered & 7) == 3] + rows[:, 0].sum()).sum()
    field = np.linspace(0.0, 1.0, 2_000_000)
    for _ in range(4):
        field = np.abs(np.log1p(field) - 0.25)
        field[field > 0.5] *= 0.5
    a = rng.standard_normal((30, 30))
    a = a @ a.T + 30.0 * np.eye(30)
    b = rng.standard_normal(30)
    for _ in range(500):
        b = np.linalg.solve(a, b)
        b /= np.linalg.norm(b)
    return time.perf_counter() - start


class Tally:
    def __init__(self):
        self.attempted = self.failed = 0
        self.problems: list[str] = []
        self.failures: list[str] = []
        self.figures: dict[str, float] = {}

    def add(self, outcome) -> None:
        self.attempted += outcome.attempted
        self.failed += outcome.failed
        self.problems += outcome.problems
        self.failures += outcome.failures
        self.figures.update(outcome.figures)


def timed(call) -> tuple[float, object]:
    gc.collect()
    start = time.perf_counter()
    out = call()
    return time.perf_counter() - start, out


def scaled(times: list[float], references: list[float]) -> list[float]:
    """Each time times REFERENCE_S over the mean of the reference kernel
    timings taken just before and just after it."""
    return [
        t * REFERENCE_S / (0.5 * (before + after))
        for t, before, after in zip(times, references, references[1:])
    ]


def measure_end_to_end(workload, seconds: float, tally: Tally) -> tuple[dict, dict]:
    setups, setup_refs = [], [reference_kernel()]
    for repeat in range(SETUP_REPEATS):
        setups.append(timed(workload.setup)[0])
        setup_refs.append(reference_kernel())
        if repeat == 0:
            # checked early, so later setups leave the heap as a pass finds it
            tally.add(workload.check_recording())

    # the untimed first pass warms caches and gives the memory peak
    with ResidentPeak() as memory:
        out = workload.run_pass()
    tally.add(workload.check(out))

    walls, refs = [], [reference_kernel()]
    deadline = time.perf_counter() + seconds
    while True:
        wall, out = timed(workload.run_pass)
        walls.append(wall)
        refs.append(reference_kernel())
        tally.add(workload.check(out))
        if time.perf_counter() >= deadline:
            break
    wall = statistics.median(scaled(walls, refs))
    metrics = {
        "setup_s": statistics.median(scaled(setups, setup_refs)),
        "wall_s": wall,
        "realtime_x": workload.recording_s / wall,
        "peak_mb": memory.growth / 1e6,
    }
    return metrics, {"setup": len(setups), "untimed": 1, "timed": len(walls),
                     "setup_s": setups, "wall_s": walls,
                     "reference_s": {"setup": setup_refs, "passes": refs}}


def measure_per_layer(workload, tracer, seconds: float, tally: Tally) -> tuple[dict, dict]:
    with tracer.tracing("setup"):
        workload.setup()
    tally.add(workload.check_recording())
    tally.add(workload.check(workload.run_pass()))  # warm-up, untraced

    plain, traced = [], []
    deadline = time.perf_counter() + seconds
    while True:
        wall, out = timed(workload.run_pass)
        plain.append(wall)
        tally.add(workload.check(out))
        with tracer.tracing(len(traced)):
            wall, out = timed(workload.run_pass)
        traced.append(wall)
        tally.add(workload.check(out))
        if time.perf_counter() >= deadline:
            break

    metrics = {}
    for name, (_, _, source) in PER_LAYER.items():
        kind = source[0]
        if kind == "span":
            value = tracer.seconds(source[1])
        elif kind == "rate":
            value = tracer.rate(source[1], source[2])
        elif kind == "count":
            value = tracer.counted(source[1]) * source[2]
        elif kind == "figure":
            value = tally.figures.get(source[1], 0.0)  # 0: not measured here
        else:
            value = statistics.median(traced) / statistics.median(plain) - 1.0
        metrics[name] = value
    return metrics, {"setup": 1, "untimed": 1, "untraced": len(plain), "traced": len(traced)}


def finite(value: float) -> float:
    # a figure with nothing to measure (no samples) would be inf; keep valid JSON
    return float(value) if math.isfinite(value) else 1e9


def run(workload, tracer, seconds: float, trace: bool) -> tuple[dict, dict, Tally]:
    """Measure one workload: the result object, the pass counts and the tally."""
    tally = Tally()
    if trace:
        values, passes = measure_per_layer(workload, tracer, seconds, tally)
        units = {k: v[0] for k, v in PER_LAYER.items()}
    else:
        values, passes = measure_end_to_end(workload, seconds, tally)
        units = END_TO_END
    result = {
        "correct": not tally.problems,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": finite(v), "unit": units[k]} for k, v in values.items()},
    }
    return result, passes, tally


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "evdeform" / "__init__.py").is_file():
        print(f"perfbench: no evdeform sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from tracing import Tracer
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2

    work_dir = WORK / f"{args.workload}-{os.getpid()}"
    tracer = Tracer()
    workload = WORKLOADS[args.workload](args.seed, work_dir, tracer)
    try:
        result, passes, tally = run(workload, tracer, args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    env = environment(args, workload, passes)
    if args.trace:
        trace_path = WORK / "traces" / f"{args.workload}-seed{args.seed}.json"
        tracer.write(trace_path, {"environment": env, "result": result})
        print(f"# spans: {trace_path.relative_to(ROOT)}")
        for name, row in sorted(tracer.self_times().items(), key=lambda kv: -kv[1]["self_s"]):
            print(f"#   {name:42s} calls {row['calls']:6d}  total {row['total_s']:9.4f} s"
                  f"  self {row['self_s']:9.4f} s")
    for message in sorted(set(tally.problems)):
        print(f"perfbench: wrong output: {message}", file=sys.stderr)
    for message in sorted(set(tally.failures)):
        print(f"perfbench: failed operation: {message}", file=sys.stderr)
    print(json.dumps({"environment": env}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
