"""Benchmark of the aqctensor package: one workload, untraced or traced.

    python3 bench/run.py --workload compile-n8-exact --seed 0 --seconds 20 --trace 0

Run from a checkout of the repository; the package is imported from the
checkout's `src/`. The workload's one call into the public API is made once
untimed, to warm up and to read the peak memory, then repeated, one call at a
time in this process (a closed loop with one client), while the next call is
expected to end within `--seconds`; there is always at least one timed call,
and every call's output is checked. A fixed reference kernel (calibrate.py)
runs before the first timed call and, for half as long as the call took,
after every call; each call's wall time is also given in units of the
kernel's mean step time around it. The last line of standard output is a
JSON object with `correct`, `attempted`, `failed` and `metrics`: the
end-to-end metrics with `--trace 0`, the per-layer metrics with `--trace 1`.
The lines above it give the machine, the raw wall times, the output quality
and each metric with its unit. See bench/README.md for what each metric
should move.
"""
from __future__ import annotations

import time

T_START = time.perf_counter()

import os  # noqa: E402  (the clock above starts before any import)

#: BLAS threads of this process; 1 is both the fastest and the steadiest
#: setting for compile-n8-exact on a 2-core machine.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORKLOAD_NAMES = ("compile-n8-exact", "compile-n32-chi64", "evolve-n24-chi128")
SETUP_SAMPLES = 5
#: after each call the reference kernel runs for this share of the call's time
#: (see calibrate.py); the kernel's own sampling noise falls as its share grows
KERNEL_SHARE = 0.5
KERNEL_WARMUP_S = 1.0

END_TO_END = {"wall_cal": "cal", "setup_s": "s", "peak_rss_mb": "MB"}
QUALITY = {"infidelity": "1", "trotter_gain": "1", "energy_drift": "energy",
           "discarded_weight": "weight"}
PER_LAYER = {
    "pipeline.ground_truth_s": "s",
    "pipeline.tebd_target_s": "s",
    "pipeline.optimize_s": "s",
    "pipeline.fidelities_s": "s",
    "pipeline.append_s": "s",
    "optimize.iterations": "count",
    "optimize.cost_evals": "count",
    "optimize.evals_per_iter": "ratio",
    "optimize.fallbacks": "count",
    "optimize.self_s": "s",
    "cost.sweep_calls": "count",
    "cost.sweep_s": "s",
    "cost.grad_calls": "count",
    "cost.grad_s": "s",
    "cost.grad_self_s": "s",
    "cost.grad_over_sweep": "ratio",
    "ansatz.ops_calls": "count",
    "ansatz.ops_s": "s",
    "ansatz.init_s": "s",
    "hamiltonian.tebd_calls": "count",
    "hamiltonian.tebd_s": "s",
    "mps.two_site_calls": "count",
    "mps.two_site_s": "s",
    "mps.two_site_self_s": "s",
    "mps.two_site_us_per_call": "us",
    "mps.svd_work": "mnk-computed",
    "mps.max_chi": "bond",
    "mps.single_site_calls": "count",
    "mps.single_site_s": "s",
    "mps.canonicalize_calls": "count",
    "mps.canonicalize_s": "s",
    "mps.inner_product_calls": "count",
    "mps.inner_product_s": "s",
    "mps.discarded.tebd": "weight",
    "mps.discarded.cost": "weight",
    "mps.discarded.grad": "weight",
    "mps.discarded.fidelity": "weight",
    "trace.overhead": "ratio",
}
UNMEASURED = "statevector, gates, cli and the k >= 2 branch of cost are on no workload's path"


class SetupError(Exception):
    """The benchmark cannot run here; no result is printed."""


def import_package():
    """Import aqctensor from this checkout's src/ and nowhere else."""
    if not os.path.isdir(os.path.join(SRC, "aqctensor")):
        raise SetupError(f"no package source at {SRC}/aqctensor")
    sys.path.insert(0, SRC)
    import aqctensor

    if os.path.dirname(os.path.dirname(os.path.abspath(aqctensor.__file__))) != SRC:
        raise SetupError(f"aqctensor imported from {aqctensor.__file__}, not {SRC}")


def blas_threads() -> int | None:
    """Threads the loaded OpenBLAS will use, or None when it cannot be asked."""
    import ctypes
    import glob

    import numpy

    libs = glob.glob(os.path.join(os.path.dirname(numpy.__file__), os.pardir,
                                  "numpy.libs", "libscipy_openblas*.so"))
    for path in libs:
        fn = getattr(ctypes.CDLL(path), "scipy_openblas_get_num_threads64_", None)
        if fn is not None:
            fn.restype = ctypes.c_int
            return int(fn())
    return None


def machine_info() -> dict:
    import numpy
    import scipy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh
                       if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads_set": BLAS_THREADS,
        "blas_threads_seen": blas_threads(),
    }


def setup_seconds(workload: str, seed: int, own: float) -> list[float]:
    """This process's set-up time plus that of fresh processes doing only set-up."""
    samples = [own]
    for _ in range(SETUP_SAMPLES - 1):
        done = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", workload,
             "--seed", str(seed), "--seconds", "1", "--setup-only"],
            capture_output=True, text=True, timeout=120, check=True)
        samples.append(float(done.stdout.strip().splitlines()[-1]))
    return samples


def timed_call(wl, inputs: dict, tracer=None):
    """One call: (seconds, output, problems); the output is None when it raised."""
    t0 = time.perf_counter()
    seconds = None
    try:
        with tracer.install() if tracer is not None else contextlib.nullcontext():
            out = wl.run(inputs)
        seconds = time.perf_counter() - t0
        return seconds, out, wl.check(inputs, out)
    except Exception:  # a failed call or check is counted, not fatal
        if seconds is None:
            seconds = time.perf_counter() - t0
        return seconds, None, [traceback.format_exc()]


def fmt(value) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    try:
        import_package()
    except (SetupError, ImportError) as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    from calibrate import kernel_seconds
    from tracer import Tracer, layer_metrics
    from workloads import WORKLOADS

    wl = WORKLOADS[args.workload]
    inputs = wl.build(args.seed)
    own_setup = time.perf_counter() - T_START
    if args.setup_only:
        print(repr(own_setup))
        return 0

    info = machine_info()
    setups = setup_seconds(args.workload, args.seed, own_setup)
    print("machine:", json.dumps(info))
    print(f"workload: {args.workload} seed {args.seed}"
          f"{' (reference inputs)' if inputs['reference'] else ''} trace {args.trace}")

    # an untimed first call warms the package up; the peak memory is read
    # before the reference kernel allocates its chain
    _, warm_out, warm_problems = timed_call(wl, inputs)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    # seconds per kernel step, before the first timed call and after each
    # call; the first measurement also warms the kernel up
    kernel = [kernel_seconds(*wl.kernel, KERNEL_WARMUP_S)]

    def bracketed(tracer=None):
        """One call and the kernel after it: the call's seconds, and its time in kernel steps."""
        seconds, out, problems = timed_call(wl, inputs, tracer)
        kernel.append(kernel_seconds(*wl.kernel, KERNEL_SHARE * seconds))
        return seconds, seconds / ((kernel[-2] + kernel[-1]) / 2), out, problems

    walls, cals, traced_cals, failures = [], [], [], list(warm_problems)
    failed = int(bool(warm_problems))
    layers = None
    good_out = None if warm_problems else warm_out  # the last output that passed its checks
    start = time.perf_counter()
    while True:
        seconds, cal, out, problems = bracketed()
        walls.append(seconds)
        cals.append(cal)
        failures.extend(problems)
        failed += bool(problems)
        good_out = out if not problems else good_out
        if args.trace:
            tracer = Tracer()
            _, cal, out, problems = bracketed(tracer)
            traced_cals.append(cal)
            failures.extend(problems)
            failed += bool(problems)
            if out is not None and layers is None:
                layers = layer_metrics(tracer, wl.records(out))
                timings = wl.timings(out)
                for stage in ("ground_truth", "tebd_target", "optimize", "fidelities", "append"):
                    layers[f"pipeline.{stage}_s"] = timings.get(stage, 0.0)
        # stop before a call that would end past the budget; at least one call
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / len(walls) > args.seconds:
            break
    attempted = 1 + len(walls) + len(traced_cals)
    for problem in failures:
        print("FAILED:", problem.rstrip(), file=sys.stderr)

    wall_cal = statistics.median(cals)
    print(f"  calls untraced {len(walls)} (after 1 untimed), traced {len(traced_cals)}; "
          f"wall_s samples {', '.join(f'{w:.3f}' for w in walls)}")
    print(f"  {'wall_s (median, not gated)':<26} {fmt(statistics.median(walls)):>14} s")
    print(f"  {'kernel_s (median)':<26} {fmt(statistics.median(kernel)):>14} s "
          f"(seconds per step, kernel chain n, chi = {wl.kernel})")
    if good_out is not None:
        for key, value in wl.quality(inputs, good_out).items():
            print(f"  {key:<26} {fmt(value):>14} {QUALITY[key]}")
    print(f"  {'failed_frac':<26} {fmt(failed / attempted):>14} 1 ({failed} of {attempted})")
    print(f"  unmeasured: {UNMEASURED}")

    if args.trace:
        if layers is None:
            layers = {name: 0 for name in PER_LAYER}
        layers["trace.overhead"] = statistics.median(traced_cals) / wall_cal - 1.0
        metrics = {name: {"value": layers[name], "unit": unit} for name, unit in PER_LAYER.items()}
    else:
        values = {
            "wall_cal": wall_cal,
            "setup_s": statistics.median(setups),
            "peak_rss_mb": peak_rss_mb,
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}
    for name, m in metrics.items():
        print(f"  {name:<26} {fmt(m['value']):>14} {m['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
