"""Layered benchmark for mrtpower: sizing, Monte Carlo and CSV analysis.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload size-grid --seed 1 --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs the workload
in-process with span tracing and prints the per-layer metrics.  The last
line of standard output is the result object; the line before it holds the
output digests the run observed, and the first line records the environment.
``--self-check`` runs every workload at minimal size and checks that every
metric named in BENCHMARK.json is emitted with its unit, and that an altered
output digest is reported as a failure.  See perfbench/README.md.
"""

import argparse
import gc
import json
import os
import pickle
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
DEFAULT_SEED = 1
SETUP_SAMPLES = 3
SETUP_REFERENCES = 5
MIN_ROUNDS = 3
MIN_TRACED_CYCLES = 5

# One BLAS thread per process, and one Monte Carlo worker unless a call asks
# for more: the 2-worker path then uses at most 2 threads, and no result can
# depend on a BLAS thread count or on the caller's MRTPOWER_THREADS.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS
MC_THREADS = "1"
os.environ["MRTPOWER_THREADS"] = MC_THREADS
os.environ["PYTHONPATH"] = os.pathsep.join(
    [str(SRC)] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])
)
sys.path.insert(0, str(SRC))

from hostclock import CPUS, HostClock, pin, reference_s, scale  # noqa: E402


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-check", action="store_true")
    parser.add_argument("--small", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--setup-child", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not args.self_check and args.workload is None:
        parser.error("--workload is required")
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    return args


def environment(mrtpower, np, cpu):
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(CPUS),
        "pinned_cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": int(BLAS_THREADS),
        "mrtpower_threads": int(MC_THREADS),
        "backend": mrtpower.backend_name(),
    }


class Checker:
    """Runs rounds, counts attempted and failed units, compares digests.

    ``samples`` keeps, per stream and timed item, every scaled latency seen;
    an item's latency is their median.
    """

    def __init__(self, expected):
        self.expected = dict(expected or {})
        self.observed = {}
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.samples = {}

    def run(self, workload, stream):
        # The peak resident set then measures a round's own footprint, not
        # when the cyclic collector last happened to run.
        gc.collect()
        try:
            rnd = getattr(workload, stream)()
        except Exception as exc:  # count and report the failed operation
            self.attempted += 1
            self.failed += 1
            self.problems.append(f"{stream}: {exc!r}")
            traceback.print_exc(file=sys.stderr)
            return None
        units = sum(rnd.units.values())
        self.attempted += units
        want = self.expected.get(stream) or self.observed.get(stream)
        self.observed.setdefault(stream, rnd.digest)
        if want is not None and rnd.digest != want:
            self.failed += units
            self.problems.append(f"{stream}: digest {rnd.digest} != {want}")
        else:
            self.failed += rnd.bad
        self.problems.extend(rnd.problems)
        samples = self.samples.setdefault(stream, {})
        for key, value in rnd.times.items():
            samples.setdefault(key, []).append(value)
        return rnd

    def latencies(self, stream):
        """Each timed item's median latency."""
        return [statistics.median(v) for v in self.samples[stream].values()]


def _setup(name, seed, small, workdir):
    """Build the inputs in fresh interpreters; returns (seconds list, inputs).

    Each child prints the monotonic clock, which all processes share, once
    its inputs are written; set-up time runs from just before its launch and
    is scaled by the reference times taken around the child.
    """
    times, blobs = [], []
    for i in range(SETUP_SAMPLES):
        out = os.path.join(workdir, f"inputs-{i}.pkl")
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(seed), "--setup-child", out] + (["--small"] if small else [])
        before = statistics.median(reference_s() for _ in range(SETUP_REFERENCES))
        start = time.monotonic()
        proc = subprocess.run(cmd, check=True, cwd=ROOT, timeout=170,
                              capture_output=True, text=True)
        elapsed = float(proc.stdout) - start
        after = statistics.median(reference_s() for _ in range(SETUP_REFERENCES))
        times.append(scale(elapsed, before, after))
        with open(out, "rb") as fh:
            blobs.append(fh.read())
    if any(blob != blobs[0] for blob in blobs):
        raise RuntimeError("set-up produced different inputs for one seed")
    # Written by this script's own set-up child from the same checkout.
    return times, pickle.loads(blobs[0])


def _peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def _schedule(workload, checker, seconds):
    """Run the streams for ``seconds``, sharing time by ``workload.shares``.

    Returns the peak resident set once the warm-up and the first
    ``MIN_ROUNDS`` rounds of every stream are done, a fixed amount of work,
    or None if an operation failed.
    """
    shares = workload.shares
    spent = dict.fromkeys(shares, 0.0)
    done = dict.fromkeys(shares, 0)
    peak = None
    for stream in ("primary", "alt"):  # warm-up
        if checker.run(workload, stream) is None:
            return None
    deadline = time.perf_counter() + seconds
    while True:
        short = [s for s in shares if done[s] < MIN_ROUNDS]
        if not short and peak is None:
            peak = _peak_rss_mb()
        if not short and time.perf_counter() >= deadline:
            return peak
        stream = short[0] if short else min(shares, key=lambda s: spent[s] / shares[s])
        start = time.perf_counter()
        if checker.run(workload, stream) is None:
            return None  # the run has failed; stop measuring
        spent[stream] += time.perf_counter() - start
        done[stream] += 1


def _quantile(values, pct):
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def end_to_end(name, seed, seconds, small, expected, workdir):
    from workloads import WORKLOADS

    cls = WORKLOADS[name]
    setup_times, inputs = _setup(name, seed, small, workdir)
    workload = cls(inputs, workdir, seed, HostClock())
    checker = Checker(expected)
    peak_rss_mb = _schedule(workload, checker, seconds)
    if peak_rss_mb is None:
        return checker, None
    primary = checker.latencies("primary")
    metrics = {
        "setup_s": (statistics.median(setup_times), "s"),
        "peak_rss_mb": (peak_rss_mb, "MiB"),
        "op_ms.p50": (statistics.median(primary), "ms"),
        "op_ms.p90": (_quantile(primary, 90), "ms"),
        "alt_op_ms.p50": (statistics.median(checker.latencies("alt")), "ms"),
        "cli_s": (statistics.median(checker.latencies("cli")), "s"),
    }
    return checker, metrics


TRACED_FUNCTIONS = (
    "distributions.f_quantile",
    "distributions.ncf_cdf",
    "distributions.hotelling_critical",
    "distributions.f_cdf",
    "samplesize.solve_sample_size",
    "estimator.fit_working_model",
    "estimator.sandwich_variance",
    "estimator.hypothesis_test",
    "simulate.generate_subject",
    "simulate.subject_stream",
    "simulate.draw_errors",
    "simulate.generate_dataset",
    "simulate.monte_carlo",
    "cli.write_dataset",
    "cli.read_dataset",
)


def per_layer(name, seed, seconds, small, expected, workdir):
    import mrtpower
    from tracing import LAYERS, Tracer
    from workloads import WORKLOADS

    cls = WORKLOADS[name]
    tracer = Tracer()
    tracer.install(mrtpower)
    try:
        inputs = cls.build(seed, small)
    finally:
        tracer.uninstall()
    setup_hi = tracer.mark()

    clock = HostClock()
    workload = cls(inputs, workdir, seed, clock)
    checker = Checker(expected)
    raw = []  # unscaled seconds of each traced cycle

    def cycle():
        """Runs one cycle; returns its scaled seconds."""
        raw_before = clock.raw_s
        rounds = [checker.run(workload, stream) for stream in cls.traced]
        if any(r is None for r in rounds):
            return None
        raw.append(clock.raw_s - raw_before)
        return sum(r.seconds for r in rounds)

    if cycle() is None:  # warm-up
        return checker, None
    # Untraced and traced cycles alternate; the ratio of the fastest scaled
    # traced cycle to the fastest scaled untraced one is the tracing overhead.
    plain, traced, marks = [], [], []
    deadline = time.perf_counter() + seconds
    while len(traced) < MIN_TRACED_CYCLES or time.perf_counter() < deadline:
        took = cycle()
        if took is None:
            return checker, None
        plain.append(took)
        lo = tracer.mark()
        tracer.install(mrtpower)
        try:
            took = cycle()
        finally:
            tracer.uninstall()
        if took is None:
            return checker, None
        traced.append(took)
        marks.append((lo, tracer.mark()))
    traced_raw = raw[2::2]

    per_cycle = workload.trace_units
    units = len(traced) * per_cycle
    self_ns, root_ns = tracer.self_ns(marks[0][0], marks[-1][1])
    setup_ns, _ = tracer.self_ns(0, setup_hi)
    first = marks[0]
    solves = tracer.calls(*first, "samplesize.solve_sample_size")
    calibrations = tracer.calls(0, setup_hi, "simulate.calibrate_sigma_star")
    metrics = {
        "distributions.f_quantile.calls": (
            tracer.calls(*first, "distributions.f_quantile") / per_cycle, "count"),
        "distributions.f_quantile.repeat_frac": (
            tracer.repeat_frac(*first, "distributions.f_quantile"), "ratio"),
        "distributions.ncf_cdf.calls": (
            tracer.calls(*first, "distributions.ncf_cdf") / per_cycle, "count"),
        # power_at, the solver's closure, makes one ncf_cdf call per evaluation.
        "samplesize.power_evals_per_cell": (
            tracer.calls(*first, "distributions.ncf_cdf",
                         parent_key="samplesize.solve_sample_size") / solves
            if solves else 0.0, "count"),
        "simulate.calibrate_sigma_star.self_ms": (
            setup_ns.get("simulate.calibrate_sigma_star", 0) / calibrations / 1e6
            if calibrations else 0.0, "ms"),
        "trace.overhead_frac": (min(traced) / min(plain) - 1.0, "ratio"),
        "trace.unattributed_frac": (1.0 - root_ns / 1e9 / sum(traced_raw), "ratio"),
    }
    for key in TRACED_FUNCTIONS:
        metrics[f"{key}.self_ms"] = (self_ns.get(key, 0) / units / 1e6, "ms")
    for layer in LAYERS:
        layer_ns = sum(v for k, v in self_ns.items() if k.startswith(layer + "."))
        metrics[f"{layer}.self_ms"] = (layer_ns / units / 1e6, "ms")

    wall_ms = sum(traced_raw) / units * 1e3
    print(f"self time per {workload.unit} (traced, {units} units, "
          f"{wall_ms:.3f} ms each):", file=sys.stderr)
    for key, ns in sorted(self_ns.items(), key=lambda kv: -kv[1]):
        ms = ns / units / 1e6
        print(f"  {key:<40} {ms:10.4f} ms  {ms / wall_ms:6.1%}", file=sys.stderr)
    return checker, metrics


def run(name, seed, seconds, trace, small=False, expected=None):
    """One benchmark run; returns (result object, observed digests)."""
    work_root = ROOT / ".perfbench-work"
    work_root.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(dir=work_root)
    try:
        measure = per_layer if trace else end_to_end
        checker, metrics = measure(name, seed, seconds, small, expected, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            work_root.rmdir()
        except OSError:
            pass
    for problem in checker.problems:
        print(f"check failed: {problem}", file=sys.stderr)
    if metrics is None:
        raise RuntimeError(f"{name}: an operation failed before every stream was measured")
    result = {
        "correct": checker.failed == 0 and not checker.problems,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    return result, checker.observed


def recorded_digests(name, seed):
    with open(Path(__file__).with_name("digests.json"), encoding="utf-8") as fh:
        return json.load(fh).get(name, {}).get(str(seed))


def self_check():
    """Minimal-size run of every workload; returns a list of problems."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        bench = json.load(fh)
    problems = []
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        want = {m["name"]: m["unit"] for m in bench[section]}
        for workload in bench["workloads"]:
            name = workload["name"]
            result, _ = run(name, DEFAULT_SEED, 0.2, trace, small=True)
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != want:
                problems.append(f"{name} trace={trace}: metrics/units {got} != {want}")
            if not result["correct"] or result["failed"]:
                problems.append(f"{name} trace={trace}: run not correct: {result}")
    altered = {"primary": "0" * 64}
    result, _ = run("analyze-csv", DEFAULT_SEED, 0.2, 0, small=True, expected=altered)
    if result["correct"] or result["failed"] == 0:
        problems.append(f"an altered digest was not reported as a failure: {result}")
    return problems


def main(argv=None):
    args = _parse_args(argv)
    if not (SRC / "mrtpower" / "__init__.py").is_file():
        print(f"error: no mrtpower sources under {SRC}", file=sys.stderr)
        return 2
    import numpy as np

    import mrtpower

    if Path(mrtpower.__file__).resolve().parent != SRC / "mrtpower":
        print(f"error: imported mrtpower from {mrtpower.__file__}, not {SRC}", file=sys.stderr)
        return 2

    if args.setup_child:
        from workloads import WORKLOADS

        inputs = WORKLOADS[args.workload].build(args.seed, args.small)
        with open(args.setup_child, "wb") as fh:
            pickle.dump(inputs, fh, protocol=pickle.HIGHEST_PROTOCOL)
        print(repr(time.monotonic()))
        return 0

    cpu = pin()
    print("env " + json.dumps(environment(mrtpower, np, cpu), sort_keys=True))
    if args.self_check:
        problems = self_check()
        for problem in problems:
            print(f"self-check: {problem}", file=sys.stderr)
        print("self-check " + ("failed" if problems else "passed"))
        return 1 if problems else 0

    expected = None if args.small else recorded_digests(args.workload, args.seed)
    result, observed = run(args.workload, args.seed, args.seconds, args.trace,
                           small=args.small, expected=expected)
    print("digests " + json.dumps(observed, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
