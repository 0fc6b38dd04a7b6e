"""fuscond benchmark: one workload, one process, one op at a time.

    python3 perfbench/run.py --workload analyze-sweep --seed 1 --seconds 15 --trace 0

Run from the root of a checkout; the package is imported from its ``src``
directory.  The run sets up the workload (three times, reporting the
median), then runs whole passes over the workload's fixed op mix, each in
an order shuffled by ``--seed``, until ``--seconds`` have passed.  Every op
is checked against the pinned oracle in ``oracle.json``.

With ``--trace 0`` the last line holds the end-to-end metrics, with every
timing converted to reference seconds by the speed probe (``probe.py``),
so that the machine's drifting speed does not read as a change.  With
``--trace 1`` passes alternate between untraced and traced, and the last
line holds the per-layer metrics of the traced passes (per op, in wall
seconds), the tracing overhead (from reference-second rates) and the
workload-design invariants.  The lines above the last one repeat the
metrics for a reader; an untraced run also prints its timings in wall and
process CPU seconds there.  See README.md in this directory.
"""
import os

# Cap BLAS/OpenMP pools before numpy is imported: the benchmark is one
# client running one op at a time.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
             "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"
# The program keeps its default splitting seed.
os.environ.pop("FUSCOND_SEED", None)

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from time import perf_counter, process_time  # noqa: E402

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
ORACLE = os.path.join(BENCH, "oracle.json")
WORK = os.path.join(ROOT, ".perfbench_work")

WORKLOAD_NAMES = ("analyze-sweep", "galois-lattice", "coset-ingest")
SETUP_REPS = 3
# A run always measures at least two passes, so every op has two samples.
MIN_PASSES = 2
TAIL_LEVELS = (99.9, 99.0, 90.0)

# Workload-design invariants checked on every traced run: layer metrics
# that must read zero calls on a workload's timed ops.
ZERO_CALLS = {
    "galois-lattice": ("wedderburn.mult.calls", "modular.verlinde.calls"),
    "coset-ingest": ("wedderburn.mult.calls",),
}


class ProgramMissing(Exception):
    pass


def import_program():
    """Import fuscond from this checkout's src directory."""
    if not os.path.isfile(os.path.join(SRC, "fuscond", "__init__.py")):
        raise ProgramMissing(f"no fuscond package under {SRC}")
    sys.path.insert(0, SRC)
    import workloads
    return workloads


def load_oracle():
    with open(ORACLE, encoding="utf-8") as fh:
        return json.load(fh)


def run_op(fn):
    """Run one op; return (sample, observation or None, error text), where
    the sample is (wall start, wall end, process CPU seconds)."""
    c0 = process_time()
    t0 = perf_counter()
    try:
        obs = fn()
        err = None
    except Exception:  # an op that raises is a failed op, not a crash
        obs, err = None, traceback.format_exc()
    t1 = perf_counter()
    return (t0, t1, process_time() - c0), obs, err


def tail(values):
    """The highest of TAIL_LEVELS with at least ten samples beyond it."""
    n = len(values)
    for level in TAIL_LEVELS:
        if n * (100.0 - level) / 100.0 >= 10:
            cut = statistics.quantiles(values, n=1000, method="inclusive")
            return level, cut[int(level * 10) - 1]
    return None, None


class Passes:
    """Timed samples of whole passes over the op mix, kept as samples of
    run_op until the run converts them to seconds."""

    def __init__(self):
        self.samples = {}
        self.attempted = 0
        self.failed = 0
        self.errors = []

    def add(self, key, sample, ok, err):
        self.samples.setdefault(key, []).append(sample)
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.errors) < 5:
                self.errors.append((key, err))

    def times(self, clock):
        """{op: [clock(sample) for each sample]}"""
        return {key: [clock(s) for s in samples]
                for key, samples in self.samples.items()}

    def rate(self, clock):
        """Verified ops per second of summed op time over whole passes."""
        total = sum(sum(ts) for ts in self.times(clock).values())
        return (self.attempted - self.failed) / total


def sample_since(t0, c0):
    """A run_op-style sample of the time since wall t0 and CPU c0."""
    return t0, perf_counter(), process_time() - c0


def setup_workload(spec, work):
    """One full set-up: inputs plus a warm-up op.
    Returns (sample, ops)."""
    c0, t0 = process_time(), perf_counter()
    ops = spec["setup"](work)
    _, _, err = run_op(ops[spec["warmup"]])
    if err is not None:
        print(f"warm-up op {spec['warmup']} raised:\n{err}", file=sys.stderr)
    return sample_since(t0, c0), ops


def run_passes(ops, expected, seed, seconds, tracer=None):
    """Whole passes in seed-shuffled order until `seconds` have elapsed
    and at least MIN_PASSES have run.  With a tracer, passes alternate
    untraced and traced and the run ends after a traced pass."""
    rng = random.Random(seed)
    plain, traced = Passes(), Passes()
    keys = sorted(ops)
    start = perf_counter()
    n_pass = 0
    while True:
        order = list(keys)
        rng.shuffle(order)
        tracing = tracer is not None and n_pass % 2 == 1
        sink = traced if tracing else plain
        if tracing:
            tracer.install()
        try:
            for key in order:
                if tracing:
                    tracer.begin_op(key)
                sample, obs, err = run_op(ops[key])
                if tracing:
                    tracer.end_op()
                ok = obs is not None and obs == expected.get(key)
                if err is None and not ok:
                    err = (f"observation differs from the oracle:\n"
                           f"  got      {json.dumps(obs)}\n"
                           f"  expected {json.dumps(expected.get(key))}")
                sink.add(key, sample, ok, err)
        finally:
            if tracing:
                tracer.uninstall()
        n_pass += 1
        done = perf_counter() - start >= seconds and n_pass >= MIN_PASSES
        if done and (tracer is None or n_pass % 2 == 0):
            return plain, traced, n_pass


def report_errors(passes):
    for key, err in passes.errors:
        print(f"op {key} failed:\n{err}", file=sys.stderr)


def clocks(probe):
    """Ways to turn a sample into seconds.  Reference seconds are gated;
    wall and process CPU seconds are printed beside them for comparison.
    CPU seconds leave out the probe's handler time, as reference seconds
    do."""
    return {
        "ref": lambda s: probe.reference_seconds(s[0], s[1]),
        "wall": lambda s: s[1] - s[0],
        "cpu": lambda s: s[2] - probe.handler_seconds(s[0], s[1]),
    }


def timing_metrics(spec, plain, import_sample, setup_samples, clock):
    """The timed end-to-end metrics, with `clock` converting samples."""
    times = plain.times(clock)
    setups = [clock(s) for s in setup_samples]
    return {
        "ops_per_s": plain.rate(clock),
        "op_p50_s": statistics.median(statistics.median(ts)
                                      for ts in times.values()),
        "largest_op_s": statistics.median(times[spec["largest"]]),
        "setup_s": clock(import_sample) + statistics.median(setups),
    }, times, setups


def end_to_end(spec, plain, n_pass, import_sample, setup_samples, probe):
    by_clock = {name: timing_metrics(spec, plain, import_sample,
                                     setup_samples, clock)
                for name, clock in clocks(probe).items()}
    ref, times, setups = by_clock["ref"]
    wall, cpu = by_clock["wall"][0], by_clock["cpu"][0]
    units = {"ops_per_s": "1/s", "op_p50_s": "s", "largest_op_s": "s",
             "setup_s": "s"}
    metrics = {name: (value, units[name]) for name, value in ref.items()}
    metrics["peak_rss_mib"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MiB")

    def line(name, note):
        print(f"{name} = {ref[name]:.6g} {units[name]} [wall "
              f"{wall[name]:.6g}, cpu {cpu[name]:.6g}] ({note})")

    pooled = [t for ts in times.values() for t in ts]
    print(f"passes: {n_pass} over a mix of {len(times)} ops; "
          f"{plain.attempted} ops attempted; times in reference seconds "
          f"({len(probe.durations)} probe samples), wall and process CPU "
          f"seconds in brackets")
    line("ops_per_s", f"verified ops over summed op time, n={len(pooled)}")
    line("op_p50_s", f"median over the mix of per-op medians; pooled "
         f"median {statistics.median(pooled):.6g} s, n={len(pooled)}")
    line("largest_op_s", f"op {spec['largest']}, median of "
         f"n={len(times[spec['largest']])}")
    level, value = tail(pooled)
    if level is None:
        print(f"tail: no percentile has 10 samples beyond it "
              f"(n={len(pooled)}); not gated")
    else:
        beyond = int(len(pooled) * (100 - level) / 100)
        print(f"op_p{level:g}_s = {value:.6g} s (n={len(pooled)}, "
              f"{beyond} beyond); not gated")
    line("setup_s", f"import {probe.reference_seconds(*import_sample[:2]):.4g}"
         f" s + median of {len(setups)} set-ups "
         f"{[round(t, 4) for t in setups]}")
    print(f"peak_rss_mib = {metrics['peak_rss_mib'][0]:.6g} MiB")
    print("per-op median s: " + ", ".join(
        f"{key} {statistics.median(ts):.4g}"
        for key, ts in sorted(times.items())))
    print(f"failed_frac = {plain.failed / plain.attempted:.6g} "
          f"({plain.failed}/{plain.attempted})")
    return metrics


def layer_unit(name):
    if name.endswith((".calls", ".blocks", ".lattice_size")):
        return "count"
    if ".bytes_" in name:
        return "B"
    if name.endswith("_per_closure"):
        return "ratio"
    return "s"


def per_layer(args, plain, traced, tracer, probe):
    import tracer as tracer_mod
    n = traced.attempted
    layer = tracer.layer_metrics(n)
    ref = clocks(probe)["ref"]
    plain_rate = plain.rate(ref)
    traced_rate = traced.rate(ref)
    overhead = plain_rate / traced_rate
    violations = [name for name in ZERO_CALLS.get(args.workload, ())
                  if layer[name] != 0]
    metrics = {name: (value, layer_unit(name)) for name, value in layer.items()}
    metrics["trace.ops_per_s"] = (traced_rate, "1/s")
    metrics["trace.untraced_ops_per_s"] = (plain_rate, "1/s")
    metrics["trace.overhead"] = (overhead, "ratio")
    metrics["trace.invariant_violations"] = (len(violations), "count")

    op_s = layer["op.s"]
    print(f"traced passes: {n // len(traced.samples)} ({n} ops); untraced "
          f"{plain.attempted} ops; overhead {overhead:.4g}x "
          f"(untraced {plain_rate:.5g} vs traced {traced_rate:.5g} ops per "
          f"reference second); layer times in wall seconds")
    print(f"traced op time {op_s:.5g} s per op; share by layer (self time):")
    for name in tracer_mod.LAYERS:
        share = layer[f"{name}.self_s"] / op_s if op_s else 0.0
        print(f"  {name:<11} {layer[name + '.self_s']:.5g} s  {share:6.1%}")
    print(f"  {'(op rest)':<11} {layer['op.self_s']:.5g} s  "
          f"{layer['op.self_s'] / op_s if op_s else 0.0:6.1%}")
    print("per op: traced seconds per sample, then share by layer (self time)")
    print("| op | s | " + " | ".join(tracer_mod.LAYERS) + " |")
    print("|---|---|" + "---|" * len(tracer_mod.LAYERS))
    for key, per_op in sorted(tracer.by_op.items()):
        samples = len(traced.samples[key])
        print(f"| {key} | {per_op['op'] / samples:.4g} | " + " | ".join(
            f"{per_op[name] / per_op['op']:.1%}" for name in tracer_mod.LAYERS)
            + " |")
    for name in ZERO_CALLS.get(args.workload, ()):
        state = "ok" if layer[name] == 0 else "VIOLATED"
        print(f"invariant {name} == 0 on timed ops: {state} "
              f"(read {layer[name]:g})")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    # The probe imports numpy, so its start counts as program import time.
    work = os.path.join(WORK, f"{args.workload}-{os.getpid()}")
    c0, t0 = process_time(), perf_counter()
    from probe import Probe
    probe = Probe()
    probe.start()
    try:
        try:
            workloads = import_program()
        except (ProgramMissing, ImportError) as err:
            print(f"cannot import the program: {err}", file=sys.stderr)
            return 2
        import_sample = sample_since(t0, c0)
        spec = workloads.WORKLOADS[args.workload]
        expected = load_oracle()[args.workload]

        print(f"# workload={args.workload} seed={args.seed} "
              f"seconds={args.seconds:g} trace={args.trace}")
        os.makedirs(work, exist_ok=True)
        setup_samples = []
        for _ in range(SETUP_REPS):
            ops = None
            gc.collect()
            sample, ops = setup_workload(spec, work)
            setup_samples.append(sample)
        gc.collect()
        tracer = None
        if args.trace:
            from tracer import Tracer
            tracer = Tracer()
        plain, traced, n_pass = run_passes(ops, expected, args.seed,
                                           args.seconds, tracer)
    finally:
        probe.stop()
        shutil.rmtree(work, ignore_errors=True)
    if tracer is not None:
        tracer.write_spans(os.path.join(WORK, f"spans-{args.workload}.jsonl"))

    report_errors(plain)
    report_errors(traced)
    if args.trace:
        metrics = per_layer(args, plain, traced, tracer, probe)
    else:
        metrics = end_to_end(spec, plain, n_pass, import_sample, setup_samples,
                             probe)
    attempted = plain.attempted + traced.attempted
    failed = plain.failed + traced.failed
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
