"""Benchmark of projforest: one workload per process, timed end to end, with
a separate traced run for the per-layer figures.

Usage, from the root of a source checkout::

    python3 benchmark/run.py --workload yeast_file --seed 1 --seconds 36 --trace 0

The library is imported from ``src/`` of the checkout; the run fails when it
is not there.  Inputs are made from ``--seed``.  Set-up is repeated and its
median reported.  Then whole rounds of the workload's operations run until the
next round would end after ``--seconds``; every timed metric is the median
over rounds.  With ``--trace 1`` untraced and traced rounds alternate, and the
per-layer metrics come from the traced ones.  Every round's outputs are
checked.  The last line printed is the JSON result.
"""

import os

# One BLAS thread: set before numpy is first imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(HERE, "out")

SETUP_REPEATS = 3
IMPORT_REPEATS = 3
MIN_ROUNDS = 2
# The speed probe's typical time on the reference machine (see README).
# Reported times are scaled by PROBE_REF_S / (the run's median probe time)
# and rates by its inverse.
PROBE_REF_S = 0.025

END_TO_END_UNITS = {
    "setup_s": "s",
    "experiment_s": "s",
    "fit_s": "s",
    "fit_m1_s": "s",
    "fit_md_s": "s",
    "predict_rows_per_s": "rows/s",
    "lrap_rows_per_s": "rows/s",
    "lrap": "score",
    "peak_rss_mb": "MB",
}

PER_LAYER_UNITS = {
    "datasets.load_s": "s",
    "datasets.load_mb_per_s": "MB/s",
    "projection.s": "s",
    "projection.calls": "count",
    "tree.grow_s": "s",
    "tree.grow_us_per_node": "us",
    "tree.md_over_m1": "ratio",
    "tree.nodes": "count",
    "tree.leaves": "count",
    "tree.max_depth": "count",
    "tree.scan_rows": "count",
    "ensemble.fit_other_s": "s",
    "tree.predict_s": "s",
    "ensemble.predict_self_s": "s",
    "metrics.lrap_s": "s",
    "decomposition.self_s": "s",
    "decomposition.fits": "count",
    "trace.overhead_s": "s",
}


PROBE_PARTS = ("loop", "sort", "gather_cumsum")


def _probe_work():
    import numpy as np

    rng = np.random.default_rng(12345)
    data = rng.random(200_000)
    wide = rng.random((1000, 1000))
    order = rng.permutation(1000)

    def probe():
        """Three fixed tasks whose times track the speed the machine gives
        this process at the moment: a pure-Python loop (interpreter-bound
        work), a numpy sort that fits in cache, and a row gather plus a
        cumulative sum over an 8 MB array, larger than a core's L2 cache
        (memory-bound work, like the split scan at large m).  Returns the
        seconds of each part, in the order of ``PROBE_PARTS``."""
        tic = time.perf_counter()
        acc = 0
        for i in range(100_000):
            acc += i * i % 7
        t_loop = time.perf_counter()
        np.sort(data)
        t_sort = time.perf_counter()
        np.cumsum(wide[order], axis=0)
        t_mem = time.perf_counter()
        return (t_loop - tic, t_sort - t_loop, t_mem - t_sort)

    return probe


class Clock:
    """Times operations, with the speed probe run just before each one."""

    def __init__(self, probe):
        self.probe = probe
        self.tracer = None
        self.samples = {}
        self.probes = []
        self.trail = []
        self.round_seconds = 0.0
        self.attempted = 0
        self.failed = 0

    def op(self, name, fn, *args, **kwargs):
        probe = self.probe()
        self.probes.append(probe)
        self.attempted += 1
        tic = time.perf_counter()
        try:
            if self.tracer is None:
                result = fn(*args, **kwargs)
            else:
                with self.tracer.span("op." + name):
                    result = fn(*args, **kwargs)
        except Exception:
            self.failed += 1
            raise
        elapsed = time.perf_counter() - tic
        self.round_seconds += elapsed
        self.samples.setdefault(name, []).append(elapsed)
        self.trail.append((name, elapsed, sum(probe)))
        return result


def run(name, seed, seconds, trace, size="full", out_dir=OUT_DIR, import_s=0.0):
    """Run one workload; returns (result line dict, details dict)."""
    import spans as tracing
    from workloads import SIZES, WORKLOADS

    os.makedirs(out_dir, exist_ok=True)
    workload = WORKLOADS[name](seed, SIZES[size][name], out_dir)
    setup_times = []
    for _ in range(SETUP_REPEATS):
        tic = time.perf_counter()
        workload.setup()
        setup_times.append(time.perf_counter() - tic)

    probe = _probe_work()
    untraced = Clock(probe)
    traced = Clock(probe)
    tracer = tracing.Tracer() if trace else None
    traced.tracer = tracer
    problems = []
    round_times = {"untraced": [], "traced": []}
    layer_rounds = []
    start = time.perf_counter()
    index = 0
    while True:
        use_trace = bool(trace) and index % 2 == 1
        clock = traced if use_trace else untraced
        clock.round_seconds = 0.0
        first_span = len(tracer.spans) if use_trace else 0
        if use_trace:
            tracer.start_round(index)
        out = None  # the previous round's outputs are not kept alive during this one
        try:
            out = workload.round(clock)
        except Exception as exc:
            traceback.print_exc()
            problems.append("round {} raised {}: {}".format(index, type(exc).__name__, exc))
        finally:
            if use_trace:
                tracer.end_round()
        if out is not None:
            round_times["traced" if use_trace else "untraced"].append(clock.round_seconds)
            problems += workload.check(out)
            if use_trace:
                layer_rounds.append(tracing.layer_metrics(
                    tracer.spans[first_span:], workload.load_bytes, "op.fit_m1", "op.fit_md",
                    ["op." + name for name in workload.side_ops]))
        index += 1
        elapsed = time.perf_counter() - start
        if index >= MIN_ROUNDS and (not trace or index % 2 == 0):
            if elapsed + elapsed / index > seconds:
                break
    workload.cleanup()

    def med(values):
        return statistics.median(values) if values else float("nan")

    samples = untraced.samples
    n_query = workload.Xq.shape[0]
    raw = {
        "setup_s": import_s + med(setup_times),
        "experiment_s": med(round_times["untraced"]),
        "fit_s": med(samples.get("fit", [])),
        "fit_m1_s": med(samples.get("fit_m1", [])),
        "fit_md_s": med(samples.get("fit_md", [])),
        "predict_rows_per_s": n_query / med(samples.get("predict", [])),
        "lrap_rows_per_s": n_query / med(samples.get("lrap", [])),
        "lrap": workload.first["lrap"] if workload.first else float("nan"),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    probes = untraced.probes + traced.probes
    probe_parts = {part: med([p[i] for p in probes]) for i, part in enumerate(PROBE_PARTS)}
    probe_s = med([sum(p) for p in probes])
    scale = {"s": PROBE_REF_S / probe_s, "rows/s": probe_s / PROBE_REF_S}
    e2e = {k: v * scale.get(END_TO_END_UNITS[k], 1.0) for k, v in raw.items()}
    details = {
        "workload": name,
        "seed": seed,
        "trace": trace,
        "rounds": round_times,
        "setup_seconds": setup_times,
        "import_s": import_s,
        "probe_s": probe_s,
        "probe_parts_s": probe_parts,
        "samples": samples,
        "trail": untraced.trail,
        "problems": problems,
        "end_to_end": e2e,
        "end_to_end_raw": raw,
    }
    if trace:
        layers = {}
        for key in PER_LAYER_UNITS:
            values = [r[key] for r in layer_rounds if key in r]
            if values:
                layers[key] = statistics.median_low(values)
        if round_times["traced"] and round_times["untraced"]:
            layers["trace.overhead_s"] = med(round_times["traced"]) - med(round_times["untraced"])
        details["per_layer"] = layers
        details["missing"] = tracer.missing
        tracer.write(os.path.join(out_dir, "spans-{}-{}.json".format(name, seed)))
        chosen, units = layers, PER_LAYER_UNITS
    else:
        chosen, units = e2e, END_TO_END_UNITS
    result = {
        "correct": not problems,
        "attempted": untraced.attempted + traced.attempted,
        "failed": untraced.failed + traced.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in chosen.items()},
    }
    with open(os.path.join(out_dir, "result-{}-{}-trace{}.json".format(name, seed, trace)),
              "w") as fh:
        json.dump({"result": result, "details": details}, fh, indent=1)
    return result, details


def time_imports():
    """Median time to import numpy, scipy, projforest and the workloads in a
    fresh interpreter.  An interpreter imports a module once, so each repeat
    runs in a child process, which ends before the next starts."""
    code = ("import sys, time; sys.path[:0] = [{!r}, {!r}]; tic = time.perf_counter(); "
            "import numpy, projforest, workloads; print(time.perf_counter() - tic)"
            ).format(SRC, HERE)
    times = []
    for _ in range(IMPORT_REPEATS):
        child = subprocess.run([sys.executable, "-c", code], check=True,
                               capture_output=True, text=True)
        times.append(float(child.stdout.split()[-1]))
    return statistics.median(times)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("yeast_file", "wide_labels", "decomposition"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "projforest", "__init__.py")):
        print("benchmark: no library source at {}".format(SRC), file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import projforest
    if not os.path.abspath(projforest.__file__).startswith(SRC + os.sep):
        print("benchmark: projforest was imported from {}, not {}".format(
            projforest.__file__, SRC), file=sys.stderr)
        return 2

    result, details = run(args.workload, args.seed, args.seconds, args.trace,
                          import_s=time_imports())
    for problem in details["problems"]:
        print("CHECK FAILED: " + problem)
    print("workload {} seed {}: {} untraced and {} traced rounds, probe {:.6f} s ({})".format(
        args.workload, args.seed, len(details["rounds"]["untraced"]),
        len(details["rounds"]["traced"]), details["probe_s"],
        ", ".join("{} {:.6f}".format(k, v) for k, v in details["probe_parts_s"].items())))
    if details.get("missing"):
        print("missing layers: " + ", ".join(details["missing"]))
    raw = details["end_to_end_raw"] if not args.trace else {}
    for key, metric in result["metrics"].items():
        line = "  {:<26} {:>16.6f} {:<7}".format(key, metric["value"], metric["unit"])
        if key in raw and raw[key] != metric["value"]:
            line += " (raw {:.6f})".format(raw[key])
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
