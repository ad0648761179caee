"""xmodal benchmark: one closed-loop workload per process.

    python3 bench/run.py --workload train_ref --seed 0 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 0 --seconds 30

With --trace 0 the run reports the end-to-end metrics, timed on the host
clock of hostclock.py; with --trace 1 it alternates untraced and traced
rounds and reports per-layer metrics, in wall time, plus the tracing
overhead. `--workload all` runs each workload in its own child
process, so that each peak RSS belongs to one workload, and prints the
end-to-end metrics under the names used in bench/README.md.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`. The line before it carries
the environment fingerprint. Both also go to `.bench_out/` in the checkout.
"""

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

BLAS_THREADS = 1  # fixed, and no larger than nproc on any machine
SETUP_REPEATS = 3
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT_DIR = os.path.join(ROOT, ".bench_out")
WORKLOAD_NAMES = ("train_ref", "eval_gallery", "gradcheck")

END_TO_END = {  # name -> unit
    "setup_s": "s",
    "throughput_per_s": "1/s",
    "latency_ms_p50": "ms",
    "latency_ms_p95": "ms",
    "peak_rss_mb": "MB",
}
# What each end-to-end metric is called on each workload (see README.md).
WORKLOAD_METRIC_NAMES = {
    "train_ref": {"throughput_per_s": "train_steps_per_s", "latency_ms_p50": "train_step_ms_p50",
                  "latency_ms_p95": "train_step_ms_p95"},
    "eval_gallery": {"throughput_per_s": "eval_queries_per_s", "latency_ms_p50": "query_batch_ms_p50",
                     "latency_ms_p95": "query_batch_ms_p95"},
    "gradcheck": {"throughput_per_s": "gradcheck_instances_per_s",
                  "latency_ms_p50": "gradcheck_run_ms_p50",
                  "latency_ms_p95": "gradcheck_run_ms_p95"},
}


def pin_blas_threads():
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)


def import_package():
    """Import xmodal from this checkout's src/, never from anywhere else."""
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "xmodal", "__init__.py")):
        raise SystemExit(f"bench: no xmodal package under {src}")
    sys.path.insert(0, src)
    import xmodal
    if os.path.dirname(os.path.dirname(os.path.abspath(xmodal.__file__))) != src:
        raise SystemExit(f"bench: imported xmodal from {xmodal.__file__}, not from {src}")


def fingerprint():
    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_THREADS,
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "mem_total_mb": os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE") // 2**20,
    }


def peak_rss_mb():
    import resource
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Checks:
    """Correctness checks on a run's rounds.

    Only the first round's output and a digest of every round are kept, so
    memory held for checking does not grow with the number of rounds. After
    the timed loop, `run` checks the first output and that every later
    round repeated it bit for bit.
    """

    def __init__(self, workload):
        self.workload = workload
        self.first = None
        self.digests = []
        self.attempted = 0
        self.failures = []

    def keep(self, output):
        self.digests.append(self.workload.digest(output))
        if self.first is None:
            self.first = output

    def run(self):
        results = dict(self.workload.check(self.first))
        for i, key in enumerate(self.digests[1:], start=1):
            results[f"repeatable_round{i}"] = key == self.digests[0]
        for name, ok in results.items():
            self.attempted += 1
            if not ok:
                self.failures.append(name)


def trimmed_mean(repeats):
    """Mean over repeats (axis 0) without the fastest and slowest tenth.

    One repeat is dropped at each end from 5 repeats on. A mean, not a
    median: some costs split into two levels from call to call (the 1.5 GB
    eval tensor pages in at one of two speeds), and a median of such
    repeats jumps between the levels where a mean moves by their share.
    """
    import numpy as np
    ordered = np.sort(np.asarray(repeats, dtype=float), axis=0)
    cut = (len(ordered) + 5) // 10
    return ordered[cut:len(ordered) - cut].mean(axis=0)


def timed(workload, seconds, checks):
    """Closed loop of identical rounds for `seconds`, on a `HostClock`.

    Every round repeats the same work, so each figure is a trimmed mean of
    its repeats. The clock times each unit (train step, query batch,
    gradcheck call); unit i of every round does the same work, so each
    unit's latency is the trimmed mean of its repeats, and the percentiles
    are over units. A typical round takes the sum of those means plus the
    trimmed mean of the time spent outside units; throughput is a round's
    units over that time. Raw wall-clock figures go to the run details.

    Outputs go to `checks` and are checked later, so that checking adds
    nothing to the peak RSS. Returns the timings and run details.
    """
    import numpy as np
    from hostclock import HostClock
    clocks = []
    start = time.perf_counter()
    while not clocks or time.perf_counter() - start < seconds:
        clock = HostClock(scaled=workload.host_scaled)
        workload.mark_clock(clock)
        clock.start()
        try:
            units, output = workload.round()
        finally:
            clock.stop()
            clock.uninstall()
        clocks.append(clock)
        checks.keep(output)
        del output
    if len({len(c.units) for c in clocks}) != 1:
        raise SystemExit("bench: rounds timed different numbers of latency units")
    unit_ms = trimmed_mean([c.units for c in clocks]) * 1e3
    wall_ms = trimmed_mean([c.unit_walls for c in clocks]) * 1e3
    kernel = [k for c in clocks for k in c.kernel_s]
    typical_round_s = unit_ms.sum() / 1e3 + trimmed_mean([c.outside for c in clocks])
    return {
        "throughput_per_s": units / typical_round_s,
        "latency_ms_p50": float(np.percentile(unit_ms, 50)),
        "latency_ms_p95": float(np.percentile(unit_ms, 95)),
        "peak_rss_mb": peak_rss_mb(),
    }, {"rounds": len(clocks), "units_per_round": units,
        "latency_units_per_round": unit_ms.size,
        "round_scaled_s": [c.scaled for c in clocks],
        "round_wall_s": [c.wall for c in clocks],
        "wall_throughput_per_s": units / statistics.median(c.wall for c in clocks),
        "wall_latency_ms_p50": float(np.percentile(wall_ms, 50)),
        "wall_latency_ms_p95": float(np.percentile(wall_ms, 95)),
        "kernel_ms_median": 1e3 * statistics.median(kernel) if kernel else None}


def timed_setup(workload, repeats):
    """Run set-up `repeats` times on a `HostClock`; scaled and wall seconds of each."""
    from hostclock import HostClock
    scaled, wall = [], []
    for _ in range(repeats):
        clock = HostClock(scaled=workload.host_scaled)
        workload.mark_clock(clock)
        clock.start()
        try:
            workload.setup()
        finally:
            clock.stop()
            clock.uninstall()
        scaled.append(clock.scaled)
        wall.append(clock.wall)
    return scaled, wall


def measure_traced(workload, seconds, checks, spans_path):
    """Alternate untraced and traced rounds; per-layer values are per traced round."""
    from tracer import LAYERS, Tracer
    tracer = Tracer()
    plain, traced = [], []
    start = time.perf_counter()
    while not traced or time.perf_counter() - start < seconds:
        t0 = time.perf_counter()
        _, output = workload.round()
        plain.append(time.perf_counter() - t0)
        checks.keep(output)
        del output
        tracer.install()
        t0 = time.perf_counter()
        root = tracer.begin_run(len(traced))
        try:
            _, output = workload.round()
        finally:
            tracer.end_run(root)
            tracer.uninstall()
        traced.append(time.perf_counter() - t0)
        checks.keep(output)
        del output
    tracer.write(spans_path)

    n = len(traced)
    spans = tracer.summary()
    counts = tracer.counts

    def span(name, field):
        return spans.get(name, {}).get(field, 0) / n

    def ratio(num, den):
        return num / den if den else 0.0

    metrics = {}
    for name in ("losses.dual_modality_triplet", "numerics.pairwise_distances", "encoder.encode",
                 "encoder.encode_backward", "data.sample_pk_batch", "numerics.finite_diff_grad",
                 "losses.mining_margins"):
        metrics[f"{name}.busy_s"] = span(name, "busy_s")
        metrics[f"{name}.calls"] = span(name, "calls")
    for name in ("numerics.adam_step", "losses.softmax_cross_entropy", "data.load_dataset",
                 "harness.load_checkpoint"):
        metrics[f"{name}.busy_s"] = span(name, "busy_s")
    for name in ("losses.total_loss", "evaluation.evaluate_features"):
        metrics[f"{name}.self_s"] = span(name, "self_s")
    metrics["evaluation.average_precision.calls"] = span("evaluation.average_precision", "calls")
    for key in ("numerics.pairwise_distances.pairs", "encoder.encode.rows",
                "numerics.finite_diff_grad.evals"):
        metrics[key] = counts.get(key, 0) / n

    import xmodal.harness as harness
    for component in harness.GRADCHECK_COMPONENTS:
        name = f"harness.gradcheck.{component}"
        metrics[f"{name}.busy_s"] = span(name, "busy_s")
    # instances accepted per kink test: the rest is wasted resampling
    metrics["harness.gradcheck.accept_ratio"] = ratio(
        len(tracer.ancestors_of("losses.mining_margins", "harness.gradcheck.")),
        spans.get("losses.mining_margins", {}).get("calls", 0))
    metrics["evaluation.skipped_query_ratio"] = ratio(
        counts.get("evaluation.evaluate_features.skipped", 0),
        counts.get("evaluation.evaluate_features.queries", 0))
    for layer in LAYERS:
        metrics[f"layer.{layer}.self_s"] = sum(
            rec["self_s"] for name, rec in spans.items() if name.startswith(layer + ".")) / n
    metrics["trace.untraced_round_s"] = statistics.median(plain)
    metrics["trace.traced_round_s"] = statistics.median(traced)
    metrics["trace.overhead_s"] = metrics["trace.traced_round_s"] - metrics["trace.untraced_round_s"]
    return metrics, {"rounds": n, "spans": len(tracer.start), "spans_file": spans_path}


PER_LAYER_UNITS = {"busy_s": "s", "self_s": "s", "calls": "count", "pairs": "count",
                   "rows": "count", "evals": "count", "accept_ratio": "ratio",
                   "skipped_query_ratio": "ratio", "untraced_round_s": "s",
                   "traced_round_s": "s", "overhead_s": "s"}


def run_one(args):
    pin_blas_threads()
    import_package()
    from workloads import FULL, TOY, WORKLOADS

    os.makedirs(OUT_DIR, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT_DIR)
    try:
        workload = WORKLOADS[args.workload](args.seed, TOY if args.toy else FULL, workdir)
        setup, setup_wall = timed_setup(workload, 1 if args.trace else SETUP_REPEATS)
        tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
        checks = Checks(workload)
        if args.trace:
            values, detail = measure_traced(workload, args.seconds, checks,
                                            os.path.join(OUT_DIR, f"spans-{tag}.npz"))
            units = {k: PER_LAYER_UNITS[k.rsplit(".", 1)[1]] for k in values}
        else:
            values, detail = timed(workload, args.seconds, checks)
            values["setup_s"] = statistics.median(setup)
            units = END_TO_END
            values = {k: values[k] for k in END_TO_END}
        checks.run()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    detail.update(throughput_unit=workload.unit,
                  failed_share=len(checks.failures) / checks.attempted,
                  failed_checks=checks.failures, setup_scaled_s=setup,
                  setup_wall_s=setup_wall)
    result = {
        "correct": not checks.failures,
        "attempted": checks.attempted,
        "failed": len(checks.failures),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()},
    }
    env = fingerprint()
    with open(os.path.join(OUT_DIR, f"result-{tag}.json"), "w", encoding="utf-8") as fh:
        json.dump({"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                   "trace": args.trace, "environment": env, "detail": detail, **result}, fh, indent=2)
    print(json.dumps({"environment": env, "detail": detail}))
    print(json.dumps(result))
    return 0


def run_all(args):
    """Each workload in its own process; prints the end-to-end table."""
    rows, correct = [], True
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.toy:
            cmd.append("--toy")
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=False)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            raise SystemExit(f"bench: workload {name} exited with {proc.returncode}")
        lines = proc.stdout.strip().splitlines()
        env, result = json.loads(lines[-2]), json.loads(lines[-1])
        correct &= result["correct"]
        rows.append((name, env, result))
    print(json.dumps({"environment": rows[0][1]["environment"]}))
    for name, env, result in rows:
        names = WORKLOAD_METRIC_NAMES[name]
        for key, m in result["metrics"].items():
            print(f"{name:>13}  {names.get(key, key):<28} {m['value']:>14.6g} {m['unit']}")
        print(f"{name:>13}  {'failed_share':<28} {env['detail']['failed_share']:>14.6g} "
              f"({result['failed']}/{result['attempted']} checks)")
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r["attempted"] for _, _, r in rows),
        "failed": sum(r["failed"] for _, _, r in rows),
        "metrics": {f"{name}.{WORKLOAD_METRIC_NAMES[name].get(k, k)}": m
                    for name, _, r in rows for k, m in r["metrics"].items()},
    }))
    return 0 if correct else 1


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--toy", action="store_true", help="tiny sizes, for the self-test")
    args = parser.parse_args(argv)
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
