#!/usr/bin/env python3
"""cpdhr benchmark: run the workloads, check every case, print the metrics.

    python3 perfbench/run.py [--workload NAME|all] [--seed N] [--trace 0|1]
                             [--out results.json]

Load shape: a closed loop with one client in one process; the next case
starts when the previous one has ended. Case seeds derive from --seed in a
fixed order, so a seed always gives the same inputs. With --workload all
each workload runs in a process of its own, one after the other, so every
process-wide figure (peak_rss_mb) belongs to one workload.

The run length is ``run_seconds`` in BENCHMARK.json, per workload. The
calling convention of the benchmark passes it again as --seconds, which is
accepted only with that same value.

--trace 0 (default) measures the end-to-end metrics for the run length.
Set-up time is the median wall time of SETUP_REPEATS child processes that
each start Python, import cpdhr, build the workload and warm it up.

--trace 1 runs the workload's first ``trace_cases`` cases twice each, plain
and with the outside-in wrappers of bench_tracing installed, alternating
which goes first. It checks that both runs give bit-identical outputs,
reports the per-layer metrics from the traced runs and the overhead of
tracing from the pairs, and writes every span to .perfbench_out/. A fixed
case count makes the counts repeat exactly for a seed; the run length only
caps the run.

Metric names and units come from BENCHMARK.json at the repository root.
The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics. See perfbench/README.md.
"""

import os

# Fixed before numpy is imported; the run record stores it.
BLAS_THREADS = 1
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import dataclasses  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench_out")
SETUP_REPEATS = 3
SETUP_TIMEOUT_S = 120
WORKLOAD_TIMEOUT_S = 600


def _import_program():
    """Import cpdhr from this checkout's src/ and nowhere else."""
    sys.path.insert(0, SRC)
    try:
        import cpdhr
    except ImportError as exc:
        sys.exit(f"error: cannot import cpdhr from {SRC}: {exc}")
    if not os.path.abspath(cpdhr.__file__).startswith(SRC + os.sep):
        sys.exit(f"error: cpdhr was imported from {cpdhr.__file__}, not from {SRC}")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", default="all", help="workload name, or 'all'")
    p.add_argument("--seed", type=int, default=1, help="workload seed")
    p.add_argument("--seconds", type=float,
                   help="must equal run_seconds in BENCHMARK.json, where the run length is set")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", help="also write the results, with the run record, to this file")
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def run_length(spec, seconds):
    """The measurement time per workload: run_seconds from the spec."""
    length = spec["run_seconds"]
    if seconds is not None and seconds != length:
        sys.exit(f"error: --seconds {seconds:g} differs from run_seconds {length} "
                 "in BENCHMARK.json, where the run length is set")
    return length


def warm_up(workload):
    """Run the fixed warm-up instance once per algorithm the workload uses."""
    from bench_cases import WARMUP_SEED

    for index in range(len(workload.algorithms)):
        inputs = workload.prepare(WARMUP_SEED, index)
        try:
            workload.run(inputs)
        finally:
            workload.cleanup(inputs)


def measure_setup(clock, name, seed):
    """Median time, at nominal speed, of fresh processes doing the full
    set-up; also the median raw wall time."""
    scaled, raw = [], []
    before = clock.reference_ms()
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(seed), "--setup-only"],
            cwd=ROOT, check=True, timeout=SETUP_TIMEOUT_S, stdout=subprocess.DEVNULL,
        )
        elapsed = time.perf_counter() - t0
        after = clock.reference_ms()
        raw.append(elapsed)
        scaled.append(elapsed * clock.scale(before, after))
        before = after
    return statistics.median(scaled), statistics.median(raw)


def run_case(workload, inputs, call=None, fingerprint=False):
    """Time one call into the program and check it.

    Returns (seconds or None if it raised, outcome, fingerprint or None).
    A case that raises or fails a check is recorded and the run goes on.
    """
    from bench_cases import CaseOutcome

    try:
        t0 = time.perf_counter()
        outputs = call(workload.run, inputs) if call else workload.run(inputs)
        elapsed = time.perf_counter() - t0
        outcome = workload.check(inputs, outputs)
        return elapsed, outcome, workload.fingerprint(inputs, outputs) if fingerprint else None
    except Exception as exc:  # noqa: BLE001 - a raising case is a failed case
        traceback.print_exc(file=sys.stderr)
        return None, CaseOutcome(False, [f"raised {type(exc).__name__}: {exc}"]), None
    finally:
        workload.cleanup(inputs)


def tail(times_ms):
    """(percentile, value): the highest whole percentile with at least ten
    cases beyond it; the median when there are fewer than 20 cases."""
    n = len(times_ms)
    if n < 2:
        return 50, float(times_ms[0])
    pct = min(99, 100 * (n - 10) // n) if n >= 20 else 50
    return pct, float(statistics.quantiles(times_ms, n=100, method="inclusive")[pct - 1])


def _median(values):
    return float(statistics.median(values)) if values else 0.0


def failed_fraction(outcomes):
    """Cases that raised, failed a check, missed the DOA or did not converge."""
    return sum(1 for o in outcomes if o.failed) / len(outcomes)


def measure(clock, workload, index, seed, seconds, first=0):
    """Closed loop over the case seeds, from case `first` on, until
    `seconds` have passed (at least one case).

    Case times are scaled to nominal speed with the reference timed
    between cases (bench_clock); the raw wall times go to the results file.
    """
    from bench_cases import case_seed

    times, raw, outcomes = [], [], []
    start = time.perf_counter()
    before = clock.reference_ms()
    while not outcomes or time.perf_counter() - start < seconds:
        i = first + len(outcomes)
        elapsed, outcome, _ = run_case(workload, workload.prepare(case_seed(seed, index, i), i))
        after = clock.reference_ms()
        outcomes.append(outcome)
        if elapsed is not None:
            raw.append(elapsed * 1e3)
            times.append(elapsed * 1e3 * clock.scale(before, after))
        before = after
    pct, tail_ms = tail(times) if times else (50, 0.0)
    values = {
        "case_p50_ms": _median(times),
        "case_tail_ms": tail_ms,
        "cases_per_s": len(times) / (sum(times) / 1e3) if times else 0.0,
        "cpderr_median": _median([o.cpderr for o in outcomes if o.cpderr is not None]),
        "doa_err_median": _median([o.doa_err for o in outcomes if o.doa_err is not None]),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "failed_fraction": failed_fraction(outcomes),
    }
    extra = {"case_tail_pct": pct, "case_ms": [round(t, 3) for t in times],
             "raw_case_ms": [round(t, 3) for t in raw]}
    return values, outcomes, extra


def measure_traced(clock, workload, index, seed, seconds):
    """Each of the first trace_cases cases plain and traced, as pairs, for
    the per-layer metrics; then plain cases until `seconds` have passed,
    for the end-to-end figures that have no bound."""
    from bench_cases import case_seed
    from bench_tracing import Tracer, layer_metrics

    tracer = Tracer()
    outcomes, ratios = [], []
    start = time.perf_counter()

    def traced(fn, inputs):
        with tracer.installed():
            return tracer.call("case", fn, inputs)

    for i in range(workload.trace_cases):
        if outcomes and time.perf_counter() - start >= seconds:
            break
        s = case_seed(seed, index, i)
        runs = {}
        for mode in (("plain", "traced") if i % 2 == 0 else ("traced", "plain")):
            call = traced if mode == "traced" else None
            runs[mode] = run_case(workload, workload.prepare(s, i), call, fingerprint=True)
        (t_plain, outcome, fp_plain), (t_traced, _, fp_traced) = runs["plain"], runs["traced"]
        if fp_plain is None or fp_plain != fp_traced:
            outcome = dataclasses.replace(
                outcome, problems=outcome.problems + ["traced output differs from plain"])
        else:
            ratios.append(t_traced / t_plain)
        outcomes.append(outcome)
    values = layer_metrics(tracer.spans)
    values["trace.overhead_frac"] = _median(ratios) - 1.0 if ratios else 0.0
    os.makedirs(OUT_DIR, exist_ok=True)
    spans_path = os.path.join(OUT_DIR, f"spans-{workload.name}-seed{seed}.jsonl")
    tracer.write(spans_path)

    remaining = seconds - (time.perf_counter() - start)
    plain, more, extra = measure(clock, workload, index, seed, remaining, first=len(outcomes))
    values.update(plain)
    outcomes += more
    values["failed_fraction"] = failed_fraction(outcomes)
    extra["traced_cases"] = len(ratios)
    extra["spans_file"] = os.path.relpath(spans_path, ROOT)
    return values, outcomes, extra


def run_record(seed):
    import numpy
    import scipy

    from cpdhr import kernels

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": blas.get("name"), "version": blas.get("version")}
    except (AttributeError, KeyError, TypeError):
        blas = None
    try:
        import numba  # noqa: F401
        numba_imports = True
    except ImportError:
        numba_imports = False
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=30, check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            commit = None
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": BLAS_THREADS,
        "thread_env": {var: os.environ.get(var) for var in THREAD_VARS},
        "numba_imports": numba_imports,
        "numba_enabled": kernels.NUMBA_ENABLED,
        "commit": commit,
        "workload_seed": seed,
    }


def run_workload(workload, index, seed, trace, seconds, declared):
    """Set up, warm up and measure one workload in this process; its entry
    in the results file."""
    from bench_clock import Clock

    clock = Clock()
    if not trace:
        setup_s, raw_setup_s = measure_setup(clock, workload.name, seed)
    warm_up(workload)
    if trace:
        values, outcomes, extra = measure_traced(clock, workload, index, seed, seconds)
    else:
        values, outcomes, extra = measure(clock, workload, index, seed, seconds)
        values["setup_s"] = setup_s
        extra["raw_setup_s"] = raw_setup_s
    missing = [m["name"] for m in declared if m["name"] not in values]
    if missing:
        raise RuntimeError(f"{workload.name}: no value for declared metrics {missing}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}
    problems = [f"case {i}: {p}" for i, o in enumerate(outcomes) for p in o.problems]
    misses = [f"case {i}: {m}" for i, o in enumerate(outcomes) for m in o.misses]
    for line in problems[:20]:
        print(f"{workload.name}: {line}", file=sys.stderr)
    return {"cases": len(outcomes), "wrong_output": sum(1 for o in outcomes if o.problems),
            "not_converged": sum(1 for o in outcomes if not o.converged),
            "problems": problems, "misses": misses, "metrics": metrics,
            "values": values, **extra}


def run_in_children(names, seed, trace):
    """Each workload in a process of its own, one after the other; their
    entries in the results file."""
    os.makedirs(OUT_DIR, exist_ok=True)
    results = {}
    for name in names:
        path = os.path.join(OUT_DIR, f"all-{name}-seed{seed}-trace{trace}.json")
        subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name, "--seed", str(seed),
             "--trace", str(trace), "--out", path],
            cwd=ROOT, check=True, timeout=WORKLOAD_TIMEOUT_S, stdout=subprocess.DEVNULL,
        )
        with open(path, encoding="utf-8") as fh:
            results[name] = json.load(fh)["workloads"][name]
        os.remove(path)
    return results


def main(argv=None):
    args = parse_args(sys.argv[1:] if argv is None else argv)
    _import_program()
    from bench_cases import build_workloads

    spec = load_spec()
    seconds = run_length(spec, args.seconds)
    workloads = build_workloads(ROOT)
    if args.workload != "all" and args.workload not in workloads:
        sys.exit(f"error: unknown workload {args.workload!r}, "
                 f"expected one of {list(workloads)} or 'all'")
    if args.setup_only:
        warm_up(workloads[args.workload])
        return 0

    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    if args.workload == "all":
        results = run_in_children(list(workloads), args.seed, args.trace)
    else:
        index = list(workloads).index(args.workload)
        results = {args.workload: run_workload(workloads[args.workload], index, args.seed,
                                                args.trace, seconds, declared)}

    all_metrics = {}
    for name, result in results.items():
        for metric, entry in result["metrics"].items():
            print(f"{name:24s} {metric:48s} {entry['value']:14.6g} {entry['unit']}")
            key = metric if len(results) == 1 else f"{name}.{metric}"
            all_metrics[key] = entry
    attempted = sum(r["cases"] for r in results.values())
    failed = sum(r["wrong_output"] for r in results.values())

    if args.out:
        doc = {"record": run_record(args.seed), "seconds": seconds, "trace": args.trace,
               "workloads": results}
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=2, sort_keys=True)
            fh.write("\n")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": all_metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
