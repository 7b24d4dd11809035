"""nilquant benchmark: one workload per process, closed loop, one caller.

    python3 perfbench/run.py --workload berezin-h1 --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --short        # every workload and check, about 85 s

Run from the repository root: the library is imported from ./src.  The last
line of standard output is one JSON object with `correct`, `attempted`,
`failed` and `metrics` (end-to-end metrics with --trace 0, per-layer metrics
with --trace 1).  A results file with the run's metadata goes to
perfbench/results/.  See perfbench/README.md for the workloads and metrics.
"""

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.getcwd(), "src")
WORKLOAD_NAMES = ("berezin-h1", "bargmann-h1", "symbols-line", "quantize-cli")
SETUP_PROBES = 3
SHORT_SECONDS = 1
BLAS_THREADS = 1
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--short", action="store_true",
                    help="run every workload briefly, untraced and traced, with all checks")
    ap.add_argument("--setup-only", action="store_true",
                    help="import and set up once, print the monotonic clock, exit")
    args = ap.parse_args(argv)
    if not args.short and args.workload is None:
        ap.error("--workload is required unless --short is given")
    return args


def pin_blas_threads() -> int:
    """Run BLAS on BLAS_THREADS threads (before numpy loads).  On a 2-CPU
    machine a second BLAS thread made no workload faster, spent most of its
    time spin-waiting, and doubled the spread of operation times in a run."""
    for var in BLAS_VARS:
        os.environ[var] = str(BLAS_THREADS)
    return BLAS_THREADS


def git_revision() -> str:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True,
                             timeout=10, check=False)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def environment(threads: int) -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"git_revision": git_revision(), "python": platform.python_version(),
            "numpy": np.__version__, "scipy": scipy.__version__,
            "blas": {"name": blas.get("name"), "version": blas.get("version")},
            "blas_threads": threads, "cpus": len(os.sched_getaffinity(0)),
            "machine": platform.machine()}


def probe_setup(args) -> list[float]:
    """Set-up times of SETUP_PROBES fresh interpreters: from spawning the
    process until its imports and workload set-up are done."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"]
    out = []
    for _ in range(SETUP_PROBES):
        t0 = time.monotonic()
        proc = subprocess.run(cmd, capture_output=True, text=True, check=True, timeout=120)
        out.append(float(proc.stdout.strip().splitlines()[-1]) - t0)
    return out


def run_workload(args) -> int:
    if not os.path.isfile(os.path.join(SRC, "nilquant", "__init__.py")):
        print(f"error: no nilquant sources under {SRC}; run from the repository root",
              file=sys.stderr)
        return 2
    probes = [] if args.setup_only else probe_setup(args)
    t_import = time.perf_counter()
    threads = pin_blas_threads()
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    import reference
    import tracer as tracer_mod
    import workloads

    workdir = os.path.join(HERE, "work", f"{args.workload}-{os.getpid()}")
    wl = workloads.WORKLOADS[args.workload](args.seed, workdir)
    wl.setup()
    if args.setup_only:
        print(time.monotonic())
        wl.cleanup()
        return 0
    import_and_setup_s = time.perf_counter() - t_import
    setup_s = statistics.median(probes)

    tracer = tracer_mod.Tracer() if args.trace else None
    times = {False: [], True: []}      # op wall times, keyed by "traced"
    worst = {}                          # check name -> (worst residual, tol)
    failures = []
    attempted = failed = 0
    correct = True
    r = 0
    t_loop = time.perf_counter()
    try:
        # whole rounds until the time is up; a traced run alternates untraced
        # and traced rounds and needs at least one of each
        while r < (2 if tracer else 1) or time.perf_counter() - t_loop < args.seconds:
            traced = bool(tracer) and r % 2 == 1
            for label, fn in wl.ops(r):
                attempted += 1
                if traced:
                    tracer.install()
                t0 = time.perf_counter()
                try:
                    out = fn()
                except Exception as exc:  # a failed operation is counted, not fatal
                    failed += 1
                    failures.append(f"round {r} {label}: {type(exc).__name__}: {exc}")
                    continue
                finally:
                    if traced:
                        tracer.uninstall()
                times[traced].append(time.perf_counter() - t0)
                for c in wl.check(label, out, r):
                    worst[c.name] = (max(worst.get(c.name, (0.0,))[0], c.residual), c.tol)
                    if not c.passed:
                        correct = False
                        failures.append(f"round {r} {label}: check {c.name} "
                                        f"residual {c.residual:.3e} > tol {c.tol:.1e}")
            r += 1
        loop_s = time.perf_counter() - t_loop

        final = list(wl.final_checks())
        final += [workloads.Check(f"reference.{n}", res, tol)
                  for n, res, tol in reference.self_test()]
        for c in final:
            worst[c.name] = (c.residual, c.tol)
            if not c.passed:
                correct = False
                failures.append(f"final check {c.name} residual {c.residual:.3e} > tol {c.tol:.1e}")
        controls = wl.controls() if times[False] or times[True] else []
        for name, rejected in controls:
            if not rejected:
                correct = False
                failures.append(f"negative control {name} was not rejected")
    finally:
        wl.cleanup()

    plain = times[False]
    if not plain and not times[True]:
        correct = False
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer:
        traced_ops = times[True]
        metrics = tracer.metrics(max(len(traced_ops), 1))
        traced_p50 = statistics.median(traced_ops) if traced_ops else 0.0
        plain_p50 = statistics.median(plain) if plain else 0.0
        metrics["trace.op_p50_s"] = {"value": traced_p50, "unit": "s"}
        metrics["trace.untraced_op_p50_s"] = {"value": plain_p50, "unit": "s"}
        metrics["trace.overhead_pct"] = {
            "value": 100.0 * (traced_p50 / plain_p50 - 1.0) if plain_p50 else 0.0, "unit": "%"}
        metrics["trace.named_self_share_pct"] = {
            "value": 100.0 * tracer.self_seconds() / sum(traced_ops) if traced_ops else 0.0,
            "unit": "%"}
    else:
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "op_p50_s": {"value": statistics.median(plain) if plain else 0.0, "unit": "s",
                         "samples": len(plain)},
            "ops_per_s": {"value": len(plain) / sum(plain) if plain else 0.0, "unit": "1/s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }

    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "rounds": r, "loop_s": loop_s, "setup_probes_s": probes,
              "import_and_setup_s": import_and_setup_s, "op_times_s": plain,
              "traced_op_times_s": times[True], "sizes": wl.sizes(),
              "environment": environment(threads),
              "checks": {n: {"worst_residual": res, "tol": tol} for n, (res, tol) in worst.items()},
              "controls": dict(controls), "failures": failures,
              "correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    results = os.path.join(HERE, "results")
    os.makedirs(results, exist_ok=True)
    path = os.path.join(results, f"{args.workload}-trace{args.trace}-seed{args.seed}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=2, default=float)

    for line in failures:
        print(line, file=sys.stderr)
    for name, m in metrics.items():
        samples = f" ({m['samples']} samples)" if "samples" in m else ""
        print(f"{args.workload} {name} = {m['value']:.6g} {m['unit']}{samples}")
    print(f"{args.workload} attempted = {attempted} failed = {failed} correct = {correct}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": {k: {"value": v["value"], "unit": v["unit"]}
                                  for k, v in metrics.items()}}))
    return 0


def run_short(args) -> int:
    """Every workload untraced and traced for SHORT_SECONDS, with all checks."""
    ok = True
    for name in WORKLOAD_NAMES:
        for trace in (0, 1):
            cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(SHORT_SECONDS),
                   "--trace", str(trace)]
            proc = subprocess.run(cmd, capture_output=True, text=True, check=False)
            lines = proc.stdout.strip().splitlines()
            try:
                result = json.loads(lines[-1])
            except (IndexError, json.JSONDecodeError):
                result = {"correct": False, "attempted": 0, "failed": 0, "metrics": {}}
            good = proc.returncode == 0 and result["correct"] and result["failed"] == 0
            ok &= good
            shown = ("setup_s", "op_p50_s", "ops_per_s", "peak_rss_mb", "trace.op_p50_s",
                     "trace.overhead_pct")
            summary = "  ".join(f"{k}={v['value']:.4g}{v['unit']}"
                                for k, v in result["metrics"].items() if k in shown)
            print(f"{'ok  ' if good else 'FAIL'} {name:13s} trace={trace} "
                  f"attempted={result['attempted']} failed={result['failed']}  {summary}")
            if not good:
                sys.stdout.write(proc.stderr)
    print("all workloads correct" if ok else "FAILURES present")
    return 0 if ok else 1


def main(argv=None) -> int:
    args = parse_args(argv)
    return run_short(args) if args.short else run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
