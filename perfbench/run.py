"""castrace benchmark: one workload, one seed, one line of JSON results.

    python3 perfbench/run.py --workload stacks --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --seed 1      # every workload in turn
    python3 perfbench/run.py --steady                 # run-to-run steadiness check

Run from the repository root.  The package is imported from ./src and
never installed.  With --trace 0 the last line of stdout carries the
end-to-end metrics; with --trace 1 it carries the per-layer metrics from
spans recorded around every call into castrace.  The full record of a run
(provenance, op mix, tail percentile, known failures, spans) goes to
perfbench/results/.  See perfbench/README.md.
"""

from __future__ import annotations

import os

# Pin BLAS/OpenMP pools before numpy is imported, here and in every child.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"
SETUP_REPS = 5  # set-up is repeated and its median reported
STEADY_RUNS = 10  # runs per set in --steady mode
WORKLOAD_NAMES = ("stacks", "sweeps")


def fail(msg: str) -> int:
    print(f"perfbench: {msg}", file=sys.stderr)
    return 2


def run_one(workload: str, seed: int, seconds: float, traced: bool) -> int:
    wl = import_workloads(workload)
    if wl is None:
        return 2
    import harness as hs

    workdir = HERE / ".work" / f"{workload}-{seed}-{os.getpid()}"
    try:
        # Each set-up sample is a fresh interpreter timed from spawn until it
        # is ready for its first op: import castrace, draw the first pass,
        # warm up.  This process then sets itself up untimed.
        setup = [time_setup(workload, seed) for _ in range(SETUP_REPS)]
        bench = wl.WORKLOADS[workload](ROOT, seed, workdir)
        bench.warm_up()

        tracer = hs.Tracer(traced)
        result = hs.closed_loop(bench.passes(), seconds, tracer)
        result.known_failures = bench.known_failures
        hs.run_checks(result)

        record = {
            "provenance": hs.provenance(ROOT, seed, workload),
            "seconds": seconds,
            "traced": traced,
            "setup_s_samples": setup,
            "mix": bench.mix(result.records),
            **hs.summary(result),
        }
        if traced:
            overhead = trace_overhead(hs, result)
            probes = wl.probe_known_failures(bench.ct) if workload == "stacks" else []
            imports = [wl.time_cli_import(ROOT) for _ in range(SETUP_REPS)]
            metrics = {
                name: hs.metric(value, unit)
                for name, (value, unit) in wl.layer_metrics(tracer, result.records, probes).items()
            }
            metrics["cli.import_s"] = hs.metric(statistics.median(imports), "s")
            metrics["check_s"] = hs.metric(result.check_s, "s")
            metrics["trace_overhead"] = hs.metric(overhead, "ratio")
            record["probes"] = probes
            record["cli_import_s_samples"] = imports
            record["spans"] = tracer.dump()
        else:
            metrics = hs.end_to_end(result, statistics.median(setup))
        record["metrics"] = metrics
        hs.write_json(RESULTS / f"{workload}-seed{seed}-trace{int(traced)}.json", record)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print(f"castrace benchmark: workload={workload} seed={seed} traced={int(traced)}")
    print(f"  ops attempted {result.attempted}, failed {result.failed} "
          f"(fail_ratio {record['fail_ratio']:.4g}), passes {result.passes}, "
          f"timed {result.wall:.2f} s, checks {result.check_s:.2f} s")
    t = record["tail"]
    print(f"  tail = p{t['percentile']:.2f} of {t['samples']} op latencies")
    if result.known_failures:
        shown = ", ".join(f"L{k['level']}@{k['lambda_L']:.3g}" for k in result.known_failures)
        print(f"  known-failing inputs drawn but not run (level@lambda*L): {shown}")
    for pr in record.get("probes", []):
        print(f"  probe L{pr['level']}@{pr['lambda_L']:.3g}: {pr['outcome']} after {pr['seconds']:.1f} s")
    for f in record["failures"][:10]:
        print(f"  FAILED {f['kind']} {f['params']}: {f['error']}")
    hs.print_metrics(metrics)
    print(json.dumps({
        "correct": result.failed == 0,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": metrics,
    }))
    return 0


def import_workloads(workload: str):
    """The workloads module with castrace importable, or None after an error message."""
    if not (ROOT / "src" / "castrace" / "__init__.py").is_file():
        fail(f"no castrace sources under {ROOT / 'src'}; run from a full checkout")
        return None
    sys.path.insert(0, str(ROOT / "src"))
    import workloads as wl

    if workload not in wl.WORKLOADS:
        fail(f"unknown workload {workload!r}; choose from {', '.join(wl.WORKLOADS)}")
        return None
    return wl


def set_up_only(workload: str, seed: int) -> int:
    """Body of a set-up sample: set up as run_one does, say "ready", exit."""
    wl = import_workloads(workload)
    if wl is None:
        return 2
    workdir = HERE / ".work" / f"{workload}-{seed}-{os.getpid()}"
    try:
        bench = wl.WORKLOADS[workload](ROOT, seed, workdir)
        bench.make_pass(0)
        bench.warm_up()
        print("ready", flush=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0


def time_setup(workload: str, seed: int) -> float:
    """Seconds from spawning a fresh interpreter until it is ready for its first op."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--setup-only"]
    t0 = time.perf_counter()
    with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        ready = time.perf_counter() - t0
        proc.stdout.read()
    if proc.returncode != 0 or line.strip() != "ready":
        raise RuntimeError(f"set-up child exited {proc.returncode} without getting ready")
    return ready


def run_all(seed: int, seconds: float, trace: int) -> int:
    """Every workload for one seed, each in its own process (peak RSS is per process)."""
    status = 0
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace)]
        status = max(status, subprocess.run(cmd, cwd=ROOT, timeout=900).returncode)
    return status


def trace_overhead(hs, result) -> float:
    """Traced time of a prefix of the run divided by an untraced replay of it.

    The prefix is the first quarter of the timed wall time (at least 11 ops,
    or all of them).
    """
    quiet = hs.Tracer(False)
    traced = 0.0
    prefix = []
    for rec in result.records:
        if rec.error is not None:
            continue
        prefix.append(rec.op)
        traced += rec.latency
        if traced >= result.wall / 4 and len(prefix) > hs.TAIL_BEYOND:
            break
    t0 = time.perf_counter()
    for op in prefix:
        op.run(quiet)
    return traced / (time.perf_counter() - t0)


def steady() -> int:
    """Run every workload in two sets of STEADY_RUNS runs, seeds 1.. and 1001...

    The sets are interleaved (run i of set 0 and of set 1 back to back, in
    alternating order), so a slow drift of the machine lands in both.
    Reports per metric the quartile spread of each set as a share of its
    median, and whether the set medians agree within the bound given in
    BENCHMARK.json.
    """
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    report = {}
    ok = True
    for name in WORKLOAD_NAMES:
        values: list[dict[str, list[float]]] = [{}, {}]
        for i in range(STEADY_RUNS):
            for s in ((0, 1) if i % 2 == 0 else (1, 0)):
                seed = 1 + i + 1000 * s
                cmd = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(seed),
                       "--seconds", str(spec["run_seconds"]), "--trace", "0"]
                proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
                if proc.returncode != 0:
                    print(proc.stderr, file=sys.stderr)
                    return fail(f"{name} seed {seed} exited {proc.returncode}")
                line = json.loads(proc.stdout.strip().splitlines()[-1])
                ok &= line["correct"]
                for metric, m in line["metrics"].items():
                    values[s].setdefault(metric, []).append(m["value"])
                print(f"{name} set {s} seed {seed}: " + ", ".join(
                    f"{k}={v['value']:.5g}" for k, v in line["metrics"].items()), flush=True)
        report[name] = {}
        for metric, b in bounds.items():
            rows = []
            for per_metric in values:
                xs = per_metric[metric]
                q1, med, q3 = statistics.quantiles(xs, n=4)
                rows.append({"median": med, "spread": (q3 - q1) / med, "values": xs})
            drift = (rows[1]["median"] - rows[0]["median"]) / rows[0]["median"]
            worse = drift if b["better"] == "lower" else -drift
            entry = {"sets": rows, "bound": b["bound"], "drift": drift, "agree": worse <= b["bound"]}
            ok &= entry["agree"]
            if metric != "setup_s":
                ok &= all(r["spread"] <= b["bound"] for r in rows)
            report[name][metric] = entry
            print(f"  {name:<12} {metric:<16} bound {b['bound']:.2f} "
                  f"spread {rows[0]['spread']:.3f} {rows[1]['spread']:.3f} "
                  f"drift {drift:+.3f} agree={entry['agree']}")
    RESULTS.mkdir(exist_ok=True)
    (RESULTS / "steady.json").write_text(json.dumps(report, indent=1) + "\n")
    print("steady" if ok else "NOT steady")
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="stacks",
                        help="stacks, sweeps, or all (each in its own process)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--steady", action="store_true",
                        help="run every workload in two interleaved sets of ten seeds "
                             "and check that the sets agree")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.steady:
        if not (ROOT / "BENCHMARK.json").is_file():
            return fail("BENCHMARK.json not found at the repository root")
        return steady()
    if args.setup_only:
        return set_up_only(args.workload, args.seed)
    if args.seconds <= 0:
        return fail("--seconds must be positive")
    if args.workload == "all":
        return run_all(args.seed, args.seconds, args.trace)
    return run_one(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
