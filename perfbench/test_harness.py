"""Fast self-test of the benchmark harness: python3 -m pytest perfbench -q"""

import json
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import harness as hs  # noqa: E402
import oracles as orc  # noqa: E402
import workloads as wl  # noqa: E402


def test_tail_has_ten_samples_beyond_it():
    value, pct, n = hs.tail([float(x) for x in range(1, 101)])
    assert (value, pct, n) == (90.0, 90.0, 100)
    assert hs.tail([3.0, 1.0, 2.0]) == (3.0, 100.0, 3)


def test_self_time_subtracts_children():
    tr = hs.Tracer(True)
    with tr.span("outer"):
        with tr.span("inner"):
            sum(range(10000))
        with tr.span("inner"):
            pass
    outer, a, b = tr.spans
    assert a.parent == 0 and b.parent == 0
    assert tr.self_times()[0] == pytest.approx(outer.duration - a.duration - b.duration)
    off = hs.Tracer(False)
    with off.span("x"):
        pass
    assert off.spans == []


def test_mpmath_oracle_reaches_dirichlet_limit():
    e = orc.mp_pair_energy(1e13, 1e13, 1.0)
    assert e == pytest.approx(-math.pi**2 / 1440.0, rel=1e-11)


def test_trace_oracle_flags_a_wrong_row():
    import castrace as ct

    model = ct.CoefficientModel(c0=-0.02, harmonics=((0.1, -0.2), (0.05, 0.0)))
    thermal = ct.thermal_state(0.3, 1.0, 2.2)
    rows = np.array([
        [r.d, r.e, r.rho_vac, r.p_perp, r.p_parallel, r.vacuum_trace, r.thermal_trace,
         r.total_trace, r.ricci]
        for r in (ct.trace_report(model, thermal, d, 1.5) for d in np.geomspace(0.2, 20, 50))
    ])
    args = (model.c0, model.period, model.harmonics, 0.3, 2.2, 1.5)
    tol = orc.ULP64 * orc.phase_condition(np.log(rows[:, 0]), model.period, model.harmonics)
    assert orc.trace_rows_error(rows, *args) <= tol
    rows[7, 5] *= 1.0 + 1e-9
    assert orc.trace_rows_error(rows, *args) > tol


@pytest.mark.parametrize("name", sorted(wl.WORKLOADS))
def test_passes_depend_only_on_the_seed(tmp_path, name):
    def params(seed, p):
        bench = wl.WORKLOADS[name](ROOT, seed, tmp_path / f"{seed}")
        return [op.params for op in bench.make_pass(p)]

    assert params(3, 1) == params(3, 1)
    assert params(3, 1) != params(4, 1)
    assert params(3, 0) != params(3, 1)


def test_known_failing_draws_are_listed_not_run(tmp_path):
    bench = wl.Stacks(ROOT, 5, tmp_path)
    ops = [op for p in range(6) for op in bench.make_pass(p)]
    assert bench.known_failures
    for k in bench.known_failures:
        assert k["lambda_L"] < wl.KNOWN_FAILING_BELOW[k["level"]]
    for op in ops:
        if op.kind == "stack":
            assert op.params["lambda_L"] >= wl.KNOWN_FAILING_BELOW.get(op.params["level"], 0.0)


@pytest.mark.parametrize("name", sorted(wl.WORKLOADS))
def test_every_pass_has_the_same_strata(tmp_path, name):
    bench = wl.WORKLOADS[name](ROOT, 2, tmp_path)

    def mix(p):
        keys = ("level", "gauge", "format", "harmonics", "points")
        return sorted((op.kind, *(str(op.params.get(k)) for k in keys)) for op in bench.make_pass(p))

    assert mix(0) == mix(1) == mix(2)


def test_probes_report_raised_capped_and_passed(monkeypatch):
    class Engine:
        def __init__(self, behaviour):
            self.behaviour = behaviour

        def cantor_stack(self, level, outer, lam):
            return level

        def stack_energy_per_area(self, level):
            if self.behaviour[level] == "raise":
                raise ArithmeticError("no convergence")
            if self.behaviour[level] == "hang":
                import time
                time.sleep(30)
            return -1.0

    monkeypatch.setattr(wl, "KNOWN_FAILING_BELOW", {5: 1.0, 6: 1.0, 7: 1.0})
    monkeypatch.setattr(wl, "PROBE_CAP_S", 0.5)
    probes = wl.probe_known_failures(Engine({5: "raise", 6: "hang", 7: "pass"}))
    assert [(pr["level"], pr["outcome"]) for pr in probes] == [(5, "raised"), (6, "capped"), (7, "passed")]
    assert probes[1]["seconds"] < 5.0


def test_traced_metrics_are_those_of_the_spec():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = set(wl.layer_metrics(hs.Tracer(True), [], []))
    names |= {"cli.import_s", "check_s", "trace_overhead"}
    assert names == {m["name"] for m in spec["per_layer"]}


def test_closed_loop_counts_errors_and_failed_checks():
    def boom(tr):
        raise RuntimeError("no")

    def bad(out):
        raise orc.CheckFailed("wrong")

    ops = [hs.Op("ok", {}, lambda tr: 1.0, lambda out: 12.0),
           hs.Op("raises", {}, boom),
           hs.Op("wrong", {}, lambda tr: 2.0, bad)]
    result = hs.closed_loop(iter([ops, ops]), 0.0, hs.Tracer(False))
    hs.run_checks(result)
    assert (result.passes, result.attempted, result.failed) == (1, 3, 2)
    assert result.min_digits == 12.0


def test_refuses_to_run_without_sources(tmp_path):
    bare = tmp_path / "bare"
    (bare / "perfbench").mkdir(parents=True)
    for f in HERE.glob("*.py"):
        (bare / "perfbench" / f.name).write_text(f.read_text())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "stacks", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_one_pass_end_to_end():
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "stacks", "--seed", "7",
         "--seconds", "0.01", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] and line["failed"] == 0
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(line["metrics"]) == {m["name"] for m in spec["end_to_end"]}
