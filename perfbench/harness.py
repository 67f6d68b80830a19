"""Workload-independent parts of the benchmark: spans, the timed loop, statistics."""

from __future__ import annotations

import json
import math
import os
import platform
import resource
import subprocess
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator

import numpy as np

from oracles import CheckFailed

TAIL_BEYOND = 10  # samples that must lie beyond the reported tail latency


# ---------------------------------------------------------------------------
# spans


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None  # index into Tracer.spans
    op: int
    kind: str  # "busy" for work in this process, "wait" for a child process

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """In-memory span recorder; when disabled, ``span`` only runs the body."""

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self.op = -1

    @contextmanager
    def span(self, name: str, kind: str = "busy"):
        if not self.enabled:
            yield
            return
        parent = self._stack[-1] if self._stack else None
        index = len(self.spans)
        self.spans.append(Span(name, time.perf_counter(), math.nan, parent, self.op, kind))
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[index].end = time.perf_counter()

    def self_times(self) -> list[float]:
        """Each span's duration minus the time its direct children cover.

        Children of one span never overlap (everything runs in one thread),
        so the covered time is the sum of their durations.
        """
        child_time = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent is not None:
                child_time[s.parent] += s.duration
        return [s.duration - c for s, c in zip(self.spans, child_time)]

    def by_name(self, name: str) -> list[Span]:
        return [s for s in self.spans if s.name == name]

    def dump(self) -> list[dict]:
        selfs = self.self_times()
        return [
            {"name": s.name, "start": s.start, "end": s.end, "parent": s.parent,
             "op": s.op, "kind": s.kind, "self_s": st}
            for s, st in zip(self.spans, selfs)
        ]


# ---------------------------------------------------------------------------
# operations and the closed loop


@dataclass
class Op:
    """One timed unit of work and the oracle that judges its output."""

    kind: str
    params: dict
    run: Callable[[Tracer], Any]
    # Returns the output's digits of agreement with an oracle, or None when
    # only a qualitative property was checked; raises CheckFailed.
    check: Callable[[Any], float | None] | None = None


@dataclass
class Record:
    op: Op
    latency: float
    output: Any = None
    error: str | None = None
    digits: float | None = None


@dataclass
class LoopResult:
    records: list[Record]
    wall: float
    passes: int
    check_s: float = 0.0
    min_digits: float = math.nan
    peak_rss_mb: float = math.nan
    known_failures: list[dict] = field(default_factory=list)

    @property
    def attempted(self) -> int:
        return len(self.records)

    @property
    def failed(self) -> int:
        return sum(1 for r in self.records if r.error is not None)


def closed_loop(
    passes: Iterator[list[Op]], seconds: float, tracer: Tracer
) -> LoopResult:
    """Run whole passes, one op at a time, until ``seconds`` have elapsed.

    A run always ends on a pass boundary, so every run sees the same mix of
    inputs.  Making the next pass (drawing inputs, writing input files) is
    excluded from the wall time.
    """
    records: list[Record] = []
    wall = 0.0
    n_pass = 0
    for ops in passes:
        start = time.perf_counter()
        for op in ops:
            tracer.op = len(records)
            t0 = time.perf_counter()
            try:
                with tracer.span(f"op.{op.kind}"):
                    out = op.run(tracer)
                rec = Record(op, time.perf_counter() - t0, out)
            except Exception as exc:  # a failing op is data, not a crash
                rec = Record(op, time.perf_counter() - t0, error=f"{type(exc).__name__}: {exc}")
            records.append(rec)
        wall += time.perf_counter() - start
        n_pass += 1
        if wall >= seconds:
            break
    return LoopResult(records, wall, n_pass, peak_rss_mb=peak_rss_mb())


def run_checks(result: LoopResult) -> None:
    """Judge every completed op against its oracle, outside the timed region."""
    t0 = time.perf_counter()
    worst = math.inf
    for rec in result.records:
        if rec.error is not None or rec.op.check is None:
            continue
        try:
            rec.digits = rec.op.check(rec.output)
        except CheckFailed as exc:
            rec.error = f"CheckFailed: {exc}"
            continue
        if rec.digits is not None:
            worst = min(worst, rec.digits)
    result.check_s = time.perf_counter() - t0
    result.min_digits = worst


# ---------------------------------------------------------------------------
# statistics


def tail(latencies: list[float]) -> tuple[float, float, int]:
    """Latency at the highest percentile with TAIL_BEYOND samples beyond it.

    Returns (value, percentile, sample count).  With fewer than
    TAIL_BEYOND + 1 samples the maximum is returned at percentile 100.
    """
    xs = sorted(latencies)
    n = len(xs)
    if n <= TAIL_BEYOND:
        return xs[-1], 100.0, n
    return xs[n - 1 - TAIL_BEYOND], 100.0 * (n - TAIL_BEYOND) / n, n


def median(xs) -> float:
    return float(np.median(xs)) if len(xs) else 0.0


def peak_rss_mb() -> float:
    """Peak resident set of this process plus the largest child waited for.

    Children run one at a time, so the sum bounds the joint peak from above.
    """
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + kids) / 1024.0  # ru_maxrss is in KiB on Linux


# ---------------------------------------------------------------------------
# provenance and output


def provenance(root, seed: int, workload: str) -> dict:
    import mpmath
    import scipy

    commit = "unknown (not a git checkout)"
    if (root / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True,
                timeout=10, check=True,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "workload": workload,
        "seed": seed,
        "commit": commit,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "mpmath": mpmath.__version__,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "omp_threads": os.environ.get("OMP_NUM_THREADS"),
        "client": "closed loop, one client, one op at a time",
    }


def metric(value: float, unit: str) -> dict:
    return {"value": float(value), "unit": unit}


def end_to_end(result: LoopResult, setup_s: float) -> dict:
    lat_ms = [r.latency * 1e3 for r in result.records if r.error is None]
    if not lat_ms:
        lat_ms = [r.latency * 1e3 for r in result.records]
    tail_ms, _, _ = tail(lat_ms)
    ok = result.attempted - result.failed
    return {
        "setup_s": metric(setup_s, "s"),
        "ops_per_s": metric(ok / result.wall, "1/s"),
        "op_p50_ms": metric(median(lat_ms), "ms"),
        "op_tail_ms": metric(tail_ms, "ms"),
        "accuracy_digits": metric(result.min_digits, "digits"),
        "peak_rss_mb": metric(result.peak_rss_mb, "MB"),
    }


def summary(result: LoopResult) -> dict:
    lat_ms = [r.latency * 1e3 for r in result.records if r.error is None] or [math.nan]
    value, pct, n = tail(lat_ms)
    return {
        "attempted": result.attempted,
        "failed": result.failed,
        "fail_ratio": result.failed / max(result.attempted, 1),
        "passes": result.passes,
        "timed_wall_s": result.wall,
        "check_s": result.check_s,
        "tail": {"value_ms": value, "percentile": pct, "samples": n},
        "failures": [
            {"kind": r.op.kind, "params": r.op.params, "error": r.error}
            for r in result.records if r.error is not None
        ],
        "known_failures": result.known_failures,
        "latencies_ms": [
            [r.op.kind, r.op.params.get("level"), 1e3 * r.latency] for r in result.records
        ],
    }


def print_metrics(metrics: dict, out=sys.stdout) -> None:
    for name, m in metrics.items():
        print(f"  {name:<48} {m['value']:>16.6g} {m['unit']}", file=out)


def write_json(path, payload) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, indent=1, default=str) + "\n")
