"""The benchmark workloads: inputs drawn from the seed, ops, oracles.

Every workload yields *passes*.  A pass is one complete stratified set of
inputs, and every pass has the same strata, so a run made of whole passes
sees the same mix however many passes fit into it.  Where an input property
changes the cost of an op by orders of magnitude (the coupling lambda*L of a
stack, the row count of a sweep), each op
slot owns one log stratum and the seed moves the point by a small jitter
around the stratum's centre.  A deep stack costs 2 ms on the fixed
quadrature rule and 1-4 s on the adaptive fallback, so a freely drawn
coupling would let the seed, not the code, decide how many slow ops a run
holds.  Absolute scales (outer size, separation, gap), the remaining
parameters and the order of ops come from the seed, so no two inputs are
equal or scaled copies of each other.
"""

from __future__ import annotations

import json
import math
import multiprocessing
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import oracles as orc
from harness import Op, Tracer, median

LN3 = math.log(3.0)
LAMBDA_L = (0.5, 100.0)  # dimensionless coupling range of the stack workloads
ENERGY_TOL = 1e-7        # relative error allowed against the mpmath oracle
SYMMETRY_TOL = 1e-7      # relative error allowed between symmetric copies
FIT_TOL = 1e-9           # error allowed in coefficients recovered by a fit
JITTER = 0.05            # share of a stratum by which the seed moves a point

# Lowest lambda*L at which each level passed a 19-point log scan of [0.5, 100].
# Below it stack_energy_per_area raised NumericalError after 6-37 s, or had
# not returned after 12 s, which no timed run can absorb.  Such draws stay in
# the input stream and are reported by (level, lambda*L), but not run; the
# traced stacks run calls the engine on them instead (probe_known_failures).
KNOWN_FAILING_BELOW = {5: 0.6711, 6: 2.178, 7: 5.268, 8: 17.1}
PROBE_CAP_S = 12.0  # wall-clock cap of one probe call


def centre(rng) -> float:
    """Offset in [0, 1) of a draw in its stratum: the centre plus seeded jitter."""
    return 0.5 + JITTER * (rng.random() - 0.5)


def log_stratum(lo: float, hi: float, i: int, m: int, offset: float) -> float:
    """Point at fractional ``offset`` inside stratum i of m on a log axis."""
    return float(lo * (hi / lo) ** ((i + offset) / m))


def log_uniform(rng, lo: float, hi: float) -> float:
    return float(math.exp(rng.uniform(math.log(lo), math.log(hi))))


class Workload:
    """Seeded input stream plus the per-layer view of a traced run."""

    name = ""

    def __init__(self, root: Path, seed: int, workdir: Path):
        import castrace  # importable once run.py has put ./src on sys.path

        self.ct = castrace
        self.root = root
        self.seed = seed
        self.workdir = workdir
        self.known_failures: list[dict] = []

    def rng(self, p: int):
        return np.random.default_rng([self.seed, p + 1])

    def make_pass(self, p: int) -> list[Op]:
        raise NotImplementedError

    def warm_up(self) -> None:
        """Fill lazy caches (quadrature nodes, imports) before timing."""

    def passes(self):
        p = 0
        while True:
            yield self.make_pass(p)
            p += 1

    def mix(self, records) -> dict:
        """Op counts by kind, level and coupling stratum; rows for CLI ops."""
        counts: dict[str, dict] = {}
        for r in records:
            prm = r.op.params
            key = r.op.kind
            if "level" in prm:
                key += f".L{prm['level']}"
            if "regime" in prm:
                key += f".{prm['regime']}"
            elif "lambda_L" in prm:
                key += ".lambdaL<10" if prm["lambda_L"] < 10.0 else ".lambdaL>=10"
            entry = counts.setdefault(key, {"ops": 0})
            entry["ops"] += 1
            if "rows" in prm:
                entry["rows"] = entry.get("rows", 0) + prm["rows"]
        return dict(sorted(counts.items()))


# ---------------------------------------------------------------------------
# stacks: N-plate energies, all of the time in the scattering layer


class Stacks(Workload):
    """Cantor stacks of levels 0-8, two-plate pairs and mirror pairs.

    Per pass: four lambda*L strata per level (36 stacks, minus the six draws
    in the known-failing region), three soft pairs, one pair of
    near-Dirichlet plates (lambda ~ 1e6/d) and a mirror pair on bodies of
    levels 0, 1 and 2.
    The first pass is checked in full: pairs, stacks of level <= 3 and mirror
    pairs of bodies of level <= 1 against the mpmath oracle, and three deeper
    stacks under translation, reflection and rescaling.  Every other output
    is checked for being finite and attractive (E < 0).
    """

    name = "stacks"
    STRATA = 4
    LEVELS = range(9)
    MIRROR_LEVELS = (0, 1, 2)

    def warm_up(self):
        self.ct.pair_energy_per_area(1.0, 2.0, 1.0)
        self.ct.stack_energy_per_area(self.ct.cantor_stack(1, 1.0, 3.0))

    def make_pass(self, p):
        ct = self.ct
        rng = self.rng(p)
        ops: list[Op] = []
        for level in self.LEVELS:
            for i in range(self.STRATA):
                lam_l = log_stratum(*LAMBDA_L, i, self.STRATA, centre(rng))
                outer = log_uniform(rng, 0.5, 2.0)
                if lam_l < KNOWN_FAILING_BELOW.get(level, 0.0):
                    self.known_failures.append(
                        {"pass": p, "level": level, "lambda_L": lam_l, "outer": outer}
                    )
                    continue
                stack = ct.cantor_stack(level, outer, lam_l / outer)
                ops.append(self._energy_op(
                    "stack", stack, {"level": level, "lambda_L": lam_l, "outer": outer},
                    ct.stack_energy_per_area, stack))
        pairs = []
        for j in range(3):
            d = log_uniform(rng, 0.5, 2.0)
            l1, l2 = (log_stratum(*LAMBDA_L, i, 3, centre(rng)) for i in (j, (j + 1) % 3))
            pairs.append((l1 / d, l2 / d, d, "soft"))
        d = log_uniform(rng, 0.5, 2.0)
        pairs.append((1e6 / d, 1e6 * 10 ** rng.uniform(-1, 1) / d, d, "dirichlet"))
        for l1, l2, d, regime in pairs:
            ops.append(self._energy_op(
                "pair", ct.PlateStack((0.0, d), (l1, l2)),
                {"regime": regime, "lambda1_d": l1 * d, "lambda2_d": l2 * d, "d": d},
                ct.pair_energy_per_area, l1, l2, d))
        for j, level in enumerate(self.MIRROR_LEVELS):
            outer = log_uniform(rng, 0.5, 2.0)
            lam_l = log_stratum(*LAMBDA_L, j, 3, centre(rng))
            gap = outer * log_stratum(0.02, 1.0, j, 3, centre(rng))
            body = ct.cantor_stack(level, outer, lam_l / outer)
            ops.append(self._energy_op(
                "mirror", ct.mirror_pair(body, gap),
                {"level": level, "lambda_L": lam_l, "gap_over_L": gap / outer},
                self._mirror_energy, body, gap))
        rng.shuffle(ops)
        if p == 0:
            self._assign_oracles(ops, rng)
        return ops

    # ops ---------------------------------------------------------------

    SPANS = {"stack": "scattering.stack_energy", "pair": "scattering.pair_energy",
             "mirror": "scattering.mirror_energy"}

    def _energy_op(self, kind, stack, params, energy, *args):
        """Op computing energy(*args); ``stack`` is the same body for the oracles."""
        span = self.SPANS[kind]

        def run(tr: Tracer):
            with tr.span(span):
                return energy(*args)

        op = Op(kind, dict(params, plates=len(stack)), run, self._sign_check)
        op.stack = stack
        return op

    def _mirror_energy(self, body, gap):
        return self.ct.stack_energy_per_area(self.ct.mirror_pair(body, gap))

    # oracles -----------------------------------------------------------

    @staticmethod
    def _sign_check(e):
        if not (math.isfinite(e) and e < 0.0):
            raise orc.CheckFailed(f"energy {e!r} is not finite and negative")
        return None

    def _assign_oracles(self, ops, rng):
        deep = []
        for op in ops:
            level = op.params.get("level", 0)
            if op.kind == "pair" or (op.kind == "stack" and level <= 3) or (op.kind == "mirror" and level <= 1):
                op.check = self._mp_check(op.stack)
                op.params["oracle"] = "mpmath"
            elif op.kind in ("stack", "mirror"):
                deep.append(op)
        picks = rng.choice(len(deep), size=min(3, len(deep)), replace=False)
        for sym, k in zip(("translation", "reflection", "scale"), picks):
            deep[k].check = self._symmetry_check(deep[k].stack, sym, float(rng.uniform(0.5, 2.0)))
            deep[k].params["oracle"] = sym

    def _mp_check(self, stack):
        def check(e):
            self._sign_check(e)
            ref = orc.mp_stack_energy(stack.positions, stack.couplings)
            return orc.digits(orc.require(orc.rel_error(e, ref), ENERGY_TOL, "mpmath energy"))
        return check

    def _symmetry_check(self, stack, sym, s):
        ct = self.ct

        def check(e):
            self._sign_check(e)
            if sym == "translation":
                other = ct.stack_energy_per_area(stack.translated(s * stack.span))
            elif sym == "reflection":
                other = ct.stack_energy_per_area(ct.PlateStack(*orc.reflected(stack.positions, stack.couplings)))
            else:
                other = ct.stack_energy_per_area(stack.scaled(s)) * s**3
            return orc.digits(orc.require(orc.rel_error(e, other), SYMMETRY_TOL, sym))
        return check



# ---------------------------------------------------------------------------
# sweeps: CLI subprocesses, timed from spawn to exit


class Sweeps(Workload):
    """castrace trace / fit / design / stack as child processes, one at a time.

    Per pass: one trace sweep per entry of TRACES, each with a thermal
    sector at d_s != 3; a fit of a synthetic curve with K = 2 harmonics and
    1e3-2e4 rows; a design report; a level-1 stack.  Input files are written
    before the pass starts and the child's stdout is parsed only when
    checking.
    """

    name = "sweeps"
    # (format, harmonics K) of the trace sweeps in a pass; slot i takes row
    # stratum i of [1e4, 1e5], so every pass renders the same formats, K and
    # row counts.
    TRACES = (("csv", 1), ("json", 3))

    def __init__(self, root, seed, workdir):
        super().__init__(root, seed, workdir)
        self.env = child_env(root)

    def make_pass(self, p):
        rng = self.rng(p)
        folder = self.workdir / f"pass{p}"
        if folder.exists():
            shutil.rmtree(folder)
        folder.mkdir(parents=True)
        ops = [self._trace_op(folder, rng, slot) for slot in range(len(self.TRACES))]
        ops += [self._fit_op(folder, rng), self._design_op(folder, rng), self._stack_op(folder, rng)]
        rng.shuffle(ops)
        return ops

    def _cli_op(self, sub, cfg_path, fmt, params, check):
        """Op running one CLI child; its stdout goes to a file that ``check`` reads.

        A file rather than a pipe keeps the outputs of earlier passes out of
        this process, whose peak RSS would otherwise grow with the number of
        passes a run holds.
        """
        cmd = [sys.executable, "-m", "castrace.cli", sub, "--config", str(cfg_path), "--format", fmt]
        env, cwd = self.env, self.root
        out_path = cfg_path.with_suffix(".out")

        def run(tr: Tracer):
            with open(out_path, "w") as out, tr.span(f"cli.{sub}", kind="wait"):
                proc = subprocess.run(cmd, env=env, cwd=cwd, stdout=out, stderr=subprocess.PIPE,
                                      text=True, timeout=150)
            if proc.returncode != 0:
                raise RuntimeError(f"exit {proc.returncode}: {proc.stderr.strip()[-300:]}")
            return out_path

        return Op(f"cli.{sub}", dict(params, format=fmt), run, lambda path: check(path.read_text()))

    def _trace_op(self, folder, rng, slot):
        fmt, k = self.TRACES[slot]
        rows = int(round(log_stratum(1e4, 1e5, slot, len(self.TRACES), centre(rng))))
        harmonics = [tuple(float(v) for v in rng.uniform(-0.3, 0.3, 2)) for _ in range(k)]
        prm = {
            "rows": rows, "harmonics": k,
            "c0": -math.pi**2 / 720.0 * float(rng.uniform(0.5, 2.0)),
            "rho_th": log_uniform(rng, 1e-3, 1.0), "d_s": float(rng.uniform(1.5, 2.9)),
            "g_newton": float(rng.uniform(0.5, 2.0)), "d_min": log_uniform(rng, 0.1, 1.0),
        }
        prm["d_max"] = prm["d_min"] * log_uniform(rng, 10.0, 100.0)
        lines = [f"c0 = {prm['c0']!r}", f"period = {LN3!r}", f"rho_th = {prm['rho_th']!r}",
                 f"d_s = {prm['d_s']!r}", f"g_newton = {prm['g_newton']!r}",
                 f"d_min = {prm['d_min']!r}", f"d_max = {prm['d_max']!r}", f"points = {rows}"]
        for i, (a, b) in enumerate(harmonics, start=1):
            lines += [f"a{i} = {a!r}", f"b{i} = {b!r}"]
        cfg = folder / f"trace{slot}.cfg"
        cfg.write_text("\n".join(lines) + "\n")

        def check(text):
            if fmt == "csv":
                body = text.strip().split("\n")[1:]
                table = np.array(",".join(body).split(","), dtype=float).reshape(len(body), -1)
            else:
                cols = ["d", "e", "rho_vac", "p_perp", "p_parallel", "vacuum_trace",
                        "thermal_trace", "total_trace", "ricci"]
                table = np.array([[r[c] for c in cols] for r in json.loads(text)["rows"]], dtype=float)
            if table.shape != (rows, 9):
                raise orc.CheckFailed(f"trace produced {table.shape}, expected ({rows}, 9)")
            grid = np.geomspace(prm["d_min"], prm["d_max"], rows)
            err = float(np.max(np.abs(table[:, 0] - grid) / grid))
            err = max(err, orc.trace_rows_error(table, prm["c0"], LN3, harmonics, prm["rho_th"],
                                                prm["d_s"], prm["g_newton"]))
            tol = orc.ULP64 * orc.phase_condition(np.log(grid), LN3, harmonics)
            return orc.digits(orc.require(err, tol, "trace rows"))

        return self._cli_op("trace", cfg, fmt, prm, check)

    def _fit_op(self, folder, rng):
        rows = int(round(log_stratum(1e3, 2e4, 0, 1, centre(rng))))
        k = 2
        c0 = -math.pi**2 / 720.0 * float(rng.uniform(0.5, 2.0))
        harmonics = [tuple(float(v) for v in rng.uniform(-0.3, 0.3, 2)) for _ in range(k)]
        d_min = log_uniform(rng, 0.1, 1.0)
        d = np.geomspace(d_min, d_min * 3.0**3, rows)
        f, _ = orc.harmonic_sum(np.log(d), LN3, harmonics)
        curve = folder / "curve.csv"
        curve.write_text("d,c\n" + "".join(
            f"{di:.17g},{ci:.17g}\n" for di, ci in zip(d.tolist(), (c0 * f).tolist())))
        cfg = folder / "fit.cfg"
        cfg.write_text(f"input = {curve}\nreduction = 3\nmax_harmonics = {k}\n")

        def check(text):
            got = json.loads(text)
            err = orc.rel_error(got["c0"], c0)
            for (a, b), (ga, gb) in zip(harmonics, got["harmonics"]):
                err = max(err, abs(ga - a), abs(gb - b))
            if len(got["harmonics"]) != k:
                raise orc.CheckFailed(f"fit returned {len(got['harmonics'])} harmonics, expected {k}")
            return orc.digits(orc.require(err, FIT_TOL, "fit recovery"))

        return self._cli_op("fit", cfg, "json", {"rows": rows, "harmonics": k}, check)

    def _design_op(self, folder, rng):
        outer = log_uniform(rng, 1.0, 1000.0)
        b = float(rng.uniform(2.5, 4.0))
        sep = outer * b ** -float(rng.uniform(0.05, 6.0))
        cfg = folder / "design.cfg"
        cfg.write_text(f"outer = {outer!r}\nreduction = {b!r}\nseparation = {sep!r}\n")

        def check(text):
            got = json.loads(text)
            n = got["min_level"]
            if not (outer * b ** -float(n) <= sep and (n == 0 or outer * b ** -float(n - 1) > sep)):
                raise orc.CheckFailed(f"min_level {n} violates its inequality")
            err = 0.0
            for row in got["rows"]:
                err = max(err, orc.rel_error(row["ell_n"], outer * b ** -float(row["n"])))
                inside = row["ell_n"] <= sep <= outer / got["margin"]
                if row["in_window"] != inside:
                    raise orc.CheckFailed(f"in_window wrong at n={row['n']}")
            return orc.digits(orc.require(err, 4 * orc.EPS, "feature sizes"))

        return self._cli_op("design", cfg, "json", {"rows": 1}, check)

    def _stack_op(self, folder, rng):
        level = 1
        outer = log_uniform(rng, 0.5, 2.0)
        lam_l = log_stratum(*LAMBDA_L, 0, 1, centre(rng))
        cfg = folder / "stack.cfg"
        cfg.write_text(f"level = {level}\nouter = {outer!r}\ncoupling = {lam_l / outer!r}\n")
        stack = self.ct.cantor_stack(level, outer, lam_l / outer)

        def check(text):
            energy = float(text.strip().split("\n")[1].split(",")[3])
            ref = orc.mp_stack_energy(stack.positions, stack.couplings)
            return orc.digits(orc.require(orc.rel_error(energy, ref), ENERGY_TOL, "stack energy"))

        return self._cli_op("stack", cfg, "csv", {"level": level, "lambda_L": lam_l, "rows": 1}, check)



def layer_metrics(tracer: Tracer, records, probes: list[dict]) -> dict:
    """Every per-layer metric, from the spans of a traced run and the probes.

    Span names are unique across workloads, so one function serves all of
    them; a layer a workload does not touch reads 0.
    """
    def spans(name):
        return tracer.by_name(name)

    def busy(name):
        return sum(s.duration for s in spans(name))

    def p50_ms(name):
        return 1e3 * median([s.duration for s in spans(name)])

    def per(total, count, scale):
        return scale * total / count if count else 0.0

    def param_sum(name, key):
        return sum(records[s.op].op.params[key] for s in spans(name))

    stack = "scattering.stack_energy"
    out = {
        f"{stack}.calls": (len(spans(stack)), "count"),
        f"{stack}.busy_s": (busy(stack), "s"),
        f"{stack}.fail": (sum(1 for r in records if r.op.kind == "stack" and r.error), "count"),
        **{f"{stack}.probe_{outcome}": (sum(1 for pr in probes if pr["outcome"] == outcome), "count")
           for outcome in ("raised", "capped", "passed")},
        f"{stack}.us_per_plate": (per(busy(stack), param_sum(stack, "plates"), 1e6), "us"),
    }
    for level in Stacks.LEVELS:
        durs = [s.duration for s in spans(stack) if records[s.op].op.params["level"] == level]
        out[f"{stack}.L{level}_ms"] = (1e3 * median(durs), "ms")
    out["scattering.pair_energy.p50_ms"] = (p50_ms("scattering.pair_energy"), "ms")
    out["scattering.mirror_energy.p50_ms"] = (p50_ms("scattering.mirror_energy"), "ms")
    out["cli.trace.us_per_row"] = (per(busy("cli.trace"), param_sum("cli.trace", "rows"), 1e6), "us")
    for sub in ("trace", "fit", "design", "stack"):
        out[f"cli.{sub}.p50_ms"] = (p50_ms(f"cli.{sub}"), "ms")
    out["cli.fail"] = (sum(1 for r in records if r.op.kind.startswith("cli.") and r.error), "count")
    return out


def probe_known_failures(ct) -> list[dict]:
    """Call stack_energy_per_area once per level of KNOWN_FAILING_BELOW.

    Each call runs at lambda*L = 0.5, the weakest coupling drawn, on a
    forked child that is stopped after PROBE_CAP_S.  The outcome is
    "raised" (any exception, NumericalError at this commit), "capped" (still
    running at the cap: failing or merely slow) or "passed".
    """
    fork = multiprocessing.get_context("fork")
    probes = []
    for level in sorted(KNOWN_FAILING_BELOW):
        stack = ct.cantor_stack(level, 1.0, LAMBDA_L[0])
        recv, send = fork.Pipe(duplex=False)
        child = fork.Process(target=_probe_call, args=(ct, stack, send))
        t0 = time.perf_counter()
        child.start()
        send.close()
        outcome = "capped"
        if recv.poll(PROBE_CAP_S):
            try:
                outcome = recv.recv()
            except EOFError:  # the child died without answering
                outcome = "raised"
        seconds = time.perf_counter() - t0
        child.terminate()
        child.join()
        recv.close()
        probes.append({"level": level, "lambda_L": LAMBDA_L[0], "outcome": outcome, "seconds": seconds})
    return probes


def _probe_call(ct, stack, conn) -> None:
    try:
        ct.stack_energy_per_area(stack)
        conn.send("passed")
    except Exception:
        conn.send("raised")


def child_env(root: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    env.pop("CASTRACE_OUT_DIR", None)
    return env


def time_cli_import(root: Path) -> float:
    """Wall time of a fresh interpreter that only imports castrace.cli."""
    t0 = time.perf_counter()
    subprocess.run(
        [sys.executable, "-c", "import castrace.cli"], env=child_env(root), cwd=root,
        check=True, timeout=120,
    )
    return time.perf_counter() - t0


WORKLOADS = {cls.name: cls for cls in (Stacks, Sweeps)}
