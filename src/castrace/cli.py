"""Command line front end: config files in, CSV/JSON reports out.

Configs are flat ``key = value`` text files with ``#`` comments; unknown keys
are rejected so typos fail loudly.  Exit codes: 0 on success, 2 for usage or
configuration problems, 3 for numerical failures.  Output goes to stdout
unless ``--out`` names a file; relative output paths are resolved against
``CASTRACE_OUT_DIR`` when that variable is set.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import sys
from pathlib import Path

import numpy as np

from .design import PrefractalSpec, in_window, min_feature, min_level
from .errors import CastraceError, ConfigError, DomainError, NumericalError
from .logfit import FitConfig, FitResult, fit_log_periodic
from .scattering import (
    PlateStack,
    QuadratureSpec,
    cantor_stack,
    extract_coefficient,
    stack_energy_per_area,
)
from .trace import CoefficientModel, thermal_state, trace_report

OUT_DIR_ENV = "CASTRACE_OUT_DIR"

_REQUIRED = object()
_HARMONIC_KEY = re.compile(r"^([ab])([1-9][0-9]*)$")


# ---------------------------------------------------------------------------
# config file handling


def parse_config_text(text: str) -> dict[str, str]:
    """Parse flat key = value lines; '#' starts a comment anywhere."""
    entries: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, value = line.split("=", 1)
        key = key.strip()
        value = value.strip()
        if not key:
            raise ConfigError(f"line {lineno}: empty key")
        if key in entries:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        entries[key] = value
    return entries


class Schema:
    """Typed, consuming view of a parsed config; leftovers are errors."""

    def __init__(self, entries: dict[str, str]):
        self._entries = dict(entries)

    def has(self, key: str) -> bool:
        return key in self._entries

    def _raw(self, key: str, default):
        if key in self._entries:
            return self._entries.pop(key)
        if default is _REQUIRED:
            raise ConfigError(f"missing required key {key!r}")
        return default

    def take_str(self, key: str, default=_REQUIRED, choices: tuple[str, ...] | None = None) -> str:
        value = self._raw(key, default)
        if choices is not None and value not in choices:
            raise ConfigError(
                f"key {key!r}: expected one of {', '.join(choices)}, got {value!r}"
            )
        return value

    def take_float(self, key: str, default=_REQUIRED) -> float:
        value = self._raw(key, default)
        if isinstance(value, str):
            try:
                return float(value)
            except ValueError as exc:
                raise ConfigError(f"key {key!r}: not a number: {value!r}") from exc
        return value

    def take_int(self, key: str, default=_REQUIRED) -> int:
        value = self._raw(key, default)
        if isinstance(value, str):
            try:
                return int(value)
            except ValueError as exc:
                raise ConfigError(f"key {key!r}: not an integer: {value!r}") from exc
        return value

    def take_bool(self, key: str, default=_REQUIRED) -> bool:
        value = self._raw(key, default)
        if isinstance(value, str):
            lowered = value.lower()
            if lowered in ("true", "yes", "1"):
                return True
            if lowered in ("false", "no", "0"):
                return False
            raise ConfigError(f"key {key!r}: not a boolean: {value!r}")
        return value

    def take_float_list(self, key: str, default=_REQUIRED) -> tuple[float, ...]:
        value = self._raw(key, default)
        if isinstance(value, str):
            try:
                return tuple(float(item) for item in value.split(",") if item.strip())
            except ValueError as exc:
                raise ConfigError(f"key {key!r}: not a number list: {value!r}") from exc
        return value

    def take_harmonics(self) -> tuple[tuple[float, float], ...]:
        """Collect a1..aK / b1..bK amplitude keys into (a_k, b_k) pairs."""
        found: dict[tuple[str, int], float] = {}
        for key in [k for k in self._entries if _HARMONIC_KEY.match(k)]:
            kind, index = _HARMONIC_KEY.match(key).groups()
            found[(kind, int(index))] = self.take_float(key)
        if not found:
            return ()
        k_max = max(index for _, index in found)
        return tuple(
            (found.get(("a", k), 0.0), found.get(("b", k), 0.0))
            for k in range(1, k_max + 1)
        )

    def finish(self):
        if self._entries:
            unknown = ", ".join(sorted(self._entries))
            raise ConfigError(f"unknown config key(s): {unknown}")


def load_config(path: str) -> Schema:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc}") from exc
    return Schema(parse_config_text(text))


def _sweep(schema: Schema, default_spacing: str = "log") -> np.ndarray:
    d_min = schema.take_float("d_min")
    d_max = schema.take_float("d_max")
    points = schema.take_int("points")
    spacing = schema.take_str("spacing", default_spacing, choices=("linear", "log"))
    if not 0.0 < d_min < math.inf:
        raise ConfigError(f"d_min must be positive and finite, got {d_min}")
    if not d_min < d_max < math.inf:
        raise ConfigError(f"d_max must be finite and above d_min, got {d_min}, {d_max}")
    if points < 2:
        raise ConfigError(f"points must be at least 2, got {points}")
    if spacing == "log":
        return np.geomspace(d_min, d_max, points)
    return np.linspace(d_min, d_max, points)


def _quadrature(schema: Schema) -> QuadratureSpec:
    return QuadratureSpec(
        scheme=schema.take_str("quad_scheme", "fixed", choices=("fixed", "adaptive")),
        nodes=schema.take_int("quad_nodes", 128),
        rel_tol=schema.take_float("quad_rel_tol", 1e-9),
        kappa_max=schema.take_float("quad_kappa_max", 60.0),
        fallback=schema.take_bool("quad_fallback", True),
    )


# ---------------------------------------------------------------------------
# output emission


def _format_cell(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        return f"{value + 0.0:.17g}"  # +0.0 folds -0.0 into 0
    return str(value)


def resolve_out(out: str | None) -> Path | None:
    if out is None:
        return None
    path = Path(out)
    base = os.environ.get(OUT_DIR_ENV)
    if base and not path.is_absolute():
        path = Path(base) / path
    return path


def _write(text: str, out_path: Path | None):
    if out_path is None:
        sys.stdout.write(text)
    else:
        out_path.parent.mkdir(parents=True, exist_ok=True)
        out_path.write_text(text)


def render_report(
    command: str,
    headers: list[str],
    rows: list[list],
    fmt: str,
    extra: dict | None = None,
) -> str:
    if fmt == "csv":
        lines = [",".join(headers)]
        lines.extend(",".join(_format_cell(v) for v in row) for row in rows)
        return "\n".join(lines) + "\n"
    payload: dict = {"command": command}
    if extra:
        payload.update(extra)
    payload["rows"] = [dict(zip(headers, row)) for row in rows]
    return json.dumps(payload, indent=2) + "\n"


def _fit_payload(fit: FitResult) -> dict:
    return {
        "c0": fit.model.c0,
        "period": fit.model.period,
        "ell_star": fit.model.ell_star,
        "harmonics": [list(pair) for pair in fit.model.harmonics],
        "residual_rms": fit.residual_rms,
        "span_warning": fit.span_warning,
        "residuals": list(fit.residuals),
    }


# ---------------------------------------------------------------------------
# subcommands


def run_trace(args) -> int:
    schema = load_config(args.config)
    model = CoefficientModel(
        c0=schema.take_float("c0"),
        period=schema.take_float("period", math.log(3.0)),
        harmonics=schema.take_harmonics(),
        ell_star=schema.take_float("ell_star", 1.0),
    )
    d_s = schema.take_float("d_s", 3.0)
    if schema.has("rho_th") and (schema.has("u_th") or schema.has("v_s")):
        raise ConfigError("give either rho_th or the u_th/v_s pair, not both")
    if schema.has("rho_th"):
        thermal = thermal_state(schema.take_float("rho_th"), 1.0, d_s)
    else:
        thermal = thermal_state(
            schema.take_float("u_th", 0.0), schema.take_float("v_s", 1.0), d_s
        )
    g_newton = schema.take_float("g_newton", 1.0)
    grid = _sweep(schema)
    schema.finish()

    headers = [
        "d", "e", "rho_vac", "p_perp", "p_parallel",
        "vacuum_trace", "thermal_trace", "total_trace", "ricci",
    ]
    rep = trace_report(model, thermal, grid, g_newton)
    rows = np.column_stack(
        [np.broadcast_to(getattr(rep, name), grid.shape) for name in headers]
    ).tolist()
    _write(render_report("trace", headers, rows, args.format), resolve_out(args.out))
    return 0


def _stack_from_schema(schema: Schema) -> PlateStack:
    explicit = schema.has("positions") or schema.has("couplings")
    generated = schema.has("level") or schema.has("outer") or schema.has("coupling")
    if explicit and generated:
        raise ConfigError(
            "give either positions/couplings or level/outer/coupling, not both"
        )
    if explicit:
        return PlateStack(
            schema.take_float_list("positions"),
            schema.take_float_list("couplings"),
        )
    if generated:
        return cantor_stack(
            level=schema.take_int("level"),
            outer=schema.take_float("outer"),
            lam=schema.take_float("coupling"),
            b=schema.take_float("reduction", 3.0),
        )
    raise ConfigError("missing stack definition: positions/couplings or level/outer/coupling")


def run_stack(args) -> int:
    schema = load_config(args.config)
    stack = _stack_from_schema(schema)
    quad = _quadrature(schema)
    schema.finish()
    energy = stack_energy_per_area(stack, quad)
    headers = ["plates", "min_gap", "span", "energy_per_area"]
    rows = [[len(stack), stack.min_gap, stack.span, energy]]
    _write(render_report("stack", headers, rows, args.format), resolve_out(args.out))
    return 0


def run_extract(args) -> int:
    schema = load_config(args.config)
    level = schema.take_int("level")
    lambda_hat = schema.take_float("lambda_hat")
    gauge = schema.take_str("gauge", "min", choices=("min", "outer"))
    reduction = schema.take_float("reduction", 3.0)
    quad = _quadrature(schema)
    grid = _sweep(schema)
    fit_harmonics = schema.take_int("fit_harmonics", None)
    ell_star = schema.take_float("ell_star", 1.0)
    ridge = schema.take_float("ridge", 0.0)
    schema.finish()

    result = extract_coefficient(level, lambda_hat, grid, quad, gauge, reduction)
    rows = [
        [d, c, s, t]
        for d, c, s, t in zip(
            result.d_grid, result.c_values, result.logderivs, result.traces
        )
    ]
    headers = ["d", "c", "dc_dlnd", "trace"]

    fit = None
    if fit_harmonics is not None:
        cfg = FitConfig(
            period=math.log(reduction),
            max_harmonics=fit_harmonics,
            regularization=ridge,
            ell_star=ell_star,
        )
        x = np.log(np.asarray(result.d_grid) / ell_star)
        fit = fit_log_periodic(x, result.c_values, cfg)

    out_path = resolve_out(args.out)
    if args.format == "json":
        extra = {"fit": _fit_payload(fit)} if fit is not None else None
        _write(render_report("extract", headers, rows, "json", extra), out_path)
    else:
        _write(render_report("extract", headers, rows, "csv"), out_path)
        if fit is not None:
            fit_text = json.dumps(_fit_payload(fit), indent=2) + "\n"
            if out_path is None:
                sys.stdout.write(fit_text)
            else:
                _write(fit_text, out_path.with_suffix(".fit.json"))
    return 0


def run_fit(args) -> int:
    schema = load_config(args.config)
    input_path = schema.take_str("input")
    if schema.has("period") and schema.has("reduction"):
        raise ConfigError("give either period or reduction, not both")
    if schema.has("period"):
        period = schema.take_float("period")
    elif schema.has("reduction"):
        period = math.log(schema.take_float("reduction"))
    else:
        raise ConfigError("missing required key 'period' (or 'reduction')")
    max_harmonics = schema.take_int("max_harmonics")
    ridge = schema.take_float("ridge", 0.0)
    ell_star = schema.take_float("ell_star", 1.0)
    schema.finish()

    d, c = _read_curve(input_path)
    cfg = FitConfig(
        period=period, max_harmonics=max_harmonics,
        regularization=ridge, ell_star=ell_star,
    )
    fit = fit_log_periodic(np.log(d / ell_star), c, cfg)
    payload = _fit_payload(fit)

    if args.format == "json":
        text = json.dumps({"command": "fit", **payload}, indent=2) + "\n"
    else:
        headers = ["name", "value"]
        rows: list[list] = [
            ["c0", fit.model.c0],
            ["period", fit.model.period],
            ["ell_star", fit.model.ell_star],
            ["residual_rms", fit.residual_rms],
            ["span_warning", fit.span_warning],
        ]
        for k, (a, b) in enumerate(fit.model.harmonics, start=1):
            rows.append([f"a{k}", a])
            rows.append([f"b{k}", b])
        text = render_report("fit", headers, rows, "csv")
    _write(text, resolve_out(args.out))
    return 0


def _read_curve(path: str) -> tuple[np.ndarray, np.ndarray]:
    """Read the (d, c) columns of an extract CSV."""
    try:
        lines = Path(path).read_text().strip().splitlines()
    except OSError as exc:
        raise ConfigError(f"cannot read input {path!r}: {exc}") from exc
    if not lines:
        raise ConfigError(f"input {path!r} is empty")
    header = [h.strip() for h in lines[0].split(",")]
    try:
        d_col = header.index("d")
        c_col = header.index("c")
    except ValueError as exc:
        raise ConfigError(
            f"input {path!r} must have 'd' and 'c' columns, found {header}"
        ) from exc
    d_vals, c_vals = [], []
    for lineno, line in enumerate(lines[1:], start=2):
        cells = line.split(",")
        try:
            d_vals.append(float(cells[d_col]))
            c_vals.append(float(cells[c_col]))
        except (IndexError, ValueError) as exc:
            raise ConfigError(f"input {path!r} line {lineno}: bad row {line!r}") from exc
    return np.asarray(d_vals), np.asarray(c_vals)


def run_design(args) -> int:
    schema = load_config(args.config)
    outer = schema.take_float("outer")
    reduction = schema.take_float("reduction")
    separation = schema.take_float("separation")
    config_margin = schema.take_float("margin", 10.0)
    margin = args.margin if args.margin is not None else config_margin
    schema.finish()

    n_min = min_level(outer, separation, reduction)
    headers = ["n", "ell_n", "lower_ok", "upper_ok", "in_window", "min_level"]
    rows = []
    for n in range(n_min + 3):
        spec = PrefractalSpec(outer_scale=outer, reduction=reduction, level=n)
        ell = min_feature(spec)
        lower_ok = ell <= separation
        upper_ok = separation <= outer / margin
        rows.append(
            [n, ell, lower_ok, upper_ok, in_window(spec, separation, margin), n_min]
        )
    extra = {"min_level": n_min, "margin": margin}
    _write(
        render_report("design", headers, rows, args.format, extra),
        resolve_out(args.out),
    )
    return 0


# ---------------------------------------------------------------------------
# entry point


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="castrace",
        description="Casimir trace toolkit for self-similar plate stacks",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser):
        p.add_argument("--config", required=True, help="flat key = value config file")
        p.add_argument("--out", default=None, help="output file (default stdout)")
        p.add_argument("--format", default="csv", choices=("csv", "json"))

    p = sub.add_parser("trace", help="running-coefficient trace sweep")
    common(p)
    p.set_defaults(func=run_trace)

    p = sub.add_parser("stack", help="energy of a delta-plate stack")
    common(p)
    p.set_defaults(func=run_stack)

    p = sub.add_parser("extract", help="extract C(d) from a Cantor stack family")
    common(p)
    p.set_defaults(func=run_extract)

    p = sub.add_parser("fit", help="fit a coefficient curve at fixed log-period")
    common(p)
    p.set_defaults(func=run_fit)

    p = sub.add_parser("design", help="prefractal scaling-window report")
    common(p)
    p.add_argument("--margin", type=float, default=None,
                   help="upper-window margin, overrides the config key (default 10)")
    p.set_defaults(func=run_design)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, DomainError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 3
    except CastraceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
