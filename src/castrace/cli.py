"""Command line front end: config files in, CSV/JSON reports out.

Configs are flat ``key = value`` text files with ``#`` comments; unknown keys
are rejected so typos fail loudly.  Exit codes: 0 on success, 2 for usage or
configuration problems (an ``--out`` that cannot be written among them), 3
for numerical failures.  Output goes to stdout unless ``--out`` names a file;
relative output paths are resolved against ``CASTRACE_OUT_DIR`` when that
variable is set.  Reports are written in blocks of rows once the results are
computed, so a run that exits 2 or 3 writes nothing: each ``run_*`` function
takes a config and a format and returns the report's text chunks, and
``main`` is the one place that reads the config and writes the output.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import sys
from collections.abc import Iterable, Iterator
from itertools import chain, islice
from pathlib import Path

import numpy as np

from .design import PrefractalSpec, check_margin, in_window, min_feature, min_level
from .errors import CastraceError, ConfigError, DomainError, NumericalError
from .logfit import FitConfig, fit_log_periodic
from .scattering import PlateStack, cantor_stack, extract_coefficient, stack_energy_per_area
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

    def take(self, key: str, default=_REQUIRED, parse=float):
        """Pop ``key`` and parse its text; an absent key gives ``default`` as is."""
        if key not in self._entries:
            if default is _REQUIRED:
                raise ConfigError(f"missing required key {key!r}")
            return default
        text = self._entries.pop(key)
        try:
            return parse(text)
        except ValueError as exc:
            reason = f"not {_NOT_A[parse]}: {text!r}" if parse in _NOT_A else exc
            raise ConfigError(f"key {key!r}: {reason}") from exc

    def take_harmonics(self) -> tuple[tuple[float, float], ...]:
        """Collect a1..aK / b1..bK amplitude keys into (a_k, b_k) pairs."""
        found: dict[tuple[str, int], float] = {}
        for key in [k for k in self._entries if _HARMONIC_KEY.match(k)]:
            kind, index = _HARMONIC_KEY.match(key).groups()
            found[(kind, int(index))] = self.take(key)
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


def _float_list(text: str) -> tuple[float, ...]:
    return tuple(float(item) for item in text.split(",") if item.strip())


_NOT_A = {float: "a number", int: "an integer", _float_list: "a number list"}


def _one_of(*choices: str):
    def parse(text: str) -> str:
        if text not in choices:
            raise ValueError(f"expected one of {', '.join(choices)}, got {text!r}")
        return text
    return parse


def load_config(path: str) -> Schema:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc}") from exc
    return Schema(parse_config_text(text))


def _sweep(schema: Schema) -> np.ndarray:
    d_min = schema.take("d_min")
    d_max = schema.take("d_max")
    points = schema.take("points", parse=int)
    spacing = schema.take("spacing", "log", _one_of("linear", "log"))
    if not 0.0 < d_min < math.inf:
        raise ConfigError(f"d_min must be positive and finite, got {d_min}")
    if not d_min < d_max < math.inf:
        raise ConfigError(f"d_max must be finite and above d_min, got {d_min}, {d_max}")
    if points < 2:
        raise ConfigError(f"points must be at least 2, got {points}")
    if spacing == "log":
        return np.geomspace(d_min, d_max, points)
    return np.linspace(d_min, d_max, points)


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


_BLOCK_ROWS = 1024  # rows per formatted and written block


def _table_rows(table: np.ndarray) -> Iterator[list]:
    """The rows of a 2-D array as lists, converted one block at a time."""
    for start in range(0, len(table), _BLOCK_ROWS):
        yield from table[start:start + _BLOCK_ROWS].tolist()


def report_blocks(
    command: str,
    headers: list[str],
    rows: Iterable,
    fmt: str,
    extra: dict | None = None,
) -> Iterator[str]:
    """The text of a report, one block of ``_BLOCK_ROWS`` rows at a time.

    CSV cells are ``%.17g`` with -0.0 written as 0.  JSON is byte-identical
    to ``json.dumps(payload, indent=2)`` for the payload {"command", **extra,
    "rows"} with each row an object keyed by ``headers``.
    """
    rows = iter(rows)
    blocks = iter(lambda: list(islice(rows, _BLOCK_ROWS)), [])
    if fmt == "csv":
        yield ",".join(headers) + "\n"
        for block in blocks:
            yield "".join(",".join(map(_format_cell, row)) + "\n" for row in block)
        return
    # The bytes of json.dumps(payload, indent=2) with the rows as objects,
    # written a block at a time: the header comes from json.dumps with empty
    # rows and each row fills one %-template.
    # str() of a float or an int is the repr json writes for it (callers
    # guarantee finite floats); any other cell goes through json.dumps.
    head = json.dumps({"command": command, **(extra or {}), "rows": []}, indent=2)
    fields = ",\n".join(
        "      " + json.dumps(h).replace("%", "%%") + ": %s" for h in headers
    )
    template = "    {\n" + fields + "\n    }"
    opening = head[: -len("[]\n}")] + "[\n"
    separator = opening
    for block in blocks:
        if not set(map(type, chain.from_iterable(block))) <= {float, int}:
            block = [[v if type(v) in (float, int) else json.dumps(v) for v in row] for row in block]
        yield separator + ",\n".join(template % tuple(row) for row in block)
        separator = ",\n"
    yield head + "\n" if separator is opening else "\n  ]\n}\n"


def write_output(out_path: Path | None, chunks: Iterable[str]) -> None:
    """Write text chunks to ``out_path``, creating its parents, or to stdout.

    ``main`` calls this, and only once a command has computed its results,
    so a run that fails writes nothing.  An ``out_path`` that cannot be
    created or written is a ConfigError.
    """
    if out_path is None:
        sys.stdout.writelines(chunks)
        return
    try:
        out_path.parent.mkdir(parents=True, exist_ok=True)
        with open(out_path, "w") as out:
            out.writelines(chunks)
    except OSError as exc:
        raise ConfigError(f"cannot write output {str(out_path)!r}: {exc}") from exc


# ---------------------------------------------------------------------------
# subcommands


def run_trace(schema: Schema, fmt: str) -> Iterable[str]:
    model = CoefficientModel(
        c0=schema.take("c0"),
        period=schema.take("period", math.log(3.0)),
        harmonics=schema.take_harmonics(),
        ell_star=schema.take("ell_star", 1.0),
    )
    d_s = schema.take("d_s", 3.0)
    thermal = thermal_state(schema.take("rho_th", 0.0), 1.0, d_s)
    g_newton = schema.take("g_newton", 1.0)
    grid = _sweep(schema)
    schema.finish()

    headers = [
        "d", "e", "rho_vac", "p_perp", "p_parallel",
        "vacuum_trace", "thermal_trace", "total_trace", "ricci",
    ]
    rep = trace_report(model, thermal, grid, g_newton)
    table = np.column_stack(
        [np.broadcast_to(getattr(rep, name), grid.shape) for name in headers]
    )
    return report_blocks("trace", headers, _table_rows(table), fmt)


def _stack_from_schema(schema: Schema) -> PlateStack:
    explicit = schema.has("positions") or schema.has("couplings")
    generated = schema.has("level") or schema.has("outer") or schema.has("coupling")
    if explicit and generated:
        raise ConfigError(
            "give either positions/couplings or level/outer/coupling, not both"
        )
    if explicit:
        return PlateStack(
            schema.take("positions", parse=_float_list),
            schema.take("couplings", parse=_float_list),
        )
    if generated:
        return cantor_stack(
            level=schema.take("level", parse=int),
            outer=schema.take("outer"),
            lam=schema.take("coupling"),
            b=schema.take("reduction", 3.0),
        )
    raise ConfigError("missing stack definition: positions/couplings or level/outer/coupling")


def run_stack(schema: Schema, fmt: str) -> Iterable[str]:
    stack = _stack_from_schema(schema)
    schema.finish()
    energy = stack_energy_per_area(stack)
    headers = ["plates", "min_gap", "span", "energy_per_area"]
    rows = [[len(stack), stack.min_gap, stack.span, energy]]
    return report_blocks("stack", headers, rows, fmt)


def run_extract(schema: Schema, fmt: str) -> Iterable[str]:
    level = schema.take("level", parse=int)
    lambda_hat = schema.take("lambda_hat")
    gauge = schema.take("gauge", "min", _one_of("min", "outer"))
    reduction = schema.take("reduction", 3.0)
    grid = _sweep(schema)
    schema.finish()

    result = extract_coefficient(level, lambda_hat, grid, gauge, reduction)
    headers = ["d", "c", "dc_dlnd", "trace"]
    rows = zip(result.d_grid, result.c_values, result.logderivs, result.traces)
    return report_blocks("extract", headers, rows, fmt)


def run_fit(schema: Schema, fmt: str) -> Iterable[str]:
    input_path = schema.take("input", parse=str)
    if schema.has("period") and schema.has("reduction"):
        raise ConfigError("give either period or reduction, not both")
    if schema.has("period"):
        period = schema.take("period")
    elif schema.has("reduction"):
        reduction = schema.take("reduction")
        if not 1.0 < reduction < math.inf:
            raise ConfigError(f"reduction must be above 1 and finite, got {reduction}")
        period = math.log(reduction)
    else:
        raise ConfigError("missing required key 'period' (or 'reduction')")
    max_harmonics = schema.take("max_harmonics", parse=int)
    ridge = schema.take("ridge", 0.0)
    ell_star = schema.take("ell_star", 1.0)
    schema.finish()

    d, c = _read_curve(input_path)
    cfg = FitConfig(
        period=period, max_harmonics=max_harmonics,
        regularization=ridge, ell_star=ell_star,
    )
    with np.errstate(divide="ignore", over="ignore"):
        x = np.log(d / ell_star)
    bad = ~np.isfinite(x)
    if bad.any():
        i = int(np.argmax(bad))
        raise ConfigError(
            f"input {input_path!r} line {i + 2}: ln(d/ell_star) is not finite for "
            f"d = {float(d[i])!r}, ell_star = {ell_star!r}"
        )
    fit = fit_log_periodic(x, c, cfg)

    if fmt == "json":
        payload = {
            "command": "fit",
            "c0": fit.model.c0,
            "period": fit.model.period,
            "ell_star": fit.model.ell_star,
            "harmonics": [list(pair) for pair in fit.model.harmonics],
            "residual_rms": fit.residual_rms,
            "span_warning": fit.span_warning,
            "residuals": list(fit.residuals),
        }
        return [json.dumps(payload, indent=2) + "\n"]
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
    return report_blocks("fit", ["name", "value"], rows, "csv")


def _read_curve(path: str) -> tuple[np.ndarray, np.ndarray]:
    """Read the (d, c) columns of an extract CSV; d > 0 and finite, c finite."""
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
    d, c = np.asarray(d_vals), np.asarray(c_vals)
    bad = ~((d > 0.0) & np.isfinite(d) & np.isfinite(c))
    if bad.any():
        lineno = int(np.argmax(bad)) + 2
        raise ConfigError(
            f"input {path!r} line {lineno}: d must be positive and finite and c "
            f"finite, got {lines[lineno - 1]!r}"
        )
    return d, c


def run_design(schema: Schema, fmt: str) -> Iterable[str]:
    outer = schema.take("outer")
    reduction = schema.take("reduction")
    separation = schema.take("separation")
    margin = schema.take("margin", 10.0)
    schema.finish()

    n_min = min_level(outer, separation, reduction)
    check_margin(margin)
    headers = ["n", "ell_n", "lower_ok", "upper_ok", "in_window", "min_level"]
    rows = []
    for n in range(n_min + 3):
        spec = PrefractalSpec(outer_scale=outer, reduction=reduction, level=n)
        ell = min_feature(spec)
        inside = in_window(spec, separation, margin)
        rows.append([n, ell, ell <= separation, separation <= outer / margin, inside, n_min])
    extra = {"min_level": n_min, "margin": margin}
    return report_blocks("design", headers, rows, fmt, extra)


# ---------------------------------------------------------------------------
# entry point

_COMMANDS = {
    "trace": (run_trace, "running-coefficient trace sweep"),
    "stack": (run_stack, "energy of a delta-plate stack"),
    "extract": (run_extract, "extract C(d) from a Cantor stack family"),
    "fit": (run_fit, "fit a coefficient curve at fixed log-period"),
    "design": (run_design, "prefractal scaling-window report"),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="castrace",
        description="Casimir trace toolkit for self-similar plate stacks",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, help="flat key = value config file")
        p.add_argument("--out", default=None, help="output file (default stdout)")
        p.add_argument("--format", default="csv", choices=("csv", "json"))
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    run, _ = _COMMANDS[args.command]
    try:
        chunks = run(load_config(args.config), args.format)
        write_output(resolve_out(args.out), chunks)
        return 0
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
