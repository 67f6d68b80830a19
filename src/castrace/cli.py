"""Command line front end: config files in, CSV/JSON reports out.

Configs are flat ``key = value`` text files with ``#`` comments; unknown keys
are rejected so typos fail loudly.  Exit codes: 0 on success, 2 for usage or
configuration problems (an ``--out`` that cannot be written among them), 3
for numerical failures, and 141 when the reader of stdout closes it before
the report is written in full (``castrace trace ... | head``).  Output goes
to stdout unless ``--out`` names a file; relative output paths are resolved
against ``CASTRACE_OUT_DIR`` when that variable is set.  Reports are written in blocks of rows once the results are
computed, so a run that exits 2 or 3 writes nothing: each ``run_*`` function
takes a config and a format and returns the report's text chunks, and
``main`` is the one place that reads the config and writes the output.

A subcommand loads only the layer it runs: this module imports numpy and the
``castrace`` layer modules inside the functions that use them, so ``castrace
design`` never imports numpy and ``castrace trace`` loads neither the
scattering engine nor the fit.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import sys
from collections.abc import Iterable, Iterator
from functools import partial
from pathlib import Path

from .errors import CastraceError, ConfigError, DomainError, NumericalError

OUT_DIR_ENV = "CASTRACE_OUT_DIR"
EXIT_BROKEN_PIPE = 141  # 128 + SIGPIPE, what a shell reports for a writer ended by a closed pipe

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


def _read_text(path: str, what: str) -> str:
    """The text of a UTF-8 file; one that cannot be read or decoded is a ConfigError."""
    try:
        data = Path(path).read_bytes()
    except OSError as exc:
        raise ConfigError(f"cannot read {what} {path!r}: {exc}") from exc
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        # Lines are counted as str.splitlines counts them, like every other message.
        lineno = len((data[:exc.start].decode("utf-8") + "x").splitlines())
        raise ConfigError(
            f"{what} {path!r} line {lineno}: not UTF-8 text "
            f"(byte 0x{data[exc.start]:02x})"
        ) from exc


def load_config(path: str) -> Schema:
    return Schema(parse_config_text(_read_text(path, "config")))


def _sweep(schema: Schema) -> np.ndarray:
    import numpy as np

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


def report_blocks(
    command: str,
    headers: list[str],
    columns: list,
    fmt: str,
    extra: dict | None = None,
) -> Iterator[str]:
    """The text of a report, one block of ``_BLOCK_ROWS`` rows at a time.

    ``columns`` holds one column per header: a 1-D float array, a list of
    cells (float, int, bool or str), or a scalar.  A scalar fills every row
    of a report that has array or list columns (these agree in length), and
    a report of scalars alone is one row.  CSV cells are ``%.17g`` with -0.0
    written as 0, ints as themselves and bools as true/false.  JSON is
    byte-identical to ``json.dumps(payload, indent=2)`` for the payload
    {"command", **extra, "rows"} with each row an object keyed by
    ``headers``; callers guarantee finite floats.
    """
    if all(not isinstance(c, list) and getattr(c, "ndim", 0) == 0 for c in columns):
        columns = [[c] for c in columns]
    csv = fmt == "csv"
    format_cell = _format_cell if csv else json.dumps
    # Each row fills one %-template.  A scalar is formatted once, into the
    # template itself.  A float array fills a %.17g (CSV) or %r (JSON: repr
    # is the text json writes for a float) field from one tolist() per
    # block.  A list cell goes through format_cell into a %s field.
    float_field, float_values = ("%.17g", _csv_floats) if csv else ("%r", _tolist)
    fields, sized = [], []
    for column in columns:
        if isinstance(column, list):
            fields.append("%s")
            sized.append((column, partial(map, format_cell)))
        elif getattr(column, "ndim", 0) == 1:
            fields.append(float_field)
            sized.append((column, float_values))
        else:
            fields.append(format_cell(column).replace("%", "%%"))
    if csv:
        template = ",".join(fields) + "\n"
    else:
        template = "    {\n" + ",\n".join(
            "      " + json.dumps(h).replace("%", "%%") + ": " + field
            for h, field in zip(headers, fields)
        ) + "\n    }"

    def rows(start: int) -> Iterator[str]:
        block = zip(*(cells(c[start:start + _BLOCK_ROWS]) for c, cells in sized))
        return map(template.__mod__, block)

    starts = range(0, len(sized[0][0]), _BLOCK_ROWS)
    if csv:
        yield ",".join(headers) + "\n"
        for start in starts:
            yield "".join(rows(start))
        return
    # The bytes of json.dumps(payload, indent=2) with the rows as objects,
    # written a block at a time: the header comes from json.dumps with empty
    # rows.
    head = json.dumps({"command": command, **(extra or {}), "rows": []}, indent=2)
    opening = head[: -len("[]\n}")] + "[\n"
    separator = opening
    for start in starts:
        yield separator + ",\n".join(rows(start))
        separator = ",\n"
    yield head + "\n" if separator is opening else "\n  ]\n}\n"


def _csv_floats(values) -> list[float]:
    return (values + 0.0).tolist()  # +0.0 folds -0.0 into 0


def _tolist(values) -> list[float]:
    return values.tolist()


def write_output(out_path: Path | None, chunks: Iterable[str]) -> None:
    """Write text chunks to ``out_path``, creating its parents, or to stdout.

    ``main`` calls this, and only once a command has computed its results,
    so a run that fails writes nothing.  An ``out_path`` that cannot be
    created or written is a ConfigError.
    """
    if out_path is None:
        sys.stdout.writelines(chunks)
        sys.stdout.flush()  # a closed pipe raises here, inside main, not at exit
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
    from .trace import CoefficientModel, thermal_state, trace_report

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
    return report_blocks("trace", headers, [getattr(rep, name) for name in headers], fmt)


def _stack_from_schema(schema: Schema) -> PlateStack:
    from .scattering import PlateStack, cantor_stack

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
    from .scattering import stack_energy_per_area

    stack = _stack_from_schema(schema)
    schema.finish()
    energy = stack_energy_per_area(stack)
    headers = ["plates", "min_gap", "span", "energy_per_area"]
    columns = [len(stack), stack.min_gap, stack.span, energy]
    return report_blocks("stack", headers, columns, fmt)


def run_extract(schema: Schema, fmt: str) -> Iterable[str]:
    import numpy as np

    from .scattering import extract_coefficient

    level = schema.take("level", parse=int)
    lambda_hat = schema.take("lambda_hat")
    gauge = schema.take("gauge", "min", _one_of("min", "outer"))
    reduction = schema.take("reduction", 3.0)
    grid = _sweep(schema)
    schema.finish()

    result = extract_coefficient(level, lambda_hat, grid, gauge, reduction)
    headers = ["d", "c", "dc_dlnd", "trace"]
    columns = [
        np.asarray(values)
        for values in (result.d_grid, result.c_values, result.logderivs, result.traces)
    ]
    return report_blocks("extract", headers, columns, fmt)


def run_fit(schema: Schema, fmt: str) -> Iterable[str]:
    import numpy as np

    from .logfit import FitConfig, fit_log_periodic

    input_path = schema.take("input", parse=str)
    reduction = schema.take("reduction")
    if not 1.0 < reduction < math.inf:
        raise ConfigError(f"reduction must be above 1 and finite, got {reduction}")
    max_harmonics = schema.take("max_harmonics", parse=int)
    ell_star = schema.take("ell_star", 1.0)
    schema.finish()

    d, c, first = _read_curve(input_path)
    cfg = FitConfig(math.log(reduction), max_harmonics, ell_star=ell_star)
    with np.errstate(divide="ignore", over="ignore"):
        x = np.log(d / ell_star)
    bad = ~np.isfinite(x)
    if bad.any():
        i = int(np.argmax(bad))
        raise ConfigError(
            f"input {input_path!r} line {i + first}: ln(d/ell_star) is not finite for "
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
    names = ["c0", "period", "ell_star", "residual_rms", "span_warning"]
    values = [fit.model.c0, fit.model.period, fit.model.ell_star, fit.residual_rms,
              fit.span_warning]
    for k, (a, b) in enumerate(fit.model.harmonics, start=1):
        names += [f"a{k}", f"b{k}"]
        values += [a, b]
    return report_blocks("fit", ["name", "value"], [names, values], "csv")


def _read_curve(path: str) -> tuple[np.ndarray, np.ndarray, int]:
    """Read the (d, c) columns of an extract CSV; d > 0 and finite, c finite.

    Blank lines before the header and after the last row are skipped.  Also
    returns the line number of the first row: row i is on line ``first + i``.
    """
    import numpy as np

    lines = _read_text(path, "input").splitlines()
    while lines and not lines[-1].strip():
        lines.pop()
    top = next((i for i, line in enumerate(lines) if line.strip()), None)
    if top is None:
        raise ConfigError(f"input {path!r} is empty")
    header = [h.strip() for h in lines[top].split(",")]
    try:
        d_col = header.index("d")
        c_col = header.index("c")
    except ValueError as exc:
        raise ConfigError(
            f"input {path!r} must have 'd' and 'c' columns, found {header}"
        ) from exc
    first = top + 2
    d_vals, c_vals = [], []
    for lineno, line in enumerate(lines[top + 1:], start=first):
        cells = line.split(",")
        try:
            d_vals.append(float(cells[d_col]))
            c_vals.append(float(cells[c_col]))
        except (IndexError, ValueError) as exc:
            raise ConfigError(f"input {path!r} line {lineno}: bad row {line!r}") from exc
    d, c = np.asarray(d_vals), np.asarray(c_vals)
    bad = ~((d > 0.0) & np.isfinite(d) & np.isfinite(c))
    if bad.any():
        lineno = int(np.argmax(bad)) + first
        raise ConfigError(
            f"input {path!r} line {lineno}: d must be positive and finite and c "
            f"finite, got {lines[lineno - 1]!r}"
        )
    return d, c, first


def run_design(schema: Schema, fmt: str) -> Iterable[str]:
    from .design import PrefractalSpec, check_margin, in_window, min_feature, min_level

    outer = schema.take("outer")
    reduction = schema.take("reduction")
    separation = schema.take("separation")
    margin = schema.take("margin", 10.0)
    schema.finish()

    n_min = min_level(outer, separation, reduction)
    check_margin(margin)
    headers = ["n", "ell_n", "lower_ok", "upper_ok", "in_window", "min_level"]
    levels = list(range(n_min + 3))
    specs = [PrefractalSpec(outer_scale=outer, reduction=reduction, level=n) for n in levels]
    ells = [min_feature(spec) for spec in specs]
    columns = [
        levels,
        ells,
        [ell <= separation for ell in ells],
        separation <= outer / margin,
        [in_window(spec, separation, margin) for spec in specs],
        n_min,
    ]
    extra = {"min_level": n_min, "margin": margin}
    return report_blocks("design", headers, columns, fmt, extra)


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
    except BrokenPipeError:
        # The reader of stdout has gone (``castrace trace ... | head``).  The
        # rest of the report has nowhere to go; pointing stdout at devnull
        # stops the interpreter's flush at exit from raising again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_BROKEN_PIPE
    except (ConfigError, DomainError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:  # a config that asks for more than the machine has
        detail = f": {exc}" if str(exc) else ""
        print(f"error: {args.command} ran out of memory{detail}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 3
    except CastraceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
