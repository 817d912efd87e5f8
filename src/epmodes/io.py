"""Config parsing, sweep CSV serialization, and the mode-file format.

Everything here is line-oriented UTF-8 text. Floating-point values are
written with repr(), the shortest decimal that round-trips, so rereading a
file reproduces the original doubles bit for bit and reruns under the same
config can be compared byte for byte (the timestamp comment is the one
exception, and it can be suppressed).
"""

from __future__ import annotations

import csv
import datetime
from dataclasses import fields

import numpy as np

from .models import CavitySpec, Mode, build_ellipse_grid
from .sweep import ModeDiagnostics, SweepConfig, SweepRecord, anchored_grid


class ParseError(Exception):
    """Malformed config or mode-file text; carries the 1-based line number."""

    def __init__(self, line_number: int, message: str):
        self.line_number = line_number
        super().__init__(f"line {line_number}: {message}")


class ValidationError(Exception):
    """A parsed value failed validation; carries the offending field name."""

    def __init__(self, field: str, message: str = ""):
        self.field = field
        super().__init__(f"{field}: {message}" if message else field)


_SECTIONS = {
    "model": ("model", "g", "gamma", "variant", "cap_strength", "cap_width",
              "h", "mean_radius", "k_target"),
    "sweep": ("delta_range", "epsilon_range", "grid", "m"),
    "analysis": ("n_bins", "k_max", "alpha", "node_cutoff"),
    "output": ("directory", "csv", "svg", "svg_fields", "marker",
               "timestamp"),
}

# canonical grids used when a config names a model but no range
_DEFAULT_RANGES = {"two_level": (-1.0, 1.0, 0.005),
                   "cavity": (0.10, 0.23, 0.005)}


def _parse_sections(text: str, overrides=()) -> dict:
    """Tokenize `[section]` / `key = value` lines; comments start with #.

    Each `section.key=value` override is then applied to the parsed
    sections: it replaces the key or adds it. Line numbers in errors are
    therefore always those of the text.
    """
    sections = {name: {} for name in _SECTIONS}
    current = None
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("[") and line.endswith("]"):
            name = line[1:-1].strip()
            if name not in _SECTIONS:
                raise ParseError(ln, f"unknown section [{name}]")
            current = name
            continue
        if "=" not in line:
            raise ParseError(ln, f"expected 'key = value', got {line!r}")
        if current is None:
            raise ParseError(ln, "key outside any [section]")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in _SECTIONS[current]:
            raise ValidationError(key, f"unknown key in [{current}]")
        if key in sections[current]:
            raise ParseError(ln, f"duplicate key '{key}'")
        if not value:
            raise ParseError(ln, f"empty value for '{key}'")
        sections[current][key] = value
    for item in overrides:
        head, eq, value = item.partition("=")
        section, dot, key = head.partition(".")
        section, key, value = section.strip(), key.strip(), value.strip()
        if not eq or not dot:
            raise ValidationError(item, "expected section.key=value")
        if section not in _SECTIONS:
            raise ValidationError(section, "unknown section")
        if key not in _SECTIONS[section]:
            raise ValidationError(key, f"unknown key in [{section}]")
        if not value:
            raise ValidationError(key, "empty value")
        sections[section][key] = value
    return sections


def _float(key: str, value: str) -> float:
    try:
        return float(value)
    except ValueError:
        raise ValidationError(key, f"not a number: {value!r}") from None


def _int(key: str, value: str) -> int:
    try:
        return int(value)
    except ValueError:
        raise ValidationError(key, f"not an integer: {value!r}") from None


def _float_list(key: str, value: str) -> tuple:
    return tuple(_float(key, part.strip()) for part in value.split(","))


def _range_triple(key: str, value: str) -> np.ndarray:
    parts = value.split(":")
    if len(parts) != 3:
        raise ValidationError(key, "expected start:stop:step")
    start, stop, step = (_float(key, p.strip()) for p in parts)
    try:
        return anchored_grid(start, stop, step)
    except ValueError as exc:
        raise ValidationError(key, str(exc)) from None


def _parse_grid(model: str, sweep_keys: dict) -> np.ndarray:
    given = [k for k in ("delta_range", "epsilon_range", "grid")
             if k in sweep_keys]
    if len(given) > 1:
        raise ValidationError(given[1], f"conflicts with {given[0]}")
    if not given:
        return anchored_grid(*_DEFAULT_RANGES[model])
    key = given[0]
    expected = "delta_range" if model == "two_level" else "epsilon_range"
    if key != "grid" and key != expected:
        raise ValidationError(key, f"model '{model}' sweeps {expected}")
    if key == "grid":
        return np.array(_float_list(key, sweep_keys[key]), dtype=np.float64)
    return _range_triple(key, sweep_keys[key])


def parse_config(text: str, overrides=()) -> SweepConfig:
    """Validated SweepConfig from config text and `section.key=value`
    overrides, defaults applied.

    Defaults: N_bins=720, K_max=50, alpha = 1, 1.5, 2, node_cutoff=1e-12,
    and the canonical parameter window for the chosen model when no range
    is given.
    """
    sec = _parse_sections(text, overrides)
    model_keys = sec["model"]
    if "model" not in model_keys:
        raise ValidationError("model", "required key missing")
    model = model_keys["model"]
    if model not in ("two_level", "cavity"):
        raise ValidationError("model", f"unknown model {model!r}")

    kwargs = {}
    for key, conv in (("g", _float), ("gamma", _float),
                      ("cap_strength", _float), ("cap_width", _float),
                      ("h", _float), ("mean_radius", _float),
                      ("k_target", _float)):
        if key in model_keys:
            kwargs[key] = conv(key, model_keys[key])
    if "variant" in model_keys:
        if model_keys["variant"] not in ("closed", "open"):
            raise ValidationError("variant",
                                  f"must be closed or open, got "
                                  f"{model_keys['variant']!r}")
        kwargs["variant"] = model_keys["variant"]

    grid = _parse_grid(model, sec["sweep"])
    if "m" in sec["sweep"]:
        m = _int("m", sec["sweep"]["m"])
        if m < 1:
            raise ValidationError("m", "must be >= 1")
        kwargs["m"] = m

    ana = sec["analysis"]
    if "n_bins" in ana:
        n_bins = _int("n_bins", ana["n_bins"])
        if n_bins < 2:
            raise ValidationError("n_bins", "must be >= 2")
        kwargs["N_bins"] = n_bins
    if "k_max" in ana:
        k_max = _int("k_max", ana["k_max"])
        if k_max < 1:
            raise ValidationError("k_max", "must be >= 1")
        kwargs["K_max"] = k_max
    if "alpha" in ana:
        alphas = _float_list("alpha", ana["alpha"])
        if any(a <= 0.0 for a in alphas):
            raise ValidationError("alpha", "orders must be positive")
        kwargs["alphas"] = alphas
    if "node_cutoff" in ana:
        cut = _float("node_cutoff", ana["node_cutoff"])
        if not 0.0 <= cut < 1.0:
            raise ValidationError("node_cutoff", "must lie in [0, 1)")
        kwargs["node_cutoff"] = cut

    try:
        return SweepConfig(model, grid, **kwargs)
    except ValueError as exc:
        raise ValidationError("config", str(exc)) from None


def parse_output_options(text: str, overrides=()) -> dict:
    """The [output] section: directory, csv/svg names, svg field list,
    optional vertical marker, timestamp on/off."""
    sec = _parse_sections(text, overrides)["output"]
    out = {"directory": sec.get("directory", "."),
           "csv": sec.get("csv", "sweep.csv"),
           "svg": sec.get("svg"),
           "svg_fields": ("K", "S_folded"),
           "marker": None,
           "timestamp": True}
    if "svg_fields" in sec:
        fields = tuple(p.strip() for p in sec["svg_fields"].split(","))
        if not all(fields):
            raise ValidationError("svg_fields", "empty field name")
        out["svg_fields"] = fields
    if "marker" in sec:
        out["marker"] = _float("marker", sec["marker"])
    if "timestamp" in sec:
        flag = sec["timestamp"].lower()
        if flag not in ("true", "false", "1", "0", "yes", "no"):
            raise ValidationError("timestamp", f"not a boolean: {flag!r}")
        out["timestamp"] = flag in ("true", "1", "yes")
    return out


def _fmt(value) -> str:
    if isinstance(value, bool):
        return str(int(value))
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _is_flag(f) -> bool:
    return f.type in (bool, "bool")


def csv_columns(alphas) -> list:
    """parameter, mode, the ModeDiagnostics fields in their order (renyi as
    one renyi_<alpha> column per order, ascending), track_ambiguous, error."""
    cols = ["parameter", "mode"]
    for f in fields(ModeDiagnostics):
        if f.name == "renyi":
            cols += [f"renyi_{a:g}" for a in sorted(alphas)]
        else:
            cols.append(f.name)
    return cols + ["track_ambiguous", "error"]


def _diagnostic_cells(row, alphas) -> list:
    """A row's ModeDiagnostics cells in column order; a failed point
    (row None) has nan for every number and 0 for every flag."""
    cells = []
    for f in fields(ModeDiagnostics):
        if f.name == "renyi":
            cells += [_fmt(row.renyi[a]) if row else "nan" for a in alphas]
        elif _is_flag(f):
            cells.append(int(getattr(row, f.name)) if row else 0)
        else:
            cells.append(_fmt(getattr(row, f.name)) if row else "nan")
    return cells


def _parse_diagnostics(cells, alphas) -> ModeDiagnostics:
    it = iter(cells)
    values = {}
    for f in fields(ModeDiagnostics):
        if f.name == "renyi":
            values[f.name] = {a: float(next(it)) for a in alphas}
        elif _is_flag(f):
            values[f.name] = bool(int(next(it)))
        else:
            values[f.name] = float(next(it))
    return ModeDiagnostics(**values)


def write_sweep_csv(records: list, path, timestamp: bool = True) -> None:
    """One header row plus one row per (parameter, mode).

    Failed points keep their row (mode index -1, diagnostics nan) so the
    parameter column always covers the whole grid. Numbers are repr()
    output: shortest decimal round-trip, infinity spelled `inf`.
    """
    if not records:
        raise ValueError("no records to write")
    alphas = ()
    for rec in records:
        if rec.modes:
            alphas = tuple(sorted(rec.modes[0].renyi))
            break

    def _emit(fh):
        if timestamp:
            stamp = datetime.datetime.now(datetime.timezone.utc)
            fh.write(f"# written {stamp.isoformat()}\n")
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(csv_columns(alphas))
        for rec in records:
            if rec.error is not None:
                writer.writerow([_fmt(rec.parameter), -1]
                                + _diagnostic_cells(None, alphas)
                                + [0, rec.error])
                continue
            for mi, row in enumerate(rec.modes):
                writer.writerow([_fmt(rec.parameter), mi]
                                + _diagnostic_cells(row, alphas)
                                + [int(rec.track_ambiguous), ""])

    if hasattr(path, "write"):
        _emit(path)
        return
    try:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            _emit(fh)
    except OSError as exc:
        raise OSError(f"cannot write {path}: {exc}") from exc


def read_sweep_csv(path) -> list:
    """Rebuild SweepRecords from a CSV produced by write_sweep_csv.

    Mode index 0 (or -1, a failed point) starts a record; index i > 0
    continues the record above it, which must then hold modes 0..i-1.
    """
    try:
        with open(path, "r", encoding="utf-8", newline="") as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise OSError(f"cannot read {path}: {exc}") from exc
    # comments read as empty rows, so reader.line_num is the file's line
    reader = csv.reader("\n" if ln.startswith("#") else ln for ln in lines)
    rows = [(reader.line_num, cells) for cells in reader
            if not lines[reader.line_num - 1].startswith("#")]
    if len(rows) < 2:
        raise ParseError(1, "CSV has no data rows")
    header_ln, header = rows[0]
    alphas = [_float(name, name[len("renyi_"):]) for name in header
              if name.startswith("renyi_")]
    if header != csv_columns(alphas):
        raise ParseError(header_ln, "unrecognized CSV header")
    records = []
    for ln, cells in rows[1:]:
        if len(cells) != len(header):
            raise ParseError(ln, f"expected {len(header)} cells")
        param, mode, *diag, ambiguous, error = cells
        try:
            param, mode = float(param), int(mode)
            row = None if mode == -1 else _parse_diagnostics(diag, alphas)
            ambiguous = bool(int(ambiguous))
        except ValueError as exc:
            raise ParseError(ln, f"bad value: {exc}") from None
        if mode == -1:
            records.append(SweepRecord(param, [], error or "error"))
            continue
        if mode == 0:
            records.append(SweepRecord(param, [row],
                                       track_ambiguous=ambiguous))
            continue
        prev = records[-1] if records else None
        if prev is None or prev.error is not None \
                or prev.parameter != param or len(prev.modes) != mode:
            raise ParseError(ln, f"mode {mode} does not continue a record")
        # a new record, so its K * R2^2 check sees the added row too
        records[-1] = SweepRecord(param, prev.modes + [row],
                                  track_ambiguous=prev.track_ambiguous)
    return records


_GEOM_KEYS = ("epsilon", "mean_radius", "h", "variant", "cap_strength",
              "cap_width")


def write_mode_file(mode: Mode, path, parameter: float | None = None) -> None:
    """EPMODE 1 text format: header lines, blank line, one row per point.

    The header stores the cavity spec, so the reader rebuilds the exact
    geometry instead of trusting coordinates; rows carry (index, x, y,
    Re psi, Im psi) at full precision for inspection and plotting.
    """
    geo = mode.geometry
    if parameter is None:
        parameter = geo.spec.epsilon if geo is not None else float("nan")
    lam = complex(mode.eigen_k)
    lines = ["EPMODE 1",
             f"provenance: {mode.provenance}",
             f"parameter: {_fmt(float(parameter))}",
             f"eigenvalue: {_fmt(lam.real)} {_fmt(lam.imag)}",
             f"residual: {_fmt(float(mode.residual_norm))}",
             f"degenerate: {int(mode.degenerate)}",
             f"n: {mode.psi.size}"]
    if geo is not None:
        spec = geo.spec
        lines += [f"epsilon: {_fmt(float(spec.epsilon))}",
                  f"mean_radius: {_fmt(float(spec.mean_radius))}",
                  f"h: {_fmt(float(spec.h))}",
                  f"variant: {spec.variant}",
                  f"cap_strength: {_fmt(float(spec.cap_strength))}",
                  f"cap_width: {_fmt(float(spec.cap_width))}"]
        xs, ys = geo.pt_x, geo.pt_y
    else:
        xs = ys = np.zeros(mode.psi.size)
    lines.append("")
    for i in range(mode.psi.size):
        lines.append(f"{i} {_fmt(float(xs[i]))} {_fmt(float(ys[i]))} "
                     f"{_fmt(float(mode.psi[i].real))} "
                     f"{_fmt(float(mode.psi[i].imag))}")
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("\n".join(lines) + "\n")
    except OSError as exc:
        raise OSError(f"cannot write {path}: {exc}") from exc


def read_mode_file(path):
    """(Mode, header dict) from an EPMODE 1 file written by write_mode_file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.read().splitlines()
    except OSError as exc:
        raise OSError(f"cannot read {path}: {exc}") from exc
    if not lines or lines[0] != "EPMODE 1":
        raise ParseError(1, "not an EPMODE 1 file")
    header = {}
    line_of = {}
    body_start = None
    for ln, line in enumerate(lines[1:], start=2):
        if line == "":
            body_start = ln  # blank separator; rows begin on the next line
            break
        if ": " not in line:
            raise ParseError(ln, f"expected 'key: value', got {line!r}")
        key, _, value = line.partition(": ")
        header[key] = value
        line_of[key] = ln
    if body_start is None:
        raise ParseError(len(lines), "missing blank line before data rows")
    for key in ("provenance", "parameter", "eigenvalue", "residual",
                "degenerate", "n"):
        if key not in header:
            raise ParseError(1, f"header is missing '{key}'")

    def value(key, conv=float):
        try:
            return conv(header[key])
        except ValueError:
            raise ParseError(line_of[key],
                             f"bad {key}: {header[key]!r}") from None

    n = value("n", int)
    rows = lines[body_start:]
    if len(rows) != n:
        raise ParseError(body_start + 1,
                         f"expected {n} data rows, found {len(rows)}")
    psi = np.zeros(n, dtype=np.complex128)
    xs = np.zeros(n)
    ys = np.zeros(n)
    try:
        for off, line in enumerate(rows):
            parts = line.split()
            if len(parts) != 5 or int(parts[0]) != off:
                raise ValueError
            xs[off] = float(parts[1])
            ys[off] = float(parts[2])
            psi[off] = complex(float(parts[3]), float(parts[4]))
    except ValueError:
        raise ParseError(body_start + 1 + off,
                         f"bad data row {rows[off]!r}") from None
    geometry = None
    if header["provenance"] != "two_level":
        missing = [k for k in _GEOM_KEYS if k not in header]
        if missing:
            raise ParseError(1, f"header is missing '{missing[0]}'")
        spec = CavitySpec(value("epsilon"), value("mean_radius"),
                          value("h"), header["variant"],
                          value("cap_strength"), value("cap_width"))
        geometry = build_ellipse_grid(spec)
        if geometry.npts != n:
            raise ParseError(1, f"geometry yields {geometry.npts} points, "
                                f"file has {n}")
        if not (np.array_equal(geometry.pt_x, xs)
                and np.array_equal(geometry.pt_y, ys)):
            raise ParseError(1, "row coordinates disagree with geometry")
    mode = Mode(geometry, psi, value("eigenvalue", _complex_pair),
                header["provenance"], value("residual"),
                bool(value("degenerate", int)))
    header["parameter"] = value("parameter")
    return mode, header


def _complex_pair(text: str) -> complex:
    re_part, im_part = text.split()  # exactly two parts, or ValueError
    return complex(float(re_part), float(im_part))
