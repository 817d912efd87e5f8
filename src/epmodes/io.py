"""Config parsing, sweep CSV serialization, and the mode-file format.

Everything here is line-oriented UTF-8 text. Floating-point values are
written with repr(), the shortest decimal that round-trips, so rereading a
file reproduces the original doubles bit for bit and reruns under the same
config can be compared byte for byte (the timestamp comment is the one
exception, and it can be suppressed). `read_text` and `write_text` are the
package's only file access.
"""

from __future__ import annotations

import csv
import datetime
from dataclasses import fields
from io import StringIO

import numpy as np

from .models import (CavitySpec, GridTooCoarse, InvalidSetting, Mode,
                     build_ellipse_grid, check_finite)
from .sweep import (SweepConfig, SweepRecord, anchored_grid, check_orders,
                    column_order, diagnostic_columns, diagnostic_values,
                    diagnostics_from_values, record_orders)


def read_text(path) -> str:
    """A file's UTF-8 text with each CRLF and lone CR read as \\n: line
    ends are translated here alone, so every reader splits at \\n."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise OSError(f"cannot read {path}: {exc}") from exc


def write_text(path, text: str) -> None:
    """Write `text` as UTF-8 with its line ends as given."""
    try:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    except OSError as exc:
        raise OSError(f"cannot write {path}: {exc}") from exc


class ParseError(Exception):
    """Malformed config or mode-file text; carries the 1-based line number."""

    def __init__(self, line_number: int, message: str):
        self.line_number = line_number
        super().__init__(f"line {line_number}: {message}")


def _invalid(key: str, message: str) -> InvalidSetting:
    """A bad setting named as the user wrote it: a config key, an override
    item or a command-line flag, which also heads the message."""
    return InvalidSetting(key, f"{key}: {message}")


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
# config keys whose SweepConfig field is spelled differently
_FIELD_OF_KEY = {"n_bins": "N_bins", "k_max": "K_max", "alpha": "alphas",
                 "delta_range": "grid", "epsilon_range": "grid"}

SVG_FIELDS = ("K", "S_folded")


def _parse_sections(text: str, overrides=()) -> dict:
    """Tokenize `[section]` / `key = value` lines; comments start with #.

    Each `section.key=value` override is then applied to the parsed
    sections: it replaces the key or adds it. Line numbers in errors are
    therefore always those of the text.
    """
    sections = {name: {} for name in _SECTIONS}
    current = None
    for ln, raw in enumerate(text.split("\n"), start=1):
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
            raise _invalid(key, f"unknown key in [{current}]")
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
            raise _invalid(item, "expected section.key=value")
        if section not in _SECTIONS:
            raise _invalid(section, "unknown section")
        if key not in _SECTIONS[section]:
            raise _invalid(key, f"unknown key in [{section}]")
        if not value:
            raise _invalid(key, "empty value")
        sections[section][key] = value
    return sections


def _float(key: str, value: str) -> float:
    try:
        return float(value)
    except ValueError:
        raise _invalid(key, f"not a number: {value!r}") from None


def _int(key: str, value: str) -> int:
    try:
        return int(value)
    except ValueError:
        raise _invalid(key, f"not an integer: {value!r}") from None


def split_list(key: str, value: str) -> tuple:
    """The stripped items of a comma list; an empty item is an error naming
    `key`, the config key or command-line flag that gave the list."""
    items = tuple(part.strip() for part in value.split(","))
    if not all(items):
        raise _invalid(key, "empty item in comma list")
    return items


def float_list(key: str, value: str) -> tuple:
    return tuple(_float(key, item) for item in split_list(key, value))


def _range_triple(key: str, value: str) -> np.ndarray:
    parts = value.split(":")
    if len(parts) != 3:
        raise _invalid(key, "expected start:stop:step")
    start, stop, step = (_float(key, p.strip()) for p in parts)
    try:
        return anchored_grid(start, stop, step)
    except ValueError as exc:
        raise _invalid(key, str(exc)) from None


# how a key's text becomes its value, where that is not float()
_CONVERT = {"m": _int, "n_bins": _int, "k_max": _int, "alpha": float_list,
            "grid": float_list, "delta_range": _range_triple,
            "epsilon_range": _range_triple, "model": lambda key, text: text,
            "variant": lambda key, text: text}


def parse_config(text: str, overrides=()) -> SweepConfig:
    """Validated SweepConfig from config text, split into lines at \\n
    alone, and `section.key=value` overrides.

    A key left out keeps SweepConfig's default, and a model given no range
    sweeps its canonical window. SweepConfig checks every range; a value it
    rejects is reported under the key that set it, an epsilon under the
    grid key.
    """
    sec = _parse_sections(text, overrides)
    model = sec["model"].get("model")
    if model is None:
        raise _invalid("model", "required key missing")
    if model not in _DEFAULT_RANGES:
        raise _invalid("model", f"unknown model {model!r}")
    expected = "delta_range" if model == "two_level" else "epsilon_range"
    kwargs, key_of = {}, {}
    for name in ("model", "sweep", "analysis"):
        for key, value in sec[name].items():
            field = _FIELD_OF_KEY.get(key, key)
            if field in key_of:  # only the grid has more than one key
                raise _invalid(key, f"conflicts with {key_of[field]}")
            if field == "grid" and key not in ("grid", expected):
                raise _invalid(key, f"model '{model}' sweeps {expected}")
            kwargs[field] = _CONVERT.get(key, _float)(key, value)
            key_of[field] = key
    if "grid" not in kwargs:
        kwargs["grid"] = anchored_grid(*_DEFAULT_RANGES[model])
    key_of["epsilon"] = key_of.get("grid")
    try:
        return SweepConfig(**kwargs)
    except InvalidSetting as exc:
        key = key_of.get(exc.field) or exc.field
        raise _invalid(key, str(exc)) from None


def parse_output_options(text: str, overrides=()) -> dict:
    """The [output] section: directory, csv/svg names, svg field list,
    optional vertical marker, timestamp on/off."""
    sec = _parse_sections(text, overrides)["output"]
    out = {"directory": sec.get("directory", "."),
           "csv": sec.get("csv", "sweep.csv"),
           "svg": sec.get("svg"),
           "svg_fields": SVG_FIELDS,
           "marker": None,
           "timestamp": True}
    if "svg_fields" in sec:
        out["svg_fields"] = split_list("svg_fields", sec["svg_fields"])
    if "marker" in sec:
        out["marker"] = _float("marker", sec["marker"])
        check_finite(marker=out["marker"])
    if "timestamp" in sec:
        flag = sec["timestamp"].lower()
        if flag not in ("true", "false", "1", "0", "yes", "no"):
            raise _invalid("timestamp", f"not a boolean: {flag!r}")
        out["timestamp"] = flag in ("true", "1", "yes")
    return out


def csv_columns(alphas) -> list:
    """parameter, mode, the diagnostics columns, track_ambiguous, error."""
    return ["parameter", "mode", *diagnostic_columns(alphas),
            "track_ambiguous", "error"]


def write_sweep_csv(records: list, path, timestamp: bool = True) -> None:
    """One header row plus one row per (parameter, mode).

    Failed points keep their row (mode index -1, diagnostics nan) so the
    parameter column always covers the whole grid. Numbers are repr()
    output: shortest decimal round-trip, infinity spelled `inf`.
    """
    if not records:
        raise ValueError("no records to write")
    alphas = record_orders(records)
    buf = StringIO()
    if timestamp:
        stamp = datetime.datetime.now(datetime.timezone.utc)
        buf.write(f"# written {stamp.isoformat()}\n")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(csv_columns(alphas))
    for rec in records:
        failed = rec.error is not None
        for mi, row in [(-1, None)] if failed else enumerate(rec.modes):
            writer.writerow([repr(rec.parameter), mi,
                             *map(repr, diagnostic_values(row, alphas)),
                             int(rec.track_ambiguous and not failed),
                             rec.error or ""])
    if hasattr(path, "write"):
        path.write(buf.getvalue())
    else:
        write_text(path, buf.getvalue())


def read_sweep_csv(path) -> list:
    """Rebuild SweepRecords from a CSV produced by write_sweep_csv.

    Mode index 0 (or -1, a failed point) starts a record; index i > 0
    continues the record above it, which must then hold modes 0..i-1.
    """
    lines = StringIO(read_text(path)).readlines()
    # comments read as empty rows, so reader.line_num is the file's line
    reader = csv.reader("\n" if ln.startswith("#") else ln for ln in lines)
    rows = [(reader.line_num, cells) for cells in reader
            if not lines[reader.line_num - 1].startswith("#")]
    if len(rows) < 2:
        raise ParseError(1, "CSV has no data rows")
    header_ln, header = rows[0]
    alphas = [a for a in map(column_order, header) if a is not None]
    try:
        check_orders(alphas)
    except InvalidSetting as exc:
        raise ParseError(header_ln, str(exc)) from None
    if header != csv_columns(alphas):
        raise ParseError(header_ln, "unrecognized CSV header")
    records = []
    for ln, cells in rows[1:]:
        if len(cells) != len(header):
            raise ParseError(ln, f"expected {len(header)} cells")
        param, mode, *diag, ambiguous, error = cells
        try:
            param, mode = float(param), int(mode)
            row = None if mode == -1 else diagnostics_from_values(diag, alphas)
            ambiguous = bool(int(ambiguous))
        except ValueError as exc:
            raise ParseError(ln, f"bad value: {exc}") from None
        if mode == -1:
            records.append(SweepRecord(param, [], error or "error"))
            continue
        modes = [row]
        if mode != 0:
            prev = records.pop() if records else None
            if prev is None or prev.error is not None \
                    or prev.parameter != param or len(prev.modes) != mode:
                raise ParseError(ln, f"mode {mode} does not continue a record")
            # a new record, so its K * R2^2 check sees the added row too
            modes, ambiguous = prev.modes + modes, prev.track_ambiguous
        try:
            records.append(SweepRecord(param, modes,
                                       track_ambiguous=ambiguous))
        except ValueError as exc:  # the row breaks K * R2^2 = 1
            raise ParseError(ln, str(exc)) from None
    return records


def _reprs(values: np.ndarray) -> map:
    """repr of each float, lazily, formatting each distinct bit pattern
    once."""
    bits = values.view(np.uint64)
    u = np.sort(bits)
    u = u[np.concatenate(([True], u[1:] != u[:-1]))]  # each pattern once
    text = dict(zip(u.tolist(), map(repr, u.view(np.float64).tolist())))
    return map(text.__getitem__, memoryview(bits))


def write_mode_file(mode: Mode, path, parameter: float) -> None:
    """EPMODE 1 text format: header lines, blank line, one row per point.

    The header stores the cavity spec, so the reader rebuilds the exact
    geometry instead of trusting coordinates; rows carry (index, x, y,
    Re psi, Im psi) at full precision for inspection and plotting.
    """
    geo = mode.geometry
    lam = complex(mode.eigen_k)
    lines = ["EPMODE 1",
             f"provenance: {mode.provenance}",
             f"parameter: {float(parameter)!r}",
             f"eigenvalue: {lam.real!r} {lam.imag!r}",
             f"residual: {float(mode.residual_norm)!r}",
             f"degenerate: {int(mode.degenerate)}",
             f"n: {mode.psi.size}"]
    if geo is not None:
        for f in fields(CavitySpec):
            v = getattr(geo.spec, f.name)
            v = v if f.type == "str" else repr(float(v))
            lines.append(f"{f.name}: {v}")
        xs, ys = _reprs(geo.pt_x), _reprs(geo.pt_y)
    else:
        xs = ys = ["0.0"] * mode.psi.size
    lines.append("")
    psi = mode.psi  # read through memoryviews: no list of n floats
    lines.extend(map(" ".join, zip(
        map(str, range(psi.size)), xs, ys,
        map(repr, memoryview(psi.real)), map(repr, memoryview(psi.imag)))))
    write_text(path, "\n".join(lines) + "\n")


def read_mode_file(path):
    """(Mode, header dict) from an EPMODE 1 file written by write_mode_file.

    Only the header is split into lines, at \\n alone. numpy parses the
    rows in one pass: n lines (the last \\n optional) holding 5n numbers
    with index column 0..n-1. Otherwise a scan names the first row that is
    not its index and four more numbers. Any CavitySpec key in the header
    makes it a cavity mode, whose provenance follows from its geometry.
    """
    head, blank, body = read_text(path).partition("\n\n")
    if not blank:  # a final \n ends the last line, it opens no new one
        head = head.removesuffix("\n")
    lines = head.split("\n")
    if lines[0] != "EPMODE 1":
        raise ParseError(1, "not an EPMODE 1 file")
    header = {}
    line_of = {}
    for ln, line in enumerate(lines[1:], start=2):
        if ": " not in line:
            raise ParseError(ln, f"expected 'key: value', got {line!r}")
        key, _, value = line.partition(": ")
        if key in header:
            raise ParseError(ln, f"duplicate key '{key}'")
        header[key] = value
        line_of[key] = ln
    if not blank:
        raise ParseError(len(lines), "missing blank line before data rows")
    body_start = len(lines) + 1  # the blank line; rows begin on the next

    def value(key, conv=float):
        if key not in header:
            raise ParseError(1, f"header is missing '{key}'")
        try:
            return conv(header[key])
        except ValueError:
            raise ParseError(line_of[key],
                             f"bad {key}: {header[key]!r}") from None

    provenance = value("provenance", str)
    n = value("n", int)
    rows = body.count("\n") + (body[-1:] not in "\n")  # "" is in any str
    if rows != n:
        raise ParseError(body_start + 1,
                         f"expected {n} data rows, found {rows}")
    table = _numbers(body)
    if table is None or table.size != 5 * n \
            or not np.array_equal(table[::5], np.arange(n)):
        raise _first_bad_row(body, body_start + 1)
    del body  # not needed while the geometry is built
    xs, ys, re_psi, im_psi = table.reshape(n, 5)[:, 1:].T
    psi = np.empty(n, dtype=np.complex128)
    psi.real, psi.imag = re_psi, im_psi  # keeps -0.0, unlike re + 1j * im
    try:
        geometry = None
        if any(f.name in header for f in fields(CavitySpec)):
            geometry = build_ellipse_grid(CavitySpec(**{
                f.name: value(f.name, str if f.type == "str" else float)
                for f in fields(CavitySpec)}))
            if geometry.npts != n:
                raise ParseError(line_of["n"], f"geometry yields "
                                 f"{geometry.npts} points, file has {n}")
            if not (np.array_equal(geometry.pt_x, xs)
                    and np.array_equal(geometry.pt_y, ys)):
                raise ParseError(1, "row coordinates disagree with geometry")
        mode = Mode(geometry, psi, value("eigenvalue", _complex_pair),
                    provenance, value("residual"),
                    bool(value("degenerate", int)))
    except InvalidSetting as exc:  # a spec field, or the provenance
        raise ParseError(line_of[exc.field], str(exc)) from None
    except GridTooCoarse as exc:  # too few points at this h
        raise ParseError(line_of["h"], str(exc)) from None
    except ValueError as exc:  # psi not intensity-normalized
        raise ParseError(body_start + 1, str(exc)) from None
    header["parameter"] = value("parameter")
    return mode, header


def _numbers(text: str):
    """The numbers in `text` as numpy parses them, or None if it meets a
    token it cannot parse (`1_0` and hex among them)."""
    try:
        return np.fromstring(text, sep=" ")
    except ValueError:
        return None


def _first_bad_row(body: str, first_ln: int) -> ParseError:
    """Error naming the first row of `body` that is not its 0-based index
    and four more numbers; numpy reads whitespace alone as [-1]."""
    for off, line in enumerate(StringIO(body)):
        row = _numbers(line)
        if row is None or row.size != 5 or row[0] != off:
            line = line.rstrip("\n")
            return ParseError(first_ln + off, f"bad data row {line!r}")
    return ParseError(first_ln, "bad data rows")


def _complex_pair(text: str) -> complex:
    re_part, im_part = text.split()  # exactly two parts, or ValueError
    return complex(float(re_part), float(im_part))
