"""Command-line front end: batch runs that write CSV/JSON plus a manifest.

Subcommands
-----------
analyze    connectivity report for a platoon or graph file
estimate   fault-tolerant initial-state recovery error curve from a scenario
consensus  trimmed-average (W-MSR) consensus trace from a scenario
formation  formation-control time response from a config
sweep      closed-form disturbance-gain surface over (n, k)

Every run writes `<command>-<hash-of-config>.<ext>` plus `manifest.json` into
--out (default: current directory); a CSV formation run writes two files,
`formation-<hash>-vehicles.csv` and `formation-<hash>-edges.csv`.  Identical
(config, seed) gives bitwise-identical outputs.  Exit codes: 0 success,
2 validation error, 3 refused exhaustive computation.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from importlib import import_module
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from . import _EXPORTS, _MODULE_OF, __version__
from .graph import Graph, PlatoonSpec, build_knn_platoon, load_graph, read_json


def _bind(module: str) -> None:
    """Import platoonnet.<module> and bind the names the package exports from
    it as globals here, where the subcommands look them up, keeping any name
    already bound (a replaced name stays replaced).  A subcommand binds its
    domain module when it first runs, as does an outside lookup of one of its
    names such as `cli.run_wmsr`, so a job loads only its own code."""
    mod = import_module(f"{__package__}.{module}")
    for name in _EXPORTS[module]:
        globals().setdefault(name, getattr(mod, name))


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    _bind(module)
    return globals()[name]


EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_REFUSED = 3


class ValidationFailure(ValueError):
    """User input failed validation; maps to exit code 2."""


_GRAPH_SPEC_SCHEMA = {
    "oneOf": [
        {"type": "string"},
        {
            "type": "object",
            "properties": {
                "platoon": {
                    "type": "array",
                    "items": {"type": "integer"},
                    "minItems": 2,
                    "maxItems": 2,
                }
            },
            "required": ["platoon"],
            "additionalProperties": False,
        },
        {
            "type": "object",
            "properties": {
                "n": {"type": "integer", "minimum": 1},
                "edges": {
                    "type": "array",
                    "items": {
                        "type": "array",
                        "items": {"type": "integer"},
                        "minItems": 2,
                        "maxItems": 2,
                    },
                },
            },
            "required": ["n", "edges"],
            "additionalProperties": False,
        },
    ]
}

# Each adversary strategy's params, named as its constructor's arguments.
STRATEGY_PARAMS = {
    "constant": ("value",),
    "ramp": ("start", "slope"),
    "sinusoid": ("amplitude", "omega", "phase"),
    "seeded-random": ("low", "high"),
}
# The schema of each strategy's params: numbers, each required but a phase.
STRATEGY_SCHEMAS = {
    kind: {"type": "object", "properties": {name: {"type": "number"} for name in names},
           "required": [name for name in names if name != "phase"], "additionalProperties": False}
    for kind, names in STRATEGY_PARAMS.items()
}

ESTIMATE_SCHEMA = {
    "type": "object",
    "properties": {
        "graph": _GRAPH_SPEC_SCHEMA,
        "seed": {"type": "integer", "minimum": 0},
        "faulty": {"type": "array", "items": {"type": "integer"}},
        "phi": {
            "type": "array",
            "items": {
                "type": "array",
                "prefixItems": [
                    {"type": "integer"},
                    {"type": "integer"},
                    {"type": "number"},
                ],
                "minItems": 3,
                "maxItems": 3,
            },
        },
        "observer": {"type": "integer", "minimum": 0},
        "f": {"type": "integer", "minimum": 0},
        "horizon": {"type": "integer", "minimum": 1},
    },
    "required": ["graph", "seed", "faulty", "phi", "observer", "f"],
    "additionalProperties": False,
}

CONSENSUS_SCHEMA = {
    "type": "object",
    "properties": {
        "graph": _GRAPH_SPEC_SCHEMA,
        "seed": {"type": "integer", "minimum": 0},
        "adversaries": {
            "type": "array",
            "items": {
                "type": "object",
                "properties": {
                    "vehicle": {"type": "integer", "minimum": 0},
                    "strategy": {"enum": list(STRATEGY_PARAMS)},
                    "params": {"type": "object"},
                },
                "required": ["vehicle", "strategy"],
                "additionalProperties": False,
            },
        },
        "f": {"type": "integer", "minimum": 0},
        "T": {"type": "integer", "minimum": 1},
        "tol": {"type": "number", "exclusiveMinimum": 0},
    },
    "required": ["graph", "seed", "adversaries", "f"],
    "additionalProperties": False,
}

FORMATION_SCHEMA = {
    "type": "object",
    "properties": {
        "graph": _GRAPH_SPEC_SCHEMA,
        "kp": {"type": "number", "exclusiveMinimum": 0},
        "ku": {"type": "number", "exclusiveMinimum": 0},
        "d0": {"type": "number", "exclusiveMinimum": 0},
        "T": {"type": "number", "exclusiveMinimum": 0},
        "h": {"type": "number", "exclusiveMinimum": 0},
        "record_every": {"type": "integer", "minimum": 1},
        "disturbance": {
            "type": "object",
            "properties": {
                "kind": {"enum": ["none", "step", "sinusoid"]},
                "vehicle": {"type": "integer", "minimum": 0},
                "amplitude": {"type": "number"},
                "omega": {
                    "oneOf": [{"type": "number", "minimum": 0}, {"const": "peak"}]
                },
                "phase": {"type": "number"},
            },
            "required": ["kind"],
            "additionalProperties": False,
        },
    },
    "required": ["graph", "kp", "ku"],
    "additionalProperties": False,
}


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


_TYPE_CHECKS = {
    "object": lambda v: isinstance(v, dict),
    "array": lambda v: isinstance(v, list),
    "string": lambda v: isinstance(v, str),
    "number": _is_number,
    # JSON Schema counts 2.0 as an integer
    "integer": lambda v: _is_number(v) and (isinstance(v, int) or v.is_integer()),
}

# the JSON Schema keywords that _first_error implements
SCHEMA_KEYWORDS = frozenset({
    "type", "properties", "required", "additionalProperties", "items", "prefixItems",
    "minItems", "maxItems", "minimum", "exclusiveMinimum", "enum", "const", "oneOf",
})


def _same(value, allowed) -> bool:
    """JSON equality of scalars: true and 1 are different values."""
    return value == allowed and isinstance(value, bool) == isinstance(allowed, bool)


def _first_error(value, schema: dict, path: tuple = ()) -> tuple[tuple, str] | None:
    """(path, message) of the first place where value breaks schema, or None.

    JSON Schema 2020-12 semantics for the keywords in SCHEMA_KEYWORDS.  A
    node's own keywords are checked before its children, object keys in
    sorted order and array indices in ascending order, so the error returned
    is the one with the smallest path.
    """
    kind = schema.get("type")
    if kind is not None and not _TYPE_CHECKS[kind](value):
        return path, f"expected {kind}, got {json.dumps(value)}"
    if "enum" in schema and not any(_same(value, v) for v in schema["enum"]):
        return path, f"{json.dumps(value)} is not one of {json.dumps(schema['enum'])}"
    if "const" in schema and not _same(value, schema["const"]):
        return path, f"{json.dumps(value)} is not {json.dumps(schema['const'])}"
    if "oneOf" in schema:
        matches = sum(_first_error(value, branch) is None for branch in schema["oneOf"])
        if matches != 1:
            return path, f"matches {matches} of the {len(schema['oneOf'])} allowed forms, not 1"
    if _is_number(value):
        if "minimum" in schema and value < schema["minimum"]:
            return path, f"{json.dumps(value)} is below the minimum {schema['minimum']}"
        if "exclusiveMinimum" in schema and value <= schema["exclusiveMinimum"]:
            return path, f"{json.dumps(value)} is not above {schema['exclusiveMinimum']}"
    children = []
    if isinstance(value, list):
        if len(value) < schema.get("minItems", 0):
            return path, f"{len(value)} items, fewer than {schema['minItems']}"
        if len(value) > schema.get("maxItems", len(value)):
            return path, f"{len(value)} items, more than {schema['maxItems']}"
        prefix = schema.get("prefixItems", [])
        children = [(i, prefix[i] if i < len(prefix) else schema.get("items"))
                    for i in range(len(value))]
    elif isinstance(value, dict):
        missing = [key for key in schema.get("required", ()) if key not in value]
        if missing:
            return path, f"missing required key {json.dumps(missing[0])}"
        props = schema.get("properties", {})
        if schema.get("additionalProperties", True) is False:
            unknown = sorted(set(value) - set(props))
            if unknown:
                return path, f"unknown key {json.dumps(unknown[0])}"
        children = [(key, props.get(key)) for key in sorted(value)]
    for key, sub in children:
        if sub is not None:
            error = _first_error(value[key], sub, path + (key,))
            if error is not None:
                return error
    return None


def _invalid(what: str, path: tuple, message: str) -> ValidationFailure:
    pointer = "/" + "/".join(str(p) for p in path)
    return ValidationFailure(f"{what}: invalid at {pointer}: {message}")


def _validate_schema(data, schema, what: str, path: tuple = ()) -> None:
    error = _first_error(data, schema, path)
    if error is not None:
        raise _invalid(what, *error)


def _check_finite(data, what: str) -> None:
    """Reject NaN and +-Infinity anywhere in a parsed document, reporting the
    first in the order of _first_error.  JSON Schema's `number` admits them,
    and no field of a scenario or config has a meaning for them."""
    stack = [((), data)]
    while stack:  # depth-first, children pushed last-first
        path, value = stack.pop()
        if isinstance(value, float) and not math.isfinite(value):
            raise _invalid(what, path, f"{json.dumps(value)} is not a finite number")
        if isinstance(value, dict):
            stack.extend((path + (key,), value[key]) for key in sorted(value, reverse=True))
        elif isinstance(value, list):
            stack.extend((path + (i,), value[i]) for i in reversed(range(len(value))))


def _load_document(path: str, schema: dict, what: str):
    """A scenario or config file, parsed and checked: it matches its schema
    and every number in it is finite."""
    _, data = read_json(path, what)
    _validate_schema(data, schema, what)
    _check_finite(data, what)
    return data


def _resolve_graph(spec, base_dir: Path) -> Graph:
    """Graph from a checked 'graph' entry: a graph file (a relative path
    resolves against base_dir), a platoon or an inline edge list.  The
    schema's integers may be integral floats such as 4.0; int() reads them."""
    if isinstance(spec, str):
        return load_graph(base_dir / spec)
    if "platoon" in spec:
        return build_knn_platoon(PlatoonSpec(*map(int, spec["platoon"])))
    return Graph.from_edges(int(spec["n"]), [tuple(map(int, e)) for e in spec["edges"]])


def _vehicle(value, n: int, what: str, path: tuple) -> int:
    """The vehicle id at `path` of a checked document: an integral number
    below n."""
    vehicle = int(value)
    if not 0 <= vehicle < n:
        raise _invalid(what, path, f"vehicle {vehicle} out of range for n={n}")
    return vehicle


def _scenario_seed(data: dict, seed_override: int | None) -> int:
    """The scenario's seed, or --seed when it is given."""
    if seed_override is None:
        return int(data["seed"])
    if seed_override < 0:
        raise ValidationFailure(f"--seed must be a non-negative integer, got {seed_override}")
    return int(seed_override)


def _config_hash(config: dict) -> str:
    import hashlib  # here, not at the top: --help and refusals never hash

    blob = json.dumps(config, sort_keys=True, separators=(",", ":")).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()[:12]


def _versions() -> dict:
    return {
        "platoonnet": __version__,
        "numpy": np.__version__,
        "python": "%d.%d.%d" % sys.version_info[:3],
    }


def _write_json(path: Path, payload) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _emit(args, config: dict, seed, files: dict, results: dict | None = None) -> int:
    """Write a run's data files and its manifest into --out.

    `files` maps a name suffix to the writer of that file, which is named
    `<command>-<hash><suffix>`; the hash covers `config` together with the
    command and the output format.
    """
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    config = {**config, "command": args.command, "format": args.format}
    stem = f"{args.command}-{_config_hash(config)}"
    names = []
    for suffix, write in files.items():
        names.append(stem + suffix)
        write(outdir / names[-1])
    manifest = {
        "command": args.command,
        "config": config,
        "seed": seed,
        "outputs": names,
        "versions": _versions(),
    }
    if results is not None:
        manifest["results"] = results
    _write_json(outdir / "manifest.json", manifest)
    for name in names:
        print(f"wrote {outdir / name}")
    return EXIT_OK


def _table(fmt: str, header: list[str], columns, suffix: str = "") -> dict:
    """An `_emit` file entry for a table of equal-length columns: CSV, or a
    JSON list of one record per row."""
    if fmt == "csv":
        return {f"{suffix}.csv": lambda path: _write_csv(path, header, columns)}
    return {f"{suffix}.json": lambda path: _write_json_records(path, dict(zip(header, columns)))}


# Traces are written a chunk of rows at a time, and a 2-D array a chunk of
# about as many cells, so that only one chunk's text is held at once.
_CHUNK_ROWS = 4096
# Rows are put together as a byte matrix of about this size at a time, which
# keeps a chunk's rows from adding to a trace job's max RSS.
_BLOCK_BYTES = 1 << 16
# Cell text matrices pad each cell with this byte, which UTF-8 never uses.
_PAD = 0xFF
# A float chunk of fewer cells is spelled value by value, as the cells of a
# Python list are: importing numtext compiles it, ~5 ms in each process, which
# a table of a few dozen numbers (estimate, sweep) would pay for nothing.
_KERNEL_CELLS = 256

# csv.writer's writerow returns what its file's write returns: here, the text
# of the row, quotes and line terminator included.
_CSV_ROW = csv.writer(SimpleNamespace(write=str), lineterminator="\n").writerow


def _csv_cell(value) -> str:
    """How csv.writer spells one cell, quotes included; the second, empty
    field keeps a lone empty string unquoted, as it is inside a row."""
    return _CSV_ROW([value, ""])[:-2]


def _packed(texts: list[bytes]) -> np.ndarray:
    """Text matrix of the cells `texts`, each padded with _PAD."""
    lengths = np.array(list(map(len, texts)), np.intp)
    width = int(lengths.max(initial=0))
    table = np.array(texts, dtype=f"S{max(width, 1)}").view(np.uint8)
    table = table.reshape(-1, max(width, 1))[:, :width]
    table[np.arange(width) >= lengths[:, None]] = _PAD
    return table


def _cells(part, json_style: bool) -> np.ndarray:
    """The text of each cell of a 1-D chunk (numpy array or sequence) as a
    `(cells, width)` uint8 matrix, each row padded with _PAD: as json.dump
    spells the cell, or as csv.writer does, quotes included, except that
    boolean arrays are spelled 0 and 1 in CSV.  A float chunk of at least
    _KERNEL_CELLS cells is spelled by `numtext`, the same text as value by
    value."""
    if isinstance(part, np.ndarray) and part.dtype.kind == "f" and part.size >= _KERNEL_CELLS:
        from .numtext import number_cells

        return number_cells(part, json_style)
    if isinstance(part, np.ndarray) and part.dtype.kind == "b":
        return _packed([b"false", b"true"] if json_style else [b"0", b"1"])[part.view(np.uint8)]
    spell = json.dumps if json_style else _csv_cell
    values = part.tolist() if isinstance(part, np.ndarray) else part
    return _packed([spell(value).encode() for value in values])


def _write_rows(fh, rows: int, pieces: list, trim: int = 0) -> None:
    """Write `rows` rows, each the concatenation of `pieces`, and leave out
    the last `trim` bytes.  A piece is bytes, the same in every row, or the
    cells of each row with the bytes that go between them, `(text,
    between)`: text[i, j] holds cell j of row i, padded with _PAD.  Rows are
    put together in byte matrices of about _BLOCK_BYTES, and the padding
    dropped."""
    widths = [len(p) if isinstance(p, bytes) else p[0].shape[1] * (p[0].shape[2] + len(p[1]))
              for p in pieces]
    step = max(_BLOCK_BYTES // max(sum(widths), 1), 1)
    for start in range(0, rows, step):
        block = slice(start, start + step)
        text = np.empty((min(step, rows - start), sum(widths)), np.uint8)
        at = 0
        for piece, width in zip(pieces, widths):
            cols = slice(at, at + width)
            at += width
            if isinstance(piece, bytes):
                text[:, cols] = np.frombuffer(piece, np.uint8)
                continue
            cells, between = piece
            size = cells.shape[2]
            out = np.reshape(text[:, cols], (len(text), cells.shape[1], size + len(between)),
                             copy=False)
            out[:, :, :size] = cells[block]
            out[:, :-1, size:] = np.frombuffer(between, np.uint8)
            out[:, -1, size:] = _PAD
        flat = text.ravel()
        data = flat[flat != _PAD].data
        fh.write(data[: len(data) - trim] if start + step >= rows else data)


def _write_table(fh, columns, seps: list[bytes], json_style: bool, trim: int = 0,
                 between: bytes = b"") -> int:
    """Write rows of equal-length columns, and return how many: row i is
    seps[0], the cells of row i in columns[0], seps[1], ..., seps[-1]; the
    last `trim` bytes of the last row are left out.  A column is a numpy
    array, a list, or a pair `(values, index)` standing for values[index],
    whose values are spelled once and their text gathered by index.  A 2-D
    array gives row i of it as the cells of row i, with `between` between
    them."""
    rows = len(columns[0][1] if isinstance(columns[0], tuple) else columns[0])
    cells_per_row = max(c.shape[1] if getattr(c, "ndim", 1) == 2 else 1 for c in columns)
    step = max(_CHUNK_ROWS // cells_per_row, 1)
    spelled = [_cells(c[0], json_style) if isinstance(c, tuple) else None for c in columns]
    for start in range(0, rows, step):
        pieces = [seps[0]]
        for column, text, sep in zip(columns, spelled, seps[1:]):
            part = (column if text is None else column[1])[start : start + step]
            grid = getattr(part, "ndim", 1) == 2
            cells = (_cells(part.ravel() if grid else part, json_style) if text is None
                     else text[part])
            shape = part.shape if grid else (len(part), 1)
            pieces += [(cells.reshape(*shape, cells.shape[1]), between), sep]
        _write_rows(fh, min(step, rows - start), pieces, trim if start + step >= rows else 0)
    return rows


def _write_csv(path: Path, header: list[str], columns) -> None:
    """CSV of two or more equal-length columns (as `_write_table` takes them);
    the same bytes as csv.writer fed one row at a time, except that boolean
    arrays are spelled 0 and 1."""
    with open(path, "wb") as fh:
        fh.write(_CSV_ROW(header).encode())
        _write_table(fh, columns, [b""] + [b","] * (len(columns) - 1) + [b"\n"], False)


def _write_json_arrays(path: Path, fields: dict[str, np.ndarray]) -> None:
    """JSON object of 1-D and 2-D arrays; the same bytes as
    json.dump({name: array.tolist()}, indent=2, sort_keys=True)."""
    with open(path, "wb") as fh:
        fh.write(b"{")
        for idx, name in enumerate(sorted(fields)):
            arr = fields[name]
            fh.write((("," if idx else "") + f"\n  {json.dumps(name)}: ").encode())
            if not len(arr):
                fh.write(b"[]")
                continue
            fh.write(b"[\n    ")
            if arr.ndim == 1:
                _write_table(fh, [arr], [b"", b",\n    "], True, trim=6)
            elif arr.shape[1]:
                _write_table(fh, [arr], [b"[\n      ", b"\n    ],\n    "], True, trim=6,
                             between=b",\n      ")
            else:
                fh.write(b",\n    ".join([b"[]"] * len(arr)))
            fh.write(b"\n  ]")
        fh.write(b"\n}\n")


def _write_json_records(path: Path, columns: dict) -> None:
    """JSON list of one object per row of equal-length 1-D `_write_table`
    columns; the same bytes as json.dump([{name: column[i]}, ...], indent=2,
    sort_keys=True)."""
    names = sorted(columns)
    keys = [f"    {json.dumps(name)}: ".encode() for name in names]
    with open(path, "wb") as fh:
        fh.write(b"[")
        rows = _write_table(fh, [columns[name] for name in names],
                            [b"\n  {\n" + keys[0], *(b",\n" + key for key in keys[1:]),
                             b"\n  },"], True, trim=1)
        fh.write(b"\n]\n" if rows else b"]\n")


def _parse_platoon(text: str) -> PlatoonSpec:
    try:
        n_str, k_str = text.split(",")
        return PlatoonSpec(int(n_str), int(k_str))
    except ValueError as exc:
        raise ValidationFailure(f"--platoon expects 'n,k' integers: {exc}")


def _parse_range(text: str) -> list[int]:
    """'4:12' -> [4..12]; '5,10,20' -> [5, 10, 20]; '7' -> [7]."""
    try:
        if ":" in text:
            lo, hi = text.split(":")
            lo, hi = int(lo), int(hi)
            if hi < lo:
                raise ValueError("empty range")
            return list(range(lo, hi + 1))
        values = [int(p) for p in text.split(",")]
        for i, v in enumerate(values):
            if v in values[:i]:
                raise ValueError(f"repeated value {v}")
        return values
    except ValueError as exc:
        raise ValidationFailure(f"bad range {text!r}: {exc}")


# ---------------------------------------------------------------- analyze


def cmd_analyze(args) -> int:
    from .connectivity import EXHAUSTIVE_CEILING

    _bind("connectivity")
    if (args.platoon is None) == (args.graph is None):
        raise ValidationFailure("analyze needs exactly one of --platoon or --graph")
    if args.exhaustive_limit is not None and not 0 <= args.exhaustive_limit <= EXHAUSTIVE_CEILING:
        raise ValidationFailure(
            f"--exhaustive-limit must lie in 0..{EXHAUSTIVE_CEILING}, got {args.exhaustive_limit}"
        )

    platoon = None if args.platoon is None else _parse_platoon(args.platoon)
    graph_cfg = args.graph if platoon is None else {"platoon": [platoon.n, platoon.k]}
    g = _resolve_graph(graph_cfg, Path("."))
    config = {
        "graph": graph_cfg,
        "robustness": bool(args.robustness),
        "iso": bool(args.iso),
        "exhaustive_limit": args.exhaustive_limit,
    }
    try:
        report = connectivity_report(g, limit=args.exhaustive_limit, platoon=platoon,
                                     require_robustness=args.robustness, require_iso=args.iso)
    except ExhaustiveLimitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        if platoon is not None:
            closed = knn_closed_forms(platoon)
            print(f"closed-form values for P({platoon.n},{platoon.k}): "
                  f"robustness={closed.robustness}, "
                  f"iso={closed.iso.numerator}/{closed.iso.denominator}", file=sys.stderr)
            for measure, note in (("robustness", closed.robustness_note),
                                  ("isoperimetric constant", closed.iso_note)):
                if note is not None:
                    print(f"warning: {measure}: {note}", file=sys.stderr)
        return EXIT_REFUSED

    payload = report.to_json_dict()
    if args.format == "json":
        return _emit(args, config, None, {".json": lambda path: _write_json(path, payload)})
    keys, values = [], []
    for key, val in sorted(payload.items()):
        entries = sorted(val.items()) if isinstance(val, dict) else [(None, val)]
        for sub, sval in entries:
            keys.append(key if sub is None else f"{key}.{sub}")
            values.append(sval if sval is not None else "")
    return _emit(args, config, None, _table("csv", ["key", "value"], [keys, values]))


# ---------------------------------------------------------------- estimate


def load_estimation_scenario(path: str, seed_override: int | None = None):
    _bind("estimation")
    data = _load_document(path, ESTIMATE_SCHEMA, "scenario")
    g = _resolve_graph(data["graph"], Path(path).parent)
    seed = _scenario_seed(data, seed_override)
    horizon = int(data.get("horizon", g.n))
    faulty = tuple(sorted(
        _vehicle(v, g.n, "scenario", ("faulty", i)) for i, v in enumerate(data["faulty"])
    ))
    observer = _vehicle(data["observer"], g.n, "scenario", ("observer",))
    if observer in faulty:
        raise ValidationFailure("scenario: the observer cannot be a faulty vehicle")
    phi: dict[tuple[int, int], float] = {}
    for idx, (veh, step, value) in enumerate(data["phi"]):
        key = (int(veh), int(step))
        if veh not in faulty:
            raise _invalid("scenario", ("phi", idx), f"vehicle {veh} is not in the faulty set")
        if not 0 <= step < horizon:
            raise _invalid("scenario", ("phi", idx), f"step {step} outside 0..{horizon - 1}")
        if key in phi:
            raise _invalid("scenario", ("phi", idx), f"vehicle {veh}, step {step} is given twice")
        phi[key] = float(value)
    scenario = FaultScenario(faulty=faulty, phi=phi, horizon=horizon)
    return g, seed, scenario, observer, int(data["f"])


def scenario_x0(seed: int, n: int, low: float, high: float) -> np.ndarray:
    """Initial state derived from the scenario seed (stream [seed, 1])."""
    return np.random.default_rng([seed, 1]).uniform(low, high, n)


def cmd_estimate(args) -> int:
    _bind("estimation")
    g, seed, scenario, observer, f = load_estimation_scenario(args.scenario, args.seed)
    config = {"scenario": args.scenario, "seed": seed}
    weights = random_weights(g, seed)
    x0 = scenario_x0(seed, g.n, -5.0, 5.0)
    states = simulate_faulty(weights, x0, scenario)
    length = scenario.horizon
    errors = []
    final = None
    try:
        for used in range(1, length + 1):
            trace = observe(g, states, observer, used)
            result = recover_initial_state(trace, weights, f)
            errors.append(float(np.linalg.norm(result.best.x0 - x0)))
            final = result
    except ModelMismatchError as exc:
        raise ValidationFailure(f"scenario is inconsistent with the fault model: {exc}")

    results = {
        "unique": bool(final.unique),
        "final_error": errors[-1],
        "consistent_candidates": [list(c.fault_set) for c in final.candidates],
    }
    columns = [np.arange(len(errors)), np.array(errors)]
    return _emit(args, config, seed, _table(args.format, ["step", "error"], columns), results)


# ---------------------------------------------------------------- consensus


def _build_strategy(kind: str, params: dict, vehicle: int, scenario_seed: int, path: tuple):
    """The strategy object of one adversary, whose params sit at `path`: the
    consensus class named after the strategy (seeded-random: SeededRandom)
    called with the params, checked against STRATEGY_SCHEMAS, as keyword
    arguments.  A ValueError of the class is reported at `path`."""
    _validate_schema(params, STRATEGY_SCHEMAS[kind], "scenario", path)
    strategy = globals()[kind.title().replace("-", "")]
    if strategy is SeededRandom:  # per-adversary stream derived from the scenario seed
        seed = np.random.SeedSequence((scenario_seed, 2, vehicle)).generate_state(1)[0]
        params = {**params, "seed": int(seed)}
    try:
        return strategy(**params)
    except ValueError as exc:
        raise _invalid("scenario", path, str(exc))


def load_consensus_scenario(path: str, seed_override: int | None = None):
    _bind("consensus")
    data = _load_document(path, CONSENSUS_SCHEMA, "scenario")
    g = _resolve_graph(data["graph"], Path(path).parent)
    seed = _scenario_seed(data, seed_override)
    adversaries = []
    for i, entry in enumerate(data["adversaries"]):
        vehicle = _vehicle(entry["vehicle"], g.n, "scenario", ("adversaries", i, "vehicle"))
        strategy = _build_strategy(entry["strategy"], entry.get("params", {}), vehicle, seed,
                                   ("adversaries", i, "params"))
        adversaries.append(Adversary(vehicle, strategy))
    return g, seed, adversaries, int(data["f"]), int(data.get("T", 500)), float(data.get("tol", 1e-9))


def cmd_consensus(args) -> int:
    _bind("consensus")
    g, seed, adversaries, f, T, tol = load_consensus_scenario(args.scenario, args.seed)
    config = {"scenario": args.scenario, "seed": seed}
    x0 = scenario_x0(seed, g.n, 0.0, 10.0)
    trace = run_wmsr(g, x0, adversaries, f=f, T=T, tol=tol)
    if not trace.f_local:
        print(f"warning: adversary set {list(trace.adversaries)} is not {f}-local; "
              "resilient-consensus guarantees do not apply", file=sys.stderr)
    is_adversary = np.isin(np.arange(g.n), trace.adversaries)
    step, vehicle = np.indices(trace.values.shape).reshape(2, -1)
    columns = [(np.arange(T + 1), step), (np.arange(g.n), vehicle), trace.values.ravel(),
               (is_adversary, vehicle)]
    results = {
        "converged_at": trace.converged_at,
        "final_spread": trace.spread(T),
        "safety_violations": len(trace.safety_violations),
        "f_local": trace.f_local,
    }
    table = _table(args.format, ["step", "vehicle", "value", "is_adversary"], columns)
    return _emit(args, config, seed, table, results)


# ---------------------------------------------------------------- formation


def load_formation_config(path: str):
    _bind("formation")
    data = _load_document(path, FORMATION_SCHEMA, "config")
    g = _resolve_graph(data["graph"], Path(path).parent)
    system = build_formation(g, data["kp"], data["ku"], data.get("d0", 10.0))
    T = float(data.get("T", 10.0))
    h = float(data.get("h", 1e-3))
    record_every = int(data.get("record_every", 10))
    dist_cfg = data.get("disturbance", {"kind": "none"})
    return system, T, h, record_every, dist_cfg


def _build_disturbance(system, cfg: dict):
    kind = cfg["kind"]
    if kind == "none":
        return None, {"kind": "none"}
    n = system.graph.n
    vehicle = _vehicle(cfg.get("vehicle", 0), n, "config", ("disturbance", "vehicle"))
    amplitude = float(cfg.get("amplitude", 1.0))
    basis = np.zeros(n)
    basis[vehicle] = amplitude
    if kind == "step":
        resolved = {"kind": "step", "vehicle": vehicle, "amplitude": amplitude}
        return Disturbance(constant=basis), resolved
    omega = cfg.get("omega", "peak")
    phase = float(cfg.get("phase", 0.0))
    if omega == "peak":
        omega = modal_peak_frequency(system.lambda2, system.kp, system.ku)
        if omega == 0.0:
            # static-gain branch: the peak sits at zero frequency and resolves
            # to a step of amplitude cos(phase); a numeric 0 follows the formula
            return Disturbance(constant=basis * math.cos(phase)), {
                "kind": "step", "vehicle": vehicle, "amplitude": amplitude * math.cos(phase),
            }
    omega = float(omega)
    resolved = {
        "kind": "sinusoid", "vehicle": vehicle, "amplitude": amplitude,
        "omega": omega, "phase": phase,
    }
    # amplitude sin(omega t + phase), split into its sin and cos parts
    disturbance = Disturbance(
        sine=basis * math.cos(phase), cosine=basis * math.sin(phase), omega=omega
    )
    return disturbance, resolved


def cmd_formation(args) -> int:
    _bind("formation")
    system, T, h, record_every, dist_cfg = load_formation_config(args.config)
    # refuses a graph without a closed form (lambda2 = 0) before simulating it
    value, branch = hinf_closed_form(system.lambda2, system.kp, system.ku)
    disturbance, resolved = _build_disturbance(system, dist_cfg)
    config = {
        "config": args.config,
        "graph_n": system.graph.n,
        "kp": system.kp,
        "ku": system.ku,
        "d0": system.d0,
        "T": T,
        "h": h,
        "record_every": record_every,
        "disturbance": resolved,
    }
    trace = simulate_formation(
        system, disturbance=disturbance, T=T, h=h, record_every=record_every
    )

    edge_names = np.array([f"{i}-{j}" for i, j in system.graph.edges])
    if args.format == "csv":
        sample, vehicle = np.indices(trace.positions.shape).reshape(2, -1)
        edge_sample, edge = np.indices(trace.span_errors.shape).reshape(2, -1)
        files = {
            **_table("csv", ["t", "vehicle", "p", "u"],
                     [(trace.t, sample), (np.arange(system.graph.n), vehicle),
                      trace.positions.ravel(), trace.velocities.ravel()], "-vehicles"),
            **_table("csv", ["t", "edge", "spacing_error"],
                     [(trace.t, edge_sample), (edge_names, edge), trace.span_errors.ravel()],
                     "-edges"),
        }
    else:
        arrays = {
            "t": trace.t,
            "positions": trace.positions,
            "velocities": trace.velocities,
            "edges": edge_names,
            "spacing_errors": trace.span_errors,
        }
        files = {".json": lambda path: _write_json_arrays(path, arrays)}
    results = {
        "lambda2": system.lambda2,
        "hinf_closed_form": value,
        "branch": branch,
        "max_abs_spacing_error": float(np.max(np.abs(trace.span_errors))),
    }
    return _emit(args, config, None, files, results)


# ---------------------------------------------------------------- sweep


def cmd_sweep(args) -> int:
    _bind("formation")
    n_values = _parse_range(args.n)
    k_values = _parse_range(args.k)
    pairs = [(n, k) for n in n_values for k in k_values if 1 <= k <= n - 1]
    if not pairs:
        raise ValidationFailure("sweep range contains no valid (n, k) pairs")
    ns, ks = zip(*pairs)
    spots = {
        "corners": {(n, k) for n, k in pairs
                    if n in (min(ns), max(ns)) and k in (min(ks), max(ks))},
        "all": set(pairs),
        "none": set(),
    }[args.spot_check]
    config = {
        "n": args.n,
        "k": args.k,
        "kp": args.kp,
        "ku": args.ku,
        "spot_check": args.spot_check,
    }
    rows = hinf_grid(pairs, args.kp, args.ku, spot_check=spots)

    header = ["n", "k", "kp", "ku", "lambda2", "lb", "ub", "hinf", "branch"]
    table = [
        (r.n, r.k, float(r.kp), float(r.ku), r.lambda2, r.lower, r.upper, r.hinf, r.branch)
        for r in rows
    ]
    columns = [np.array(col) for col in zip(*table)]
    checks = [
        {
            "n": r.n,
            "k": r.k,
            "closed_form": r.hinf,
            "sweep": r.sweep_value,
            "rel_err": abs(r.sweep_value - r.hinf) / r.hinf,
        }
        for r in rows
        if r.sweep_value is not None
    ]
    return _emit(args, config, None, _table(args.format, header, columns), {"spot_checks": checks})


# ---------------------------------------------------------------- main


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="platoonnet",
        description="Connectivity, resilient estimation/consensus, and "
        "formation-control analysis for vehicle platoons.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, fmt):
        p.add_argument("--out", default=".", help="output directory (default: .)")
        p.add_argument("--format", choices=["csv", "json"], default=fmt)

    p = sub.add_parser("analyze", help="connectivity report")
    p.add_argument("--platoon", help="platoon parameters 'n,k'")
    p.add_argument("--graph", help="path to a JSON graph file")
    p.add_argument("--robustness", action="store_true",
                   help="require the exhaustive robustness computation")
    p.add_argument("--iso", action="store_true",
                   help="require the exhaustive isoperimetric computation")
    p.add_argument("--exhaustive-limit", type=int, default=None,
                   help="override both exhaustive size limits, 0 to 22 "
                        "(defaults: robustness 19, isoperimetric 22)")
    common(p, "json")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("estimate", help="initial-state recovery error curve")
    p.add_argument("--scenario", required=True, help="scenario JSON file")
    p.add_argument("--seed", type=int, default=None, help="override the scenario seed")
    common(p, "csv")
    p.set_defaults(func=cmd_estimate)

    p = sub.add_parser("consensus", help="trimmed-average consensus trace")
    p.add_argument("--scenario", required=True, help="scenario JSON file")
    p.add_argument("--seed", type=int, default=None, help="override the scenario seed")
    common(p, "csv")
    p.set_defaults(func=cmd_consensus)

    p = sub.add_parser("formation", help="formation-control time response")
    p.add_argument("--config", required=True, help="config JSON file")
    common(p, "csv")
    p.set_defaults(func=cmd_formation)

    p = sub.add_parser("sweep", help="disturbance-gain surface over (n, k)")
    p.add_argument("--n", required=True, help="platoon sizes, e.g. '5:20' or '5,10,20'")
    p.add_argument("--k", required=True, help="neighbor ranges, e.g. '1:4' or '1,2,4'")
    p.add_argument("--kp", type=float, required=True)
    p.add_argument("--ku", type=float, required=True)
    p.add_argument("--spot-check", choices=["none", "corners", "all"], default="corners",
                   help="which (n, k) points to verify with the numerical sweep")
    common(p, "csv")
    p.set_defaults(func=cmd_sweep)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:  # ValidationFailure and GraphFormatError among them
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
