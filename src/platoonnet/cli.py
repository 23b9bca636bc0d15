"""Command-line front end: batch runs that write CSV/JSON plus a manifest.

Subcommands
-----------
analyze    connectivity report for a platoon or graph file
estimate   fault-tolerant initial-state recovery error curve from a scenario
consensus  trimmed-average (W-MSR) consensus trace from a scenario
formation  formation-control time response from a config
sweep      closed-form disturbance-gain surface over (n, k)

Every run writes `<command>-<hash-of-config>.<ext>` plus `manifest.json` into
--out (default: current directory).  Identical (config, seed) gives
bitwise-identical outputs.  Exit codes: 0 success, 2 validation error,
3 refused exhaustive computation.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import sys
from importlib import import_module
from pathlib import Path

import numpy as np

from . import __version__
from .graph import Graph, GraphFormatError, PlatoonSpec, build_knn_platoon, load_graph

# The names each subcommand uses from its domain module.  A module is
# imported when its subcommand first runs (or when an outside lookup such as
# `cli.run_wmsr` asks for one of its names), so a job loads only its own
# code.  The names are bound as globals of this module, where the
# subcommands look them up and where a caller may replace them.
_IMPORTS = {
    "connectivity": ("ExhaustiveLimitError", "ISO_LIMIT", "KNN_ROBUSTNESS_VERIFIED_N",
                     "ROBUSTNESS_LIMIT", "connectivity_report", "knn_closed_forms"),
    "consensus": ("Adversary", "Constant", "Ramp", "SeededRandom", "Sinusoid", "is_f_local",
                  "run_wmsr"),
    "estimation": ("FaultScenario", "ModelMismatchError", "observe", "random_weights",
                   "recover_initial_state", "simulate_faulty"),
    "formation": ("Disturbance", "build_formation", "hinf_closed_form", "hinf_grid",
                  "modal_peak_frequency", "simulate_formation"),
}
_MODULE_OF = {name: module for module, names in _IMPORTS.items() for name in names}


def _bind(module: str) -> None:
    """Import platoonnet.<module> and bind the names _IMPORTS lists for it,
    keeping any name already bound here (a replaced name stays replaced)."""
    mod = import_module(f"{__package__}.{module}")
    for name in _IMPORTS[module]:
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
                    "strategy": {
                        "enum": ["constant", "ramp", "sinusoid", "seeded-random"]
                    },
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


def _validate_schema(data, schema, what: str) -> None:
    error = _first_error(data, schema)
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


def _load_json(path: str, what: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError:
        raise ValidationFailure(f"{what}: file not found: {path}")
    except json.JSONDecodeError as exc:
        raise ValidationFailure(
            f"{what}: malformed JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        )
    except RecursionError:
        raise ValidationFailure(f"{what}: JSON nested too deeply to parse: {path}")


def _load_document(path: str, schema: dict, what: str):
    """A scenario or config file, parsed and checked: it matches its schema
    and every number in it is finite."""
    data = _load_json(path, what)
    _validate_schema(data, schema, what)
    _check_finite(data, what)
    return data


def _resolve_graph(spec, base_dir: Path) -> tuple[Graph, PlatoonSpec | None]:
    """Graph from a scenario 'graph' entry: file path, inline, or platoon."""
    if isinstance(spec, str):
        path = Path(spec)
        if not path.is_absolute():
            path = base_dir / path
        return load_graph(path), None
    if "platoon" in spec:
        n, k = spec["platoon"]
        pl = PlatoonSpec(n, k)
        return build_knn_platoon(pl), pl
    return Graph.from_edges(spec["n"], spec["edges"]), None


def _config_hash(config: dict) -> str:
    blob = json.dumps(config, sort_keys=True, separators=(",", ":")).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()[:12]


def _versions() -> dict:
    return {
        "platoonnet": __version__,
        "numpy": np.__version__,
        "python": "%d.%d.%d" % sys.version_info[:3],
    }


def _write_manifest(outdir: Path, command: str, config: dict, seed, outputs: list[str], extra: dict | None = None) -> None:
    manifest = {
        "command": command,
        "config": config,
        "seed": seed,
        "outputs": outputs,
        "versions": _versions(),
    }
    if extra:
        manifest["results"] = extra
    with open(outdir / "manifest.json", "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _write_json(path: Path, payload) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


# Traces are written a chunk of rows at a time, column by column, so that
# only one chunk is ever held as Python objects and text.
_CHUNK_ROWS = 4096


def _cells(part) -> list:
    return part.tolist() if isinstance(part, np.ndarray) else list(part)


def _write_csv(path: Path, header: list[str], columns) -> None:
    """CSV of equal-length columns (numpy arrays or sequences); the same
    bytes as csv.writer fed one row at a time."""
    rows = len(columns[0])
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for start in range(0, rows, _CHUNK_ROWS):
            writer.writerows(zip(*(_cells(c[start : start + _CHUNK_ROWS]) for c in columns)))


def _json_texts(part: np.ndarray) -> list[str]:
    """How json.dump spells each entry of a 1-D array."""
    if part.dtype.kind == "b":
        return np.where(part, "true", "false").tolist()
    if part.dtype.kind not in "iuf":
        return [json.dumps(v) for v in part.tolist()]
    texts = list(map(repr, part.tolist()))
    for i in np.flatnonzero(~np.isfinite(part)):
        texts[i] = json.dumps(part[i].item())  # NaN, Infinity, -Infinity
    return texts


def _json_items(part: np.ndarray, indent: str) -> list[str]:
    """json.dump(indent=2) texts of the entries of a 1-D or 2-D array whose
    list sits at `indent`."""
    texts = _json_texts(part.ravel())
    if part.ndim == 1:
        return texts
    width = part.shape[1]
    if width == 0:
        return ["[]"] * len(part)
    inner = indent + "  "
    sep = ",\n" + inner
    return [
        "[\n" + inner + sep.join(texts[i : i + width]) + "\n" + indent + "]"
        for i in range(0, len(texts), width)
    ]


def _write_json_arrays(path: Path, fields: dict[str, np.ndarray]) -> None:
    """JSON object of 1-D and 2-D arrays; the same bytes as
    json.dump({name: array.tolist()}, indent=2, sort_keys=True)."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("{")
        for idx, name in enumerate(sorted(fields)):
            arr = fields[name]
            fh.write(("," if idx else "") + f"\n  {json.dumps(name)}: ")
            if not len(arr):
                fh.write("[]")
                continue
            fh.write("[\n    ")
            for start in range(0, len(arr), _CHUNK_ROWS):
                if start:
                    fh.write(",\n    ")
                fh.write(",\n    ".join(_json_items(arr[start : start + _CHUNK_ROWS], "    ")))
            fh.write("\n  ]")
        fh.write("\n}\n")


def _write_json_records(path: Path, columns: dict[str, np.ndarray]) -> None:
    """JSON list of one object per row of equal-length 1-D columns; the same
    bytes as json.dump([{name: column[i]}, ...], indent=2, sort_keys=True)."""
    names = sorted(columns)
    record = "  {\n" + ",\n".join(f"    {json.dumps(name)}: %s" for name in names) + "\n  }"
    rows = len(columns[names[0]])
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("[\n" if rows else "[]")
        for start in range(0, rows, _CHUNK_ROWS):
            texts = [_json_texts(columns[name][start : start + _CHUNK_ROWS]) for name in names]
            if start:
                fh.write(",\n")
            fh.write(",\n".join(map(record.__mod__, zip(*texts))))
        fh.write("\n]\n" if rows else "\n")


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
        return [int(p) for p in text.split(",")]
    except ValueError as exc:
        raise ValidationFailure(f"bad range {text!r}: {exc}")


# ---------------------------------------------------------------- analyze


def cmd_analyze(args) -> int:
    _bind("connectivity")
    if (args.platoon is None) == (args.graph is None):
        raise ValidationFailure("analyze needs exactly one of --platoon or --graph")
    robust_limit = ROBUSTNESS_LIMIT if args.exhaustive_limit is None else args.exhaustive_limit
    iso_limit = ISO_LIMIT if args.exhaustive_limit is None else args.exhaustive_limit

    platoon = None
    if args.platoon is not None:
        platoon = _parse_platoon(args.platoon)
        g = build_knn_platoon(platoon)
        graph_cfg = {"platoon": [platoon.n, platoon.k]}
    else:
        g = load_graph(args.graph)
        graph_cfg = args.graph

    config = {
        "command": "analyze",
        "graph": graph_cfg,
        "robustness": bool(args.robustness),
        "iso": bool(args.iso),
        "exhaustive_limit": args.exhaustive_limit,
        "format": args.format,
    }
    try:
        report = connectivity_report(
            g,
            robust_limit=robust_limit,
            iso_limit=iso_limit,
            require_robustness=args.robustness,
            require_iso=args.iso,
            platoon=platoon,
        )
    except ExhaustiveLimitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        if platoon is not None:
            closed = knn_closed_forms(platoon)
            print(
                f"closed-form values for P({platoon.n},{platoon.k}): "
                f"robustness={closed.robustness}, "
                f"iso={closed.iso.numerator}/{closed.iso.denominator} "
                f"(closed-form, not verified exhaustively)",
                file=sys.stderr,
            )
            if closed.robustness_note is not None:
                why = (
                    "k > floor(n/2)" if platoon.k > platoon.n // 2
                    else f"n > {KNN_ROBUSTNESS_VERIFIED_N}"
                )
                bounds = (
                    "and isoperimetric constant are only upper bounds"
                    if closed.iso_note is not None else "is only an upper bound"
                )
                print(
                    f"warning: {why}; the closed-form robustness (capped at "
                    f"ceil(n/2)) {bounds} in this regime",
                    file=sys.stderr,
                )
        return EXIT_REFUSED

    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    tag = _config_hash(config)
    payload = report.to_json_dict()
    if args.format == "json":
        name = f"analyze-{tag}.json"
        _write_json(outdir / name, payload)
    else:
        name = f"analyze-{tag}.csv"
        keys, values = [], []
        for key, val in sorted(payload.items()):
            entries = sorted(val.items()) if isinstance(val, dict) else [(None, val)]
            for sub, sval in entries:
                keys.append(key if sub is None else f"{key}.{sub}")
                values.append(sval if sval is not None else "")
        _write_csv(outdir / name, ["key", "value"], [keys, values])
    _write_manifest(outdir, "analyze", config, None, [name])
    print(f"wrote {outdir / name}")
    return EXIT_OK


# ---------------------------------------------------------------- estimate


def load_estimation_scenario(path: str, seed_override: int | None = None):
    _bind("estimation")
    data = _load_document(path, ESTIMATE_SCHEMA, "scenario")
    g, _ = _resolve_graph(data["graph"], Path(path).parent)
    seed = int(data["seed"]) if seed_override is None else int(seed_override)
    horizon = int(data.get("horizon", g.n))
    faulty = tuple(sorted(int(v) for v in data["faulty"]))
    observer = int(data["observer"])
    if not 0 <= observer < g.n:
        raise ValidationFailure(f"scenario: observer {observer} out of range for n={g.n}")
    if any(not 0 <= v < g.n for v in faulty):
        raise ValidationFailure(f"scenario: faulty vehicle out of range for n={g.n}")
    if observer in faulty:
        raise ValidationFailure("scenario: the observer cannot be a faulty vehicle")
    phi: dict[tuple[int, int], float] = {}
    for idx, (veh, step, value) in enumerate(data["phi"]):
        if veh not in faulty:
            raise ValidationFailure(
                f"scenario: invalid at /phi/{idx}: vehicle {veh} is not in the faulty set"
            )
        if not 0 <= step < horizon:
            raise ValidationFailure(
                f"scenario: invalid at /phi/{idx}: step {step} outside 0..{horizon - 1}"
            )
        phi[(int(veh), int(step))] = float(value)
    scenario = FaultScenario(faulty=faulty, phi=phi, horizon=horizon)
    return g, seed, scenario, observer, int(data["f"])


def scenario_x0(seed: int, n: int, low: float, high: float) -> np.ndarray:
    """Initial state derived from the scenario seed (stream [seed, 1])."""
    return np.random.default_rng([seed, 1]).uniform(low, high, n)


def cmd_estimate(args) -> int:
    _bind("estimation")
    g, seed, scenario, observer, f = load_estimation_scenario(args.scenario, args.seed)
    config = {
        "command": "estimate",
        "scenario": args.scenario,
        "seed": seed,
        "format": args.format,
    }
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

    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    tag = _config_hash(config)
    step, error = np.arange(len(errors)), np.array(errors)
    if args.format == "csv":
        name = f"estimate-{tag}.csv"
        _write_csv(outdir / name, ["step", "error"], [step, error])
    else:
        name = f"estimate-{tag}.json"
        _write_json_records(outdir / name, {"step": step, "error": error})
    extra = {
        "unique": bool(final.unique),
        "final_error": errors[-1],
        "consistent_candidates": [list(c.fault_set) for c in final.candidates],
    }
    _write_manifest(outdir, "estimate", config, seed, [name], extra)
    print(f"wrote {outdir / name}")
    return EXIT_OK


# ---------------------------------------------------------------- consensus


def _build_strategy(entry: dict, scenario_seed: int):
    kind = entry["strategy"]
    params = dict(entry.get("params", {}))
    vehicle = entry["vehicle"]

    def need(*names):
        missing = [p for p in names if p not in params]
        unknown = [p for p in params if p not in names]
        if missing or unknown:
            raise ValidationFailure(
                f"strategy {kind!r} for vehicle {vehicle}: "
                + (f"missing params {missing} " if missing else "")
                + (f"unknown params {unknown}" if unknown else "")
            )
        for name in names:
            if not _is_number(params[name]):
                raise ValidationFailure(f"strategy {kind!r} for vehicle {vehicle}: param "
                                        f"{name!r} must be a number, got {json.dumps(params[name])}")

    if kind == "constant":
        need("value")
        return Constant(params["value"])
    if kind == "ramp":
        need("start", "slope")
        return Ramp(params["start"], params["slope"])
    if kind == "sinusoid":
        if "phase" not in params:
            params["phase"] = 0.0
        need("amplitude", "omega", "phase")
        return Sinusoid(params["amplitude"], params["omega"], params["phase"])
    # seeded-random: per-adversary stream derived from the scenario seed
    need("low", "high")
    derived = int(np.random.SeedSequence((scenario_seed, 2, vehicle)).generate_state(1)[0])
    return SeededRandom(params["low"], params["high"], seed=derived)


def load_consensus_scenario(path: str, seed_override: int | None = None):
    _bind("consensus")
    data = _load_document(path, CONSENSUS_SCHEMA, "scenario")
    g, _ = _resolve_graph(data["graph"], Path(path).parent)
    seed = int(data["seed"]) if seed_override is None else int(seed_override)
    adversaries = []
    for entry in data["adversaries"]:
        if not 0 <= entry["vehicle"] < g.n:
            raise ValidationFailure(
                f"scenario: adversary vehicle {entry['vehicle']} out of range for n={g.n}"
            )
        adversaries.append(Adversary(entry["vehicle"], _build_strategy(entry, seed)))
    return g, seed, adversaries, int(data["f"]), int(data.get("T", 500)), float(data.get("tol", 1e-9))


def cmd_consensus(args) -> int:
    _bind("consensus")
    g, seed, adversaries, f, T, tol = load_consensus_scenario(args.scenario, args.seed)
    config = {
        "command": "consensus",
        "scenario": args.scenario,
        "seed": seed,
        "format": args.format,
    }
    x0 = scenario_x0(seed, g.n, 0.0, 10.0)
    trace = run_wmsr(g, x0, adversaries, f=f, T=T, tol=tol)
    steps = trace.values.shape[0]
    is_adversary = np.zeros(g.n, dtype=bool)
    is_adversary[list(trace.adversaries)] = True
    step = np.repeat(np.arange(steps), g.n)
    vehicle = np.tile(np.arange(g.n), steps)
    value = trace.values.ravel()
    adversary = np.tile(is_adversary, steps)
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    tag = _config_hash(config)
    if args.format == "csv":
        name = f"consensus-{tag}.csv"
        _write_csv(
            outdir / name,
            ["step", "vehicle", "value", "is_adversary"],
            [step, vehicle, value, adversary.astype(np.int64)],
        )
    else:
        name = f"consensus-{tag}.json"
        _write_json_records(
            outdir / name,
            {"step": step, "vehicle": vehicle, "value": value, "is_adversary": adversary},
        )
    extra = {
        "converged_at": trace.converged_at,
        "final_spread": trace.spread(T),
        "safety_violations": len(trace.safety_violations),
        "f_local": is_f_local(g, trace.adversaries, f),
    }
    _write_manifest(outdir, "consensus", config, seed, [name], extra)
    print(f"wrote {outdir / name}")
    return EXIT_OK


# ---------------------------------------------------------------- formation


def load_formation_config(path: str):
    _bind("formation")
    data = _load_document(path, FORMATION_SCHEMA, "config")
    g, _ = _resolve_graph(data["graph"], Path(path).parent)
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
    vehicle = int(cfg.get("vehicle", 0))
    if not 0 <= vehicle < n:
        raise ValidationFailure(f"disturbance vehicle {vehicle} out of range for n={n}")
    amplitude = float(cfg.get("amplitude", 1.0))
    basis = np.zeros(n)
    basis[vehicle] = amplitude
    if kind == "step":
        resolved = {"kind": "step", "vehicle": vehicle, "amplitude": amplitude}
        return Disturbance(constant=basis), resolved
    omega = cfg.get("omega", "peak")
    if omega == "peak":
        omega = modal_peak_frequency(system.lambda2, system.kp, system.ku)
    omega = float(omega)
    phase = float(cfg.get("phase", 0.0))
    if omega == 0.0:
        # static-gain branch: the peak sits at zero frequency; a zero-frequency
        # sinusoid is a constant input
        return Disturbance(constant=basis * math.cos(phase)), {
            "kind": "step", "vehicle": vehicle, "amplitude": amplitude * math.cos(phase),
        }
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
    disturbance, resolved = _build_disturbance(system, dist_cfg)
    config = {
        "command": "formation",
        "config": args.config,
        "graph_n": system.graph.n,
        "kp": system.kp,
        "ku": system.ku,
        "d0": system.d0,
        "T": T,
        "h": h,
        "record_every": record_every,
        "disturbance": resolved,
        "format": args.format,
    }
    trace = simulate_formation(
        system, disturbance=disturbance, T=T, h=h, record_every=record_every
    )

    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    tag = _config_hash(config)
    edge_names = np.array([f"{i}-{j}" for i, j in system.graph.edges])
    n, m, samples = system.graph.n, system.graph.m, len(trace.t)
    if args.format == "csv":
        veh_name = f"formation-{tag}-vehicles.csv"
        edge_name = f"formation-{tag}-edges.csv"
        _write_csv(
            outdir / veh_name,
            ["t", "vehicle", "p", "u"],
            [np.repeat(trace.t, n), np.tile(np.arange(n), samples),
             trace.positions.ravel(), trace.velocities.ravel()],
        )
        _write_csv(
            outdir / edge_name,
            ["t", "edge", "spacing_error"],
            [np.repeat(trace.t, m), np.tile(edge_names, samples), trace.span_errors.ravel()],
        )
        names = [veh_name, edge_name]
    else:
        name = f"formation-{tag}.json"
        _write_json_arrays(
            outdir / name,
            {
                "t": trace.t,
                "positions": trace.positions,
                "velocities": trace.velocities,
                "edges": edge_names,
                "spacing_errors": trace.span_errors,
            },
        )
        names = [name]
    value, branch = hinf_closed_form(system.lambda2, system.kp, system.ku)
    extra = {
        "lambda2": system.lambda2,
        "hinf_closed_form": value,
        "branch": branch,
        "max_abs_spacing_error": float(np.max(np.abs(trace.span_errors))),
    }
    _write_manifest(outdir, "formation", config, None, names, extra)
    for name in names:
        print(f"wrote {outdir / name}")
    return EXIT_OK


# ---------------------------------------------------------------- sweep


def cmd_sweep(args) -> int:
    _bind("formation")
    n_values = _parse_range(args.n)
    k_values = _parse_range(args.k)
    pairs = [(n, k) for n in n_values for k in k_values if 1 <= k <= n - 1]
    if not pairs:
        raise ValidationFailure("sweep range contains no valid (n, k) pairs")
    if args.spot_check == "corners":
        ns = {min(p[0] for p in pairs), max(p[0] for p in pairs)}
        ks = {min(p[1] for p in pairs), max(p[1] for p in pairs)}
        spots = [(n, k) for n, k in pairs if n in ns and k in ks]
    elif args.spot_check == "all":
        spots = pairs
    else:
        spots = []
    config = {
        "command": "sweep",
        "n": args.n,
        "k": args.k,
        "kp": args.kp,
        "ku": args.ku,
        "spot_check": args.spot_check,
        "format": args.format,
    }
    rows = hinf_grid(n_values, k_values, args.kp, args.ku, spot_check=spots)

    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    tag = _config_hash(config)
    header = ["n", "k", "kp", "ku", "lambda2", "lb", "ub", "hinf", "branch"]
    table = [
        (r.n, r.k, float(r.kp), float(r.ku), r.lambda2, r.lower, r.upper, r.hinf, r.branch)
        for r in rows
    ]
    columns = [np.array(col) for col in zip(*table)]
    if args.format == "csv":
        name = f"sweep-{tag}.csv"
        _write_csv(outdir / name, header, columns)
    else:
        name = f"sweep-{tag}.json"
        _write_json_records(outdir / name, dict(zip(header, columns)))
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
    _write_manifest(outdir, "sweep", config, None, [name], {"spot_checks": checks})
    print(f"wrote {outdir / name}")
    return EXIT_OK


# ---------------------------------------------------------------- main


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="platoonnet",
        description="Connectivity, resilient estimation/consensus, and "
        "formation-control analysis for vehicle platoons.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--out", default=".", help="output directory (default: .)")
        p.add_argument("--format", choices=["csv", "json"], default=None)

    p = sub.add_parser("analyze", help="connectivity report")
    p.add_argument("--platoon", help="platoon parameters 'n,k'")
    p.add_argument("--graph", help="path to a JSON graph file")
    p.add_argument("--robustness", action="store_true",
                   help="require the exhaustive robustness computation")
    p.add_argument("--iso", action="store_true",
                   help="require the exhaustive isoperimetric computation")
    p.add_argument("--exhaustive-limit", type=int, default=None,
                   help="override both exhaustive size limits "
                        "(defaults: robustness 19, isoperimetric 22)")
    common(p)
    p.set_defaults(func=cmd_analyze, default_format="json")

    p = sub.add_parser("estimate", help="initial-state recovery error curve")
    p.add_argument("--scenario", required=True, help="scenario JSON file")
    p.add_argument("--seed", type=int, default=None, help="override the scenario seed")
    common(p)
    p.set_defaults(func=cmd_estimate, default_format="csv")

    p = sub.add_parser("consensus", help="trimmed-average consensus trace")
    p.add_argument("--scenario", required=True, help="scenario JSON file")
    p.add_argument("--seed", type=int, default=None, help="override the scenario seed")
    common(p)
    p.set_defaults(func=cmd_consensus, default_format="csv")

    p = sub.add_parser("formation", help="formation-control time response")
    p.add_argument("--config", required=True, help="config JSON file")
    common(p)
    p.set_defaults(func=cmd_formation, default_format="csv")

    p = sub.add_parser("sweep", help="disturbance-gain surface over (n, k)")
    p.add_argument("--n", required=True, help="platoon sizes, e.g. '5:20' or '5,10,20'")
    p.add_argument("--k", required=True, help="neighbor ranges, e.g. '1:4' or '1,2,4'")
    p.add_argument("--kp", type=float, required=True)
    p.add_argument("--ku", type=float, required=True)
    p.add_argument("--spot-check", choices=["none", "corners", "all"], default="corners",
                   help="which (n, k) points to verify with the numerical sweep")
    common(p)
    p.set_defaults(func=cmd_sweep, default_format="csv")

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.format is None:
        args.format = args.default_format
    try:
        return args.func(args)
    except ValidationFailure as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except (GraphFormatError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
