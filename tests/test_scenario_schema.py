"""The scenario checker in `platoonnet.cli` against jsonschema as an oracle.

The CLI validates scenario and config files with its own small checker for
the JSON Schema keywords its schemas use.  Seeded mutations of the shipped
fixtures and of benchmark-shaped scenarios must get the same verdict from it
as from `jsonschema.Draft202012Validator`, and the same first-error JSON
pointer: the smallest error path in sorted order.  So must the params of
every adversary strategy, checked against the schema generated for it.
"""

import copy
import json
import random
from pathlib import Path

import pytest

from platoonnet import cli

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"

SCHEMAS = {
    "estimate": cli.ESTIMATE_SCHEMA,
    "consensus": cli.CONSENSUS_SCHEMA,
    "formation": cli.FORMATION_SCHEMA,
    "graph": cli._GRAPH_SPEC_SCHEMA,
}
FIXTURES = {
    "estimation-single-fault.json": "estimate",
    "consensus-ramp-tolerated.json": "consensus",
    "consensus-overwhelmed.json": "consensus",
    "formation-worst-case.json": "formation",
}
# keywords whose values are subschemas, and how they hold them
SUBSCHEMAS = {"properties": "dict", "items": "one", "prefixItems": "list", "oneOf": "list"}

NAN, INF = float("nan"), float("inf")
REPLACEMENTS = [
    0, 1, -1, 2, 3, 2.0, 2.5, -0.0, -2.0, 1e300, 1e-300, NAN, INF, -INF, True, False, None,
    "", "x", "peak", "ramp", "constant", "step", "none", "sinusoid", "g.json",
    [], [1, 2], [4, 0, 1.0], [[0, 1]], [True, 1], {}, {"value": 1.0},
    {"platoon": [6, 2]}, {"platoon": [6.0, 2]}, {"n": 3, "edges": [[0, 1], [1, 2]]},
    {"vehicle": 1, "strategy": "ramp"}, {"kind": "step"},
]
EXTRA_KEYS = ["zzz", "aaa", "extra", "Graph", "T", "tol", "horizon", "params", "omega", "n",
              "edges", "platoon", "kind", "phase", "seed", "d0"]


def benchmark_shaped(rng: random.Random) -> tuple[dict, str]:
    """A scenario like those the benchmark generates, with a random graph form."""
    n = rng.randint(6, 30)
    k = rng.randint(1, 4)
    graph = rng.choice([
        {"platoon": [n, k]},
        {"n": n, "edges": [[i, i + 1] for i in range(n - 1)]},
        "inputs/graph.json",
    ])
    kind = rng.choice(["estimate", "consensus", "formation"])
    if kind == "estimate":
        horizon = rng.randint(1, 6)
        doc = {"graph": graph, "seed": rng.randrange(1 << 20), "faulty": [3],
               "phi": [[3, t, round(rng.uniform(-2, 2), 3)] for t in range(horizon)],
               "observer": 0, "f": 1}
        if rng.random() < 0.5:
            doc["horizon"] = horizon
    elif kind == "consensus":
        doc = {"graph": graph, "seed": rng.randrange(1 << 20), "f": rng.randint(1, 2),
               "T": 300, "tol": 1e-9,
               "adversaries": [
                   {"vehicle": 2, "strategy": "sinusoid",
                    "params": {"amplitude": 2.5, "omega": 0.3, "phase": 1.0}},
                   {"vehicle": 9, "strategy": "seeded-random", "params": {"low": -3.0, "high": 12.0}},
               ][: rng.randint(0, 2)]}
    else:
        disturbance = rng.choice([
            {"kind": "none"},
            {"kind": "step", "vehicle": 4, "amplitude": 1.25},
            {"kind": "sinusoid", "vehicle": 1, "amplitude": 0.8, "omega": "peak"},
            {"kind": "sinusoid", "vehicle": 1, "amplitude": 0.8, "omega": 0.5, "phase": 0.1},
        ])
        doc = {"graph": graph, "kp": round(rng.uniform(2, 8), 3), "ku": round(rng.uniform(5, 15), 3),
               "d0": 10.0, "T": 6.0, "h": 1e-3, "record_every": 10, "disturbance": disturbance}
    return doc, kind


def locations(doc):
    """Every (container, key) pair in doc, in document order."""
    out = []
    stack = [doc]
    while stack:
        node = stack.pop()
        keys = list(node) if isinstance(node, dict) else range(len(node)) if isinstance(node, list) else []
        for key in keys:
            out.append((node, key))
            stack.append(node[key])
    return out


def mutate(doc, rng: random.Random):
    """doc with one seeded change: a wrong value or type, a wrong nesting, an
    unknown or missing key, an added or missing array entry, or a number
    spelled differently (2 -> 2.0, 1 -> true)."""
    spots = locations(doc)
    op = rng.randrange(8)
    if not spots or rng.random() < 0.02:
        return copy.deepcopy(rng.choice(REPLACEMENTS))
    node, key = rng.choice(spots)
    value = node[key]
    if op == 0:
        node[key] = copy.deepcopy(rng.choice(REPLACEMENTS))
    elif op == 1:
        del node[key]
    elif op == 2:
        dicts = [n for n, k in spots if isinstance(n, dict)] + [doc] * isinstance(doc, dict)
        if dicts:
            rng.choice(dicts)[rng.choice(EXTRA_KEYS)] = copy.deepcopy(rng.choice(REPLACEMENTS))
    elif op == 3:
        lists = [n for n, k in spots if isinstance(n, list)]
        if lists:
            target = rng.choice(lists)
            target.insert(rng.randint(0, len(target)), copy.deepcopy(rng.choice(target + REPLACEMENTS)))
    elif op == 4:
        node[key] = rng.choice([[value], {"value": value}, {"platoon": value}])
    elif op == 5 and isinstance(value, (list, dict)) and value:
        node[key] = value[0] if isinstance(value, list) else value[rng.choice(list(value))]
    elif op == 6 and isinstance(value, (int, float)) and not isinstance(value, bool):
        node[key] = rng.choice([float(value), -value, 0, value + 0.5, NAN, INF, -INF, value == 1])
    else:
        node[key] = rng.choice([True, False, None, str(value), 2.0])
    return doc


def oracle_pointer(validator, doc):
    errors = sorted(validator.iter_errors(doc), key=lambda e: list(e.absolute_path))
    if not errors:
        return None
    return "/" + "/".join(str(p) for p in errors[0].absolute_path)


def checker_pointer(doc, schema):
    try:
        cli._validate_schema(doc, schema, "scenario")
    except cli.ValidationFailure as exc:
        text = str(exc)
        assert text.startswith("scenario: invalid at /"), text
        return text[len("scenario: invalid at "):].split(": ", 1)[0]
    return None


def test_checker_matches_jsonschema_on_mutated_scenarios():
    jsonschema = pytest.importorskip("jsonschema")
    validators = {name: jsonschema.Draft202012Validator(s) for name, s in SCHEMAS.items()}
    fixtures = [(json.loads((SCENARIOS / name).read_text()), kind) for name, kind in FIXTURES.items()]
    rng = random.Random(20240601)
    verdicts = {True: 0, False: 0}
    pointers = set()
    for case in range(6000):  # half fixtures, half benchmark-shaped
        if case % 2:
            doc, kind = benchmark_shaped(rng)
        else:
            base, kind = rng.choice(fixtures)
            doc = copy.deepcopy(base)
        if rng.random() < 0.05:  # a scenario checked against another command's schema
            kind = rng.choice(list(SCHEMAS))
        for _ in range(rng.choice([0, 1, 1, 1, 2, 2, 3])):
            doc = mutate(doc, rng)
        want = oracle_pointer(validators[kind], doc)
        assert checker_pointer(doc, SCHEMAS[kind]) == want, (kind, doc)
        verdicts[want is None] += 1
        pointers.add(want)
    # the fuzz reaches both verdicts and errors at many depths
    assert verdicts[True] > 500 and verdicts[False] > 2500, verdicts
    assert len(pointers) > 60, sorted(p for p in pointers if p)


def test_strategy_params_checker_matches_jsonschema():
    # the params schemas are generated from STRATEGY_PARAMS and applied by
    # _build_strategy at the adversary's params pointer; past the schema, the
    # one rule it cannot state (seeded-random's low <= high) is reported at
    # the params pointer itself
    jsonschema = pytest.importorskip("jsonschema")
    cli._bind("consensus")
    rng = random.Random(20240602)
    path = ("adversaries", 3, "params")
    verdicts = {True: 0, False: 0}
    pointers = set()
    for case in range(2000):
        kind = rng.choice(list(cli.STRATEGY_PARAMS))
        schema = cli.STRATEGY_SCHEMAS[kind]
        doc = {name: rng.choice([round(rng.uniform(-5, 5), 3), rng.randint(-3, 3)])
               for name in cli.STRATEGY_PARAMS[kind] if name != "phase" or rng.random() < 0.5}
        for _ in range(rng.choice([0, 1, 1, 2, 3])):
            doc = mutate(doc, rng)
        want = oracle_pointer(jsonschema.Draft202012Validator(schema), doc)
        if want is None and kind == "seeded-random" and doc["low"] > doc["high"]:
            want = "/"
        got = None
        try:
            cli._build_strategy(kind, doc, 3, case, path)
        except cli.ValidationFailure as exc:
            prefix = "scenario: invalid at /adversaries/3/params"
            assert str(exc).startswith(prefix), str(exc)
            got = "/" + str(exc)[len(prefix):].split(": ", 1)[0].lstrip("/")
        assert got == want, (kind, doc)
        verdicts[want is None] += 1
        pointers.add(want)
    assert verdicts[True] > 500 and verdicts[False] > 1000, verdicts
    assert len(pointers) > 8, sorted(p for p in pointers if p)


def test_checker_edge_cases_match_jsonschema():
    jsonschema = pytest.importorskip("jsonschema")
    formation = jsonschema.Draft202012Validator(cli.FORMATION_SCHEMA)
    base = {"graph": {"platoon": [6, 2]}, "kp": 5.0, "ku": 10.0}
    cases = [
        ("record_every", 2.0, None),  # an integral float is an integer
        ("record_every", True, "/record_every"),  # a boolean is not
        ("kp", True, "/kp"),
        ("kp", NAN, None),  # NaN is a number, and NaN <= 0 is false
        ("kp", INF, None),
        ("kp", -INF, "/kp"),
        ("record_every", INF, "/record_every"),
        ("record_every", NAN, "/record_every"),
        ("disturbance", {"kind": "step", "omega": "peak"}, None),
        ("disturbance", {"kind": "step", "omega": -1}, "/disturbance/omega"),
        ("disturbance", {"kind": "step", "omega": True}, "/disturbance/omega"),
        ("disturbance", {"kind": 1}, "/disturbance/kind"),
        ("disturbance", {"kind": "steps", "vehicle": -1}, "/disturbance/kind"),
        ("graph", {"platoon": [6, 2], "n": 6}, "/graph"),
        ("graph", {"platoon": [6, 2.0]}, None),
        ("graph", {"platoon": [[6], 2]}, "/graph"),
    ]
    for key, value, pointer in cases:
        doc = dict(base, **{key: value})
        assert oracle_pointer(formation, doc) == pointer, (key, value)
        assert checker_pointer(doc, cli.FORMATION_SCHEMA) == pointer, (key, value)
    # enum and const tell true from 1
    schema = {"properties": {"a": {"enum": [1, "x"]}, "b": {"const": True}}}
    for doc, pointer in [({"a": True}, "/a"), ({"a": 1.0}, None), ({"b": 1}, "/b"), ({"b": True}, None)]:
        assert oracle_pointer(jsonschema.Draft202012Validator(schema), doc) == pointer, doc
        assert checker_pointer(doc, schema) == pointer, doc
    # oneOf needs exactly one matching branch
    schema = {"oneOf": [{"type": "number"}, {"type": "integer"}]}
    assert checker_pointer(2.5, schema) is None
    assert checker_pointer(2, schema) == "/"
    assert checker_pointer("2", schema) == "/"


def test_schemas_use_only_supported_keywords():
    def walk(schema, where):
        assert isinstance(schema, dict), where
        unsupported = set(schema) - cli.SCHEMA_KEYWORDS
        assert not unsupported, (where, sorted(unsupported))
        assert schema.get("type", "object") in cli._TYPE_CHECKS, where
        assert schema.get("additionalProperties", False) is False, where
        for allowed in schema.get("enum", []) + [schema.get("const")]:
            assert not isinstance(allowed, (list, dict)), where  # scalars only
        for keyword, form in SUBSCHEMAS.items():
            if keyword not in schema:
                continue
            held = schema[keyword]
            subs = held.items() if form == "dict" else enumerate(held) if form == "list" else [("", held)]
            for key, sub in subs:
                walk(sub, f"{where}/{keyword}/{key}")

    for name, schema in SCHEMAS.items():
        walk(schema, name)
    for kind, schema in cli.STRATEGY_SCHEMAS.items():
        walk(schema, f"params of {kind}")
