"""Output checks that decide whether a job failed.

They read only the files a job wrote and the facts the generator recorded,
restate every closed form they need, and stay cheap next to the job itself.
Each check returns a list of reasons; an empty list means the job passed.
"""

from __future__ import annotations

import csv
import hashlib
import json
from fractions import Fraction
from pathlib import Path

from workloads import Job

# `estimate` may report `unique` only when the recovered state is right.
UNIQUE_ERROR_LIMIT = 1e-6
# the reason given when it does not: the known defect the traced run probes
WRONG_UNIQUE = "reported unique with final error"
# numerical sweep against the closed-form gain
SWEEP_REL_ERR_LIMIT = 1e-3
# spacing error of an undisturbed formation that starts at equilibrium
STILL_SPACING_LIMIT = 1e-9


def output_digest(out: Path) -> dict[str, str]:
    """sha256 of every file a job wrote, manifest included, by name."""
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out.iterdir()) if p.is_file()}


def _flatten(payload: dict) -> dict:
    flat = {}
    for key, val in payload.items():
        if isinstance(val, dict):
            for sub, sval in val.items():
                flat[f"{key}.{sub}"] = sval
        else:
            flat[key] = val
    return flat


def _read_analyze(path: Path) -> dict:
    if path.suffix == ".json":
        return _flatten(json.loads(path.read_text()))
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    return {key: _scalar(val) for key, val in rows}


def _scalar(text: str):
    if text == "":
        return None
    for kind in (int, float):
        try:
            return kind(text)
        except ValueError:
            pass
    return text


def _line_count(path: Path) -> int:
    with open(path, "rb") as fh:
        return sum(chunk.count(b"\n") for chunk in iter(lambda: fh.read(1 << 20), b""))


def lambda2_bracket(n: int, k: int) -> tuple[float, float]:
    """max{2k-n+2, k(k+1)^2/(16 nbar^2)} <= lambda2 <= 2k(k+1)/nbar, nbar = floor(n/2)."""
    nbar = n // 2
    return max(2.0 * k - n + 2, k * (k + 1) ** 2 / (16.0 * nbar * nbar)), 2.0 * k * (k + 1) / nbar


def check_analyze(job: Job, report: dict) -> list[str]:
    exp = job.expect
    vc, ec = report["vertex_connectivity"], report["edge_connectivity"]
    if exp["kind"] == "degraded":
        if not 0 < vc <= ec <= exp["min_degree"]:
            return [f"connectivity {vc} <= {ec} <= min degree {exp['min_degree']} does not hold"]
        return []
    if exp["kind"] == "split":
        return [] if vc == ec == 0 else [f"split graph reports connectivity {vc}/{ec}, not 0"]
    n, k = exp["n"], exp["k"]
    reasons = []
    if not vc == ec == k:
        reasons.append(f"vertex/edge connectivity {vc}/{ec} != k={k}")
    if report.get("robustness") is not None and report["robustness"] != k:
        reasons.append(f"robustness {report['robustness']} != k={k}")
    if report.get("isoperimetric.num") is not None:
        iso = Fraction(report["isoperimetric.num"], report["isoperimetric.den"])
        if iso != Fraction(k * (k + 1), 2 * (n // 2)):
            reasons.append(f"isoperimetric constant {iso} != k(k+1)/(2 floor(n/2))")
    lo, hi = lambda2_bracket(n, k)
    if not lo - 1e-9 <= report["lambda2"] <= hi + 1e-9:
        reasons.append(f"lambda2 {report['lambda2']} outside [{lo}, {hi}]")
    return reasons


def check_estimate(job: Job, out: Path, results: dict) -> list[str]:
    rows = _line_count(out / results["_outputs"][0]) - 1
    if rows != job.expect["horizon"]:
        return [f"error curve has {rows} rows, expected horizon {job.expect['horizon']}"]
    if results["unique"] and not results["final_error"] < UNIQUE_ERROR_LIMIT:
        return [f"{WRONG_UNIQUE} {results['final_error']:.3g}"]
    return []


def check_consensus(job: Job, out: Path, results: dict) -> list[str]:
    exp = job.expect
    n, k, f = exp["n"], exp["k"], exp["f"]
    path = out / results["_outputs"][0]
    rows = len(json.loads(path.read_text())) if path.suffix == ".json" else _line_count(path) - 1
    if rows != (exp["T"] + 1) * n:
        return [f"trace has {rows} rows, expected {(exp['T'] + 1) * n}"]
    adversaries = set(exp["adversaries"])
    f_local = all(sum(1 for a in adversaries if 0 < abs(a - i) <= k) <= f
                  for i in range(n) if i not in adversaries)
    if f_local and k >= 2 * f + 1 and results["safety_violations"] != 0:
        return [f"{results['safety_violations']} safety violations with an f-local adversary set"]
    return []


def check_formation(job: Job, out: Path, results: dict) -> list[str]:
    exp = job.expect
    outputs = results["_outputs"]
    if outputs[0].endswith(".json"):
        data = json.loads((out / outputs[0]).read_text())
        rows = (len(data["positions"]) * len(data["positions"][0]),
                len(data["spacing_errors"]) * len(data["spacing_errors"][0]))
    else:
        rows = tuple(_line_count(out / name) - 1 for name in outputs)
    expected = (exp["samples"] * exp["n"], exp["samples"] * exp["m"])
    if rows != expected:
        return [f"(vehicle, edge) rows {rows}, expected {expected}"]
    if exp["kind"] == "none" and not results["max_abs_spacing_error"] < STILL_SPACING_LIMIT:
        return [f"undisturbed spacing error {results['max_abs_spacing_error']:.3g}"]
    return []


def check_sweep(job: Job, out: Path, results: dict) -> list[str]:
    spots = results["spot_checks"]
    if len(spots) != job.expect["spot_checks"]:
        return [f"{len(spots)} spot checks reported, expected {job.expect['spot_checks']}"]
    bad = [s for s in spots if not s["rel_err"] < SWEEP_REL_ERR_LIMIT]
    return [f"sweep rel_err {s['rel_err']:.3g} at P({s['n']},{s['k']})" for s in bad]


def check_job(job: Job, out: Path, returncode: int) -> list[str]:
    """All checks for one finished job; the reasons it failed, if any."""
    if returncode != 0:
        return [f"exit code {returncode}"]
    try:
        manifest = json.loads((out / "manifest.json").read_text())
    except (OSError, ValueError) as exc:
        return [f"no readable manifest: {exc}"]
    outputs = manifest.get("outputs", [])
    missing = [name for name in outputs if not (out / name).is_file()]
    if not outputs or missing:
        return [f"missing outputs {missing or 'all'}"]
    if manifest.get("command") != job.command:
        return [f"manifest command {manifest.get('command')!r}"]
    results = dict(manifest.get("results", {}), _outputs=outputs)
    try:
        if job.command == "analyze":
            return check_analyze(job, _read_analyze(out / outputs[0]))
        return {"estimate": check_estimate, "consensus": check_consensus,
                "formation": check_formation, "sweep": check_sweep}[job.command](job, out, results)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return [f"unreadable output: {exc!r}"]
