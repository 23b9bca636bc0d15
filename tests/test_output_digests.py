"""The CLI's outputs pinned by digest.

A fixed set of jobs runs through `cli.main`: the fixture commands of the CI
workflow, and one job of each benchmark job kind on smaller inputs written
here.  Each data file, and each manifest with its `versions` field dropped,
is compared by SHA-256 against `output_digests.json`, together with each
job's exit code, stdout and stderr.

The digests hold in the environment they were made in: the numpy version,
its BLAS and the machine.  Elsewhere the LAPACK-derived values (lambda2, the
sweep's poles, the formation's matrix exponential, the estimation SVDs) may
differ in the last digit, so only the consensus outputs, which use no BLAS
or LAPACK, and every file name are compared, and the rest is skipped.

A change that moves an output on purpose regenerates the file, and its diff
shows every digest that moved:

    PYTHONPATH=src python tests/test_output_digests.py --write
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import platform
import shutil
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

from platoonnet.cli import main

ROOT = Path(__file__).resolve().parent.parent
DIGESTS = Path(__file__).resolve().parent / "output_digests.json"


def _platoon_edges(n: int, k: int) -> list[list[int]]:
    return [[i, j] for i in range(n) for j in range(i + 1, min(i + k, n - 1) + 1)]


# Inputs of the benchmark job kinds, at relative paths: a scenario's path is
# part of its config, and so of its output file names.
INPUTS = {
    # P(40, 4) less four longest links away from the ends: still connected
    "inputs/degraded.json": {
        "n": 40,
        "edges": [e for e in _platoon_edges(40, 4)
                  if e not in ([8, 12], [17, 21], [25, 29], [30, 34])],
    },
    # P(120, 3) with its lead group of five cut off
    "inputs/split.json": {
        "n": 120,
        "edges": [[i, j] for i, j in _platoon_edges(120, 3) if (i < 5) == (j < 5)],
    },
    "inputs/formation.json": {
        "graph": {"platoon": [20, 2]}, "kp": 4.5, "ku": 9.0, "d0": 10.0, "T": 2.0,
        "h": 1e-3, "record_every": 10,
        "disturbance": {"kind": "sinusoid", "vehicle": 7, "amplitude": 1.25, "omega": "peak"},
    },
    # two adversaries in one neighbourhood: not 1-local
    "inputs/consensus.json": {
        "graph": {"platoon": [30, 3]}, "seed": 4242, "f": 1, "T": 100, "tol": 1e-9,
        "adversaries": [
            {"vehicle": 9, "strategy": "seeded-random", "params": {"low": -6.5, "high": 14.0}},
            {"vehicle": 11, "strategy": "constant", "params": {"value": 3.25}},
        ],
    },
    "inputs/estimate.json": {
        "graph": {"platoon": [16, 4]}, "seed": 977, "faulty": [5], "observer": 0, "f": 1,
        "horizon": 10, "phi": [[5, step, (-1) ** step * (0.5 + 0.25 * step)] for step in range(10)],
    },
}

JOBS = {
    # the CI workflow's fixture commands
    "ci-estimate": ["estimate", "--scenario", "scenarios/estimation-single-fault.json"],
    "ci-consensus-ramp": ["consensus", "--scenario", "scenarios/consensus-ramp-tolerated.json"],
    "ci-consensus-overwhelmed": ["consensus", "--scenario",
                                 "scenarios/consensus-overwhelmed.json"],
    "ci-formation": ["formation", "--config", "scenarios/formation-worst-case.json",
                     "--format", "json"],
    "ci-analyze": ["analyze", "--platoon", "20,4"],
    "ci-sweep": ["sweep", "--n", "4:12", "--k", "1:3", "--kp", "5", "--ku", "10"],
    # one job of each benchmark job kind
    "bench-degraded": ["analyze", "--graph", "inputs/degraded.json", "--format", "json"],
    "bench-split": ["analyze", "--graph", "inputs/split.json", "--format", "csv"],
    "bench-platoon": ["analyze", "--platoon", "14,3", "--format", "csv"],
    "bench-formation": ["formation", "--config", "inputs/formation.json", "--format", "csv"],
    "bench-consensus": ["consensus", "--scenario", "inputs/consensus.json", "--format", "json"],
    "bench-estimate": ["estimate", "--scenario", "inputs/estimate.json", "--format", "csv"],
    "bench-sweep": ["sweep", "--n", "8,16", "--k", "1,3", "--kp", "2.0", "--ku", "3.0",
                    "--spot-check", "all", "--format", "json"],
}


def environment() -> str:
    """What a LAPACK-derived last digit depends on: numpy, its BLAS, the machine."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return f"numpy {np.__version__}, {blas['name']} {blas['version']}, {platform.machine()}"


def _digest(path: Path) -> str:
    data = path.read_bytes()
    if path.name == "manifest.json":
        manifest = json.loads(data)
        del manifest["versions"]
        data = json.dumps(manifest, indent=2, sort_keys=True).encode()
    return hashlib.sha256(data).hexdigest()


def run_jobs() -> dict:
    """Write the inputs into the working directory, run every job into
    `out/<job>` there, and give each job's exit code, stdout, stderr and the
    digest of each file it wrote."""
    shutil.copytree(ROOT / "scenarios", "scenarios")
    Path("inputs").mkdir()
    for path, document in INPUTS.items():
        Path(path).write_text(json.dumps(document) + "\n")
    runs = {}
    for name, argv in JOBS.items():
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = main([*argv, "--out", f"out/{name}"])
        runs[name] = {
            "exit": code,
            "stdout": stdout.getvalue(),
            "stderr": stderr.getvalue(),
            "files": {p.name: _digest(p) for p in sorted(Path("out", name).iterdir())},
        }
    return runs


def test_outputs_match_their_digests(tmp_path, monkeypatch):
    pinned = json.loads(DIGESTS.read_text())
    monkeypatch.chdir(tmp_path)
    runs = run_jobs()
    here = environment()
    assert runs.keys() == pinned["jobs"].keys()
    moved = []
    for name, run in runs.items():
        want = pinned["jobs"][name]
        for key in ("exit", "stdout", "stderr"):
            assert run[key] == want[key], (name, key)
        assert run["files"].keys() == want["files"].keys(), name
        if here == pinned["environment"] or JOBS[name][0] == "consensus":
            moved += [f"{name}/{file}" for file, digest in run["files"].items()
                      if digest != want["files"][file]]
    assert moved == []
    if here != pinned["environment"]:
        pytest.skip(f"the digests were made with {pinned['environment']}, and this is {here}: "
                    "compared the consensus outputs and every file name only")


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit(f"usage: python {sys.argv[0]} --write")
    start = os.getcwd()
    with tempfile.TemporaryDirectory() as scratch:
        os.chdir(scratch)
        try:
            pinned = {"environment": environment(), "jobs": run_jobs()}
        finally:
            os.chdir(start)
    DIGESTS.write_text(json.dumps(pinned, indent=2) + "\n")
    print(f"wrote {DIGESTS}")
