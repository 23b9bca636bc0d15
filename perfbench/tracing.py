"""Traced in-process replay of a workload's jobs, and the import breakdown.

The replay runs every job through `platoonnet.cli.main(argv)` in this
process, once untraced and once with wrappers around the public functions
of `graph`, `connectivity`, `estimation`, `consensus`, `formation` and
`cli`.  The wrappers are installed from here, on the names where the
program looks them up: `platoonnet.cli.*` for the subcommands' direct
calls, `platoonnet.connectivity.*` for the calls inside
`connectivity_report`, and `platoonnet.formation.hinf_sweep` (and
`platoonnet.graph.build_knn_platoon`) for the calls inside `hinf_grid`.
Spans (name, start, end, parent, job) are kept in memory and written out at
the end; a span's self time is its duration minus that of its child spans.
Counts marked *computed* come from a call's arguments, not from inside the
program.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import statistics
import subprocess
import sys
import time
import traceback
import warnings
from collections import defaultdict
from math import comb
from pathlib import Path

import numpy as np

from checks import UNIQUE_ERROR_LIMIT
from workloads import Job

# solver kernels: the layers the ROADMAP's speed-ups target
KERNEL_SPANS = ("connectivity.vertex", "connectivity.edge", "connectivity.eig",
                "connectivity.robustness", "connectivity.iso", "estimation.recover",
                "formation.sweep", "formation.simulate", "consensus.wmsr")
# reading inputs: graph files, and scenario/config parsing with jsonschema
INGEST_SPANS = ("graph.load", "cli.load")
# self-time metrics by span name
SELF_TIME_METRICS = {
    "graph.load": "graph.load_s", "graph.build": "graph.build_s",
    "connectivity.vertex": "connectivity.vertex_s", "connectivity.edge": "connectivity.edge_s",
    "connectivity.eig": "connectivity.eig_s", "connectivity.robustness": "connectivity.robustness_s",
    "connectivity.iso": "connectivity.iso_s", "connectivity.report": "connectivity.report_s",
    "estimation.simulate": "estimation.simulate_s", "estimation.recover": "estimation.recover_s",
    "formation.sweep": "formation.sweep_s", "formation.grid": "formation.grid_s",
    "formation.simulate": "formation.simulate_s", "consensus.wmsr": "consensus.wmsr_s",
    "cli.load": "cli.load_s", "cli.main": "cli.self_s",
}
COUNT_METRICS = (
    "graph.load_calls", "graph.edges_loaded", "connectivity.subsets_scanned",
    "estimation.recover_calls", "estimation.candidates_tried", "estimation.candidates_kept",
    "estimation.wrong_unique", "estimation.ambiguous", "formation.sweep_calls",
    "formation.sweep_points", "formation.integration_steps", "consensus.vehicle_steps",
    "consensus.safety_violations", "cli.bytes_written", "cli.files_written",
)


class Tracer:
    """Spans and counts of one traced replay."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index, job name]
        self.stack: list[int] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.job: Job | None = None

    def span(self, name: str, fn, count=None):
        def traced(*args, **kwargs):
            parent = self.stack[-1] if self.stack else None
            record = [name, 0.0, 0.0, parent, self.job.name]
            self.stack.append(len(self.spans))
            self.spans.append(record)
            record[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = time.perf_counter()
                self.stack.pop()
            if count is not None:
                count(self, result, *args, **kwargs)
            return result
        return traced

    def self_times(self) -> dict[str, float]:
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                child[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for idx, (name, start, end, _, _) in enumerate(self.spans):
            out[name] += end - start - child[idx]
        return out

    def top_level_total(self) -> float:
        return sum(end - start for _, start, end, parent, _ in self.spans if parent is None)


# ---------------------------------------------------------------- counters


def _count_load(tr, graph, *args, **kwargs):
    tr.counts["graph.load_calls"] += 1
    tr.counts["graph.edges_loaded"] += graph.m


def _count_subsets(tr, result, g, *args, **kwargs):
    tr.counts["connectivity.subsets_scanned"] += 1 << g.n  # computed


def _count_recover(tr, result, trace, weights, f):
    n = weights.graph.n
    tr.counts["estimation.recover_calls"] += 1
    tr.counts["estimation.candidates_tried"] += sum(comb(n - 1, s) for s in range(f + 1))  # computed
    tr.counts["estimation.candidates_kept"] += len(result.candidates)
    if not result.unique:
        tr.counts["estimation.ambiguous"] += 1
        return
    x0 = np.random.default_rng([tr.job.expect["seed"], 1]).uniform(-5.0, 5.0, n)
    if not float(np.linalg.norm(result.x0 - x0)) < UNIQUE_ERROR_LIMIT:
        tr.counts["estimation.wrong_unique"] += 1


def _count_wmsr(tr, result, *args, T=500, **kwargs):
    tr.counts["consensus.vehicle_steps"] += len(result.normal) * T  # computed
    tr.counts["consensus.safety_violations"] += len(result.safety_violations)


def _count_simulate(tr, result, *args, T=10.0, h=1e-3, **kwargs):
    tr.counts["formation.integration_steps"] += int(round(T / h))  # computed


def _count_sweep(tr, result, *args, **kwargs):
    tr.counts["formation.sweep_calls"] += 1
    tr.counts["formation.sweep_points"] += result.grid_points


# (module, attribute, span name, counter)
PATCHES = (
    ("platoonnet.cli", "load_graph", "graph.load", _count_load),
    ("platoonnet.cli", "build_knn_platoon", "graph.build", None),
    ("platoonnet.graph", "build_knn_platoon", "graph.build", None),
    ("platoonnet.cli", "load_estimation_scenario", "cli.load", None),
    ("platoonnet.cli", "load_consensus_scenario", "cli.load", None),
    ("platoonnet.cli", "load_formation_config", "cli.load", None),
    ("platoonnet.cli", "connectivity_report", "connectivity.report", None),
    ("platoonnet.connectivity", "vertex_connectivity", "connectivity.vertex", None),
    ("platoonnet.connectivity", "edge_connectivity", "connectivity.edge", None),
    ("platoonnet.connectivity", "algebraic_connectivity", "connectivity.eig", None),
    ("platoonnet.connectivity", "robustness", "connectivity.robustness", _count_subsets),
    ("platoonnet.connectivity", "isoperimetric_constant", "connectivity.iso", _count_subsets),
    ("platoonnet.cli", "random_weights", "estimation.simulate", None),
    ("platoonnet.cli", "simulate_faulty", "estimation.simulate", None),
    ("platoonnet.cli", "observe", "estimation.simulate", None),
    ("platoonnet.cli", "recover_initial_state", "estimation.recover", _count_recover),
    ("platoonnet.cli", "run_wmsr", "consensus.wmsr", _count_wmsr),
    ("platoonnet.cli", "simulate_formation", "formation.simulate", _count_simulate),
    ("platoonnet.cli", "hinf_grid", "formation.grid", None),
    ("platoonnet.formation", "hinf_sweep", "formation.sweep", _count_sweep),
)


@contextlib.contextmanager
def installed(tracer: Tracer):
    saved = []
    try:
        for module, attr, name, count in PATCHES:
            mod = importlib.import_module(module)
            saved.append((mod, attr, getattr(mod, attr)))
            setattr(mod, attr, tracer.span(name, getattr(mod, attr), count))
        yield
    finally:
        for mod, attr, original in reversed(saved):
            setattr(mod, attr, original)


def replay(jobs: list[Job], outdir: Path, tracer: Tracer | None) -> tuple[float, list[int]]:
    """Run every job through cli.main in this process, each into
    `outdir/<job name>`; (total wall time, exit code of each job)."""
    from platoonnet import cli

    codes = []
    start = time.perf_counter()
    with contextlib.ExitStack() as stack:
        stack.enter_context(contextlib.redirect_stdout(io.StringIO()))
        stack.enter_context(contextlib.redirect_stderr(io.StringIO()))
        stack.enter_context(warnings.catch_warnings())
        warnings.simplefilter("ignore")
        main = cli.main
        if tracer is not None:
            stack.enter_context(installed(tracer))
            main = tracer.span("cli.main", cli.main)
        for job in jobs:
            out = outdir / job.name
            if tracer is not None:
                tracer.job = job
            try:
                codes.append(main(job.argv(str(out))))
            except Exception:  # an uncaught error is a failed job, as in a subprocess
                traceback.print_exc(file=sys.__stderr__)
                codes.append(1)
            if tracer is not None and out.is_dir():
                files = [p for p in out.iterdir() if p.is_file()]
                tracer.counts["cli.files_written"] += len(files)
                tracer.counts["cli.bytes_written"] += sum(p.stat().st_size for p in files)
    return time.perf_counter() - start, codes


def layer_metrics(tracer: Tracer, traced_total: float, untraced_total: float) -> dict[str, float]:
    self_times = tracer.self_times()
    metrics = {metric: self_times.get(span, 0.0) for span, metric in SELF_TIME_METRICS.items()}
    metrics["kernels_s"] = sum(self_times.get(s, 0.0) for s in KERNEL_SPANS)
    metrics["ingest_s"] = sum(self_times.get(s, 0.0) for s in INGEST_SPANS)
    metrics.update({name: tracer.counts[name] for name in COUNT_METRICS})
    tried = tracer.counts["estimation.candidates_tried"]
    metrics["estimation.kept_ratio"] = tracer.counts["estimation.candidates_kept"] / tried if tried else 0.0
    metrics["trace.uncovered_s"] = traced_total - tracer.top_level_total()
    metrics["trace.overhead_s"] = traced_total - untraced_total
    return metrics


# ---------------------------------------------------------------- start-up


def import_breakdown(env: dict, runs: int = 3) -> dict[str, float]:
    """`import platoonnet.cli` under `python -X importtime`, median of `runs`."""
    samples = defaultdict(list)
    for _ in range(runs):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import platoonnet.cli"],
                              env=env, capture_output=True, text=True, check=True)
        total = numpy = jsonschema = own = 0
        for line in proc.stderr.splitlines():
            fields = line.split("|")
            if len(fields) != 3 or "self [us]" in line:
                continue
            self_us = int(fields[0].split(":")[1])
            cumulative = int(fields[1])
            label = fields[2][1:]
            name = label.lstrip(" ")
            if len(label) == len(name):
                total += cumulative
            if name == "numpy" and not numpy:
                numpy = cumulative
            if name == "jsonschema" and not jsonschema:
                jsonschema = cumulative
            if name.split(".")[0] == "platoonnet":
                own += self_us
        for key, us in (("import.total_s", total), ("import.numpy_s", numpy),
                        ("import.jsonschema_s", jsonschema), ("import.platoonnet_s", own)):
            samples[key].append(us * 1e-6)
    return {key: statistics.median(vals) for key, vals in samples.items()}
