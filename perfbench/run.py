#!/usr/bin/env python3
"""Benchmark of the platoonnet batch CLI.

Run from the repository root:

    python3 perfbench/run.py --workload analysis --seed 1 --seconds 55 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --trace 1

Workloads (why each exists is recorded in workloads.py): `analysis`
(`analyze`, `estimate` and `sweep` jobs) and `dynamics` (`formation` and
`consensus` jobs).  Each is a fixed batch of CLI jobs whose inputs are
generated from --seed; `all` runs both in turn.

--trace 0  End-to-end run.  Every job is a fresh `python -m platoonnet.cli`
           subprocess of the checkout's `src/`, timed from spawn until it has
           exited, which is after its last file is written.  Jobs run one at a
           time from this process: a closed loop with one client, which is
           how the batch CLI is used.  Whole passes over the batch repeat
           while another pass still fits in --seconds; the first is a
           warm-up.  Between jobs this process times a reference start-up,
           an interpreter that imports numpy (REFERENCE): the part of every
           job's start-up that is not platoonnet's own code.  `wall_ref` and
           `cpu_ref` sum over the batch each job's median wall and user+sys
           CPU time in units of the reference start-ups just before and
           after it (`ref`).  `peak_rss_mb` is the largest max-RSS of any
           job, and `setup_s` is the median wall time of a bare
           `platoonnet --help` (interpreter, imports and parser), run before
           every pass.  The raw sums in seconds are printed as well.
--trace 1  Traced run (tracing.py): the same jobs replayed in-process,
           untraced and traced in turn while another pair fits in --seconds,
           plus the import breakdown from `python -X importtime`.  Per-layer
           metrics are medians over the traced replays.  On `analysis` it
           also replays, once, the estimate shapes of a known defect
           (workloads.DEFECT_PROBE) and reports how many answer `unique`
           with a wrong state.  End-to-end numbers never come from this run.

A job fails on an unexpected exit code, a missing output, a failed output
check (checks.py), or output bytes that differ from its first run, since
the README promises bitwise reruns.  `correct` is true only when no job
failed.  The last line of stdout is one JSON object with `correct`,
`attempted`, `failed` and `metrics`; the lines before it are the
human-readable report: the machine facts, every metric with its unit, the
per-subcommand and per-job times, `failed_frac` with its job count, and
every failing job with its inputs and reason.  Traced runs also write their
spans to `.perfbench/trace-<workload>-seed<seed>.json`.

Facts that shaped the design, measured on a 2-CPU Intel Xeon virtual
machine (Python 3.11, numpy 2.4 with OpenBLAS 0.3.31):
- Other tenants of the host slow this machine by up to 1.7x, in stretches
  of ten seconds to several minutes, with no steal time reported: a
  pure-Python loop took 17 ms and 25 ms within one minute.  Job wall and
  CPU time slow alike, so no sample taken within one run escapes a slow
  stretch.  Over five seeds in 55-second runs, the sum of each job's
  fastest pass spread by 13-34% (IQR over median).  Divided by a
  pure-Python loop timed beside each job, the sums still spread by 4-9%:
  the jobs, mostly interpreter start-up and imports, slow more than a loop
  that stays in cache.  Divided by the reference start-up, the same sums
  spread by 2.6% over five seeds, against 19% for the raw sums in the same
  runs.  Hence `ref` units for the batch metrics.
- With BLAS threads left as found, OpenBLAS uses both CPUs, and while the
  other CPU was busy a sweep job took 13.9 s instead of 1.6 s.  So every
  job, and the traced replay, runs with one BLAS/OpenMP thread; the
  machine facts record the values found and the values used.
- A job's first run is slower (files not yet cached, first-time set-up),
  so the first pass is a warm-up and left out of the timings.
- The job shapes are fixed and the seed varies only their content, so that
  the amount of work hardly changes from seed to seed.  The jobs are short
  (0.3-1 s each, a pass of 3-4 s) so that a run holds many passes.
- Each subcommand's share of a batch is printed (`analyze_s`, `formation_s`,
  ...) but is not a metric in BENCHMARK.json, whose end-to-end metrics must
  exist and be non-zero on every workload; each subcommand runs on one.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from checks import WRONG_UNIQUE, check_job, output_digest
from workloads import WORKLOADS, Job, Workload, build, defect_probe

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
HELP_RUNS = 1  # `--help` runs before each pass after the first
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
# BLAS runs single-threaded in every job and in the traced replay.  With the
# threads left as found, OpenBLAS uses both CPUs, and while the other CPU was
# busy a sweep job took 13.9 s instead of 1.6 s; single-threaded it took
# 1.4-1.5 s on an idle machine.
THREADS_FOUND = {var: os.environ.get(var) for var in THREAD_VARS}
os.environ.update(dict.fromkeys(THREAD_VARS, "1"))

E2E_UNITS = {"wall_ref": "ref", "cpu_ref": "ref", "setup_s": "s", "peak_rss_mb": "MiB"}
# The reference start-up timed between jobs: an interpreter that imports
# numpy, the part of every job's start-up that is not platoonnet's own code.
REFERENCE = ["-c", "import numpy"]
# per-layer metrics reported in the JSON line: counts, and the times that are
# non-zero on both workloads.  The per-module self times, each 0 by design on
# one workload, are printed and kept in the trace file.
LAYER_UNITS = {
    "graph.build_s": "s", "kernels_s": "s", "ingest_s": "s", "cli.self_s": "s",
    "import.total_s": "s", "import.numpy_s": "s", "import.jsonschema_s": "s",
    "import.platoonnet_s": "s", "trace.uncovered_s": "s", "trace.overhead_s": "s",
    "graph.load_calls": "count", "graph.edges_loaded": "count",
    "connectivity.subsets_scanned": "count", "estimation.recover_calls": "count",
    "estimation.candidates_tried": "count", "estimation.candidates_kept": "count",
    "estimation.kept_ratio": "ratio", "estimation.wrong_unique": "count",
    "estimation.ambiguous": "count", "estimation.probe_wrong_unique": "count",
    "formation.sweep_calls": "count",
    "formation.sweep_points": "count", "formation.integration_steps": "count",
    "consensus.vehicle_steps": "count", "consensus.safety_violations": "count",
    "cli.bytes_written": "bytes", "cli.files_written": "count",
}


def cli_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def spawn(argv: list[str], cwd: Path, log: Path, python_args=("-m", "platoonnet.cli")
          ) -> tuple[float, float, int, int]:
    """Run one CLI process (or, with other python_args, one interpreter) to its
    end: (wall seconds, user+sys CPU seconds from RUSAGE_CHILDREN, max RSS in
    KiB, exit code)."""
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    with open(log, "wb") as fh:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, *python_args, *argv], cwd=cwd,
                                env=cli_env(), stdout=fh, stderr=subprocess.STDOUT)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    cpu = (after.ru_utime - before.ru_utime) + (after.ru_stime - before.ru_stime)
    return wall, cpu, usage.ru_maxrss, proc.returncode


@dataclass
class JobRun:
    job: Job
    wall: float
    cpu: float
    rss_kib: int
    reasons: list[str]
    digest: dict = field(default_factory=dict)
    ref: tuple[float, float] = (1.0, 1.0)  # reference wall and CPU seconds around the job


def compare_outputs(runs: list[JobRun], reference: dict[str, dict]) -> None:
    """Reproducibility: every rerun must write the first run's bytes."""
    for run in runs:
        expected = reference[run.job.name]
        if run.digest and expected and run.digest != expected:
            run.reasons.append("output bytes differ from the first run")


def help_time(rundir: Path) -> float:
    """Wall time of a bare `platoonnet --help`: interpreter, imports and parser."""
    wall, _, _, code = spawn(["--help"], rundir, rundir / "help.log")
    if code != 0:
        raise SystemExit(f"`platoonnet --help` exited with {code}")
    return wall


def reference(rundir: Path) -> tuple[float, float]:
    """Wall and CPU seconds of one reference start-up (REFERENCE)."""
    wall, cpu, _, code = spawn([], rundir, rundir / "reference.log", REFERENCE)
    if code != 0:
        raise SystemExit(f"the reference start-up {REFERENCE} exited with {code}")
    return wall, cpu


def run_pass(workload: Workload, rundir: Path, tag: str) -> list[JobRun]:
    """All jobs once, each into its own --out, checked after the last one."""
    passdir = rundir / tag
    passdir.mkdir()
    timed = []
    ref = reference(passdir)
    for job in workload.jobs:
        log = passdir / f"{job.name}.log"
        result = spawn(job.argv(f"{tag}/{job.name}"), rundir, log)
        before, ref = ref, reference(passdir)
        timed.append((job, log, ((before[0] + ref[0]) / 2, (before[1] + ref[1]) / 2), *result))
    runs = []
    for job, log, ref, wall, cpu, rss, code in timed:
        out = passdir / job.name
        reasons = check_job(job, out, code)
        if code != 0:
            tail = log.read_text(errors="replace").strip().splitlines()[-1:]
            reasons = [*reasons, *tail]
        digest = output_digest(out) if out.is_dir() else {}
        runs.append(JobRun(job, wall, cpu, rss, reasons, digest, ref))
    shutil.rmtree(passdir)
    return runs


def machine_facts() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu_model = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu_model = next((line.split(":", 1)[1].strip() for line in fh
                              if line.startswith("model name")), cpu_model)
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(), "cpu": cpu_model, "python": platform.python_version(),
        "numpy": np.__version__, "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads_found": THREADS_FOUND, "threads_used": {var: os.environ[var] for var in THREAD_VARS},
        "loadavg": os.getloadavg(),
    }


def end_to_end(workload: Workload, rundir: Path, seconds: int) -> tuple[dict, list[JobRun], list[str]]:
    setup, passes = [], []
    start = last = time.perf_counter()
    # the first pass is the warm-up: checked, but not in the timings
    while len(passes) < 2 or 2 * time.perf_counter() - last - start <= seconds:
        last = time.perf_counter()
        setup += [help_time(rundir) for _ in range(HELP_RUNS if passes else 3)]
        runs = run_pass(workload, rundir, f"pass{len(passes)}")
        if passes:
            compare_outputs(runs, {run.job.name: run.digest for run in passes[0]})
        passes.append(runs)

    # Each job's time over the mean of the reference start-ups just before
    # and just after it, median over the timed passes, summed over the batch:
    # a slow stretch of the host slows the job and the start-ups beside it
    # alike.
    per_job = list(zip(*passes[1:]))

    def batch(value, jobs=per_job):
        return sum(statistics.median(value(r) for r in runs) for runs in jobs)

    metrics = {
        "wall_ref": batch(lambda r: r.wall / r.ref[0]),
        "cpu_ref": batch(lambda r: r.cpu / r.ref[1]),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": max(statistics.median(r.rss_kib for r in runs) for runs in per_job) / 1024,
    }
    ref = [statistics.median(r.ref[i] for runs in per_job for r in runs) for i in (0, 1)]
    lines = [f"  passes: {len(passes)} of {len(workload.jobs)} jobs each, the first a warm-up; "
             f"job figures are medians over the other {len(per_job[0])}; setup_s is the median "
             f"of {len(setup)} runs of `--help`, {HELP_RUNS} before each pass and 3 before the first",
             f"  ref: the reference start-up `python {' '.join(REFERENCE)}` took {ref[0]:.4f} s wall, "
             f"{ref[1]:.4f} s CPU (medians); 1 ref = its time around each job"]
    for name, value in metrics.items():
        lines.append(f"  {name:<14} {value:10.4f} {E2E_UNITS[name]}")
    lines.append(f"  {'wall_s':<14} {batch(lambda r: r.wall):10.4f} s       (raw, printed, not gated)")
    lines.append(f"  {'cpu_s':<14} {batch(lambda r: r.cpu):10.4f} s       (raw, printed, not gated)")
    for runs in per_job:
        walls = [r.wall for r in runs]
        lines.append(f"    job {runs[0].job.name:<14} wall min {min(walls):7.3f} s, median "
                     f"{statistics.median(walls):7.3f} s, {statistics.median(r.wall / r.ref[0] for r in runs):7.2f} ref; "
                     f"cpu median {statistics.median(r.cpu for r in runs):7.3f} s; "
                     f"max RSS {max(r.rss_kib for r in runs) / 1024:6.1f} MiB")
    for command in dict.fromkeys(job.command for job in workload.jobs):
        jobs = [runs for runs in per_job if runs[0].job.command == command]
        lines.append(f"  {command + '_s':<14} {batch(lambda r: r.wall, jobs):10.4f} s, "
                     f"{batch(lambda r: r.wall / r.ref[0], jobs):8.2f} ref  (printed, not gated)")
    return metrics, [r for runs in passes for r in runs], lines


def check_replay(workload: Workload, outdir: Path, codes: list[int]) -> list[JobRun]:
    runs = []
    for job, code in zip(workload.jobs, codes):
        out = outdir / job.name
        runs.append(JobRun(job, 0.0, 0.0, 0, check_job(job, out, code),
                           output_digest(out) if out.is_dir() else {}))
    shutil.rmtree(outdir)
    return runs


def probe_defect(probe: Workload, rundir: Path) -> tuple[int, list[JobRun], list[str]]:
    """Replay the known-defect estimate shapes once, untimed and untraced.

    A `unique` answer with a wrong state is the known defect: it is counted
    and listed, not added to `failed`, because the probe is not part of any
    timed batch.  Any other failure of a probe job is a failed job."""
    import tracing

    _, codes = tracing.replay(probe.jobs, rundir / "probe", None)
    runs = check_replay(probe, rundir / "probe", codes)
    wrong, other = [], []
    for run in runs:
        known = run.reasons and all(x.startswith(WRONG_UNIQUE) for x in run.reasons)
        (wrong if known else other).append(run)
    lines = [f"  known defect: {len(wrong)} of {len(runs)} probe estimate jobs (default horizon n) "
             "report `unique` with a wrong state; listed here, not counted in `failed`"]
    for run in wrong:
        lines.append(f"    WRONG {run.job.name}: argv {' '.join(run.job.argv('<out>'))}; "
                     f"inputs {json.dumps(run.job.expect)}; {run.reasons[0]}")
    return len(wrong), other, lines


def traced(workload: Workload, rundir: Path, seed: int, seconds: int) -> tuple[dict, list[JobRun], list[str]]:
    sys.path.insert(0, str(SRC))
    import tracing

    start = last = time.perf_counter()
    imports = tracing.import_breakdown(cli_env())
    # an untimed warm-up replay: the first in-process run pays for first-time set-up
    _, codes = tracing.replay(workload.jobs, rundir / "warmup", None)
    runs = check_replay(workload, rundir / "warmup", codes)
    reference = {run.job.name: run.digest for run in runs}
    samples: dict[str, list[float]] = {}
    tracers = []
    # pairs of replays while another pair still fits in `seconds`
    while not tracers or 2 * time.perf_counter() - last - start <= seconds:
        last = time.perf_counter()
        tag = len(tracers)
        tracer = tracing.Tracer()
        totals = {}
        # alternate which replay of the pair runs first, so that order does
        # not bias trace.overhead_s
        for traced_replay in ((False, True) if tag % 2 == 0 else (True, False)):
            outdir = rundir / f"{'traced' if traced_replay else 'plain'}{tag}"
            totals[traced_replay], codes = tracing.replay(
                workload.jobs, outdir, tracer if traced_replay else None)
            replayed = check_replay(workload, outdir, codes)
            compare_outputs(replayed, reference)
            runs += replayed
        traced_total, untraced_total = totals[True], totals[False]
        for name, value in tracing.layer_metrics(tracer, traced_total, untraced_total).items():
            samples.setdefault(name, []).append(value)
        tracers.append(tracer)
    layers = {name: statistics.median(values) for name, values in samples.items()}
    layers.update(imports)
    probe_lines = []
    layers["estimation.probe_wrong_unique"] = 0
    if workload.name == "analysis":
        layers["estimation.probe_wrong_unique"], probe_runs, probe_lines = probe_defect(
            defect_probe(seed), rundir)
        runs += probe_runs

    spans_path = WORK / f"trace-{workload.name}-seed{seed}.json"
    with open(spans_path, "w") as fh:
        json.dump({"workload": workload.name, "seed": seed, "metrics": layers,
                   "replays": [{"spans": t.spans, "counts": t.counts} for t in tracers]}, fh)

    self_names = tracing.SELF_TIME_METRICS.values()
    self_total = sum(layers[name] for name in self_names)
    lines = [f"  traced replays: {len(tracers)}, each paired with an untraced one; metrics are medians; "
             f"spans in {spans_path.relative_to(ROOT)}",
             "  self time by layer (share of all span self time):"]
    for name in self_names:
        share = layers[name] / self_total if self_total else 0.0
        lines.append(f"    {name:<30} {layers[name]:10.4f} s   {share:6.1%}")
    for name, value in layers.items():
        if name not in self_names:
            lines.append(f"    {name:<30} {value:10.10g} {LAYER_UNITS.get(name, 's')}")
    return {name: layers[name] for name in LAYER_UNITS}, runs, lines + probe_lines


def failure_lines(runs: list[JobRun]) -> list[str]:
    by_job: dict[str, list[JobRun]] = {}
    for run in runs:
        if run.reasons:
            by_job.setdefault(run.job.name, []).append(run)
    lines = []
    for name, failed in by_job.items():
        job = failed[0].job
        runs_of_job = sum(1 for r in runs if r.job.name == name)
        lines.append(f"  FAILED {name}: {len(failed)} of {runs_of_job} runs; "
                     f"argv {' '.join(job.argv('<out>'))}; inputs {json.dumps(job.expect)}")
        for reason in dict.fromkeys(reason for r in failed for reason in r.reasons):
            lines.append(f"         reason: {reason}")
    return lines


def run_workload(name: str, seed: int, seconds: int, trace: bool) -> dict:
    workload = build(name, seed)
    inputs = dict(workload.inputs)
    if trace and name == "analysis":
        inputs.update(defect_probe(seed).inputs)
    WORK.mkdir(exist_ok=True)
    rundir = WORK / f"run-{name}-{seed}-{os.getpid()}"
    shutil.rmtree(rundir, ignore_errors=True)
    rundir.mkdir()
    cwd = os.getcwd()
    try:
        for rel, text in inputs.items():
            (rundir / rel).parent.mkdir(parents=True, exist_ok=True)
            (rundir / rel).write_text(text)
        if trace:
            os.chdir(rundir)
            metrics, runs, lines = traced(workload, rundir, seed, seconds)
            units = LAYER_UNITS
        else:
            metrics, runs, lines = end_to_end(workload, rundir, seconds)
            units = E2E_UNITS
    finally:
        os.chdir(cwd)
        shutil.rmtree(rundir, ignore_errors=True)
    failed = sum(1 for r in runs if r.reasons)
    print(f"workload {name}, seed {seed}, {'traced' if trace else 'end-to-end'}")
    for line in lines:
        print(line)
    print(f"  failed_frac    {failed / len(runs):10.4f} ratio  ({failed} of {len(runs)} job runs)")
    for line in failure_lines(runs):
        print(line)
    return {"correct": failed == 0, "attempted": len(runs), "failed": failed,
            "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=55)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    # on SIGTERM, unwind normally: the running job is killed and reaped, and
    # the scratch directory is removed
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (SRC / "platoonnet" / "cli.py").is_file():
        print(f"error: no platoonnet sources at {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    print("machine " + json.dumps(machine_facts()))
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {name: run_workload(name, args.seed, args.seconds, bool(args.trace)) for name in names}
    print(json.dumps(results[args.workload] if args.workload != "all" else results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
