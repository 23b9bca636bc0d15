"""Seeded inputs and CLI jobs for the two benchmark workloads.

`analysis` reads graph files and scenarios and writes a few hundred bytes
per job: the `topology` jobs (graph ingest, max-flow, subset scans) and the
`verification` jobs (dense linear algebra).  `dynamics` runs the
time-stepping kernels and writes the most output.  The two split the CLI into
reader and writer, and the shared `formation` code into its frequency side
(`sweep`, in `analysis`) and its time side (`dynamics`), so a change to
either shared part shows on one workload and must hold on the other.
There are two workloads rather than more so that each run can last nearly
a minute within the time a whole benchmark may take, and hold many passes
over its batch: shorter runs did not give steady figures on a host shared
with other tenants.

Every workload is a fixed list of job *shapes* (subcommand, platoon sizes,
horizons, output format).  The seed fills in the content: which links are
lost, where the lead group is cut off, which vehicles are faulty or
adversarial, the gains, the disturbance, the fault signal and the scenario
seeds.  Keeping the shapes fixed keeps the amount of work nearly the same
from seed to seed, so the batch sums of different seeds can be compared.

The CLI sees only the files written here and its argv.  Each job gets its
own `--out` directory from the runner, because `manifest.json` is not
hash-named and jobs sharing `--out` would overwrite each other's manifest.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field

WORKLOADS = ("analysis", "dynamics")


@dataclass
class Job:
    """One CLI invocation: `platoonnet <command> <args> --out <dir>`."""

    name: str
    command: str
    args: list[str]
    expect: dict = field(default_factory=dict)  # facts the output checks need

    def argv(self, out: str) -> list[str]:
        return [self.command, *self.args, "--out", out]


@dataclass
class Workload:
    name: str
    jobs: list[Job]
    inputs: dict[str, str]  # relative path -> file text, written before the first job


def platoon_edges(n: int, k: int) -> list[tuple[int, int]]:
    return [(i, j) for i in range(n) for j in range(i + 1, min(i + k, n - 1) + 1)]


def graph_text(n: int, edges) -> str:
    """The canonical graph-file layout: one `[i, j]` edge per line."""
    body = ",\n".join(f"    [{i}, {j}]" for i, j in sorted(edges))
    return '{\n  "n": %d,\n  "edges": [\n%s\n  ]\n}\n' % (n, body)


def max_tolerable_faults(k: int) -> int:
    """floor((k-1)/2), restated here so the inputs do not come from the code under test."""
    return (k - 1) // 2


# ---------------------------------------------------------------- topology jobs
#
# Why: the only jobs that read graph files and run `connectivity`.
# Each of its three job kinds puts a different layer on top: max-flow on
# degraded platoons, the graph-file loader on long split platoons, and the
# exhaustive 2^n subset scans on small platoons.  Outputs are a few hundred
# bytes, so CLI serialisation does almost nothing here.

# P(n, k) with a share of links lost, still connected: vertex and edge
# connectivity (one max-flow per vertex pair tried) dominate.
DEGRADED = ((100, 4, 0.05),)
# P(n, 3) with the lead group cut off: 2k edges, so the loader's per-edge
# cost dominates; disconnected, so the max-flows stop at once and the dense
# eigensolver for lambda2 is the other large cost.
SPLIT = ((700, 3),)
# `--platoon n,k`: exhaustive robustness for n <= 14, exhaustive
# isoperimetric constant above that (2^20 subsets, about 90 MiB at n = 20).
PLATOON = ((14, 3), (20, 4))


def topology(seed: int) -> Workload:
    """`analyze` jobs (part of `analysis`)."""
    rng = random.Random(f"topology-{seed}")
    jobs: list[Job] = []
    inputs: dict[str, str] = {}
    for idx, (n, k, frac) in enumerate(DEGRADED):
        # Lose longest-range links away from both ends, at most one per
        # vehicle: the graph stays connected (the i, i+1 links remain), the
        # minimum degree stays k at the ends, and the max-flow work is about
        # the same for every seed.
        drop = round(frac * len(platoon_edges(n, k)))
        candidates = [(i, i + k) for i in range(k, n - 2 * k)]
        rng.shuffle(candidates)
        lost, used = set(), set()
        for i, j in candidates:
            if len(lost) < drop and i not in used and j not in used:
                lost.add((i, j))
                used.update((i, j))
        kept = [e for e in platoon_edges(n, k) if e not in lost]
        degree = [0] * n
        for i, j in kept:
            degree[i] += 1
            degree[j] += 1
        path = f"inputs/degraded-{idx}.json"
        inputs[path] = graph_text(n, kept)
        jobs.append(Job(f"degraded-{idx}", "analyze", ["--graph", path, "--format", "json"],
                        {"kind": "degraded", "min_degree": min(degree)}))
    for idx, (n, k) in enumerate(SPLIT):
        lead = rng.randint(3, 8)
        edges = [(i, j) for i, j in platoon_edges(n, k) if (i < lead) == (j < lead)]
        path = f"inputs/split-{idx}.json"
        inputs[path] = graph_text(n, edges)
        jobs.append(Job(f"split-{idx}", "analyze", ["--graph", path, "--format", "csv"],
                        {"kind": "split"}))
    for n, k in PLATOON:
        fmt = rng.choice(["csv", "json"])
        jobs.append(Job(f"platoon-{n}-{k}", "analyze", ["--platoon", f"{n},{k}", "--format", fmt],
                        {"kind": "platoon", "n": n, "k": k}))
    return Workload("topology", jobs, inputs)


# ---------------------------------------------------------------- dynamics
#
# Why: the time-stepping kernels (RK4 in `formation`, W-MSR in `consensus`)
# and the heaviest output writing, with csv and json both used.  Nothing from
# `connectivity` or `estimation` runs, and no file is parsed but a small
# scenario, so this workload uses the CLI as a writer where `analysis` uses it
# as a reader.

# (n, k, T, disturbance kind, format); h = 1e-3, a sample every 10 steps.
FORMATION = ((10, 2, 6.0, "none", "csv"), (20, 3, 6.0, "step", "json"),
             (20, 2, 8.0, "sinusoid", "csv"))
# (n, k, f, T, strategies, f-local, format).  The two-adversary jobs place
# their adversaries either far apart (f-local for f = 1) or inside one
# neighbourhood (not f-local), so both sides of the guarantee are run.
CONSENSUS = ((60, 3, 1, 400, ("ramp",), True, "csv"),
             (40, 5, 2, 300, ("constant", "sinusoid"), True, "json"),
             (30, 3, 1, 300, ("seeded-random", "constant"), False, "csv"))


def _strategy_params(rng: random.Random, kind: str) -> dict:
    if kind == "constant":
        return {"value": round(rng.uniform(-5.0, 15.0), 3)}
    if kind == "ramp":
        return {"start": round(rng.uniform(0.0, 10.0), 3), "slope": round(rng.uniform(0.01, 0.1), 4)}
    if kind == "sinusoid":
        return {"amplitude": round(rng.uniform(1.0, 10.0), 3),
                "omega": round(rng.uniform(0.05, 1.0), 4), "phase": round(rng.uniform(0.0, 3.0), 3)}
    return {"low": round(rng.uniform(-10.0, 0.0), 3), "high": round(rng.uniform(10.0, 20.0), 3)}


def _adversary_vehicles(rng: random.Random, n: int, k: int, count: int, f_local: bool) -> list[int]:
    first = rng.randrange(0, n - 3 * k - 1)
    if count == 1:
        return [first]
    # More than 2k apart, no vehicle neighbours both (f-local for any f >= 1);
    # at most k apart, their common neighbours see two (not 1-local).
    gap = rng.randint(2 * k + 1, 3 * k) if f_local else rng.randint(1, k)
    return [first, first + gap]


def dynamics(seed: int) -> Workload:
    rng = random.Random(f"dynamics-{seed}")
    jobs: list[Job] = []
    inputs: dict[str, str] = {}
    for idx, (n, k, T, kind, fmt) in enumerate(FORMATION):
        disturbance: dict = {"kind": kind}
        if kind != "none":
            disturbance["vehicle"] = rng.randrange(n)
            disturbance["amplitude"] = round(rng.uniform(0.5, 2.0), 3)
        if kind == "sinusoid":
            disturbance["omega"] = "peak"
        config = {"graph": {"platoon": [n, k]}, "kp": round(rng.uniform(2.0, 8.0), 3),
                  "ku": round(rng.uniform(5.0, 15.0), 3), "d0": 10.0, "T": T, "h": 1e-3,
                  "record_every": 10, "disturbance": disturbance}
        path = f"inputs/formation-{idx}.json"
        inputs[path] = json.dumps(config, indent=2) + "\n"
        samples = round(T / 1e-3) // 10 + 1
        jobs.append(Job(f"formation-{idx}", "formation", ["--config", path, "--format", fmt],
                        {"kind": kind, "n": n, "m": len(platoon_edges(n, k)), "samples": samples}))
    for idx, (n, k, f, T, kinds, f_local, fmt) in enumerate(CONSENSUS):
        vehicles = _adversary_vehicles(rng, n, k, len(kinds), f_local)
        adversaries = [{"vehicle": v, "strategy": s, "params": _strategy_params(rng, s)}
                       for v, s in zip(vehicles, kinds)]
        scenario = {"graph": {"platoon": [n, k]}, "seed": rng.randrange(1 << 20),
                    "adversaries": adversaries, "f": f, "T": T, "tol": 1e-9}
        path = f"inputs/consensus-{idx}.json"
        inputs[path] = json.dumps(scenario, indent=2) + "\n"
        jobs.append(Job(f"consensus-{idx}", "consensus", ["--scenario", path, "--format", fmt],
                        {"n": n, "k": k, "f": f, "T": T, "adversaries": vehicles}))
    return Workload("dynamics", jobs, inputs)


# ---------------------------------------------------------------- verification jobs
#
# Why: dense linear algebra with almost no output.  `estimate` solves one
# least-squares problem per candidate fault set at every horizon L; `sweep`
# does a 2n x 2n complex solve plus an SVD at each of ~2000 frequencies.  It
# exercises the frequency-domain side of `formation` where `dynamics` runs
# the time-domain side.
#
# The timed estimate jobs set the scenario's `horizon` to at most 12 steps.
# With the default horizon n, recovery at n >= 14 is known to report
# `unique` with a wrong state (its tolerance grows like rho(W)^L and swallows
# every candidate), and a timed workload must be one on which no job fails.
# In 1000 draws of each shape below, every `unique` answer was right.  The
# defect is not hidden: DEFECT_PROBE keeps the default horizon, and the
# traced run replays it and reports how many of its answers are confidently
# wrong (`estimation.probe_wrong_unique`), listing each with its inputs.

# (n, k, horizon): f = max(max_tolerable_faults(k), 1), one faulty vehicle,
# observer 0.
ESTIMATE = ((16, 4, 10), (18, 5, 8))
# (n, k, horizon n): the shapes on which the known defect shows.
DEFECT_PROBE = ((14, 5, 14), (16, 4, 16), (20, 3, 20), (24, 3, 24))
# (n list, k list, kp, ku, spot-check mode, number of spot checks it implies).
# The gains are fixed: they set how many modes are underdamped, and each adds
# 50 frequencies to a sweep's grid, so seeded gains would change the work.
SWEEP = (("8,16", "1,3", 2.0, 3.0, "all", 4),)


def estimate_jobs(rng: random.Random, shapes, prefix: str) -> tuple[list[Job], dict[str, str]]:
    jobs: list[Job] = []
    inputs: dict[str, str] = {}
    for idx, (n, k, horizon) in enumerate(shapes):
        f = max(max_tolerable_faults(k), 1)
        faulty = rng.randrange(1, n)
        phi = [[faulty, step, round(rng.uniform(-2.0, 2.0), 3)] for step in range(horizon)]
        scenario_seed = rng.randrange(1 << 20)
        scenario = {"graph": {"platoon": [n, k]}, "seed": scenario_seed, "faulty": [faulty],
                    "phi": phi, "observer": 0, "f": f}
        if horizon != n:
            scenario["horizon"] = horizon
        path = f"inputs/{prefix}-{idx}.json"
        inputs[path] = json.dumps(scenario) + "\n"
        jobs.append(Job(f"{prefix}-{idx}", "estimate", ["--scenario", path, "--format", "csv"],
                        {"n": n, "k": k, "f": f, "horizon": horizon, "faulty": faulty,
                         "seed": scenario_seed}))
    return jobs, inputs


def verification(seed: int) -> Workload:
    """`estimate` and `sweep` jobs (part of `analysis`)."""
    rng = random.Random(f"verification-{seed}")
    jobs, inputs = estimate_jobs(rng, ESTIMATE, "estimate")
    for idx, (ns, ks, kp, ku, spot, checks) in enumerate(SWEEP):
        jobs.append(Job(f"sweep-{idx}", "sweep",
                        ["--n", ns, "--k", ks, "--kp", str(kp), "--ku", str(ku),
                         "--spot-check", spot, "--format", "json"],
                        {"spot_checks": checks}))
    return Workload("verification", jobs, inputs)


def defect_probe(seed: int) -> Workload:
    """The estimate shapes of the known wrong-`unique` defect; replayed by
    the traced run only, and not part of any timed batch."""
    jobs, inputs = estimate_jobs(random.Random(f"probe-{seed}"), DEFECT_PROBE, "probe")
    return Workload("probe", jobs, inputs)


def analysis(seed: int) -> Workload:
    parts = (topology(seed), verification(seed))
    return Workload("analysis", [job for part in parts for job in part.jobs],
                    {path: text for part in parts for path, text in part.inputs.items()})


def build(name: str, seed: int) -> Workload:
    return {"analysis": analysis, "dynamics": dynamics}[name](seed)
