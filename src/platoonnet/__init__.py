"""Analysis toolkit for k-nearest-neighbour vehicle platoons.

Covers structural connectivity and robustness measures, fault-tolerant
initial-state recovery, resilient trimmed-average consensus, and
double-integrator formation control with worst-case disturbance gains.

The public names below are imported from their submodule on first access
(PEP 562), so `import platoonnet` loads none of the submodules, and
`platoonnet.run_wmsr` loads `platoonnet.consensus` and the `graph` and
`stream` modules it builds on, nothing else.
"""

from importlib import import_module

__version__ = "0.1.0"

_EXPORTS = {
    "connectivity": (
        "ConnectivityReport",
        "ExhaustiveLimitError",
        "connectivity_report",
        "edge_connectivity",
        "is_connected",
        "isoperimetric_constant",
        "knn_closed_forms",
        "robustness",
        "vertex_connectivity",
    ),
    "consensus": (
        "Adversary",
        "Constant",
        "ConsensusTrace",
        "Ramp",
        "SeededRandom",
        "Sinusoid",
        "is_f_local",
        "run_wmsr",
    ),
    "estimation": (
        "FaultScenario",
        "MeasurementTrace",
        "ModelMismatchError",
        "RecoveryResult",
        "WeightMatrix",
        "max_tolerable_faults",
        "observation_model",
        "observe",
        "packet_drop_scenario",
        "random_weights",
        "recover_initial_state",
        "simulate_faulty",
    ),
    "formation": (
        "Disturbance",
        "FormationSystem",
        "FormationTrace",
        "build_formation",
        "hinf_closed_form",
        "hinf_grid",
        "hinf_sweep",
        "simulate_formation",
    ),
    "graph": (
        "Graph",
        "GraphFormatError",
        "PlatoonSpec",
        "algebraic_connectivity",
        "build_knn_platoon",
        "incidence",
        "lambda2_bounds",
        "laplacian",
        "load_graph",
        "save_graph",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
