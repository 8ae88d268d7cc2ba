"""Joint measurement statistics and crosstalk analysis for pairs of
single-qubit observables measured on the two halves of a Bell state.

The package computes the distribution of simultaneous outcomes by three
independent routes, quantifies the information flow (crosstalk) between the
two measurements, and solves the angle conditions under which they are
informationally independent.
"""

import importlib

#: each public name by the module that defines it; the package attribute is
#: resolved, and kept, on first access (PEP 562), so importing the package or
#: one of its modules loads no other module of it
_EXPORTS = {
    "bipartite": (
        "INDEX_ORDER", "BellLabel", "InternalConsistencyError", "JointDistribution", "ObservablePair",
        "OutcomeFrame", "bell_state", "commutator_norm", "has_equal_marginals", "is_klein_symmetric",
        "joint_distribution_amplitude", "joint_distribution_bruteforce", "joint_distribution_closed",
        "lift_first", "lift_second", "marginals", "outcome_frame",
    ),
    "independence": (
        "ConditionKind", "IndependenceRoot", "PlaneCondition", "check_consistency", "condition_x_plane",
        "condition_y_plane", "condition_z_plane", "partner_angles", "plane_condition", "solve_independence",
    ),
    "information": (
        "CrosstalkReport", "crosstalk_report", "degree_of_dependence", "entropy_theta",
        "is_informationally_independent", "mutual_information", "report_from_distribution", "shannon_entropy",
    ),
    "observables": (
        "HADAMARD", "IDENTITY2", "SIGMA1", "SIGMA2", "SIGMA3", "BlochDirection", "NamedGate", "Observable",
        "Plane", "PlaneClass", "classify_plane", "direction", "eigenvalue", "eigenvector", "matrix", "named_gate",
    ),
    "sampler": ("SampleCounts", "cell_z_scores", "empirical_distribution", "empirical_report", "sample"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(importlib.import_module(f".{module}", __name__), name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_MODULE_OF})


__version__ = "0.1.0"

__all__ = sorted(_MODULE_OF)
