"""Program-size/accuracy analysis for universal programming of unitary gates.

Builds the explicit gate-estimation protocol (viable diagram lattice, sine
weights, score matrix), evaluates its fidelity and cost, evaluates all cost
bounds, and cross-validates every formula against independent brute-force
oracles.
"""

from .bounds import (
    BoundReport,
    bound_report,
    conjecture_cost,
    lower_bound_cost,
    lower_bound_dimension,
    optimize_delta,
    table1_rows,
    upper_bound_cost,
)
from .oracle import (
    ChoiFit,
    TorusGrid,
    character_orthonormality_check,
    choi_monte_carlo_su2,
    haar_fidelity,
    su2_grid,
    su_torus_grid,
)
from .phase import PhaseReport, classical_phase_error, phase_report
from .protocol import (
    DiagramSet,
    ProtocolError,
    WeightVector,
    capacity_parameter,
    epsilon_g,
    flat_diagram,
    sine_amplitudes,
    sine_weights,
    viable_set,
)
from .reporting import (
    ProtocolReport,
    SweepResult,
    protocol_report,
    sweep,
)
from .scoring import (
    FidelityResult,
    ScoreMatrix,
    entanglement_fidelity,
    lemma3_bound,
    optimal_fidelity,
    qstar_error_closed_form,
    score_matrix,
)
from .young import (
    dm_lower_bound,
    enumerate_diagrams,
    irrep_dimension,
    sum_squared_dimensions,
    young_distance,
)

__all__ = [
    "BoundReport",
    "ChoiFit",
    "DiagramSet",
    "FidelityResult",
    "PhaseReport",
    "ProtocolError",
    "ProtocolReport",
    "ScoreMatrix",
    "SweepResult",
    "TorusGrid",
    "WeightVector",
    "bound_report",
    "capacity_parameter",
    "character_orthonormality_check",
    "choi_monte_carlo_su2",
    "classical_phase_error",
    "conjecture_cost",
    "dm_lower_bound",
    "entanglement_fidelity",
    "enumerate_diagrams",
    "epsilon_g",
    "flat_diagram",
    "haar_fidelity",
    "irrep_dimension",
    "lemma3_bound",
    "lower_bound_cost",
    "lower_bound_dimension",
    "optimal_fidelity",
    "optimize_delta",
    "phase_report",
    "protocol_report",
    "qstar_error_closed_form",
    "score_matrix",
    "sine_amplitudes",
    "sine_weights",
    "su2_grid",
    "su_torus_grid",
    "sum_squared_dimensions",
    "sweep",
    "table1_rows",
    "upper_bound_cost",
    "viable_set",
    "young_distance",
]
