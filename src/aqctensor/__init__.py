"""Compress Trotterized spin-chain evolution into short-depth parametric circuits.

Workflow: evolve a product state with TEBD on matrix product states, optimize
a Trotter-structured brickwork circuit against the evolved MPS through
truncated local overlap costs with parameter-shift gradients, then
append further Trotter steps to the optimized circuit.
"""
from .ansatz import (
    Ansatz,
    apply_ansatz,
    build_brickwork_ansatz,
    cnot_depth,
    trotter_initialize,
)
from .cost import (
    CostConfig,
    CostValue,
    cost_and_gradient,
    cost_local_truncated,
    default_alpha_schedule,
    gradient_fd,
)
from .hamiltonian import (
    GateSchedule,
    XYZHamiltonian,
    build_trotter_schedule,
    random_xyz,
    tebd_evolve,
    two_site_unitary,
)
from .mps import (
    MPS,
    TruncationPolicy,
    apply_ops,
    apply_single_site_gate,
    apply_two_site_gate,
    canonicalize,
    fidelity,
    from_product_state,
    inner_product,
    iter_ops,
    max_bond,
    normalize,
)
from .optimize import OptimizationTrace, OptimizerConfig, minimize
from .statevector import mps_to_statevector, sv_apply_schedule, sv_fidelity

__version__ = "0.1.0"
