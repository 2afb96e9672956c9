"""parqc: parallel nearest-neighbor quantum circuit compilation toolkit."""

from .circuit import (
    BARRIER,
    GATES_1Q,
    GATES_2Q,
    Circuit,
    CircuitMetrics,
    Instruction,
    QasmError,
    compute_metrics,
    parse_qasm,
    read_qasm,
    serialize_qasm,
    write_qasm,
)
from .densitygen import DensityError, DensitySpec, generate_dense, generate_with_density
from .permuter import PermutationPlan, PermuterError, append_permutation, build_permutation
from .pipeline import (
    CompileReport,
    PartitionPlan,
    PipelineError,
    compile_parallel,
    partition,
    profile_run,
)
from .router import Layout, RouteError, RoutedCircuit, route
from .topology import CouplingMap, TopologyError, astar_path, build_grid, build_linear, load_coupling_map
from .verifier import Violation, check_nna, fidelity_under_layout, simulate

__version__ = "0.1.0"

__all__ = [
    "BARRIER",
    "GATES_1Q",
    "GATES_2Q",
    "Circuit",
    "CircuitMetrics",
    "CompileReport",
    "CouplingMap",
    "DensityError",
    "DensitySpec",
    "Instruction",
    "Layout",
    "PartitionPlan",
    "PermutationPlan",
    "PermuterError",
    "PipelineError",
    "QasmError",
    "RouteError",
    "RoutedCircuit",
    "TopologyError",
    "Violation",
    "append_permutation",
    "astar_path",
    "build_grid",
    "build_linear",
    "build_permutation",
    "check_nna",
    "compile_parallel",
    "compute_metrics",
    "fidelity_under_layout",
    "generate_dense",
    "generate_with_density",
    "load_coupling_map",
    "parse_qasm",
    "partition",
    "profile_run",
    "read_qasm",
    "route",
    "serialize_qasm",
    "simulate",
    "write_qasm",
]
