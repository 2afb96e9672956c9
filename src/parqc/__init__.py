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
from .densitygen import DensityError, DensitySpec, generate_with_density
from .pipeline import CompileReport, PipelineError, compile_parallel, profile_run
from .router import RouteError
from .topology import CouplingMap, TopologyError, build_grid, build_linear, load_coupling_map
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
    "PipelineError",
    "QasmError",
    "RouteError",
    "TopologyError",
    "Violation",
    "build_grid",
    "build_linear",
    "check_nna",
    "compile_parallel",
    "compute_metrics",
    "fidelity_under_layout",
    "generate_with_density",
    "load_coupling_map",
    "parse_qasm",
    "profile_run",
    "read_qasm",
    "serialize_qasm",
    "simulate",
    "write_qasm",
]
