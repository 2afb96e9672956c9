"""parqc: parallel nearest-neighbor quantum circuit compilation toolkit.

Each public name is imported from its module the first time it is used
(PEP 562), so a process loads only the modules that its work uses.
"""

import importlib

__version__ = "0.1.0"

# public name -> the module that defines it
_EXPORTS = {
    "BARRIER": "circuit",
    "GATES_1Q": "circuit",
    "GATES_2Q": "circuit",
    "Circuit": "circuit",
    "CircuitMetrics": "circuit",
    "CompileReport": "pipeline",
    "CouplingMap": "topology",
    "DensityError": "densitygen",
    "DensitySpec": "densitygen",
    "Instruction": "circuit",
    "PipelineError": "pipeline",
    "QasmError": "circuit",
    "RouteError": "router",
    "TopologyError": "topology",
    "Violation": "verifier",
    "build_grid": "topology",
    "build_linear": "topology",
    "check_nna": "verifier",
    "compile_parallel": "pipeline",
    "compute_metrics": "circuit",
    "fidelity_under_layout": "verifier",
    "generate_with_density": "densitygen",
    "load_coupling_map": "topology",
    "parse_qasm": "circuit",
    "profile_run": "pipeline",
    "read_qasm": "circuit",
    "serialize_qasm": "circuit",
    "simulate": "verifier",
    "write_qasm": "circuit",
}

__all__ = list(_EXPORTS)


def __getattr__(name):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_EXPORTS[name]}", __name__), name)
    globals()[name] = value  # later lookups find it without this hook
    return value
