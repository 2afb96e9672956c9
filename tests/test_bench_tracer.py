"""The benchmark's tracer, bench/tracer.py, looks up parqc's functions by name
when it starts and reads fields of their results. A clean-up of parqc that
drops one of them breaks the benchmark harness; these tests catch it here.
The tracer imports only the standard library and parqc, so it loads by path.
"""
import importlib.util
from pathlib import Path

import pytest

from parqc.circuit import Circuit, Instruction
from parqc.permuter import build_permutation
from parqc.router import route
from parqc.topology import build_linear

TRACER = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


@pytest.fixture(scope="module")
def tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_wrapped_attribute_resolves(tracer):
    missing = [f"{mod.__name__}.{attr}" for mod, attr, _, _ in tracer.WRAPS if not callable(getattr(mod, attr, None))]
    assert missing == []


def test_result_readers_find_their_fields(tracer):
    cmap = build_linear(4)
    routed = route(Circuit(4, [Instruction("cx", (0, 3))]), cmap)
    assert tracer.RESULT_ARGS["router.route"](routed) == {"inserted_swaps": 2}
    plan = build_permutation(routed.final_layout, cmap)
    assert tracer.RESULT_ARGS["permuter.build"](plan) == {"swaps": len(plan.swap_list)}
    assert len(plan.swap_list) == 2
