import multiprocessing
import os

import pytest

import parqc.pipeline
from parqc.circuit import write_qasm
from parqc.cli import EXIT_ROUTE, main
from parqc.densitygen import DensitySpec, generate_with_density


@pytest.mark.skipif(
    multiprocessing.get_start_method() != "fork",
    reason="workers only see the patched route under the fork start method",
)
def test_dying_worker_exits_with_routing_code(monkeypatch, tmp_path, capsys):
    real_route = parqc.pipeline.route

    def dying_route(circuit, *args, **kwargs):
        if circuit.name == "chunk1":
            os._exit(3)
        return real_route(circuit, *args, **kwargs)

    monkeypatch.setattr(parqc.pipeline, "route", dying_route)
    monkeypatch.delenv(parqc.pipeline.MAX_WORKERS_ENV, raising=False)
    src = tmp_path / "in.qasm"
    write_qasm(generate_with_density(DensitySpec(width=6, depth=10, seed=0)), src)
    assert main(["compile", str(src), "--n-sc", "2", "-o", str(tmp_path / "out.qasm")]) == EXIT_ROUTE
    assert "routing error: a worker process died" in capsys.readouterr().err
