import dataclasses
import json
import shutil
import subprocess
import sys

import pytest

import run
from workloads import WORKLOADS

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
END_TO_END = [m["name"] for m in SPEC["end_to_end"]]


def tiny(name: str) -> list:
    """The workload's first cells, shrunk to a few hundred gates each."""
    return [dataclasses.replace(c, width=min(c.width, 10), depth=min(c.depth, 12))
            for c in WORKLOADS[name](seed=1)[:4]]


def test_metric_lists_match_benchmark_json():
    assert list(run.PER_LAYER) == [m["name"] for m in SPEC["per_layer"]]
    for m in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert run.unit(m["name"]) == m["unit"]
    assert sorted(w["name"] for w in SPEC["workloads"]) == sorted(WORKLOADS)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_tiny_workload_runs_end_to_end(name, tmp_path):
    record = run.run_workload(tiny(name), seconds=0, trace=False, workdir=tmp_path / "w")
    assert record["failed"] == 0 and record["attempted"] > 0
    assert list(record["end_to_end"]) == END_TO_END
    assert all(v > 0 for v in record["end_to_end"].values())
    assert record["stamp"]["nproc"] >= 1


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_tiny_workload_traced(name, tmp_path):
    record = run.run_workload(tiny(name), seconds=0, trace=True, workdir=tmp_path / "w")
    layers = record["per_layer"]
    assert record["failed"] == 0
    assert set(layers) == set(run.PER_LAYER)
    assert layers["cli.other_s"] >= 0
    assert layers["router.route_s"] > 0 and layers["circuit.format_calls"] > 0
    assert layers["verifier.simulate_calls"] == 2
    n_sc = tiny(name)[0].n_sc
    trace = json.loads((tmp_path / "w" / "trace.json").read_text())
    chunks = {e["name"] for e in trace["traceEvents"] if e["name"].startswith("chunk")}
    assert chunks == {f"chunk{i}" for i in range(n_sc)}
    if n_sc > 1:
        assert layers["permuter.swaps"] > 0
        worker_pids = {e["pid"] for e in trace["traceEvents"] if e["name"].startswith("chunk")}
        assert run.os.getpid() not in worker_pids


def test_swaps_and_depth_repeat_exactly(tmp_path):
    cells = tiny("small-batch")
    first = run.run_workload(cells, seconds=0, trace=False, workdir=tmp_path / "a")["end_to_end"]
    second = run.run_workload(cells, seconds=0, trace=False, workdir=tmp_path / "b")["end_to_end"]
    assert (first["swaps_out"], first["depth_out"]) == (second["swaps_out"], second["depth_out"])


def test_tail_is_p90_only_with_ten_samples_above_it():
    assert 89 < run.tail(list(range(100))) < 90
    assert run.tail(list(range(99))) == 98


def test_command_line_contract(tmp_path):
    """The result line in a checkout, and no result where parqc's source is missing."""
    for d in ("bench", "src"):
        shutil.copytree(run.ROOT / d, tmp_path / d, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    cmd = [sys.executable, *SPEC["command"][1:], "--workload", "small-batch", "--seed", "3",
           "--seconds", "0", "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    line = json.loads(proc.stdout.splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] and line["failed"] == 0
    assert list(line["metrics"]) == END_TO_END

    shutil.rmtree(tmp_path / "src")
    proc = subprocess.run(cmd, cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
