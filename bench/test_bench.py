"""Tests of the benchmark's own accounting: self time from nested spans,
the percentile rule, and that failed checks are counted, never dropped."""

import json
import sys
from pathlib import Path

import pytest

import run
from tracing import LAYER_METRICS, GcWatch, Instrumentation, Tracer, layer_metrics

if str(run.SRC) not in sys.path:
    sys.path.insert(0, str(run.SRC))

import barnorm as bn  # noqa: E402
import barnorm.cli  # noqa: E402,F401
import barnorm.harness  # noqa: E402,F401

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


class FakeClock:
    def __init__(self, times):
        self.times = iter(times)

    def __call__(self):
        return next(self.times)


def test_self_time_subtracts_direct_children_only():
    # root [0, 10] > a [1, 4] > b [2, 3];  root > c [5, 9]
    tracer = Tracer(clock=FakeClock([0, 1, 2, 3, 4, 5, 9, 10]), keep_depth=1)
    tracer.enter("root")
    tracer.enter("a")
    tracer.enter("b")
    tracer.exit()
    tracer.exit()
    tracer.enter("c")
    tracer.exit()
    tracer.exit()
    assert dict(tracer.busy) == {"root": 3, "a": 2, "b": 1, "c": 4}
    assert sum(tracer.busy.values()) == 10
    # b is below keep_depth: counted in the totals, not kept as a span
    assert tracer.spans == [["root", 0, 10, -1], ["a", 1, 4, 0], ["c", 5, 9, 0]]


def test_p90_is_reported_only_from_100_operations():
    few = run.latency_summary([0.001 * i for i in range(1, 100)])
    assert "op_p90_ms" not in few
    assert few["samples"] == 99
    assert few["op_p50_ms"] == pytest.approx(50.0)
    many = run.latency_summary([0.001 * i for i in range(1, 101)])
    assert many["op_p90_ms"] == pytest.approx(90.9)
    assert many["samples"] == 100


@pytest.fixture
def in_process(monkeypatch, tmp_path):
    """Let :func:`run.measure` reuse the imported package in a scratch dir."""
    monkeypatch.setattr(run, "import_barnorm", lambda: bn)
    monkeypatch.setattr(run, "WORK_ROOT", tmp_path / "work")


def test_clean_suite_run_matches_pins_and_declared_metrics(in_process):
    result, record = run.measure("suite-all", 0, 0.0, trace=False)
    assert result["correct"] and result["failed"] == 0
    assert record["failed_frac"] == 0
    declared = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared


def test_false_identity_is_counted_as_failed(in_process, monkeypatch):
    # E(c) = c breaks c = E(c) + dB(c) + B(dc) for every chain with a nonzero
    # boundary term
    monkeypatch.setattr(bn.DiffusionOperator, "chain_map", lambda self, chain: chain)
    result, record = run.measure("homotopy", 0, 0.0, trace=False)
    assert result["attempted"] == 1
    assert result["failed"] == 1
    assert not result["correct"]
    assert record["failed_frac"] == 1.0


def test_changed_csv_byte_is_counted_as_failed(in_process, monkeypatch):
    write_csv = bn.cli.write_csv

    def corrupting(path, *args):
        write_csv(path, *args)
        if Path(path).name == "growth.csv":
            data = bytearray(Path(path).read_bytes())
            data[-2] ^= 1
            Path(path).write_bytes(bytes(data))

    monkeypatch.setattr(bn.cli, "write_csv", corrupting)
    result, record = run.measure("suite-all", 0, 0.0, trace=False)
    assert (result["attempted"], result["failed"]) == (1, 1)
    assert record["failed_frac"] == 1.0


def test_later_iteration_differing_from_the_first_is_failed(monkeypatch, tmp_path):
    write_csv = bn.cli.write_csv
    calls = []

    def corrupt_second_run(path, *args):
        write_csv(path, *args)
        if Path(path).name == "growth.csv":
            calls.append(path)
            if len(calls) == 2:
                Path(path).write_bytes(Path(path).read_bytes() + b"\n")

    monkeypatch.setattr(bn.cli, "write_csv", corrupt_second_run)
    workload = run.SuiteAll(bn, 1, tmp_path)
    workload.cli_seeds = range(52, 53)
    phase = run.closed_loop(workload.op, seconds=60, max_ops=3)
    assert phase.failed == 1
    assert len(phase.latencies) == 3


def test_tracing_restores_names_and_layer_times_fit_the_wall():
    original = bn.chains.boundary
    tracer = Tracer()
    workload = run.Homotopy(bn, 0, Path("."))
    diameter = workload.operator.model.diameter
    cheap = [c for c in workload.chains if diameter(c.support()[0]) <= 2]
    with GcWatch() as gc_watch, Instrumentation(tracer, bn):
        assert bn.diffusion.boundary is not original
        assert bn.boundary is bn.chains.boundary is bn.vanishing.boundary
        for chain in cheap[:3]:
            workload.chains = [chain]
            tracer.enter("bench.op")
            assert workload.op(0)
            tracer.exit()
    assert bn.chains.boundary is original
    assert bn.diffusion.boundary is original and bn.boundary is original
    wall = sum(end - start for _, start, end, parent in tracer.spans if parent < 0)
    metrics = layer_metrics(tracer, gc_watch, wall, 0.0)
    assert metrics["diffusion.cone.calls"]["value"] >= 3
    assert 0 < metrics["diffusion.cone.useful_ratio"]["value"] <= 1
    assert 0 <= metrics["trace.untimed_s"]["value"] <= wall


def test_declared_per_layer_metrics_match_the_tracer():
    assert [(m["name"], m["unit"], m["better"]) for m in BENCHMARK["per_layer"]] == \
        list(LAYER_METRICS)
