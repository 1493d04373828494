"""Tests of the benchmark's tracer and harness on a tiny configuration."""

import itertools
import json

import heatflux
import heatflux.cli
from perfbench import run
from perfbench.layers import PER_LAYER, layer_metrics
from perfbench.reference import ReferenceProbe
from perfbench.tracer import LAYERS, MARCHES, Instrumentation, Tracer
from perfbench.workloads import NOT_BENCHMARKED, WORKLOADS, Workload

TINY = (
    "domain.T = 4.0",
    "grids.sim.nx = 41",
    "grids.sim.nt = 400",
    "grids.inv.nx = 31",
    "grids.inv.nt = 240",
    "partition.n = 8",
    "sensors.positions = 0.01, 0.025, 0.04",
    "sensors.sample_interval = 0.2",
    "optimizer.max_iter = 12",
)

MODULES = {name: getattr(heatflux, name) for name in LAYERS}
NAMESPACES = [heatflux, *MODULES.values()]


def _runner(tmp_path, command):
    work = tmp_path / command
    work.mkdir()
    return run.Runner(Workload("tiny", command, TINY), 7, work)


def test_self_time_subtracts_child_spans():
    ticks = itertools.count()
    tracer = Tracer(clock=lambda: float(next(ticks)))

    inner = tracer.wrap(lambda: None, "inner")

    def body():
        inner()
        inner()

    outer = tracer.wrap(body, "outer")
    outer()
    spans = tracer.spans()
    # Clock reads: outer opens at 0, inner at 1..2 and 3..4, outer closes at 5.
    assert spans.total("outer") == 5.0
    assert spans.total("inner") == 2.0
    assert spans.self_total("outer") == 3.0
    assert spans.self_total("inner") == 2.0
    assert list(spans.parent) == [-1, 0, 0]
    sub = spans.slice(1, 3)
    assert list(sub.parent) == [-1, -1]
    assert sub.self_total("inner") == 2.0


def test_reference_probe_runs_once_per_period():
    now = [0.0]
    probe = ReferenceProbe(period=1.0, steps=3, clock=lambda: now[0])
    probe.maybe_run()
    assert len(probe.samples) == 0
    now[0] = 1.0
    probe.maybe_run()
    probe.maybe_run()
    assert len(probe.samples) == 1
    now[0] = 1.5
    probe.maybe_run()
    assert len(probe.samples) == 1
    probe.run()
    assert len(probe.samples) == 2


def test_traced_gradcheck_counts_every_solve(tmp_path):
    runner = _runner(tmp_path, "gradcheck")
    tracer = Tracer()
    with Instrumentation(tracer, MODULES, NAMESPACES) as inst:
        assert "heatflux.cli.solve_ibvp" in inst.bindings
        assert "heatflux.adjoint.solve_ibvp" in inst.bindings
        it = runner.iteration(tmp_path / "out", tracer)
    spans = tracer.spans().slice(*it["spans"])
    dim = 2 * runner.cfg.n
    assert spans.count("forward.solve_ibvp") == 2 * dim + 12
    assert spans.count("adjoint.solve_adjoint") == 1
    metrics = layer_metrics(spans, it["counters"], 0)
    assert metrics["forward.solve_ibvp.calls"] == 2 * dim + 12
    assert metrics["forward.solve_ibvp.us_per_step"] > metrics["forward.solve_ibvp.self_us_per_step"] > 0
    assert runner.problems == []


def test_attributes_restored_after_tracing(tmp_path):
    before = {(ns, a): obj for ns in NAMESPACES for a, obj in vars(ns).items()}
    runner = _runner(tmp_path, "invert")
    with Instrumentation(Tracer(), MODULES, NAMESPACES):
        runner.iteration(tmp_path / "out", Tracer())
    assert all(getattr(ns, a) is obj for (ns, a), obj in before.items())


def test_traced_and_untraced_outputs_are_identical(tmp_path):
    runner = _runner(tmp_path, "invert")
    base = Tracer()
    probe = ReferenceProbe(period=0.0, steps=5)
    with Instrumentation(base, MODULES, NAMESPACES, only=MARCHES, after=probe.maybe_run):
        plain = runner.iteration(tmp_path / "plain", base, probe)
    # One probe before the timed command, one after it, and one after each
    # of its marches, since the period is 0.
    marches = base.spans().slice(*plain["spans"])
    solves = marches.count("forward.solve_ibvp") + marches.count("adjoint.solve_adjoint")
    assert len(plain["probe_s"]) == solves + 2
    tracer = Tracer()
    with Instrumentation(tracer, MODULES, NAMESPACES):
        traced = runner.iteration(tmp_path / "traced", tracer)
    assert plain["digest"] == traced["digest"]
    assert runner.problems == []
    spans = tracer.spans().slice(*traced["spans"])
    assert spans.count("optimizer.problem.gradient") >= 1
    assert spans.count("optimizer.problem.objective") >= 1


def test_refuses_to_run_without_sources(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(run, "SRC", tmp_path / "src")
    assert run.main(["--workload", "gradcheck", "--seed", "7", "--seconds", "1"]) == 2
    assert capsys.readouterr().out == ""


def test_benchmark_json_matches_the_harness():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == [n for n in WORKLOADS if n not in NOT_BENCHMARKED]
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.E2E_UNITS
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == PER_LAYER
