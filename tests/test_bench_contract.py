"""The benchmark's traced replay patches globals of ``hydrolora.orchestrator``.

``perfbench/replay.py`` replaces each name in its ``SPANS`` table, plus
``place`` and ``simulate``, with a span-timing wrapper.  A wrapper only sees
the calls the orchestrator makes through that module global, so every such
name must stay a callable global that the orchestrator's code reads.  Its
``simulate`` wrapper unpacks ``(net, gateways, radio, energy, *, seed,
propagation)``, passes every other keyword through (the sweep's traffic
store among them), and reads the result: per-device rows, SFs, totals,
energy and the link budget, checked against its own ``lora`` probes.  It
labels each simulation with the K and strategy of the latest ``place``
call, and reads the gateways as ``np.asarray(gateways.positions,
dtype=np.float64)``, which every strategy's (K, 2) array already is.

``perfbench/workloads.py`` writes the benchmark's inputs: its hydraulic
series reads the network's node and link ids and base demands.
"""

import dis
import importlib.util
import sys
import types
from pathlib import Path

import numpy as np
import pytest

import hydrolora.orchestrator as orchestrator
from hydrolora import EnergyModel, GatewaySet, PropagationModel, RadioConfig, place, read_inp, synthetic_wds
from hydrolora.placement import STRATEGIES
from tests.conftest import CHAIN_INP, make_network

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def load_perfbench(name: str) -> types.ModuleType:
    """A module of ``perfbench/`` loaded by path, as the benchmark runs it."""
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)  # dataclasses look it up
    spec.loader.exec_module(module)
    return module


def load_replay():
    return load_perfbench("replay")


def globals_loaded(code: types.CodeType) -> set[str]:
    """Names that ``code`` or any code nested in it loads as globals."""
    names = {ins.argval for ins in dis.get_instructions(code) if ins.opname == "LOAD_GLOBAL"}
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            names |= globals_loaded(const)
    return names


def test_replay_patches_callable_orchestrator_globals():
    replay = load_replay()
    patched = set(replay.SPANS) | {"place", "simulate"}
    source = Path(orchestrator.__file__).read_text(encoding="utf-8")
    loaded = globals_loaded(compile(source, orchestrator.__file__, "exec"))
    for name in sorted(patched):
        assert callable(vars(orchestrator).get(name)), name
        assert name in loaded, name


def test_replay_checks_pass_on_a_simulation(monkeypatch):
    replay = load_replay()
    for name in [*replay.SPANS, "place", "simulate"]:  # restored after the test
        monkeypatch.setattr(orchestrator, name, getattr(orchestrator, name))
    sims = replay.instrument(replay.Tracer())
    net = make_network(12, [(i, i + 1) for i in range(1, 12)],
                       coords={i: (i * 400.0, (i % 4) * 700.0) for i in range(1, 13)})
    gateways = GatewaySet(positions=np.array([(1000.0, 500.0), (3500.0, 1500.0)]), strategy="test", k=2,
                          provenance={})
    result = orchestrator.simulate(net, gateways, RadioConfig(), EnergyModel(), seed=3, horizon_s=3600.0,
                                   propagation=PropagationModel(shadowing_sigma_db=6.0))
    assert result.features.sent > 0 and len(set(result.features.sf_per_device.tolist())) > 1
    assert [sim["problems"] for sim in sims] == [[]]


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_place_returns_the_array_the_replay_reads(strategy):
    net = make_network(12, [(i, i + 1) for i in range(1, 12)],
                       coords={i: (i * 400.0, (i % 4) * 700.0) for i in range(1, 13)})
    positions = place(strategy, 3, bbox=net.bbox, node_xy=net.coordinates(), weights=np.ones(12)).positions
    assert type(positions) is np.ndarray and positions.shape == (3, 2) and positions.dtype == np.float64
    assert positions.flags.c_contiguous
    assert np.atleast_2d(np.asarray(positions, dtype=np.float64)) is positions


def test_replay_traces_every_simulation_of_a_sweep(monkeypatch, tmp_path):
    """The replay unpacks ``simulate(net, gateways, radio, energy, *, seed=,
    propagation=, **rest)``; the sweep's traffic store must pass through it."""
    replay = load_replay()
    for name in [*replay.SPANS, "place", "simulate"]:  # restored after the test
        monkeypatch.setattr(orchestrator, name, getattr(orchestrator, name))
    simulate, stores = orchestrator.simulate, []

    def recording_simulate(*args, store, **kwargs):
        stores.append(store)
        return simulate(*args, store=store, **kwargs)

    monkeypatch.setattr(orchestrator, "simulate", recording_simulate)
    sims = replay.instrument(replay.Tracer())
    inp = tmp_path / "net.inp"
    inp.write_text(synthetic_wds(30, 2, seed=5))
    result = orchestrator.run_scenario(orchestrator.ScenarioConfig(
        inp_path=str(inp), gateway_counts=(2, 3), strategies=("regular_grid", "degree_centrality"), seeds=(4,),
        horizon_s=1800.0, write_artifacts=False))
    assert sims == [{"k": run.k, "strategy": run.strategy, "seed": 4, "problems": []} for run in result.runs]
    assert [(sim["k"], sim["strategy"]) for sim in sims] == [
        (2, "regular_grid"), (2, "degree_centrality"), (3, "regular_grid"), (3, "degree_centrality")]
    assert len(stores) == 4 and all(store is stores[0] for store in stores) and len(stores[0]) > 0


def test_workload_generator_reads_the_network_tables(tmp_path):
    workloads = load_perfbench("workloads")
    inp = tmp_path / "chain.inp"
    inp.write_text(CHAIN_INP)
    series = workloads.hydraulic_series(inp, seed=4)
    steps = (workloads.HYDRAULIC_STEPS,)
    assert series.timestamps.shape == steps
    assert list(series.pressure) == list(series.demand) == ["R1", "J1", "J2"]
    assert list(series.flow) == ["P1", "P2"]
    for column in (series.pressure, series.demand, series.flow):
        assert all(values.shape == steps for values in column.values())
    # Demands follow the base demands (R1 0, J1 1, J2 2) under one diurnal curve.
    assert not series.demand["R1"].any()
    assert series.demand["J2"].tolist() == (2.0 * series.demand["J1"]).tolist()
    assert series.node_flow.shape == (3,)
    counters = load_replay().COUNTERS["read_inp"](read_inp(inp))
    assert counters == {"inp.nodes": 3, "inp.links": 2}
