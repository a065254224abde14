"""Traced run of ``hydrolora sweep``.

Runs ``hydrolora sweep --config <config> --out <dir>`` in this process, after
replacing each function that ``hydrolora.orchestrator`` calls into another
layer with a wrapper that puts a span around the call.  ``run_scenario``
itself is the program's own, so this run writes the same files and prints the
same table as an untraced sweep, and its tree can be byte-compared with one.
Spans (name, start, end, parent), counters taken from the wrapped calls'
return values and per-simulation output checks stay in memory and are written
as JSON to ``--spans`` at the end.

Around each ``simulate`` call it also probes ``link_rssi_matrix`` and
``smallest_feasible_sf`` on the simulation's device and gateway inputs (spans
``lora.*``).  ``simulate`` makes these calls internally; the probes time them
from outside and check that they agree with the simulation.

Usage (with ``src`` on PYTHONPATH)::

    python3 perfbench/replay.py --config config.json --out traced --spans spans.json
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np

import hydrolora.orchestrator as orchestrator
from hydrolora import cli, link_rssi_matrix, smallest_feasible_sf
from hydrolora.rng import substream

# Globals of hydrolora.orchestrator -> span name.  ``place`` and ``simulate``
# get wrappers of their own below.
SPANS = {
    "read_inp": "inp.read",
    "build_adjacency": "graph.adjacency",
    "graph_stats": "graph.stats",
    "degree_centrality": "graph.centrality",
    "flow_proxy": "hydraulics.flow",
    "ingest_hydraulic_csv": "hydraulics.flow",
    "placement_weights": "hydraulics.weights",
    "export_gateways_csv": "placement.export",
    "export_wireless_csv": "sim.export",
    "export_comparison": "orchestrator.export_comparison",
}

PLACEMENT_SPANS = {
    "regular_grid": "placement.grid",
    "degree_centrality": "placement.kmeans",
    "greedy_coverage": "placement.greedy",
}

# Counters read from a wrapped call's return value.
COUNTERS = {
    "read_inp": lambda net: {"inp.nodes": net.node_count, "inp.links": len(net.links)},
    "build_adjacency": lambda adj: {"graph.edges": adj.edge_count},
    "ingest_hydraulic_csv": lambda series: {
        "hydraulics.ingest_rows": len(series.timestamps) * (len(series.pressure) + len(series.flow))},
    "export_wireless_csv": lambda paths: {
        "sim.export_bytes": sum(path.stat().st_size for path in paths.values())},
}


class Tracer:
    """Spans and counters kept in memory; ``main`` writes them out at the end."""

    def __init__(self):
        self.spans: list[dict] = []
        self.counters: dict[str, int] = {}
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        record = {"id": len(self.spans), "name": name,
                  "parent": self._open[-1] if self._open else None,
                  "start": time.perf_counter(), "end": None}
        self.spans.append(record)
        self._open.append(record["id"])
        try:
            yield
        finally:
            record["end"] = time.perf_counter()
            self._open.pop()

    def count(self, name: str, amount: int) -> None:
        self.counters[name] = self.counters.get(name, 0) + int(amount)


def check_simulation(result, probe_rssi, probe_sf) -> list[str]:
    """Output checks on one traced simulation; returns the failures."""
    problems = []
    for dev in result.devices:
        if dev.sent != dev.delivered + dev.lost_no_coverage + dev.lost_collision:
            problems.append(f"device {dev.id}: sent != delivered + lost_no_coverage + lost_collision")
            break
    if result.energy.total_j != sum(dev.energy_j for dev in result.devices):
        problems.append("energy.total_j != sum of per-device energy")
    if not np.array_equal(probe_rssi, result.link_rssi_dbm):
        problems.append("link_rssi_matrix probe differs from the simulation's link budget")
    if not np.array_equal(probe_sf, result.features.sf_per_device):
        problems.append("smallest_feasible_sf probe differs from the simulation's SFs")
    return problems


def instrument(tracer: Tracer) -> list[dict]:
    """Wrap the orchestrator's calls into other layers with spans.

    Returns the list that receives one record per simulation, in sweep order:
    its K, strategy and seed, and the failures of ``check_simulation``.
    """
    sims: list[dict] = []
    combo: dict = {}

    def traced(span_name, fn, counters=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with tracer.span(span_name):
                value = fn(*args, **kwargs)
            for name, amount in (counters(value) if counters else {}).items():
                tracer.count(name, amount)
            return value
        return wrapper

    for name, span_name in SPANS.items():
        setattr(orchestrator, name, traced(span_name, getattr(orchestrator, name), COUNTERS.get(name)))

    place = orchestrator.place

    @functools.wraps(place)
    def traced_place(strategy, k, **kwargs):
        combo.update(k=k, strategy=strategy)
        tracer.count("placement.calls", 1)
        with tracer.span(PLACEMENT_SPANS[strategy]):
            return place(strategy, k, **kwargs)

    simulate = orchestrator.simulate

    @functools.wraps(simulate)
    def traced_simulate(net, gateways, radio, energy, *, seed, propagation, **kwargs):
        device_xy = net.coordinates()
        gateway_xy = np.atleast_2d(np.asarray(gateways.positions, dtype=np.float64))
        with tracer.span("lora.link_rssi"):
            shadowing = None
            if propagation.shadowing_sigma_db > 0:
                shadowing = substream(seed, "shadowing").normal(
                    0.0, propagation.shadowing_sigma_db, size=(len(device_xy), len(gateway_xy)))
            probe_rssi = link_rssi_matrix(device_xy, gateway_xy, radio, propagation, shadowing)
        with tracer.span("lora.sf_assign"):
            probe_sf = [smallest_feasible_sf(float(v), radio)[0] for v in probe_rssi.max(axis=1)]
        with tracer.span("sim.simulate"):
            result = simulate(net, gateways, radio, energy, seed=seed, propagation=propagation,
                              **kwargs)
        features = result.features
        tracer.count("sim.uplinks", features.sent)
        tracer.count("sim.delivered", features.delivered)
        tracer.count("sim.collided", features.lost_collision)
        tracer.count("sim.no_coverage", features.lost_no_coverage)
        sims.append({**combo, "seed": seed,
                     "problems": check_simulation(result, probe_rssi, probe_sf)})
        return result

    orchestrator.place = traced_place
    orchestrator.simulate = traced_simulate
    return sims


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--config", required=True, help="scenario config JSON")
    parser.add_argument("--out", required=True, help="output directory (overrides output_dir)")
    parser.add_argument("--spans", required=True, help="where to write spans, counters and checks")
    args = parser.parse_args(argv)

    tracer = Tracer()
    sims = instrument(tracer)
    code = cli.main(["sweep", "--config", args.config, "--out", args.out])
    Path(args.spans).write_text(json.dumps({"spans": tracer.spans, "counters": tracer.counters,
                                            "sims": sims}) + "\n", encoding="utf-8")
    return code


if __name__ == "__main__":
    sys.exit(main())
