"""Benchmark workloads: each one writes its program inputs from the benchmark seed.

The program under test sees only the files written here: an INP network,
optional hourly hydraulic CSVs, and a scenario config JSON.  Equal seeds give
byte-identical files.  Sizes are chosen so that one sweep process takes a few
seconds on a 2-core machine; README.md explains each choice.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from hydrolora import export_hydraulic_csv, read_inp, synthetic_wds
from hydrolora.hydraulics import HydraulicSeries
from hydrolora.rng import substream

PAPER_KS = (77, 96, 117, 140, 165)

# A fixed network, ROADMAP's 4419-node fixture; the benchmark seed varies the
# traffic and the hydraulic series.  The real 4419-node INP is not in the
# repository, so a synthetic one with its node and reservoir counts stands in.
PAPER_FIXTURE = dict(n_nodes=4419, n_reservoirs=3, seed=0)

# Simulated traffic per sweep.  The paper's horizon is 24 h; one hour keeps a
# sweep process within a few seconds, so a run can time several of them,
# while the event loop still dominates each simulation.
HORIZON_S = 3_600.0

# Hourly samples over one day, like an EPANET extended-period export.
HYDRAULIC_STEP_S = 3_600.0
HYDRAULIC_STEPS = 25

INP_NAME = "network.inp"
CONFIG_NAME = "config.json"
HYDRAULIC_NAMES = ("hydraulic_nodes.csv", "hydraulic_links.csv")


@dataclass(frozen=True)
class Inputs:
    """Generated inputs of one workload, as file names inside ``workdir``."""

    workload: str
    seed: int
    workdir: Path
    config: str
    inp: str
    hydraulic: tuple[str, str] | None
    gateway_counts: tuple[int, ...]
    strategies: tuple[str, ...]
    sim_seeds: tuple[int, ...]
    write_artifacts: bool

    @property
    def sims(self) -> list[tuple[int, str, int]]:
        """Every (K, strategy, seed) simulation, in sweep order."""
        return [(k, s, seed) for k in self.gateway_counts for s in self.strategies
                for seed in self.sim_seeds]


def _paper_sweep(seed: int) -> dict:
    return dict(
        inp_text=synthetic_wds(**PAPER_FIXTURE),
        gateway_counts=(96,),
        strategies=("regular_grid", "degree_centrality"),
        sim_seeds=(seed,),
        horizon_s=HORIZON_S,
        write_artifacts=True,
        hydraulic=False,
    )


def _placement_ingest(seed: int) -> dict:
    return dict(
        inp_text=synthetic_wds(**PAPER_FIXTURE),
        gateway_counts=(PAPER_KS[0],),
        strategies=("degree_centrality", "greedy_coverage"),
        sim_seeds=(seed,),
        horizon_s=0.0,
        write_artifacts=True,
        hydraulic=True,
    )


WORKLOADS = {
    "paper_sweep": _paper_sweep,
    "placement_ingest": _placement_ingest,
}


def hydraulic_series(inp_path, seed: int) -> HydraulicSeries:
    """Hourly pressure, demand and flow for every node and link of a network.

    Demands follow the INP base demands under a diurnal curve; each link
    carries a lognormal base flow of random sign under the same curve with
    5 % noise.  Values come from the benchmark seed only.
    """
    net = read_inp(inp_path)
    rng = substream(seed, "perfbench", "hydraulics")
    times = np.arange(HYDRAULIC_STEPS) * HYDRAULIC_STEP_S
    diurnal = 1.0 + 0.35 * np.sin(2.0 * math.pi * (times / 86_400.0 - 0.25))
    n, m = net.node_count, len(net.links)
    head = rng.uniform(35.0, 65.0, size=n)
    pressure = head[:, None] - 4.0 * diurnal[None, :]
    demand = net.demands()[:, None] * diurnal[None, :]
    base_flow = rng.lognormal(0.0, 1.0, size=m) * rng.choice([-1.0, 1.0], size=m)
    flow = base_flow[:, None] * diurnal[None, :] * (1.0 + 0.05 * rng.standard_normal((m, HYDRAULIC_STEPS)))
    node_ids = [node.id for node in net.nodes]
    link_ids = [link.id for link in net.links]
    return HydraulicSeries(
        timestamps=times,
        pressure=dict(zip(node_ids, pressure)),
        demand=dict(zip(node_ids, demand)),
        flow=dict(zip(link_ids, flow)),
        node_flow=np.zeros(n),
    )


def generate(workload: str, seed: int, workdir) -> Inputs:
    """Write the inputs of ``workload`` for ``seed`` into ``workdir``."""
    spec = WORKLOADS[workload](seed)
    workdir = Path(workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    (workdir / INP_NAME).write_text(spec["inp_text"], encoding="utf-8")
    config = {
        "inp_path": INP_NAME,
        "name": workload,
        "output_dir": "out",
        "gateway_counts": list(spec["gateway_counts"]),
        "strategies": list(spec["strategies"]),
        "seeds": list(spec["sim_seeds"]),
        "horizon_s": spec["horizon_s"],
        "write_artifacts": spec["write_artifacts"],
    }
    hydraulic = None
    if spec["hydraulic"]:
        hydraulic = HYDRAULIC_NAMES
        export_hydraulic_csv(hydraulic_series(workdir / INP_NAME, seed),
                             workdir / hydraulic[0], workdir / hydraulic[1])
        config["hydraulic_node_csv"], config["hydraulic_link_csv"] = hydraulic
    (workdir / CONFIG_NAME).write_text(json.dumps(config, indent=2, sort_keys=True) + "\n",
                                       encoding="utf-8")
    return Inputs(
        workload=workload, seed=seed, workdir=workdir, config=CONFIG_NAME, inp=INP_NAME,
        hydraulic=hydraulic, gateway_counts=tuple(spec["gateway_counts"]),
        strategies=tuple(spec["strategies"]), sim_seeds=tuple(spec["sim_seeds"]),
        write_artifacts=spec["write_artifacts"],
    )
