"""Memory bounds of the stages that set the benchmarks' peaks.

Each stage runs in a fresh process, which reads its resident size
(``VmRSS``) before the stage and its high-water mark (``VmHWM``) after it
from ``/proc/self/status``.  The difference is what the stage held at its
peak above what was resident going in: its result and its transients.

- Radius neighbour lists of the 4419-node network at 1000 m: 2.8 M pairs,
  an 11 MB int32 result.  Built with one global sort of int64 pair keys the
  rise here was 63 MB; built a block of rows at a time, with the blocks and
  their concatenation live together, 25 MB; with each block written into
  one result array, 17 MB.
- Ingest of a 25-step hydraulic series of the same network, 9 MB of CSV,
  with "\n" and with "\r\n" line ends.  Split into fields all at once the
  rise was 51 MB for either; 1 MiB of bytes at a time, split by ``str.split``
  and parsed by ``float``, 19 to 22 MB for both; 64 KiB at a time, parsed
  by ``np.loadtxt`` into growing ``array`` columns, it is 13.5 MB for both
  (15.4 MB with 256 KiB blocks whose columns were concatenated at the end).
  When CRLF text still went through a whole-file ``csv.reader`` pass, its
  rise was 60 MB.
- Traffic of the same network's 4419 devices over 1 h (poisson, 300 s mean,
  SF7 duty-cycle floor): 52 895 uplinks, a 1.2 MiB result.  With the round
  arrays of every active device (N x 256 each) live at once the rise here
  was 38 MB; walking the devices 256 at a time it is 4.0 to 5.0 MB.
- One 1 h simulation of the same network at K = 96 on a regular grid, plus
  the export of its CSVs: 52 895 uplinks.  The rise here was 17.5 MB while
  the simulator held several copies of its per-uplink and N x K arrays and
  the export formatted 65 536 rows at a time; it was 11.6 MB, and with the
  run's traffic kept in a private store, its start times formatted into it
  as bytes, it is 12.2 MB.
- Two such runs, the grid and then weighted k-means, each exported, through
  one traffic store, as a sweep runs them: 15.1 MB with both placements.
  The second run draws and formats nothing (every device is SF7 under both
  layouts), and the store holds 52 895 uplinks at 27 bytes each (1.4 MB),
  where a private store per run rises 13.9 MB.

- A regular grid of 4 000 037 gateways (a prime K: one row of cells) over
  a 3000 m x 2000 m box, as a library caller may ask for it: 64 MB of
  positions.  Built as one ``(x, y)`` tuple per gateway the rise was 516 MB;
  filled into one (K, 2) array it is about 92 MB.

``read_inp`` of the same network (395 kB of INP text) is measured by what
it leaves resident, in a process that has parsed nothing before: the
network keeps about 0.9 MB of objects, but the arenas they pin stay too.
With a tuple of token strings per row the rise was 9.4 MB; with one string
per row, split once while the network is built, it is 6.1 MB.
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from hydrolora import HydraulicSeries, build_network, export_hydraulic_csv, synthetic_wds, tokenize_inp

ROOT = Path(__file__).resolve().parent.parent
PAPER_FIXTURE = dict(n_nodes=4419, n_reservoirs=3, seed=0)
NEIGHBOURS_MAX_MB = 20.0
INGEST_MAX_MB = 17.0
TRAFFIC_MAX_MB = 16.0
READ_INP_MAX_MB = 8.0
SIMULATION_MAX_MB = 13.0
SHARED_STORE_MAX_MB = 17.0
GRID_MAX_MB = 130.0

STATUS = """\
def status(field):
    with open("/proc/self/status") as handle:
        return next(int(line.split()[1]) for line in handle if line.startswith(field + ":")) / 1024

"""
# The stage's high-water mark above what was resident after the fixture was parsed.
STAGE = STATUS + """\
import numpy as np
from hydrolora import (EnergyModel, RadioConfig, TrafficStore, airtime, build_network, degree_centrality_deploy,
                       export_wireless_csv, ingest_hydraulic_csv, regular_grid_deploy, simulate, synthetic_wds,
                       tokenize_inp)
from hydrolora.placement import _radius_neighbours
from hydrolora.sim import TrafficModel, _traffic

net = build_network(tokenize_inp(synthetic_wds(**{fixture!r})))
xy = net.coordinates()
uplink_s = airtime(7, RadioConfig())  # every device at SF7, as on the paper fixture
min_gap = np.full(net.node_count, uplink_s / RadioConfig().duty_cycle_limit)
energy = EnergyModel()
max_sends = np.full(net.node_count, int(energy.initial_battery_j // energy.uplink_energy_j(14.0, uplink_s)))
before = status("VmRSS")
{stage}
print(status("VmHWM") - before)
"""
# What the stage leaves resident when it is the first thing the process does.
RESIDENT = STATUS + """\
from hydrolora import read_inp

before = status("VmRSS")
{stage}
print(status("VmRSS") - before)
"""

pytestmark = pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="reads /proc/self/status")


def start(stage: str, script: str = STAGE) -> subprocess.Popen:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.Popen([sys.executable, "-c", script.format(fixture=PAPER_FIXTURE, stage=stage)],
                            env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)


def rise_mb(process: subprocess.Popen) -> float:
    try:
        out, err = process.communicate(timeout=120)
    finally:
        process.kill()  # a no-op once it has exited
    assert process.returncode == 0, err
    return float(out)


def test_neighbour_lists_and_ingest_stay_within_their_memory_bounds(tmp_path):
    neighbours = start("result = _radius_neighbours(xy, 1000.0)")  # runs while the CSVs are written

    net = build_network(tokenize_inp(synthetic_wds(**PAPER_FIXTURE)))
    rng = np.random.default_rng(0)
    steps, node_ids, link_ids = 25, net.nodes.id.tolist(), net.links.id.tolist()
    series = HydraulicSeries(
        timestamps=np.arange(steps) * 3600.0,
        pressure=dict(zip(node_ids, rng.uniform(35.0, 65.0, (len(node_ids), steps)))),
        demand=dict(zip(node_ids, rng.uniform(0.0, 2.0, (len(node_ids), steps)))),
        flow=dict(zip(link_ids, rng.normal(0.0, 3.0, (len(link_ids), steps)))),
        node_flow=np.zeros(len(node_ids)),
    )
    node_csv, link_csv = tmp_path / "nodes.csv", tmp_path / "links.csv"
    export_hydraulic_csv(series, node_csv, link_csv)
    ingests = [start(f"result = ingest_hydraulic_csv({str(node_csv)!r}, {str(link_csv)!r}, net)")]
    crlf_node_csv, crlf_link_csv = tmp_path / "crlf_nodes.csv", tmp_path / "crlf_links.csv"
    crlf_node_csv.write_bytes(node_csv.read_bytes().replace(b"\n", b"\r\n"))
    crlf_link_csv.write_bytes(link_csv.read_bytes().replace(b"\n", b"\r\n"))
    ingests.append(start(f"result = ingest_hydraulic_csv({str(crlf_node_csv)!r}, {str(crlf_link_csv)!r}, net)"))

    assert rise_mb(neighbours) <= NEIGHBOURS_MAX_MB
    rises = [rise_mb(ingest) for ingest in ingests]
    assert max(rises) <= INGEST_MAX_MB, rises


def test_traffic_stays_within_its_memory_bound():
    traffic = start("result = _traffic(10, TrafficModel(), 3, min_gap, max_sends, 3600.0)")
    assert rise_mb(traffic) <= TRAFFIC_MAX_MB


def test_read_inp_leaves_little_resident(tmp_path):
    inp = tmp_path / "network.inp"
    inp.write_text(synthetic_wds(**PAPER_FIXTURE), encoding="utf-8")
    assert rise_mb(start(f"net = read_inp({str(inp)!r})", RESIDENT)) <= READ_INP_MAX_MB


def test_simulation_and_export_stay_within_their_memory_bound(tmp_path):
    simulation = start("result = simulate(net, regular_grid_deploy(96, net.bbox), horizon_s=3600.0, seed=10)\n"
                       f"export_wireless_csv(result, {str(tmp_path)!r})")
    assert rise_mb(simulation) <= SIMULATION_MAX_MB


def test_runs_sharing_a_traffic_store_stay_within_their_memory_bound(tmp_path):
    runs = start(f"""\
layouts = [regular_grid_deploy(96, net.bbox), degree_centrality_deploy(96, xy, np.ones(net.node_count))]
store = TrafficStore()
for layout in layouts:
    export_wireless_csv(simulate(net, layout, horizon_s=3600.0, seed=10, store=store), {str(tmp_path)!r})""")
    assert rise_mb(runs) <= SHARED_STORE_MAX_MB


def test_grid_of_millions_of_gateways_stays_within_its_memory_bound():
    grid = start("result = regular_grid_deploy(4_000_037, (0.0, 0.0, 3000.0, 2000.0))")
    assert rise_mb(grid) <= GRID_MAX_MB
