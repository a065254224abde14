"""Tests of the benchmark itself.  Run from the repository root::

    python3 -m pytest perfbench
"""

import json
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path[:0] = [str(BENCH_DIR), str(ROOT / "src")]

import run  # noqa: E402
import workloads  # noqa: E402
from hydrolora import export_hydraulic_csv, synthetic_wds  # noqa: E402

ENV = dict(os.environ, PYTHONPATH=str(ROOT / "src"))


def tiny_inputs(workdir: Path, write_artifacts: bool = True) -> "workloads.Inputs":
    """A seconds-long sweep touching every layer: ingest, all three
    strategies, two seeds, a short traffic horizon."""
    workdir.mkdir(parents=True, exist_ok=True)
    (workdir / "network.inp").write_text(synthetic_wds(n_nodes=60, n_clusters=3, seed=5))
    hydraulic = workloads.HYDRAULIC_NAMES
    export_hydraulic_csv(workloads.hydraulic_series(workdir / "network.inp", 5),
                         workdir / hydraulic[0], workdir / hydraulic[1])
    inputs = workloads.Inputs(
        workload="tiny", seed=5, workdir=workdir, config="config.json", inp="network.inp",
        hydraulic=hydraulic, gateway_counts=(2, 3),
        strategies=("regular_grid", "degree_centrality", "greedy_coverage"),
        sim_seeds=(1, 2), write_artifacts=write_artifacts)
    config = {"inp_path": inputs.inp, "name": inputs.workload, "output_dir": "out",
              "hydraulic_node_csv": hydraulic[0], "hydraulic_link_csv": hydraulic[1],
              "gateway_counts": list(inputs.gateway_counts), "strategies": list(inputs.strategies),
              "seeds": list(inputs.sim_seeds), "horizon_s": 900.0,
              "write_artifacts": write_artifacts}
    (workdir / inputs.config).write_text(json.dumps(config))
    return inputs


def sweep_and_replay(inputs):
    cli = [sys.executable, "-m", "hydrolora.cli", "sweep", "--config", inputs.config,
           "--out", "plain"]
    plain = subprocess.run(cli, cwd=inputs.workdir, env=ENV, capture_output=True, text=True)
    traced = subprocess.run([sys.executable, str(BENCH_DIR / "replay.py"), "--config",
                             inputs.config, "--out", "traced", "--spans", "spans.json"],
                            cwd=inputs.workdir, env=ENV, capture_output=True, text=True)
    assert plain.returncode == 0, plain.stderr
    assert traced.returncode == 0, traced.stderr
    return plain, traced, json.loads((inputs.workdir / "spans.json").read_text())


def test_same_seed_gives_byte_identical_inputs(tmp_path):
    names = (workloads.INP_NAME, *workloads.HYDRAULIC_NAMES, workloads.CONFIG_NAME)
    first = workloads.generate("placement_ingest", 3, tmp_path / "a")
    workloads.generate("placement_ingest", 3, tmp_path / "b")
    workloads.generate("placement_ingest", 4, tmp_path / "c")
    for name in names:
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes(), name
    assert (tmp_path / "a" / names[1]).read_bytes() != (tmp_path / "c" / names[1]).read_bytes()
    assert first.hydraulic == workloads.HYDRAULIC_NAMES
    assert sum((tmp_path / "a" / name).stat().st_size for name in names[1:3]) > 8_000_000


def test_seed_changes_the_simulation_seeds(tmp_path):
    one = workloads.generate("paper_sweep", 1, tmp_path / "a")
    two = workloads.generate("paper_sweep", 2, tmp_path / "b")
    assert one.sim_seeds != two.sim_seeds
    assert (tmp_path / "a" / "config.json").read_bytes() != (tmp_path / "b" / "config.json").read_bytes()


def test_replay_writes_the_sweep_tree_byte_for_byte(tmp_path):
    inputs = tiny_inputs(tmp_path)
    plain, traced, trace = sweep_and_replay(inputs)
    plain_tree = run.Tree.scan(tmp_path / "plain" / "tiny")
    assert len(plain_tree.files) == 3 + 6 + 12 * 3 + 2
    assert plain_tree.files == run.Tree.scan(tmp_path / "traced" / "tiny").files
    assert run.table_text(plain.stdout) == run.table_text(traced.stdout)
    assert [sim["problems"] for sim in trace["sims"]] == [[]] * len(inputs.sims)
    assert [(s["k"], s["strategy"], s["seed"]) for s in trace["sims"]] == inputs.sims
    assert {s["name"] for s in trace["spans"]} == set(run.LAYER_SPANS)
    assert run.check_artifacts(inputs, tmp_path / "plain" / "tiny") == {}


def test_replay_prints_the_sweep_table_without_artifacts(tmp_path):
    inputs = tiny_inputs(tmp_path, write_artifacts=False)
    plain, traced, _ = sweep_and_replay(inputs)
    assert plain.stdout == traced.stdout
    assert not (tmp_path / "plain").exists() and not (tmp_path / "traced").exists()


def test_output_checks_catch_tampered_artifacts(tmp_path):
    inputs = tiny_inputs(tmp_path)
    sweep_and_replay(inputs)
    tree = tmp_path / "plain" / "tiny"
    energy = tree / "run_k3_greedy_coverage_seed2" / "energy.csv"
    header, first, *rest = energy.read_text().splitlines(keepends=True)
    fields = first.split(",")
    fields[1] = str(int(fields[1]) + 1)  # one more uplink sent than accounted for
    energy.write_text("".join([header, ",".join(fields), *rest]))
    flagged = run.check_artifacts(inputs, tree)
    assert set(flagged) == {inputs.sims.index((3, "greedy_coverage", 2))}
    differing = run.Tree.scan(tree).differing(run.Tree.scan(tmp_path / "traced" / "tiny"))
    assert differing == ["run_k3_greedy_coverage_seed2/energy.csv"]
    assert run._implicated(inputs.sims, differing) == set(flagged)


@pytest.fixture(scope="module")
def measured(tmp_path_factory):
    inputs = tiny_inputs(tmp_path_factory.mktemp("measure"))
    return inputs, run.measure(inputs, ROOT, seconds=0.0, deadline=time.monotonic() + 600,
                               traced=True)


def test_printed_metric_names_match_benchmark_json(measured):
    inputs, result = measured
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert result["correct"], result["record"]["problems"]
    assert result["attempted"] == len(inputs.sims) and result["failed"] == 0
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        printed = run.result_line(result, trace)["metrics"]
        assert [(m["name"], m["unit"]) for m in spec[key]] == [
            (name, value["unit"]) for name, value in printed.items()]


def test_traced_accounting_adds_up(measured):
    _, result = measured
    layer = result["per_layer"]
    self_total = sum(layer[f"{name}_s"] for name in run.LAYER_SPANS)
    traced_wall = result["record"]["timings"]["traced_wall_s"]
    assert self_total + layer["orchestrator.unattributed_s"] == pytest.approx(traced_wall)
    assert result["end_to_end"]["sweep_s"] + layer["tracing_overhead_s"] == pytest.approx(traced_wall)


def test_a_child_is_killed_at_the_deadline(tmp_path):
    child = run.spawn([sys.executable, "-c", "import time; time.sleep(30)"], tmp_path, ENV,
                      time.monotonic() + 1.0, "sleeper")
    assert child.timed_out and child.returncode == -signal.SIGKILL and child.wall_s < 10
    assert run.fits(time.monotonic() + 10.0, 1.0) and not run.fits(time.monotonic() + 10.0, 10.0)


def test_work_cut_for_the_deadline_is_a_limit_not_a_failure(tmp_path, monkeypatch):
    inputs = tiny_inputs(tmp_path)
    monkeypatch.setattr(run, "fits", lambda deadline, expected_s: False)
    result = run.measure(inputs, ROOT, seconds=1e6, deadline=time.monotonic() + 600, traced=True)
    assert result["correct"] and result["failed"] == 0, result["record"]["problems"]
    assert result["attempted"] == len(inputs.sims)
    assert len(result["record"]["limits"]) == 2
    assert len(result["record"]["timings"]["traced_walls_s"]) == 1
    assert set(result["per_layer"]) == set(run.PER_LAYER)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    done = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "paper_sweep",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert done.returncode != 0
    assert done.stdout == ""
