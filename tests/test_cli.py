"""Command-line interface tests: happy paths, exit codes, help text."""

import contextlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import time
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hydrolora import export_hydraulic_csv, read_inp, synthetic_wds
from hydrolora.cli import STRATEGY_NAMES, build_parser, main
from hydrolora.hydraulics import HydraulicSeries
from tests.conftest import CHAIN_INP, TWO_NODE_INP


@pytest.fixture
def inp_file(tmp_path):
    path = tmp_path / "net.inp"
    path.write_text(synthetic_wds(30, 2, seed=3, area_m=(3000.0, 2000.0)))
    return path


@pytest.fixture
def config_file(tmp_path, inp_file):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps({
        "inp_path": str(inp_file),
        "name": "cli-test",
        "output_dir": str(tmp_path / "out"),
        "gateway_counts": [2, 3],
        "strategies": ["regular_grid", "degree_centrality"],
        "seeds": [1],
        "horizon_s": 900.0,
    }))
    return path


class TestParse:
    def test_summary_json(self, capsys, inp_file):
        assert main(["parse", str(inp_file)]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["nodes"] == 30
        assert summary["reservoirs"] == 2
        assert summary["pipes"] > 0

    def test_missing_file_domain_error(self, capsys, tmp_path):
        assert main(["parse", str(tmp_path / "absent.inp")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: FileNotFoundError:")

    def test_parse_error_category(self, capsys, tmp_path):
        bad = tmp_path / "bad.inp"
        bad.write_text("J1 100 5\n[JUNCTIONS]\n")
        assert main(["parse", str(bad)]) == 1
        assert "error: RowOutsideSection:" in capsys.readouterr().err

    @pytest.mark.parametrize("old,new,scale,category", [
        ("J2  100  0\n", "J2  nan  0\n", "1", "MalformedRow"),
        ("J1  100  5", "J1  100  inf", "1", "MalformedRow"),
        ("P1  J1  J2  100", "P1  J1  J2  Infinity", "1", "MalformedRow"),
        ("J2  100  0\n", "J2  1e300  0\n", "1e10", "MalformedRow"),
        ("", "", "nan", "ConfigError"),
        ("", "", "-2", "ConfigError"),
    ])
    def test_non_finite_inp_or_bad_scale_is_domain_error(self, capsys, tmp_path, old, new, scale, category):
        path = tmp_path / "bad.inp"
        path.write_text(TWO_NODE_INP.replace(old, new))
        assert main(["parse", str(path), "--scale", scale]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {category}: ") and err.count("\n") == 1


class TestGraph:
    def test_stats_json(self, capsys, inp_file):
        assert main(["graph", str(inp_file)]) == 0
        stats = json.loads(capsys.readouterr().out)
        assert stats["components"] == 1

    def test_csv_row_count_matches_nodes(self, capsys, inp_file, tmp_path):
        out = tmp_path / "centrality.csv"
        assert main(["graph", str(inp_file), "--csv", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "node_id,degree,centrality"
        assert len(lines) == 1 + 30

    def test_csv_to_stdout(self, capsys, inp_file):
        assert main(["graph", str(inp_file), "--csv", "-"]) == 0
        assert capsys.readouterr().out.startswith("node_id,degree,centrality\n")


class TestWeights:
    def test_stdout_csv(self, capsys, inp_file):
        assert main(["weights", str(inp_file), "--alpha", "0.7"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "node_id,centrality,flow,weight"
        assert len(lines) == 1 + 30

    def test_hydraulic_pair(self, capsys, tmp_path):
        inp = tmp_path / "chain.inp"
        inp.write_text(CHAIN_INP)
        nodes = tmp_path / "nodes.csv"
        nodes.write_text("time_s,node_id,pressure,demand\n0,J1,50,1\n")
        links = tmp_path / "links.csv"
        links.write_text("time_s,link_id,flow\n0,P1,10\n0,P2,4\n")
        assert main(["weights", str(inp), "--hydraulic", str(nodes), str(links)]) == 0
        out = capsys.readouterr().out
        assert "J1" in out and "R1" in out


    @pytest.mark.parametrize("row", ["0,J1,abc,1", "0,J1", "0,J1,nan,1", "0,J1,50,inf"])
    def test_malformed_hydraulic_row_is_schema_mismatch(self, capsys, tmp_path, row):
        inp = tmp_path / "chain.inp"
        inp.write_text(CHAIN_INP)
        nodes = tmp_path / "nodes.csv"
        nodes.write_text(f"time_s,node_id,pressure,demand\n{row}\n")
        links = tmp_path / "links.csv"
        links.write_text("time_s,link_id,flow\n0,P1,10\n0,P2,4\n")
        assert main(["weights", str(inp), "--hydraulic", str(nodes), str(links)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: SchemaMismatch: {nodes}, line 2: ")
        assert captured.err.count("\n") == 1

    @pytest.mark.parametrize("route", ["ingest", "proxy"])
    @pytest.mark.parametrize("argv", [["weights"], ["place", "--k", "2", "--strategy", "greedy"],
                                      ["place", "--k", "2", "--strategy", "centrality"]])
    def test_overflowing_flow_is_one_error_line(self, capsys, tmp_path, route, argv):
        """Flows summed past the float range are rejected before any weight is
        made of them, without a numpy warning."""
        inp = tmp_path / "chain.inp"
        nodes, links = tmp_path / "nodes.csv", tmp_path / "links.csv"
        if route == "ingest":  # J1 sums the flows of P1 and P2
            inp.write_text(CHAIN_INP)
            nodes.write_text("time_s,node_id,pressure,demand\n0,J1,50,1\n")
            links.write_text("time_s,link_id,flow\n0,P1,1e308\n0,P2,1e308\n")
            argv = [argv[0], str(inp), *argv[1:], "--hydraulic", str(nodes), str(links)]
            first = "J1"
        else:  # J2's demand reaches R1 through J1
            inp.write_text(CHAIN_INP.replace("J1  100  1", "J1  100  1e308").replace("J2  95   2", "J2  95   1e308"))
            argv = [argv[0], str(inp), *argv[1:]]
            first = "R1"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: NonFiniteFlow: flow at node {first!r} is not finite: inf\n"


@pytest.mark.parametrize("argv", [["place", "{inp}", "--k", "3", "--strategy", "centrality"],
                                  ["place", "{inp}", "--k", "3", "--strategy", "grid"],
                                  ["simulate", "--config", "{config}"]])
def test_overflowing_squared_extent_is_one_error_line(capsys, tmp_path, argv):
    """Node J0005 at x = 1e200: every coordinate is finite, but squared
    distances across the network would overflow, so the network is rejected."""
    head, coordinates = synthetic_wds(30, 2, seed=3, area_m=(3000.0, 2000.0)).split("[COORDINATES]")
    _, x, _ = next(line.split() for line in coordinates.splitlines() if line.split()[:1] == ["J0005"])
    inp = tmp_path / "net.inp"
    inp.write_text(head + "[COORDINATES]" + coordinates.replace(f" J0005  {x} ", " J0005  1e200 "))
    assert read_inp(inp, coordinate_scale=1e-100).node_count == 30  # valid once the extent is smaller
    config = tmp_path / "scenario.json"
    config.write_text(json.dumps({"inp_path": str(inp), "name": "x", "output_dir": str(tmp_path / "out"),
                                  "gateway_counts": [3], "strategies": ["degree_centrality"], "horizon_s": 900.0}))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main([arg.format(inp=inp, config=config) for arg in argv]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: CoordinateOverflow: the squared diagonal of the coordinates' bbox (")
    assert captured.err.count("\n") == 1
    assert not (tmp_path / "out").exists()


class TestPlace:
    @pytest.mark.parametrize("snap", [False, True])
    def test_equals_sweep_gateways(self, inp_file, tmp_path, snap):
        """``place`` and the sweep place through one pipeline: same bytes."""
        net = read_inp(inp_file)
        rng = np.random.default_rng(11)
        nodes, links = tmp_path / "nodes.csv", tmp_path / "links.csv"
        export_hydraulic_csv(HydraulicSeries(
            timestamps=np.arange(3) * 3600.0,
            pressure={node.id: rng.uniform(30.0, 60.0, 3) for node in net.nodes},
            demand={node.id: rng.uniform(0.0, 2.0, 3) for node in net.nodes},
            flow={link.id: rng.lognormal(0.0, 2.0, 3) for link in net.links},
            node_flow=np.zeros(net.node_count)), nodes, links)
        config = tmp_path / "scenario.json"
        config.write_text(json.dumps({
            "inp_path": str(inp_file), "name": "one", "output_dir": str(tmp_path / "out"),
            "hydraulic_node_csv": str(nodes), "hydraulic_link_csv": str(links), "alpha": 0.3,
            "gateway_counts": [4], "strategies": sorted(STRATEGY_NAMES.values()), "horizon_s": 0.0,
            "snap_gateways_to_nodes": snap}))
        assert main(["sweep", "--config", str(config)]) == 0
        for short, strategy in STRATEGY_NAMES.items():
            out = tmp_path / f"{short}.csv"
            argv = ["place", str(inp_file), "--k", "4", "--strategy", short, "--alpha", "0.3",
                    "--hydraulic", str(nodes), str(links), "--out", str(out)]
            assert main(argv + ["--snap"] * snap) == 0
            assert out.read_bytes() == (tmp_path / "out" / "one" / f"gateways_k4_{strategy}.csv").read_bytes()
        # the hydraulic weights move the weighted placements off the proxy's
        assert main(["place", str(inp_file), "--k", "4", "--strategy", "centrality", "--alpha", "0.3",
                     "--out", str(tmp_path / "proxy.csv")]) == 0
        assert (tmp_path / "proxy.csv").read_bytes() != (tmp_path / "centrality.csv").read_bytes()

    def test_grid_to_stdout(self, capsys, inp_file):
        assert main(["place", str(inp_file), "--k", "3", "--strategy", "grid"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "gw_id,x,y,strategy,k,seed"
        assert len(lines) == 4
        assert lines[1].split(",")[3] == "regular_grid"

    def test_grid_with_malformed_hydraulic_csv_is_schema_mismatch(self, capsys, tmp_path):
        """The grid ignores the weights, but ``place`` still ingests and checks the CSVs."""
        inp = tmp_path / "chain.inp"
        inp.write_text(CHAIN_INP)
        nodes, links = tmp_path / "nodes.csv", tmp_path / "links.csv"
        nodes.write_text("time_s,node_id,pressure,demand\n0,J1,50,1\n")
        links.write_text("time_s,link_id,flow\n0,P1,10\n0,P2\n")
        argv = ["place", str(inp), "--k", "2", "--strategy", "grid", "--hydraulic", str(nodes), str(links)]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: SchemaMismatch: {links}, line 3: 2 field(s), header has 3\n"

    def test_centrality_to_file(self, inp_file, tmp_path):
        out = tmp_path / "gws.csv"
        assert main(["place", str(inp_file), "--k", "2", "--strategy", "centrality",
                     "--out", str(out)]) == 0
        assert len(out.read_text().splitlines()) == 3

    def test_k_exceeding_nodes_domain_error(self, capsys, inp_file):
        assert main(["place", str(inp_file), "--k", "31", "--strategy", "centrality"]) == 1
        assert "error: KExceedsN:" in capsys.readouterr().err

    @pytest.mark.parametrize("k", [31, 10**20])
    def test_grid_k_exceeding_nodes_is_one_error_line(self, capsys, inp_file, k):
        """The grid places at most one gateway per node too, and a huge K ends
        at once instead of searching K grid shapes."""
        start = time.perf_counter()
        assert main(["place", str(inp_file), "--k", str(k), "--strategy", "grid"]) == 1
        assert time.perf_counter() - start < 10.0
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: KExceedsN: K={k} exceeds node count 30\n"


class TestBadAlpha:
    @pytest.mark.parametrize("command", [["weights"], ["place", "--k", "2", "--strategy", "centrality"]])
    @pytest.mark.parametrize("alpha", ["2", "-1", "nan", "inf"])
    def test_alpha_outside_unit_interval_is_config_error(self, capsys, inp_file, command, alpha):
        assert main([command[0], str(inp_file), *command[1:], "--alpha", alpha]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ConfigError: ") and "alpha" in captured.err
        assert captured.err.count("\n") == 1


class TestSimulate:
    def test_single_run_summary(self, capsys, config_file):
        assert main(["simulate", "--config", str(config_file)]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["k"] == 2
        assert summary["strategy"] == "regular_grid"
        assert summary["seed"] == 1
        assert summary["sent"] > 0

    def test_overrides(self, capsys, config_file):
        assert main(["simulate", "--config", str(config_file),
                     "--k", "3", "--strategy", "centrality", "--seed", "9"]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert (summary["k"], summary["strategy"], summary["seed"]) == (3, "degree_centrality", 9)

    @pytest.mark.parametrize("command", [["simulate"], ["kpi", "--predicate", "energy_j<=1"]])
    def test_no_uplinks_print_standard_json(self, capsys, config_file, command):
        """At horizon 0 no uplink is sent, so the PDR is NaN: printed as null."""
        config_file.write_text(json.dumps({**json.loads(config_file.read_text()), "horizon_s": 0}))
        assert main([command[0], "--config", str(config_file), *command[1:]]) == 0

        def reject(constant):
            raise ValueError(f"non-standard JSON constant {constant}")
        summary = json.loads(capsys.readouterr().out, parse_constant=reject)
        assert (summary if command == ["simulate"] else summary["row"])["pdr"] is None

    def test_config_required_is_usage_error(self, capsys):
        assert main(["simulate"]) == 2
        assert "usage error:" in capsys.readouterr().err


class TestSweepAndKpi:
    def test_sweep_writes_table(self, capsys, config_file, tmp_path):
        assert main(["sweep", "--config", str(config_file)]) == 0
        out = capsys.readouterr().out
        assert out.splitlines()[0].startswith("K")
        assert (tmp_path / "out" / "cli-test" / "comparison.csv").is_file()

    def test_sweep_rerun_byte_identical(self, config_file, tmp_path):
        assert main(["sweep", "--config", str(config_file), "--out", str(tmp_path / "o1")]) == 0
        assert main(["sweep", "--config", str(config_file), "--out", str(tmp_path / "o2")]) == 0
        a_root, b_root = tmp_path / "o1" / "cli-test", tmp_path / "o2" / "cli-test"
        a_files = sorted(p.relative_to(a_root) for p in a_root.rglob("*") if p.is_file())
        b_files = sorted(p.relative_to(b_root) for p in b_root.rglob("*") if p.is_file())
        assert a_files == b_files and a_files
        for rel in a_files:
            assert (a_root / rel).read_bytes() == (b_root / rel).read_bytes(), rel

    @pytest.mark.parametrize("horizon", ["NaN", "Infinity"])
    def test_non_finite_horizon_is_config_error(self, capsys, config_file, horizon):
        config_file.write_text(config_file.read_text().replace("900.0", horizon))
        assert main(["sweep", "--config", str(config_file)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ConfigError: ") and "horizon_s" in err
        assert err.count("\n") == 1

    @pytest.mark.parametrize("radio", [
        {"adr_margin_db": math.nan}, {"capture_threshold_db": math.nan}, {"capture_threshold_db": -math.inf},
        {"tx_power_dbm": math.inf}, {"channels_hz": [0, -5]}, {"channels_hz": [868100000, 0]},
    ])
    def test_non_finite_or_non_positive_radio_field_is_config_error(self, capsys, config_file, radio):
        config = json.loads(config_file.read_text())
        config_file.write_text(json.dumps({**config, "radio": radio}))  # NaN and Infinity as JSON extensions
        assert main(["sweep", "--config", str(config_file)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ConfigError: ") and next(iter(radio)) in err
        assert err.count("\n") == 1

    @pytest.mark.parametrize("field,value", [
        ("greedy_radius_m", "-1000"), ("greedy_radius_m", "NaN"), ("greedy_radius_m", "Infinity"),
        ("coordinate_scale", "0"), ("coordinate_scale", "NaN"),
    ])
    def test_bad_radius_or_scale_is_config_error(self, capsys, config_file, field, value):
        config_file.write_text(config_file.read_text().replace("{", f'{{"{field}": {value}, ', 1))
        assert main(["sweep", "--config", str(config_file)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ConfigError: ") and field in err
        assert err.count("\n") == 1

    @pytest.mark.parametrize("radio", [
        {"sensitivity_dbm": {"7": -120}},
        {"sensitivity_dbm": {"7": -123, "8": "NaN", "9": -129, "10": -132, "11": -134.5, "12": -137}},
        {"required_snr_db": {"7": -7.5}},
    ])
    def test_bad_radio_table_is_config_error(self, capsys, config_file, radio):
        config = json.loads(config_file.read_text())
        config_file.write_text(json.dumps({**config, "radio": radio}))
        assert main(["sweep", "--config", str(config_file)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ConfigError: ") and err.count("\n") == 1

    @pytest.mark.parametrize("content", [b"{not json", b'\xff\xfe{"inp_path": "x"}', b"[1, 2]", b'"net.inp"',
                                         b"[" * 100_000 + b"]" * 100_000])
    def test_config_not_a_json_object_is_config_error(self, capsys, tmp_path, content):
        path = tmp_path / "bad.json"
        path.write_bytes(content)
        assert main(["sweep", "--config", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ConfigError: ") and err.count("\n") == 1

    @pytest.mark.parametrize("override", [
        {"energy": {"tx_current_a": {"15.0": 0.02}}},
        {"radio": {"tx_power_dbm": 20}},
    ])
    def test_tx_power_without_current_is_config_error(self, capsys, config_file, tmp_path, override):
        config = json.loads(config_file.read_text())
        config_file.write_text(json.dumps({**config, **override}))
        assert main(["sweep", "--config", str(config_file)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ConfigError: ") and "tx_current_a" in err
        assert err.count("\n") == 1
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("override", [
        {"name": 5}, {"inp_path": 5}, {"snap_gateways_to_nodes": "false"}, {"write_artifacts": "no"},
        {"strategies": "regular_grid"}, {"seeds": [float("inf")]}, {"radio": {"sensitivity_dbm": None}},
    ])
    def test_wrong_json_type_is_config_error(self, capsys, config_file, tmp_path, override):
        config = json.loads(config_file.read_text())
        config_file.write_text(json.dumps({**config, **override}))
        assert main(["sweep", "--config", str(config_file)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ConfigError: ") and err.count("\n") == 1
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("override", [
        {"horizon_s": 10**400}, {"radio": {"bandwidth_hz": 0}}, {"radio": {"preamble_symbols": -100}},
        {"energy": {"supply_voltage_v": 0}}, {"energy": {"initial_battery_j": -1}},
        {"energy": {"tx_current_a": {"14.0": -0.1}}}, {"propagation": {"ref_distance_m": 0}},
        {"propagation": {"shadowing_sigma_db": -1}}, {"propagation": {"exponent": 0}},
        {"traffic": {"period_s": float("inf")}},
    ], ids=["horizon_beyond_float", "zero_bandwidth", "negative_preamble", "zero_voltage",
            "negative_battery", "negative_current", "zero_ref_distance", "negative_sigma", "zero_exponent",
            "infinite_period"])
    def test_number_out_of_range_is_config_error(self, capsys, config_file, tmp_path, override):
        config = json.loads(config_file.read_text())
        config_file.write_text(json.dumps({**config, **override}).replace("Infinity", "1e999"))
        assert main(["sweep", "--config", str(config_file)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ConfigError: ") and err.count("\n") == 1
        assert not (tmp_path / "out").exists()

    def test_kpi_satisfiable(self, capsys, config_file):
        assert main(["kpi", "--config", str(config_file), "--predicate", "pdr>=0"]) == 0
        outcome = json.loads(capsys.readouterr().out)
        assert outcome["satisfiable"] and outcome["k"] == 2

    def test_kpi_unsatisfiable(self, capsys, config_file):
        assert main(["kpi", "--config", str(config_file), "--predicate", "energy_j<0"]) == 0
        outcome = json.loads(capsys.readouterr().out)
        assert outcome == {"satisfiable": False, "message": "unsatisfiable"}

    def test_bad_predicate_domain_error(self, capsys, config_file):
        assert main(["kpi", "--config", str(config_file), "--predicate", "zz>=1"]) == 1
        assert "error: PredicateError:" in capsys.readouterr().err


class TestUsageErrors:
    def test_unknown_flag_exits_2(self, inp_file):
        with pytest.raises(SystemExit) as exc:
            main(["parse", str(inp_file), "--frobnicate"])
        assert exc.value.code == 2

    def test_missing_subcommand_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2

    def test_bad_strategy_choice_exits_2(self, inp_file):
        with pytest.raises(SystemExit) as exc:
            main(["place", str(inp_file), "--k", "2", "--strategy", "voronoi"])
        assert exc.value.code == 2

    def test_help_for_every_subcommand(self, capsys):
        for command in ("parse", "graph", "weights", "place", "simulate", "sweep", "kpi"):
            with pytest.raises(SystemExit) as exc:
                build_parser().parse_args([command, "--help"])
            assert exc.value.code == 0
            assert "usage" in capsys.readouterr().out

    @pytest.mark.parametrize("argv", [
        ["parse", "{inp}", "--out", "f"],
        ["parse", "{inp}", "--seed", "1"],
        ["graph", "{inp}", "--config", "c.json"],
        ["weights", "{inp}", "--seed", "1"],
        ["place", "{inp}", "--k", "2", "--strategy", "grid", "--seed", "1"],
        ["kpi", "--config", "c.json", "--predicate", "pdr>=0", "--out", "d"],
    ])
    def test_flag_the_subcommand_does_not_read_exits_2(self, inp_file, argv):
        with pytest.raises(SystemExit) as exc:
            main([arg.format(inp=inp_file) for arg in argv])
        assert exc.value.code == 2


# Flags of the INP subcommands and how many values each takes.
FUZZ_FLAGS = {
    "parse": {"--scale": 1},
    "graph": {"--scale": 1, "--csv": 1},
    "weights": {"--scale": 1, "--alpha": 1, "--hydraulic": 2, "--out": 1},
    "place": {"--scale": 1, "--alpha": 1, "--hydraulic": 2, "--out": 1, "--snap": 0},
}
FUZZ_VALUES = ("nan", "inf", "-1", "0", "2", "1e308", "x")


@pytest.fixture(scope="module")
def fuzz_inp(tmp_path_factory):
    path = tmp_path_factory.mktemp("fuzz") / "net.inp"
    path.write_text(synthetic_wds(30, 2, seed=3, area_m=(3000.0, 2000.0)))
    return path


@contextlib.contextmanager
def fresh_cwd():
    """Run in a new empty directory, so that output files of one example
    neither collide with nor feed the next."""
    previous = os.getcwd()
    with tempfile.TemporaryDirectory() as workdir:
        os.chdir(workdir)
        try:
            yield
        finally:
            os.chdir(previous)


@st.composite
def inp_argvs(draw):
    command = draw(st.sampled_from(sorted(FUZZ_FLAGS)))
    value = st.sampled_from(FUZZ_VALUES)
    argv = [command]
    if command == "place":
        argv += ["--k", draw(value), "--strategy", draw(st.sampled_from(sorted(STRATEGY_NAMES)))]
    for flag in draw(st.lists(st.sampled_from(sorted(FUZZ_FLAGS[command])), unique=True)):
        argv += [flag, *(draw(value) for _ in range(FUZZ_FLAGS[command][flag]))]
    return argv


@settings(max_examples=300, derandomize=True, deadline=None)
@given(inp_argvs())
def test_inp_subcommands_never_trace_back(fuzz_inp, argv):
    """Exit 0, 1 or 2 on any flag values; exit 1 prints one ``error:`` line;
    no exception and no warning escapes."""
    out, err = io.StringIO(), io.StringIO()
    with fresh_cwd(), warnings.catch_warnings(), contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        warnings.simplefilter("error")
        try:
            code = main([argv[0], str(fuzz_inp), *argv[1:]])
        except SystemExit as exc:
            code = exc.code
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
    if code == 1:
        assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1


def test_weights_and_sweep_leave_numpy_ma_unimported(tmp_path):
    """In numpy 2.4 ``np.unique`` and ``np.isin`` import ``numpy.ma``, about
    15 ms of every process, which neither command needs.  The sweep's traffic
    is dense enough that capture tries a third gateway for a few uplinks,
    where ``np.isin`` took its sorting path."""
    (tmp_path / "net.inp").write_text(synthetic_wds(600, 2, seed=3))
    (tmp_path / "chain.inp").write_text(CHAIN_INP)
    (tmp_path / "nodes.csv").write_text("time_s,node_id,pressure,demand\n0,J1,50,1\n")
    (tmp_path / "links.csv").write_text("time_s,link_id,flow\n0,P1,10\n0,P2,4\n")
    (tmp_path / "scenario.json").write_text(json.dumps({
        "inp_path": "net.inp", "name": "ma", "output_dir": "out", "gateway_counts": [30],
        "strategies": ["regular_grid"], "seeds": [1], "horizon_s": 1800.0, "traffic": {"period_s": 100.0},
    }))
    script = """import sys
from hydrolora.cli import main
assert main(["weights", "net.inp", "--out", "weights.csv"]) == 0
assert main(["weights", "chain.inp", "--hydraulic", "nodes.csv", "links.csv", "--out", "flow.csv"]) == 0
assert main(["sweep", "--config", "scenario.json"]) == 0
print("numpy.ma" in sys.modules)
"""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(Path(__file__).resolve().parent.parent / "src"),
                                                      env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", script], cwd=tmp_path, env=env, capture_output=True, text=True,
                          timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "False"
