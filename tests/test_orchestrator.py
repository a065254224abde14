"""Scenario sweep, comparison table, and KPI search tests."""

import dataclasses
import hashlib
import json
import math
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hydrolora import (
    EnergyModel,
    PropagationModel,
    RadioConfig,
    ScenarioConfig,
    TrafficModel,
    kpi_search,
    run_scenario,
    synthetic_wds,
)
import hydrolora.orchestrator as orchestrator
from hydrolora.errors import ConfigError, EmptySweep, HydroLoraError, PredicateError, ScenarioError
from hydrolora.orchestrator import ComparisonRow, ComparisonTable, export_comparison, parse_predicate
from tests.test_acceptance import FIXTURE


@pytest.fixture(scope="module")
def small_inp(tmp_path_factory):
    path = tmp_path_factory.mktemp("nets") / "small.inp"
    path.write_text(synthetic_wds(40, 3, seed=2, area_m=(4000.0, 3000.0)))
    return path


def small_config(small_inp, tmp_path, **overrides) -> ScenarioConfig:
    base = dict(
        inp_path=str(small_inp),
        name="t",
        output_dir=str(tmp_path / "out"),
        gateway_counts=(2, 4),
        strategies=("regular_grid", "degree_centrality"),
        seeds=(1,),
        horizon_s=1800.0,
    )
    base.update(overrides)
    return ScenarioConfig(**base)


def tree_digest(root: Path) -> dict[str, str]:
    return {
        str(p.relative_to(root)): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(root.rglob("*")) if p.is_file()
    }


class TestScenarioConfig:
    def test_defaults_mirror_comparison_sweep(self):
        cfg = ScenarioConfig(inp_path="x.inp")
        assert cfg.gateway_counts == (77, 96, 117, 140, 165)
        assert cfg.strategies == ("regular_grid", "degree_centrality")

    def test_counts_must_increase(self):
        with pytest.raises(ConfigError):
            ScenarioConfig(inp_path="x", gateway_counts=(5, 5))
        with pytest.raises(ConfigError):
            ScenarioConfig(inp_path="x", gateway_counts=(5, 3))

    def test_counts_must_be_positive(self):
        with pytest.raises(ConfigError):
            ScenarioConfig(inp_path="x", gateway_counts=(0, 2))

    def test_seed_required(self):
        with pytest.raises(ConfigError):
            ScenarioConfig(inp_path="x", seeds=())

    def test_unknown_strategy_rejected(self):
        with pytest.raises(ConfigError):
            ScenarioConfig(inp_path="x", strategies=("voronoi",))

    @pytest.mark.parametrize("field", ["greedy_radius_m", "coordinate_scale"])
    @pytest.mark.parametrize("value", [0.0, -1000.0, math.nan, math.inf])
    def test_radius_and_scale_must_be_finite_and_positive(self, field, value):
        with pytest.raises(ConfigError, match=field):
            ScenarioConfig(inp_path="x", **{field: value})

    def test_hydraulic_pair_enforced(self):
        with pytest.raises(ConfigError):
            ScenarioConfig(inp_path="x", hydraulic_node_csv="nodes.csv")

    def test_from_dict_nested_overrides(self):
        cfg = ScenarioConfig.from_dict({
            "inp_path": "x.inp",
            "radio": {"payload_bytes": 51, "channels_hz": [868100000],
                      "sensitivity_dbm": {"7": -120, "8": -126, "9": -129,
                                          "10": -132, "11": -134.5, "12": -137}},
            "energy": {"tx_current_a": {"14.0": 0.03}},
            "traffic": {"mode": "periodic", "period_s": 60.0},
        })
        assert cfg.radio.payload_bytes == 51
        assert cfg.radio.channels_hz == (868100000,)
        assert cfg.radio.sensitivity_dbm[7] == -120
        assert cfg.energy.tx_current_a[14.0] == 0.03
        assert cfg.traffic.mode == "periodic"

    def test_from_dict_unknown_key_rejected(self):
        with pytest.raises(ConfigError):
            ScenarioConfig.from_dict({"inp_path": "x", "radio": {"nope": 1}})

    @pytest.mark.parametrize("data,field", [
        ({"name": 5}, "name"), ({"inp_path": 5}, "inp_path"), ({"output_dir": ["out"]}, "output_dir"),
        ({"hydraulic_node_csv": 1, "hydraulic_link_csv": "l.csv"}, "hydraulic_node_csv"),
        ({"snap_gateways_to_nodes": "false"}, "snap_gateways_to_nodes"),
        ({"write_artifacts": "no"}, "write_artifacts"),
        ({"flow_proxy_by_length": 0}, "flow_proxy_by_length"), ({"strategies": "regular_grid"}, "strategies"),
        ({"gateway_counts": 5}, "gateway_counts"), ({"seeds": {"0": 1}}, "seeds"), ({"alpha": True}, "alpha"),
        ({"radio": None}, "radio"), ({"traffic": []}, "traffic"), ({"traffic": {"mode": 1}}, "traffic.mode"),
        ({"energy": {"initial_battery_j": "1e4"}}, "energy.initial_battery_j"),
    ])
    def test_from_dict_json_type_names_the_field(self, data, field):
        with pytest.raises(ConfigError, match=rf"^{field} must be JSON of type "):
            ScenarioConfig.from_dict({"inp_path": "x", **data})

    # Found by the from_dict fuzzer: a map field that is not a JSON object
    # ended in AttributeError ('list' object has no attribute 'items').
    @pytest.mark.parametrize("data", [{"radio": {"sensitivity_dbm": [-123.0]}},
                                      {"energy": {"tx_current_a": None}}])
    def test_from_dict_map_field_not_an_object(self, data):
        with pytest.raises(ConfigError, match="sensitivity_dbm|tx_current_a"):
            ScenarioConfig.from_dict({"inp_path": "x", **data})

    # Infinity in an integer array ended in OverflowError from int().
    @pytest.mark.parametrize("data", [{"seeds": [math.inf]}, {"gateway_counts": [2, math.inf]},
                                      {"radio": {"channels_hz": [-math.inf]}}])
    def test_from_dict_non_finite_in_integer_array(self, data):
        with pytest.raises(ConfigError, match="seeds|gateway_counts|channels_hz"):
            ScenarioConfig.from_dict({"inp_path": "x", **data})

    # A JSON integer beyond the float range in a table of floats ended in OverflowError.
    def test_from_dict_integer_too_large_for_float_table(self):
        with pytest.raises(ConfigError, match="too large"):
            ScenarioConfig.from_dict({"inp_path": "x", "energy": {"tx_current_a": {"14.0": 10**400}}})

    def test_from_file(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"inp_path": "net.inp", "seeds": [3, 4]}))
        cfg = ScenarioConfig.from_file(path)
        assert cfg.seeds == (3, 4)


class TestRunScenario:
    def test_table_shape_and_rows(self, small_inp, tmp_path):
        cfg = small_config(small_inp, tmp_path)
        result = run_scenario(cfg)
        assert len(result.table.rows) == 4  # 2 counts x 2 strategies
        assert len(result.runs) == 4
        ks = {(row.k, row.strategy) for row in result.table.rows}
        assert ks == {(2, "regular_grid"), (2, "degree_centrality"),
                      (4, "regular_grid"), (4, "degree_centrality")}

    def test_single_combo_row_equals_run_totals(self, small_inp, tmp_path):
        cfg = small_config(small_inp, tmp_path, gateway_counts=(3,), strategies=("regular_grid",))
        result = run_scenario(cfg)
        assert len(result.table.rows) == 1
        row, run = result.table.rows[0], result.runs[0]
        assert row.energy_j_mean == run.energy_j
        assert row.energy_j_std == 0.0
        assert row.pdr == run.pdr
        assert row.mean_sf == run.mean_sf

    def test_artifacts_written(self, small_inp, tmp_path):
        cfg = small_config(small_inp, tmp_path)
        result = run_scenario(cfg)
        out = result.outdir
        for name in ("network_summary.json", "centrality.csv", "weights.csv",
                     "comparison.csv", "comparison.txt",
                     "gateways_k2_regular_grid.csv", "gateways_k4_degree_centrality.csv"):
            assert (out / name).is_file(), name
        run_dir = out / "run_k2_regular_grid_seed1"
        for name in ("transmissions.csv", "energy.csv", "battery.csv"):
            assert (run_dir / name).is_file(), name
        summary = json.loads((out / "network_summary.json").read_text())
        assert summary["nodes"] == 40

    def test_rerun_byte_identical(self, small_inp, tmp_path):
        cfg_a = small_config(small_inp, tmp_path / "a")
        cfg_b = small_config(small_inp, tmp_path / "b")
        digest_a = tree_digest(run_scenario(cfg_a).outdir)
        digest_b = tree_digest(run_scenario(cfg_b).outdir)
        assert digest_a == digest_b

    def test_write_artifacts_off(self, small_inp, tmp_path):
        cfg = small_config(small_inp, tmp_path, write_artifacts=False)
        result = run_scenario(cfg)
        assert result.outdir is None
        assert not (tmp_path / "out").exists()

    def test_strategies_share_traffic_stream(self, small_inp, tmp_path):
        """Periodic traffic, no duty pressure: per-seed sent counts must be
        identical across strategies, so energy gaps come from SFs alone."""
        cfg = ScenarioConfig.from_dict({
            "inp_path": str(small_inp), "gateway_counts": [2], "seeds": [5],
            "horizon_s": 3600.0, "write_artifacts": False,
            "traffic": {"mode": "periodic", "period_s": 300.0},
        })
        result = run_scenario(cfg)
        sents = {run.strategy: run.sent for run in result.runs}
        assert sents["regular_grid"] == sents["degree_centrality"]

    def test_periodic_energy_matches_expectation(self, small_inp, tmp_path):
        """Periodic traffic with a random phase: every device fits exactly
        horizon/period uplinks, so per-seed energy equals the closed form
        count * sum of per-device SF costs."""
        cfg = ScenarioConfig.from_dict({
            "inp_path": str(small_inp), "gateway_counts": [3], "seeds": [1, 2],
            "strategies": ["degree_centrality"], "horizon_s": 3600.0,
            "write_artifacts": False,
            "traffic": {"mode": "periodic", "period_s": 300.0},
        })
        result = run_scenario(cfg)
        assert result.runs[0].sent == 12 * 40
        energies = [run.energy_j for run in result.runs]
        assert energies[0] == pytest.approx(energies[1])

    def test_error_annotated_with_context(self, tmp_path, small_inp):
        cfg = small_config(small_inp, tmp_path, gateway_counts=(41,),
                           strategies=("degree_centrality",), write_artifacts=False)
        with pytest.raises(ScenarioError) as exc:
            run_scenario(cfg)  # K exceeds the 40-node fixture
        assert "K=41" in str(exc.value)
        assert "KExceedsN" in str(exc.value)


def without_store(monkeypatch):
    """Make every run of a sweep draw and format its traffic afresh, as a run
    simulated on its own does."""
    simulate = orchestrator.simulate
    monkeypatch.setattr(orchestrator, "simulate", lambda *args, store, **kwargs: simulate(*args, **kwargs))


class TestSharedTraffic:
    """A sweep holds one traffic store per seed across its runs; that may not
    change a file, a run summary or their order."""

    def test_sweep_equals_fresh_runs_in_kstrategy_seed_order(self, tmp_path_factory, monkeypatch):
        root = tmp_path_factory.mktemp("acceptance")
        (root / "net.inp").write_text(synthetic_wds(**FIXTURE))
        fields = dict(inp_path=str(root / "net.inp"), gateway_counts=(4, 9),
                      strategies=("regular_grid", "degree_centrality", "greedy_coverage"), seeds=(1, 2),
                      horizon_s=21_600.0)
        shared = run_scenario(ScenarioConfig(output_dir=str(root / "shared"), **fields))
        without_store(monkeypatch)
        fresh = run_scenario(ScenarioConfig(output_dir=str(root / "fresh"), **fields))
        assert tree_digest(shared.outdir) == tree_digest(fresh.outdir)
        assert len(tree_digest(shared.outdir)) == 5 + 6 + 12 * 3  # network, gateways, run files
        assert shared.runs == fresh.runs and shared.table == fresh.table
        assert [(run.k, run.strategy, run.seed) for run in shared.runs] == [
            (k, strategy, seed) for k in (4, 9) for strategy in fields["strategies"] for seed in (1, 2)]

    def test_kpi_search_equals_fresh_runs(self, small_inp, tmp_path, monkeypatch):
        cfg = small_config(small_inp, tmp_path, gateway_counts=(1, 2, 3), seeds=(1, 2), write_artifacts=False)
        shared = kpi_search(cfg, "energy_j<0")  # scans every K
        without_store(monkeypatch)
        assert kpi_search(cfg, "energy_j<0") == shared
        assert len(shared.evaluated) == 3


class TestComparisonExport:
    def test_empty_table_header_only(self, tmp_path):
        paths = export_comparison(ComparisonTable(rows=[]), tmp_path)
        assert paths["csv"].read_text() == "k,strategy,energy_j_mean,energy_j_std,pdr,mean_sf\n"

    def test_csv_sorted_and_reparses(self, small_inp, tmp_path):
        cfg = small_config(small_inp, tmp_path)
        result = run_scenario(cfg)
        lines = (result.outdir / "comparison.csv").read_text().splitlines()
        assert lines[0] == "k,strategy,energy_j_mean,energy_j_std,pdr,mean_sf"
        keys = [(int(l.split(",")[0]), l.split(",")[1]) for l in lines[1:]]
        assert keys == sorted(keys)
        for line, row in zip(lines[1:], result.table.sorted_rows()):
            parts = line.split(",")
            assert float(parts[2]) == row.energy_j_mean
            assert float(parts[5]) == row.mean_sf

    def test_pivot_text_one_line_per_k(self, small_inp, tmp_path):
        cfg = small_config(small_inp, tmp_path)
        result = run_scenario(cfg)
        text = (result.outdir / "comparison.txt").read_text()
        lines = text.splitlines()
        assert lines[0].startswith("K")
        assert "degree_centrality" in lines[0] and "regular_grid" in lines[0]
        assert len(lines) == 3  # header + one line per K


class TestKpiSearch:
    def test_always_true_returns_smallest_k(self, small_inp, tmp_path):
        cfg = small_config(small_inp, tmp_path, write_artifacts=False)
        outcome = kpi_search(cfg, "pdr>=0")
        assert outcome.satisfiable and outcome.k == 2

    def test_always_false_unsatisfiable(self, small_inp, tmp_path):
        cfg = small_config(small_inp, tmp_path, write_artifacts=False)
        outcome = kpi_search(cfg, "energy_j<0")
        assert not outcome.satisfiable and outcome.k is None
        assert len(outcome.evaluated) == 2  # scanned the whole sweep

    def test_matches_exhaustive_evaluation(self, small_inp, tmp_path):
        cfg = small_config(small_inp, tmp_path, write_artifacts=False,
                           gateway_counts=(1, 2, 3), strategies=("degree_centrality",))
        exhaustive = kpi_search(cfg, "energy_j<0").evaluated  # forces full scan
        predicate = parse_predicate("pdr>=0.9")
        expected = next((row.k for row in exhaustive if predicate(row)), None)
        outcome = kpi_search(cfg, "pdr>=0.9")
        assert outcome.k == expected

    def test_callable_predicate(self, small_inp, tmp_path):
        cfg = small_config(small_inp, tmp_path, write_artifacts=False)
        outcome = kpi_search(cfg, lambda row: row.mean_sf <= 12)
        assert outcome.satisfiable

    def test_empty_sweep_rejected(self, small_inp, tmp_path):
        cfg = small_config(small_inp, tmp_path, write_artifacts=False)
        object.__setattr__(cfg, "gateway_counts", ())  # bypass config validation
        with pytest.raises(EmptySweep):
            kpi_search(cfg, "pdr>=0")

    def test_predicate_parsing_errors(self):
        with pytest.raises(PredicateError):
            parse_predicate("latency<=5")
        with pytest.raises(PredicateError):
            parse_predicate("pdr~0.5")
        with pytest.raises(PredicateError):
            parse_predicate("pdr>=high")

    def test_predicate_operators(self):
        row = ComparisonRow(k=1, strategy="s", energy_j_mean=100.0,
                            energy_j_std=0.0, pdr=0.95, mean_sf=7.5)
        assert parse_predicate("energy_j<=100")(row)
        assert parse_predicate("pdr>0.9")(row)
        assert not parse_predicate("mean_sf<7")(row)
        assert parse_predicate("mean_sf==7.5")(row)


NESTED = {"radio": RadioConfig, "energy": EnergyModel, "propagation": PropagationModel, "traffic": TrafficModel}
FIELD_PATHS = [(f.name,) for f in dataclasses.fields(ScenarioConfig)] + [
    (outer, f.name) for outer, cls in NESTED.items() for f in dataclasses.fields(cls)]
JSON_KEYS = st.text(max_size=4) | st.sampled_from(["7", "12", "14.0", "inf", "nan", "1e400"])
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4)
    | st.sampled_from([math.inf, -math.inf, math.nan, 10**400]),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(JSON_KEYS, inner, max_size=3),
    max_leaves=6)


@st.composite
def config_dicts(draw):
    """A valid config with up to three top-level or nested fields set to
    arbitrary JSON values."""
    data = {"inp_path": "net.inp"}
    for path in draw(st.lists(st.sampled_from(FIELD_PATHS), max_size=3, unique=True)):
        if len(path) == 1:
            data[path[0]] = draw(JSON_VALUES)
        elif isinstance(data.setdefault(path[0], {}), dict):
            data[path[0]][path[1]] = draw(JSON_VALUES)
    return data


@settings(max_examples=250, derandomize=True, deadline=None, database=None)
@given(data=config_dicts() | JSON_VALUES)
def test_from_dict_raises_only_domain_errors(data):
    try:
        ScenarioConfig.from_dict(data)
    except HydroLoraError:
        pass
