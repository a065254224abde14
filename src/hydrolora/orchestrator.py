"""Scenario control: load a config, sweep gateway counts and strategies,
evaluate KPIs, and emit comparison tables plus all per-run datasets.

For every master seed the two strategies consume the same per-device traffic
substreams, so a paired energy difference is attributable to placement alone.
A sweep (and ``kpi_search``'s scan of K) holds one ``TrafficStore`` per seed
across all its runs, so a device's uplinks are drawn, and their start times
formatted, once per seed and SF the device gets.
"""

from __future__ import annotations

import dataclasses
import json
import math
import operator
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .csvio import floats, text, write_csv
from .errors import ConfigError, EmptySweep, HydroLoraError, PredicateError, ScenarioError
from .graph import build_adjacency, centrality_csv, degree_centrality, graph_stats
from .hydraulics import flow_proxy, ingest_hydraulic_csv, placement_weights, weights_csv
from .inp import read_inp
from .lora import EnergyModel, PropagationModel, RadioConfig
from .placement import STRATEGIES, GatewaySet, export_gateways_csv, place
from .sim import SimulationResult, TrafficModel, TrafficStore, export_wireless_csv, simulate


@dataclass
class ScenarioConfig:
    """Everything one sweep needs; JSON document mirrors these fields.

    Nested objects (radio, energy, propagation, traffic) are given in JSON as
    partial dicts overriding the defaults, e.g. ``{"radio": {"payload_bytes":
    51}}``.  Unspecified fields keep the documented defaults.
    """

    inp_path: str
    name: str = "scenario"
    output_dir: str = "out"
    hydraulic_node_csv: str | None = None
    hydraulic_link_csv: str | None = None
    alpha: float = 0.5
    coordinate_scale: float = 1.0
    gateway_counts: tuple[int, ...] = (77, 96, 117, 140, 165)
    strategies: tuple[str, ...] = ("regular_grid", "degree_centrality")
    seeds: tuple[int, ...] = (0,)
    horizon_s: float = 86_400.0
    radio: RadioConfig = field(default_factory=RadioConfig)
    energy: EnergyModel = field(default_factory=EnergyModel)
    propagation: PropagationModel = field(default_factory=PropagationModel)
    traffic: TrafficModel = field(default_factory=TrafficModel)
    snap_gateways_to_nodes: bool = False
    greedy_radius_m: float = 1000.0
    flow_proxy_by_length: bool = False
    write_artifacts: bool = True

    def __post_init__(self):
        self.gateway_counts = tuple(int(k) for k in self.gateway_counts)
        self.strategies = tuple(self.strategies)
        self.seeds = tuple(int(s) for s in self.seeds)
        if not self.gateway_counts:
            raise ConfigError("gateway_counts must not be empty")
        if any(k <= 0 for k in self.gateway_counts):
            raise ConfigError("gateway counts must be positive")
        if any(b <= a for a, b in zip(self.gateway_counts, self.gateway_counts[1:])):
            raise ConfigError("gateway counts must be strictly increasing")
        if not self.seeds:
            raise ConfigError("at least one seed required")
        if not self.strategies:
            raise ConfigError("at least one strategy required")
        for strategy in self.strategies:
            if strategy not in STRATEGIES:
                raise ConfigError(f"unknown strategy {strategy!r}; expected one of {STRATEGIES}")
        if not 0.0 <= self.alpha <= 1.0:
            raise ConfigError(f"alpha must be in [0, 1], got {self.alpha}")
        if not 0 <= self.horizon_s < math.inf:
            raise ConfigError(f"horizon_s must be finite and nonnegative, got {self.horizon_s}")
        for name in ("coordinate_scale", "greedy_radius_m"):
            if not 0 < getattr(self, name) < math.inf:
                raise ConfigError(f"{name} must be finite and positive, got {getattr(self, name)}")
        if (self.hydraulic_node_csv is None) != (self.hydraulic_link_csv is None):
            raise ConfigError("hydraulic CSVs must be given as a node/link pair")
        if self.radio.tx_power_dbm not in self.energy.tx_current_a:
            raise ConfigError(f"energy.tx_current_a has no entry for radio.tx_power_dbm "
                              f"{self.radio.tx_power_dbm}")

    @classmethod
    def from_dict(cls, data: dict) -> "ScenarioConfig":
        if not isinstance(data, dict):
            raise ConfigError(f"a scenario config is a JSON object, got {type(data).__name__}")
        try:
            fields = _from_json(cls, data)
            for name in ("radio", "energy", "propagation", "traffic"):
                defaults = cls.__dataclass_fields__[name].default_factory()
                fields[name] = dataclasses.replace(defaults, **_from_json(type(defaults), fields.get(name, {}),
                                                                          f"{name}."))
            return cls(**fields)
        except (TypeError, ValueError, OverflowError) as exc:
            raise ConfigError(f"bad scenario config: {exc}") from None

    @classmethod
    def from_file(cls, path) -> "ScenarioConfig":
        with open(path, "r", encoding="utf-8") as handle:
            try:
                data = json.load(handle)
            except (json.JSONDecodeError, UnicodeDecodeError, RecursionError) as exc:
                raise ConfigError(f"{path} cannot be read as UTF-8 JSON: {exc}") from None
        return cls.from_dict(data)


# The JSON types that fit a field of each annotation; any other annotation
# names a nested dataclass, given as an object.  A bool is not a JSON number.
_JSON_TYPES = {"str": (str,), "None": (type(None),), "bool": (bool,), "int": (int,), "float": (int, float)}


def _fits(value, annotation: str) -> bool:
    """Whether a value parsed from JSON fits a field annotated ``annotation``:
    ``tuple[T, ...]`` is an array of T, ``dict[K, V]`` an object of V."""
    head, _, args = annotation.partition("[")
    if head == "tuple":
        return type(value) is list and all(_fits(item, args.split(",")[0]) for item in value)
    if head == "dict":
        return type(value) is dict and all(_fits(item, args[:-1].split(", ")[1]) for item in value.values())
    return any(type(value) in _JSON_TYPES.get(kind, (dict,)) for kind in annotation.split(" | "))


def _from_json(dataclass_type, data: dict, prefix: str = "") -> dict:
    """The fields of ``data`` for ``dataclass_type``, arrays made tuples and
    float fields, and the keys and values of objects, made numbers.  Raises
    ConfigError naming the first field whose JSON type does not fit; unknown
    names pass through."""
    annotations = {f.name: f.type for f in dataclasses.fields(dataclass_type)}
    fields = dict(data)
    for name, value in data.items():
        annotation = annotations.get(name, "")
        if annotation and not _fits(value, annotation):
            raise ConfigError(f"{prefix}{name} must be JSON of type {annotation}, got {type(value).__name__}")
        if annotation.startswith("tuple"):
            fields[name] = tuple(value)
        elif annotation.startswith("float") and value is not None:
            fields[name] = float(value)
        elif annotation.startswith("dict"):
            key_type, value_type = ({"int": int, "float": float}[kind] for kind in annotation[5:-1].split(", "))
            fields[name] = {key_type(k): value_type(v) for k, v in value.items()}
    return fields


@dataclass(frozen=True)
class RunSummary:
    """Totals of one (K, strategy, seed) simulation."""

    k: int
    strategy: str
    seed: int
    energy_j: float
    pdr: float
    mean_sf: float
    sent: int
    delivered: int
    lost_no_coverage: int
    lost_collision: int


@dataclass(frozen=True)
class ComparisonRow:
    """Per-(K, strategy) aggregate over seeds."""

    k: int
    strategy: str
    energy_j_mean: float
    energy_j_std: float
    pdr: float
    mean_sf: float


@dataclass
class ComparisonTable:
    rows: list[ComparisonRow]

    def sorted_rows(self) -> list[ComparisonRow]:
        return sorted(self.rows, key=lambda r: (r.k, r.strategy))

    def row(self, k: int, strategy: str) -> ComparisonRow:
        for row in self.rows:
            if row.k == k and row.strategy == strategy:
                return row
        raise KeyError((k, strategy))

    def pivot_text(self) -> str:
        """One line per K, strategies side by side (mean energy in joules)."""
        strategies = sorted({row.strategy for row in self.rows})
        header = ["K".ljust(6)] + [f"{s} [J]".ljust(24) for s in strategies]
        lines = ["".join(header).rstrip()]
        for k in sorted({row.k for row in self.rows}):
            cells = [str(k).ljust(6)]
            for strategy in strategies:
                try:
                    cells.append(f"{self.row(k, strategy).energy_j_mean:.1f}".ljust(24))
                except KeyError:
                    cells.append("-".ljust(24))
            lines.append("".join(cells).rstrip())
        return "\n".join(lines) + "\n"


@dataclass
class ScenarioResult:
    config: ScenarioConfig
    table: ComparisonTable
    runs: list[RunSummary]
    outdir: Path | None


class _Prepared:
    """Network-derived state: the network, its graph and the placement
    weights.  Shared by every run of a scenario and by ``hydrolora weights``
    and ``hydrolora place``."""

    def __init__(self, cfg: ScenarioConfig):
        self.net = read_inp(cfg.inp_path, coordinate_scale=cfg.coordinate_scale)
        self.adj = build_adjacency(self.net)
        self.cv = degree_centrality(self.adj)
        if cfg.hydraulic_node_csv is not None:
            series = ingest_hydraulic_csv(cfg.hydraulic_node_csv, cfg.hydraulic_link_csv, self.net)
            self.flows = series.node_flow
            self.flow_warnings: list[str] = []
        else:
            proxy = flow_proxy(self.net, self.adj, weight_by_length=cfg.flow_proxy_by_length)
            self.flows = proxy.values
            self.flow_warnings = [f"unreachable demand at {i}" for i in proxy.unreachable]
        self.fw = placement_weights(self.cv, self.flows, alpha=cfg.alpha)

    def place(self, cfg: ScenarioConfig, strategy: str, k: int) -> GatewaySet:
        return place(
            strategy, k,
            bbox=self.net.bbox,
            node_xy=self.net.coordinates(),
            weights=self.fw.weight,
            snap_to_nodes=cfg.snap_gateways_to_nodes,
            radius_m=cfg.greedy_radius_m,
        )


def _summarize(result: SimulationResult, k: int, strategy: str, seed: int) -> RunSummary:
    f = result.features
    return RunSummary(
        k=k, strategy=strategy, seed=seed,
        energy_j=result.energy.total_j, pdr=f.pdr, mean_sf=f.mean_sf,
        sent=f.sent, delivered=f.delivered,
        lost_no_coverage=f.lost_no_coverage, lost_collision=f.lost_collision,
    )


def _aggregate(per_seed: list[RunSummary]) -> ComparisonRow:
    energies = np.array([run.energy_j for run in per_seed])
    return ComparisonRow(
        k=per_seed[0].k, strategy=per_seed[0].strategy,
        energy_j_mean=float(energies.mean()),
        energy_j_std=float(energies.std()),  # ddof=0: well defined for one seed
        pdr=float(np.mean([run.pdr for run in per_seed])),
        mean_sf=float(np.mean([run.mean_sf for run in per_seed])),
    )


def _run_combo(prepared: _Prepared, cfg: ScenarioConfig, k: int, strategy: str,
               stores: dict[int, TrafficStore], outdir: Path | None) -> tuple[ComparisonRow, list[RunSummary]]:
    try:
        gateways = prepared.place(cfg, strategy, k)
    except HydroLoraError as exc:
        raise ScenarioError(f"(K={k}, strategy={strategy}) {type(exc).__name__}: {exc}") from exc
    if outdir is not None:
        export_gateways_csv(gateways, outdir / f"gateways_k{k}_{strategy}.csv")
    per_seed = []
    for seed in cfg.seeds:
        try:
            result = simulate(
                prepared.net, gateways, cfg.radio, cfg.energy,
                horizon_s=cfg.horizon_s, seed=seed,
                propagation=cfg.propagation, traffic=cfg.traffic, store=stores[seed],
            )
        except HydroLoraError as exc:
            raise ScenarioError(f"(K={k}, strategy={strategy}, seed={seed}) "
                                f"{type(exc).__name__}: {exc}") from exc
        per_seed.append(_summarize(result, k, strategy, seed))
        if outdir is not None:
            export_wireless_csv(result, outdir / f"run_k{k}_{strategy}_seed{seed}")
        del result  # not held while the next seed simulates
    return _aggregate(per_seed), per_seed


def run_scenario(cfg: ScenarioConfig) -> ScenarioResult:
    """Full pipeline: parse, weight, then sweep (K, strategy, seed) runs.

    Writes every intermediate dataset under ``<output_dir>/<name>/`` unless
    ``write_artifacts`` is off.  Reruns with an identical config reproduce
    every output file byte for byte.
    """
    prepared = _Prepared(cfg)
    outdir = None
    if cfg.write_artifacts:
        outdir = Path(cfg.output_dir) / cfg.name
        outdir.mkdir(parents=True, exist_ok=True)
        summary = prepared.net.summary()
        summary["graph"] = graph_stats(prepared.adj)
        summary["flow_warnings"] = prepared.flow_warnings
        (outdir / "network_summary.json").write_text(
            json.dumps(summary, indent=2, sort_keys=True) + "\n", encoding="utf-8")
        centrality_csv(prepared.cv, outdir / "centrality.csv")
        weights_csv(prepared.cv, prepared.flows, prepared.fw, outdir / "weights.csv")

    stores = {seed: TrafficStore() for seed in cfg.seeds}
    rows: list[ComparisonRow] = []
    runs: list[RunSummary] = []
    for k in cfg.gateway_counts:
        for strategy in cfg.strategies:
            row, per_seed = _run_combo(prepared, cfg, k, strategy, stores, outdir)
            rows.append(row)
            runs.extend(per_seed)

    table = ComparisonTable(rows)
    if outdir is not None:
        export_comparison(table, outdir)
    return ScenarioResult(config=cfg, table=table, runs=runs, outdir=outdir)


def export_comparison(table: ComparisonTable, outdir) -> dict[str, Path]:
    """Write comparison.csv (schema ``k,strategy,energy_j_mean,energy_j_std,
    pdr,mean_sf``, rows K ascending then strategy) and comparison.txt."""
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    csv_path = outdir / "comparison.csv"
    txt_path = outdir / "comparison.txt"
    rows = table.sorted_rows()
    write_csv(csv_path, "k,strategy,energy_j_mean,energy_j_std,pdr,mean_sf",
              [text([row.k for row in rows]), text([row.strategy for row in rows])]
              + [floats([getattr(row, name) for row in rows])
                 for name in ("energy_j_mean", "energy_j_std", "pdr", "mean_sf")])
    txt_path.write_text(table.pivot_text(), encoding="utf-8")
    return {"csv": csv_path, "txt": txt_path}


_PREDICATE_OPS = (("<=", operator.le), (">=", operator.ge), ("==", operator.eq),
                  ("<", operator.lt), (">", operator.gt))
_PREDICATE_METRICS = {"pdr": "pdr", "energy_j": "energy_j_mean", "mean_sf": "mean_sf"}


def parse_predicate(text: str):
    """Turn e.g. ``"pdr>=0.9"`` into a function of a ComparisonRow."""
    stripped = text.replace(" ", "")
    for symbol, op in _PREDICATE_OPS:
        if symbol in stripped:
            metric, _, value_text = stripped.partition(symbol)
            if metric not in _PREDICATE_METRICS:
                raise PredicateError(
                    f"unknown metric {metric!r}; expected one of {sorted(_PREDICATE_METRICS)}")
            try:
                value = float(value_text)
            except ValueError:
                raise PredicateError(f"bad threshold {value_text!r} in {text!r}") from None
            attribute = _PREDICATE_METRICS[metric]
            return lambda row: op(getattr(row, attribute), value)
    raise PredicateError(f"no comparison operator found in {text!r}")


@dataclass
class KpiResult:
    satisfiable: bool
    k: int | None
    row: ComparisonRow | None
    evaluated: list[ComparisonRow]


def kpi_search(cfg: ScenarioConfig, predicate, strategy: str | None = None) -> KpiResult:
    """Smallest gateway count whose mean summary satisfies the predicate, by
    linear scan (no bisection assumption).  ``predicate`` is a callable on a
    ComparisonRow or a string such as ``"pdr>=0.9"``.  Evaluates the given
    strategy (default: the first configured one); no artifacts are written.
    """
    if isinstance(predicate, str):
        predicate = parse_predicate(predicate)
    if not cfg.gateway_counts:
        raise EmptySweep("no gateway counts to scan")
    chosen = strategy or cfg.strategies[0]
    if chosen not in cfg.strategies:
        raise ConfigError(f"strategy {chosen!r} not in configured strategies {cfg.strategies}")
    prepared = _Prepared(cfg)
    stores = {seed: TrafficStore() for seed in cfg.seeds}
    evaluated: list[ComparisonRow] = []
    for k in cfg.gateway_counts:
        row, _ = _run_combo(prepared, cfg, k, chosen, stores, outdir=None)
        evaluated.append(row)
        if predicate(row):
            return KpiResult(satisfiable=True, k=k, row=row, evaluated=evaluated)
    return KpiResult(satisfiable=False, k=None, row=None, evaluated=evaluated)
