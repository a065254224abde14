"""hydrolora: water-network driven LoRaWAN deployment evaluation.

Pipeline: parse an EPANET INP file, build the undirected graph and degree
centralities, blend in hydraulic flow (ingested or proxied) as placement
weights, place gateways by regular grid or weighted k-means, then run a
deterministic uplink simulation to compare daily energy, SF allocation, and
delivery across strategies.
"""

from .errors import HydroLoraError
from .graph import Adjacency, CentralityVector, build_adjacency, degree_centrality, graph_stats
from .hydraulics import (
    FlowWeight,
    HydraulicSeries,
    ProxyFlow,
    export_hydraulic_csv,
    flow_proxy,
    ingest_hydraulic_csv,
    placement_weights,
)
from .inp import InpDocument, WaterNetwork, build_network, read_inp, tokenize_inp
from .lora import (
    EnergyModel,
    PropagationModel,
    RadioConfig,
    airtime,
    assign_sfs,
    link_rssi_matrix,
    path_loss_db,
    smallest_feasible_sf,
)
from .orchestrator import (
    ComparisonRow,
    ComparisonTable,
    KpiResult,
    RunSummary,
    ScenarioConfig,
    ScenarioResult,
    export_comparison,
    kpi_search,
    run_scenario,
)
from .placement import (
    GatewaySet,
    degree_centrality_deploy,
    export_gateways_csv,
    greedy_coverage_deploy,
    place,
    regular_grid_deploy,
)
from .sim import (
    EnergyReport,
    SimulationResult,
    TrafficModel,
    TrafficStore,
    Transmissions,
    WirelessFeatures,
    export_wireless_csv,
    simulate,
)
from .synth import synthetic_wds

__version__ = "0.1.0"

__all__ = [
    "Adjacency",
    "CentralityVector",
    "ComparisonRow",
    "ComparisonTable",
    "EnergyModel",
    "EnergyReport",
    "FlowWeight",
    "GatewaySet",
    "HydraulicSeries",
    "HydroLoraError",
    "InpDocument",
    "KpiResult",
    "PropagationModel",
    "ProxyFlow",
    "RadioConfig",
    "RunSummary",
    "ScenarioConfig",
    "ScenarioResult",
    "SimulationResult",
    "TrafficModel",
    "TrafficStore",
    "Transmissions",
    "WaterNetwork",
    "WirelessFeatures",
    "airtime",
    "assign_sfs",
    "build_adjacency",
    "build_network",
    "degree_centrality",
    "degree_centrality_deploy",
    "export_comparison",
    "export_gateways_csv",
    "export_hydraulic_csv",
    "export_wireless_csv",
    "flow_proxy",
    "graph_stats",
    "greedy_coverage_deploy",
    "ingest_hydraulic_csv",
    "kpi_search",
    "link_rssi_matrix",
    "path_loss_db",
    "place",
    "placement_weights",
    "read_inp",
    "regular_grid_deploy",
    "run_scenario",
    "simulate",
    "smallest_feasible_sf",
    "synthetic_wds",
    "tokenize_inp",
]
