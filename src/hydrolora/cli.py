"""Command-line surface over the pipeline.

Exit codes: 0 success, 1 domain error (one-line ``error: Category: detail``
on stderr), 2 usage error.  Outputs are data files and JSON/CSV text only;
plotting is left to external tools.  Each subcommand accepts only the flags
it reads; ``weights`` and ``place`` run the sweep's own preparation and
placement code on a config built from their flags.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys

from .errors import HydroLoraError
from .graph import build_adjacency, centrality_csv, degree_centrality, graph_stats
from .hydraulics import weights_csv
from .inp import read_inp
from .orchestrator import ScenarioConfig, _Prepared, kpi_search, run_scenario
from .placement import export_gateways_csv

STRATEGY_NAMES = {"grid": "regular_grid", "centrality": "degree_centrality", "greedy": "greedy_coverage"}


class _UsageError(Exception):
    """Bad invocation detected after argparse; exits with code 2."""


def build_parser() -> argparse.ArgumentParser:
    # Parent parsers, each given only to the subcommands that read it.
    network = argparse.ArgumentParser(add_help=False)
    network.add_argument("inp", help="EPANET INP file")
    network.add_argument("--scale", type=float, default=1.0, help="coordinate scale factor to meters")
    weighting = argparse.ArgumentParser(add_help=False)
    weighting.add_argument("--hydraulic", nargs=2, metavar=("NODES", "LINKS"), default=None,
                           help="hydraulic result CSVs; omitted -> topology flow proxy")
    weighting.add_argument("--alpha", type=float, default=0.5, help="centrality/flow blend in [0,1]")
    out = argparse.ArgumentParser(add_help=False)
    out.add_argument("--out", default=None,
                     help="output file (weights, place; default stdout) or directory (simulate, sweep)")
    scenario = argparse.ArgumentParser(add_help=False)
    scenario.add_argument("--config", default=None, help="scenario config JSON (required)")
    scenario.add_argument("--seed", type=int, default=None, help="override the random seed")

    parser = argparse.ArgumentParser(prog="hydrolora",
                                     description="Water-network driven LoRaWAN deployment evaluation")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("parse", parents=[network], help="parse an INP file and print a network summary")

    p = sub.add_parser("graph", parents=[network], help="degree/centrality of the network graph")
    p.add_argument("--csv", default=None, help="write node_id,degree,centrality CSV here ('-' for stdout)")

    sub.add_parser("weights", parents=[network, weighting, out],
                   help="placement weights from centrality and flow")

    p = sub.add_parser("place", parents=[network, weighting, out], help="compute K gateway positions")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--strategy", choices=sorted(STRATEGY_NAMES), required=True)
    p.add_argument("--snap", action="store_true", help="snap k-means gateways to nearest node")

    p = sub.add_parser("simulate", parents=[out, scenario], help="run one (K, strategy, seed) simulation")
    p.add_argument("--k", type=int, default=None, help="gateway count (default: first in config)")
    p.add_argument("--strategy", choices=sorted(STRATEGY_NAMES), default=None)

    sub.add_parser("sweep", parents=[out, scenario], help="full gateway-count sweep and comparison table")

    p = sub.add_parser("kpi", parents=[scenario], help="smallest K satisfying a KPI predicate")
    p.add_argument("--predicate", required=True, help='e.g. "pdr>=0.9", "energy_j<=1e5", "mean_sf<8"')
    p.add_argument("--strategy", choices=sorted(STRATEGY_NAMES), default=None)

    return parser


def _print_json(value) -> None:
    """Print ``value`` as standard JSON: a non-finite float (a run with no
    uplinks has no PDR) is written as null."""
    def finite(v):
        if isinstance(v, float) and not math.isfinite(v):
            return None
        if isinstance(v, dict):
            return {key: finite(item) for key, item in v.items()}
        if isinstance(v, (list, tuple)):
            return [finite(item) for item in v]
        return v
    print(json.dumps(finite(value), indent=2, sort_keys=True, allow_nan=False))


def _load_config(args, out=None) -> ScenarioConfig:
    if args.config is None:
        raise _UsageError("--config is required for this subcommand")
    cfg = ScenarioConfig.from_file(args.config)
    overrides = {}
    if out is not None:
        overrides["output_dir"] = out
    if args.seed is not None:
        overrides["seeds"] = (args.seed,)
    return dataclasses.replace(cfg, **overrides) if overrides else cfg


def _network_config(args, snap: bool = False) -> ScenarioConfig:
    node_csv, link_csv = args.hydraulic or (None, None)
    return ScenarioConfig(args.inp, coordinate_scale=args.scale, alpha=args.alpha,
                          hydraulic_node_csv=node_csv, hydraulic_link_csv=link_csv,
                          snap_gateways_to_nodes=snap)


def cmd_parse(args) -> int:
    net = read_inp(args.inp, coordinate_scale=args.scale)
    _print_json(net.summary())
    return 0


def cmd_graph(args) -> int:
    net = read_inp(args.inp, coordinate_scale=args.scale)
    adj = build_adjacency(net)
    if args.csv is None:
        _print_json(graph_stats(adj))
        return 0
    cv = degree_centrality(adj)
    centrality_csv(cv, None if args.csv == "-" else args.csv)
    return 0


def cmd_weights(args) -> int:
    prepared = _Prepared(_network_config(args))
    weights_csv(prepared.cv, prepared.flows, prepared.fw, args.out)
    return 0


def cmd_place(args) -> int:
    cfg = _network_config(args, snap=args.snap)
    gateways = _Prepared(cfg).place(cfg, STRATEGY_NAMES[args.strategy], args.k)
    export_gateways_csv(gateways, args.out)
    return 0


def cmd_simulate(args) -> int:
    cfg = _load_config(args, args.out)
    k = args.k if args.k is not None else cfg.gateway_counts[0]
    strategy = STRATEGY_NAMES[args.strategy] if args.strategy else cfg.strategies[0]
    single = dataclasses.replace(cfg, gateway_counts=(k,), strategies=(strategy,), seeds=cfg.seeds[:1])
    result = run_scenario(single)
    _print_json(dataclasses.asdict(result.runs[0]))
    return 0


def cmd_sweep(args) -> int:
    cfg = _load_config(args, args.out)
    result = run_scenario(cfg)
    sys.stdout.write(result.table.pivot_text())
    if result.outdir is not None:
        print(f"artifacts written under {result.outdir}")
    return 0


def cmd_kpi(args) -> int:
    cfg = _load_config(args)
    strategy = STRATEGY_NAMES[args.strategy] if args.strategy else None
    outcome = kpi_search(cfg, args.predicate, strategy=strategy)
    if outcome.satisfiable:
        _print_json({"satisfiable": True, "k": outcome.k, "row": dataclasses.asdict(outcome.row)})
    else:
        _print_json({"satisfiable": False, "message": "unsatisfiable"})
    return 0


_COMMANDS = {
    "parse": cmd_parse,
    "graph": cmd_graph,
    "weights": cmd_weights,
    "place": cmd_place,
    "simulate": cmd_simulate,
    "sweep": cmd_sweep,
    "kpi": cmd_kpi,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except HydroLoraError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
