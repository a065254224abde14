"""Command-line surface over the pipeline.

Exit codes: 0 success, 1 domain error (one-line ``error: Category: detail``
on stderr), 2 usage error.  Outputs are data files and JSON/CSV text only;
plotting is left to external tools.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys

from .errors import HydroLoraError
from .graph import build_adjacency, centrality_csv, degree_centrality, graph_stats
from .hydraulics import flow_proxy, ingest_hydraulic_csv, placement_weights, weights_csv
from .inp import read_inp
from .orchestrator import ScenarioConfig, kpi_search, run_scenario
from .placement import export_gateways_csv, place

STRATEGY_NAMES = {"grid": "regular_grid", "centrality": "degree_centrality", "greedy": "greedy_coverage"}


class _UsageError(Exception):
    """Bad invocation detected after argparse; exits with code 2."""


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=None, help="override the random seed")
    common.add_argument("--out", default=None, help="output file or directory, subcommand dependent")
    common.add_argument("--config", default=None, help="scenario config JSON")

    parser = argparse.ArgumentParser(prog="hydrolora",
                                     description="Water-network driven LoRaWAN deployment evaluation")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("parse", parents=[common], help="parse an INP file and print a network summary")
    p.add_argument("inp", help="EPANET INP file")
    p.add_argument("--scale", type=float, default=1.0, help="coordinate scale factor to meters")

    p = sub.add_parser("graph", parents=[common], help="degree/centrality of the network graph")
    p.add_argument("inp")
    p.add_argument("--scale", type=float, default=1.0)
    p.add_argument("--csv", default=None, help="write node_id,degree,centrality CSV here ('-' for stdout)")

    p = sub.add_parser("weights", parents=[common], help="placement weights from centrality and flow")
    p.add_argument("inp")
    p.add_argument("--scale", type=float, default=1.0)
    p.add_argument("--hydraulic", nargs=2, metavar=("NODES", "LINKS"), default=None,
                   help="hydraulic result CSVs; omitted -> topology flow proxy")
    p.add_argument("--alpha", type=float, default=0.5, help="centrality/flow blend in [0,1]")

    p = sub.add_parser("place", parents=[common], help="compute K gateway positions")
    p.add_argument("inp")
    p.add_argument("--scale", type=float, default=1.0)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--strategy", choices=sorted(STRATEGY_NAMES), required=True)
    p.add_argument("--alpha", type=float, default=0.5)
    p.add_argument("--snap", action="store_true", help="snap gateways to nearest node")

    p = sub.add_parser("simulate", parents=[common], help="run one (K, strategy, seed) simulation")
    p.add_argument("--k", type=int, default=None, help="gateway count (default: first in config)")
    p.add_argument("--strategy", choices=sorted(STRATEGY_NAMES), default=None)

    sub.add_parser("sweep", parents=[common], help="full gateway-count sweep and comparison table")

    p = sub.add_parser("kpi", parents=[common], help="smallest K satisfying a KPI predicate")
    p.add_argument("--predicate", required=True, help='e.g. "pdr>=0.9", "energy_j<=1e5", "mean_sf<8"')
    p.add_argument("--strategy", choices=sorted(STRATEGY_NAMES), default=None)

    return parser


def _load_config(args) -> ScenarioConfig:
    if args.config is None:
        raise _UsageError("--config is required for this subcommand")
    cfg = ScenarioConfig.from_file(args.config)
    overrides = {}
    if args.out is not None:
        overrides["output_dir"] = args.out
    if args.seed is not None:
        overrides["seeds"] = (args.seed,)
    return dataclasses.replace(cfg, **overrides) if overrides else cfg


def _weights_pipeline(args):
    net = read_inp(args.inp, coordinate_scale=args.scale)
    adj = build_adjacency(net)
    cv = degree_centrality(adj)
    if getattr(args, "hydraulic", None):
        flows = ingest_hydraulic_csv(args.hydraulic[0], args.hydraulic[1], net).node_flow
    else:
        flows = flow_proxy(net, adj).values
    fw = placement_weights(cv, flows, alpha=args.alpha)
    return net, cv, flows, fw


def cmd_parse(args) -> int:
    net = read_inp(args.inp, coordinate_scale=args.scale)
    print(json.dumps(net.summary(), indent=2, sort_keys=True))
    return 0


def cmd_graph(args) -> int:
    net = read_inp(args.inp, coordinate_scale=args.scale)
    adj = build_adjacency(net)
    if args.csv is None:
        print(json.dumps(graph_stats(adj).as_dict(), indent=2, sort_keys=True))
        return 0
    cv = degree_centrality(adj)
    centrality_csv(cv, None if args.csv == "-" else args.csv)
    return 0


def cmd_weights(args) -> int:
    _, cv, flows, fw = _weights_pipeline(args)
    weights_csv(cv, flows, fw, args.out)
    return 0


def cmd_place(args) -> int:
    net, _cv, _flows, fw = _weights_pipeline(args)
    gateways = place(
        STRATEGY_NAMES[args.strategy], args.k,
        bbox=net.bbox, node_xy=net.coordinates(), weights=fw.weight,
        seed=args.seed if args.seed is not None else 0,
        snap_to_nodes=args.snap,
    )
    export_gateways_csv(gateways, args.out)
    return 0


def cmd_simulate(args) -> int:
    cfg = _load_config(args)
    k = args.k if args.k is not None else cfg.gateway_counts[0]
    strategy = STRATEGY_NAMES[args.strategy] if args.strategy else cfg.strategies[0]
    seed = args.seed if args.seed is not None else cfg.seeds[0]
    single = dataclasses.replace(cfg, gateway_counts=(k,), strategies=(strategy,), seeds=(seed,))
    result = run_scenario(single)
    print(json.dumps(dataclasses.asdict(result.runs[0]), indent=2, sort_keys=True))
    return 0


def cmd_sweep(args) -> int:
    cfg = _load_config(args)
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
        print(json.dumps({"satisfiable": True, "k": outcome.k,
                          "row": dataclasses.asdict(outcome.row)}, indent=2, sort_keys=True))
    else:
        print(json.dumps({"satisfiable": False, "message": "unsatisfiable"}, indent=2, sort_keys=True))
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
