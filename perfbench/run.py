"""Benchmark of the hydrolora sweep pipeline, end to end and layer by layer.

Run from the root of a checkout (README.md in this directory has the details)::

    python3 perfbench/run.py --workload paper_sweep --seed 1 --seconds 60 --trace 0

One run writes its workload's inputs from ``--seed`` into
``.bench_out/<workload>-seed<seed>-<pid>/`` and then

1. spawns ``hydrolora weights`` (``setup_s``) and ``hydrolora sweep``
   (``sweep_s``, ``peak_rss_mb``, ``artifact_bytes``) in turn, while the
   next pair is expected to end within ``--seconds``, at least once; then
   more ``hydrolora weights`` up to SETUP_MIN_REPS in all,
2. with ``--trace 1``, spawns ``perfbench/replay.py``, the traced run of
   the same sweep, up to REPLAY_REPS times; the replay with the median wall
   time gives the per-layer numbers, and every replay's outputs are checked,
3. checks every output and removes the working directory.

Every child is killed at RUN_DEADLINE_S after the start.  Sweeps after the
first and replays after the first start only when they are expected to end
before it; work left out for that reason, or killed at the deadline, is
reported under ``limits`` and is not counted as failed.

It prints every metric with its unit, a JSON record with provenance, timing
distributions and checks, and as its last line the result JSON: with
``--trace 0`` the end-to-end metrics, with ``--trace 1`` the per-layer ones.
It exits 2 without a result when the checkout has no ``src/hydrolora``.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

BENCH_DIR = Path(__file__).resolve().parent
DIGESTS_PATH = BENCH_DIR / "digests.json"
SETUP_MIN_REPS = 5
REPLAY_REPS = 3
RUN_DEADLINE_S = 165.0
ARTIFACTS_LINE = "artifacts written under "

END_TO_END = {
    "sweep_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "artifact_bytes": "B",
}

# Spans recorded by replay.py; each becomes "<span>_s", the sum of its self times.
LAYER_SPANS = (
    "inp.read", "graph.adjacency", "graph.centrality", "graph.stats",
    "hydraulics.flow", "hydraulics.weights",
    "placement.grid", "placement.kmeans", "placement.greedy", "placement.export",
    "lora.link_rssi", "lora.sf_assign",
    "sim.simulate", "sim.export",
    "orchestrator.export_comparison",
)

PER_LAYER = {
    "inp.read_s": "s",
    "inp.nodes": "count",
    "inp.links": "count",
    "graph.adjacency_s": "s",
    "graph.centrality_s": "s",
    "graph.stats_s": "s",
    "graph.edges": "count",
    "hydraulics.flow_s": "s",
    "hydraulics.ingest_rows": "count",
    "hydraulics.weights_s": "s",
    "placement.grid_s": "s",
    "placement.kmeans_s": "s",
    "placement.greedy_s": "s",
    "placement.calls": "count",
    "placement.export_s": "s",
    "lora.link_rssi_s": "s",
    "lora.sf_assign_s": "s",
    "sim.simulate_s": "s",
    "sim.simulate_max_s": "s",
    "sim.uplinks": "count",
    "sim.delivered": "count",
    "sim.collided": "count",
    "sim.no_coverage": "count",
    "sim.delivery_ratio": "ratio",
    "sim.export_s": "s",
    "sim.export_bytes": "B",
    "orchestrator.export_comparison_s": "s",
    "orchestrator.unattributed_s": "s",
    "tracing_overhead_s": "s",
}


@dataclass
class Child:
    """One finished child process."""

    wall_s: float
    returncode: int
    peak_rss_mb: float
    stdout: str
    stderr: str
    timed_out: bool


@dataclass
class Tree:
    """Files of one output tree: relative path -> (sha256, size)."""

    files: dict[str, tuple[str, int]] = field(default_factory=dict)

    @classmethod
    def scan(cls, root: Path) -> "Tree":
        tree = cls()
        if root.is_dir():
            for path in sorted(root.rglob("*")):
                if path.is_file():
                    tree.files[path.relative_to(root).as_posix()] = (_sha256_file(path),
                                                                     path.stat().st_size)
        return tree

    @property
    def bytes(self) -> int:
        return sum(size for _, size in self.files.values())

    @property
    def digest(self) -> str:
        h = hashlib.sha256()
        for rel, (sha, _) in sorted(self.files.items()):
            h.update(f"{rel}\0{sha}\n".encode())
        return h.hexdigest()

    def differing(self, other: "Tree") -> list[str]:
        names = set(self.files) | set(other.files)
        return sorted(n for n in names if self.files.get(n) != other.files.get(n))


def _sha256_file(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as handle:
        for block in iter(lambda: handle.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def _kill(pid: int, killed: list) -> None:
    # Signals only: the waiting thread alone reaps the child, so it always
    # gets its exit status and rusage.
    killed.append(pid)
    with contextlib.suppress(ProcessLookupError):
        os.kill(pid, signal.SIGKILL)


def spawn(argv: list[str], cwd: Path, env: dict, deadline: float, tag: str) -> Child:
    """Run one child to completion; wall time from spawn to exit, peak RSS
    from the child's own rusage.  The child is killed at ``deadline``."""
    out_path, err_path = cwd / f"{tag}.stdout", cwd / f"{tag}.stderr"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=env, stdout=out, stderr=err)
        killed: list = []
        timer = threading.Timer(max(deadline - time.monotonic(), 1.0), _kill, (proc.pid, killed))
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Child(wall_s=wall, returncode=proc.returncode, peak_rss_mb=usage.ru_maxrss / 1024.0,
                 stdout=out_path.read_text(encoding="utf-8", errors="replace"),
                 stderr=err_path.read_text(encoding="utf-8", errors="replace"),
                 timed_out=bool(killed))


def fits(deadline: float, expected_s: float) -> bool:
    """Whether work expected to take ``expected_s`` ends before ``deadline``,
    with half of it again as margin."""
    return time.monotonic() + 1.5 * expected_s < deadline


def table_text(stdout: str) -> str:
    """The printed comparison table, without the line naming the output dir."""
    return "".join(line for line in stdout.splitlines(keepends=True)
                   if not line.startswith(ARTIFACTS_LINE))


def distribution(values: list[float]) -> dict:
    """Median plus the highest of p50/p90/p99 with at least ten samples beyond it."""
    values = sorted(values)
    n = len(values)
    result = {"n": n, "median": statistics.median(values) if values else None}
    for level in (0.99, 0.9, 0.5):
        if n * (1.0 - level) >= 10:
            result[f"p{round(level * 100)}"] = values[min(n - 1, int(level * n))]
            break
    return result


def self_times(spans: list[dict]) -> dict[str, list[float]]:
    """Self time (duration minus children) of every span, grouped by name."""
    own = {s["id"]: s["end"] - s["start"] for s in spans}
    for s in spans:
        if s["parent"] is not None:
            own[s["parent"]] -= s["end"] - s["start"]
    grouped: dict[str, list[float]] = {}
    for s in spans:
        grouped.setdefault(s["name"], []).append(own[s["id"]])
    return grouped


def provenance(root: Path, seed: int) -> dict:
    """Where and on what a result was measured."""
    def git(*args):
        try:
            done = subprocess.run(["git", "-C", str(root), *args], capture_output=True,
                                  text=True, timeout=30)
        except (OSError, subprocess.SubprocessError):
            return None
        return done.stdout.strip() if done.returncode == 0 else None

    sha = git("rev-parse", "HEAD") if (root / ".git").exists() else None
    status = git("status", "--porcelain", "--untracked-files=no") if sha else None
    source = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        source.update(f"{path.relative_to(root).as_posix()}\0{_sha256_file(path)}\n".encode())
    return {
        "git_sha": sha,
        "git_dirty": bool(status) if status is not None else None,
        "source_sha256": source.hexdigest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "seed": seed,
    }


def recorded_digest(workload: str, seed: int) -> str | None:
    if not DIGESTS_PATH.is_file():
        return None
    return json.loads(DIGESTS_PATH.read_text()).get(workload, {}).get(str(seed))


def output_digest(inputs, tree: Tree, stdout: str) -> str:
    """SHA-256 of the artifact tree, or of the printed table when artifacts are off."""
    if inputs.write_artifacts:
        return tree.digest
    return hashlib.sha256(table_text(stdout).encode()).hexdigest()


def _implicated(sims: list[tuple[int, str, int]], paths: list[str]) -> set[int]:
    """Simulations whose outputs include one of the differing paths; a file
    shared by the whole sweep implicates every simulation."""
    hit: set[int] = set()
    for path in paths:
        top = path.split("/", 1)[0]
        owners = {i for i, (k, strategy, seed) in enumerate(sims)
                  if top in (f"run_k{k}_{strategy}_seed{seed}", f"gateways_k{k}_{strategy}.csv")}
        hit |= owners or set(range(len(sims)))
    return hit


def check_artifacts(inputs, tree_dir: Path) -> dict[int, list[str]]:
    """Output checks on an untraced artifact tree, by simulation index: every
    device row of energy.csv has sent == delivered + lost_no_coverage +
    lost_collision, and comparison.csv's energy_j_mean is the mean over seeds
    of each run's summed per-device energy."""
    problems: dict[int, list[str]] = {}
    if not inputs.write_artifacts:
        return problems
    with open(tree_dir / "comparison.csv", encoding="utf-8", newline="") as handle:
        means = {(int(r["k"]), r["strategy"]): float(r["energy_j_mean"]) for r in csv.DictReader(handle)}
    totals: dict[tuple[int, str], list[float]] = {}
    for i, (k, strategy, seed) in enumerate(inputs.sims):
        path = tree_dir / f"run_k{k}_{strategy}_seed{seed}" / "energy.csv"
        with open(path, encoding="utf-8", newline="") as handle:
            rows = list(csv.DictReader(handle))
        if any(int(r["sent"]) != int(r["delivered"]) + int(r["lost_no_coverage"])
               + int(r["lost_collision"]) for r in rows):
            problems.setdefault(i, []).append(f"{path.parent.name}: sent != delivered + lost")
        totals.setdefault((k, strategy), []).append(sum(float(r["energy_j"]) for r in rows))
    for i, (k, strategy, _) in enumerate(inputs.sims):
        if means.get((k, strategy)) != float(np.array(totals[(k, strategy)]).mean()):
            problems.setdefault(i, []).append(
                f"K={k} {strategy}: energy_j_mean != mean of summed per-device energy")
    return problems


def measure(inputs, root: Path, seconds: float, deadline: float, traced: bool) -> dict:
    """Steps 1-3 of the module docstring; returns metrics, record and counts."""
    work = inputs.workdir
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"), env.get("PYTHONPATH")]))
    cli = [sys.executable, "-m", "hydrolora.cli"]
    sims = inputs.sims
    everything = set(range(len(sims)))
    problems: list[str] = []
    limits: list[str] = []

    setup_cmd = cli + ["weights", inputs.inp]
    if inputs.hydraulic:
        setup_cmd += ["--hydraulic", *inputs.hydraulic]
    setups: list[Child] = []

    def setup() -> None:
        i = len(setups)
        setups.append(spawn(setup_cmd + ["--out", f"weights_{i}.csv"], work, env, deadline,
                            f"setup_{i}"))

    # Setups and sweeps alternate, so that both sample the same stretch of a
    # machine whose speed drifts.  A pair starts only when it is expected to
    # end within ``seconds``; the first pair always runs.  Every (sweep
    # process, simulation) pair is one attempt.  The first sweep's outputs
    # are checked; later ones must reproduce them byte for byte.
    sweeps: list[tuple[Child, Tree]] = []
    bad_always: dict[int, list[str]] = {}
    window_start = time.monotonic()
    while True:
        if sweeps:
            pair_s = setups[-1].wall_s + sweeps[-1][0].wall_s
            if time.monotonic() - window_start + pair_s > seconds:
                break
            # Keep time for the next pair and, when tracing, for one replay.
            if not fits(deadline, pair_s + (sweeps[-1][0].wall_s if traced else 0.0)):
                limits.append(f"{len(sweeps)} sweeps: the next would pass the run deadline")
                break
        setup()
        out = f"sweep_{len(sweeps)}"
        child = spawn(cli + ["sweep", "--config", inputs.config, "--out", out], work, env,
                      deadline, out)
        if sweeps and child.timed_out:
            limits.append(f"{len(sweeps)} sweeps: the next was killed at the run deadline")
            shutil.rmtree(work / out, ignore_errors=True)
            break
        tree = Tree.scan(work / out / inputs.workload)
        if not sweeps and child.returncode == 0:
            try:
                bad_always = check_artifacts(inputs, work / out / inputs.workload)
            except (OSError, KeyError, ValueError) as exc:
                bad_always = {i: [f"unreadable artifacts: {exc!r}"] for i in everything}
        shutil.rmtree(work / out, ignore_errors=True)
        sweeps.append((child, tree))
    while len(setups) < SETUP_MIN_REPS:
        setup()
    weights_hashes = {_sha256_file(work / f"weights_{i}.csv") for i, c in enumerate(setups)
                      if c.returncode == 0}
    if any(c.returncode != 0 for c in setups) or len(weights_hashes) != 1:
        problems.append("hydrolora weights failed or was not deterministic")
    reference_child, reference_tree = sweeps[0]

    def flag(indices, reason: str) -> None:
        for i in indices:
            reasons = bad_always.setdefault(i, [])
            if reason not in reasons:
                reasons.append(reason)

    # Several traced replays; the per-layer numbers come from the one with the
    # median wall time, so that the accounting of that one process is exact.
    replays: list[tuple[Child, dict]] = []
    for rep in range(REPLAY_REPS if traced else 0):
        if replays and not fits(deadline, max(c.wall_s for c, _ in replays)):
            limits.append(f"{rep} of {REPLAY_REPS} traced replays: the next would pass "
                          "the run deadline")
            break
        out = f"traced_{rep}"
        child = spawn([sys.executable, str(BENCH_DIR / "replay.py"), "--config", inputs.config,
                       "--out", out, "--spans", f"{out}.json"], work, env, deadline, out)
        if child.timed_out:
            if not replays:
                problems.append("no traced replay ended before the run deadline")
            limits.append(f"{rep} of {REPLAY_REPS} traced replays: the next was killed at "
                          "the run deadline")
            break
        if child.returncode != 0:
            flag(everything, f"traced replay exited {child.returncode}: {child.stderr.strip()[-300:]}")
            break
        trace = json.loads((work / f"{out}.json").read_text())
        for i, sim in enumerate(trace["sims"]):
            if sim["problems"]:
                flag([i], "; ".join(sim["problems"]))
        if table_text(child.stdout) != table_text(reference_child.stdout):
            flag(everything, "printed table differs from the traced replay")
        differing = reference_tree.differing(Tree.scan(work / out / inputs.workload))
        flag(_implicated(sims, differing), f"files differ from the traced replay: {differing[:5]}")
        shutil.rmtree(work / out, ignore_errors=True)
        replays.append((child, trace))
    for i, reasons in sorted(bad_always.items()):
        k, strategy, seed = sims[i]
        problems.append(f"K={k} {strategy} seed={seed}: " + "; ".join(reasons))

    expected = recorded_digest(inputs.workload, inputs.seed)
    digest = output_digest(inputs, reference_tree, reference_child.stdout)
    failed = 0
    for rep, (child, tree) in enumerate(sweeps):
        bad = set(bad_always)
        if child.returncode != 0:
            bad = everything
            problems.append(f"sweep {rep} exited {child.returncode}: {child.stderr.strip()[-300:]}")
        elif table_text(child.stdout) != table_text(reference_child.stdout):
            bad = everything
            problems.append(f"sweep {rep}: printed table differs from sweep 0")
        else:
            differing = tree.differing(reference_tree)
            if differing:
                bad |= _implicated(sims, differing)
                problems.append(f"sweep {rep}: files differ from sweep 0: {differing[:5]}")
        if expected is not None and digest != expected:
            bad = everything
        failed += len(bad)
    if expected is not None and digest != expected:
        problems.append(f"output digest {digest} != recorded {expected}")
    attempted = len(sims) * len(sweeps)
    if inputs.write_artifacts and len(weights_hashes) == 1:
        if reference_tree.files.get("weights.csv", ("",))[0] not in weights_hashes:
            problems.append("hydrolora weights output differs from the sweep's weights.csv")

    sweep_s = statistics.median(c.wall_s for c, _ in sweeps)
    end_to_end = {
        "sweep_s": sweep_s,
        "setup_s": statistics.median(c.wall_s for c in setups),
        "peak_rss_mb": statistics.median(c.peak_rss_mb for c, _ in sweeps),
        "artifact_bytes": reference_tree.bytes,
    }
    timings = {
        "sweep_s": distribution([c.wall_s for c, _ in sweeps]),
        "sweep_walls_s": [c.wall_s for c, _ in sweeps],
        "setup_s": distribution([c.wall_s for c in setups]),
        "setup_walls_s": [c.wall_s for c in setups],
    }
    per_layer = {}
    uplinks_per_s = None
    if traced and replays:
        replay, trace = sorted(replays, key=lambda pair: pair[0].wall_s)[len(replays) // 2]
        per_layer, spans_detail = layer_metrics(trace, sweep_s, replay.wall_s)
        uplinks_per_s = per_layer["sim.uplinks"] / sweep_s
        timings.update(traced_wall_s=replay.wall_s, traced_peak_rss_mb=replay.peak_rss_mb,
                       traced_walls_s=[child.wall_s for child, _ in replays], **spans_detail)
    record = {
        "workload": inputs.workload,
        "provenance": provenance(root, inputs.seed),
        "seconds": seconds,
        "timings": timings,
        "uplinks_per_s": uplinks_per_s,
        "fail_rate": failed / attempted,
        "digest": digest,
        "digest_recorded": expected,
        "problems": problems,
        "limits": limits,
    }
    return {"end_to_end": end_to_end, "per_layer": per_layer, "record": record,
            "attempted": attempted, "failed": failed, "correct": not problems and failed == 0}


def layer_metrics(trace: dict, sweep_s: float, traced_wall_s: float) -> tuple[dict, dict]:
    """Per-layer metrics from the replay's spans and counters.

    ``orchestrator.unattributed_s`` is the traced process's time outside every
    layer span (interpreter and import, config, the summary, centrality and
    weights files, checks), so the layer self times plus it equal
    ``sweep_s + tracing_overhead_s``, the traced process's wall time.
    """
    counters = trace["counters"]
    own = self_times(trace["spans"])
    metrics = {f"{name}_s": sum(own.get(name, []), 0.0) for name in LAYER_SPANS}
    for name in ("inp.nodes", "inp.links", "graph.edges", "hydraulics.ingest_rows",
                 "placement.calls", "sim.uplinks", "sim.delivered", "sim.collided",
                 "sim.no_coverage", "sim.export_bytes"):
        metrics[name] = counters.get(name, 0)
    metrics["sim.simulate_max_s"] = max(own.get("sim.simulate", [0.0]))
    uplinks = metrics["sim.uplinks"]
    metrics["sim.delivery_ratio"] = metrics["sim.delivered"] / uplinks if uplinks else 0.0
    layer_total = sum(sum(values) for values in own.values())
    metrics["orchestrator.unattributed_s"] = traced_wall_s - layer_total
    metrics["tracing_overhead_s"] = traced_wall_s - sweep_s
    detail = {f"{name}_s": distribution(values) for name, values in own.items()
              if name in ("sim.simulate", "sim.export", "lora.link_rssi", "lora.sf_assign")
              or name.startswith("placement.")}
    return {name: metrics[name] for name in PER_LAYER}, detail


def result_line(result: dict, trace: int) -> dict:
    """The last line of a run: end-to-end metrics, or per-layer ones when tracing."""
    chosen, units = (result["per_layer"], PER_LAYER) if trace else (result["end_to_end"], END_TO_END)
    return {
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": chosen[name], "unit": unit}
                    for name, unit in units.items() if name in chosen},
    }


def _print_metrics(title: str, values: dict, units: dict) -> None:
    print(title)
    for name, unit in units.items():
        if name in values:
            print(f"  {name:36s} {values[name]!r:>24} {unit}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="hydrolora sweep benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="measuring time per run: setups and sweeps")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: report per-layer metrics instead of end-to-end ones")
    args = parser.parse_args(argv)
    started = time.monotonic()

    root = Path.cwd()
    if not (root / "src" / "hydrolora" / "__init__.py").is_file():
        print(f"error: no src/hydrolora under {root}; run from the root of a hydrolora checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; expected one of "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    workdir = root / ".bench_out" / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    try:
        inputs = workloads.generate(args.workload, args.seed, workdir)
        result = measure(inputs, root, args.seconds, started + RUN_DEADLINE_S, bool(args.trace))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    _print_metrics(f"{args.workload} seed={args.seed}: end to end", result["end_to_end"], END_TO_END)
    record = result["record"]
    if result["per_layer"]:
        _print_metrics(f"{args.workload} seed={args.seed}: per layer (traced replay)",
                       result["per_layer"], PER_LAYER)
        print(f"  uplinks_per_s {record['uplinks_per_s']!r} 1/s")
    print(f"  fail_rate {record['fail_rate']!r} ({result['failed']}/{result['attempted']} simulations)")
    for problem in record["problems"]:
        print(f"  problem: {problem}")
    for limit in record["limits"]:
        print(f"  limit: {limit}")
    print(json.dumps(record, sort_keys=True))
    print(json.dumps(result_line(result, args.trace)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
