"""Record the reference output digest of workloads into digests.json.

``run.py`` compares each sweep's output digest (SHA-256 of the artifact tree,
or of the printed table when artifacts are off) with the one recorded here
for the same workload and seed.  Record from a commit whose outputs are the
reference, from the root of its checkout::

    python3 perfbench/record_digests.py --seeds 0-19 [--workload paper_sweep ...]

A seed is recorded only when the sweep exits 0 and its artifacts pass the
output checks of ``run.py``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import time
from pathlib import Path

import run


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="record reference output digests")
    parser.add_argument("--seeds", required=True, help="inclusive range, e.g. 0-19")
    parser.add_argument("--workload", action="append", help="default: every workload")
    args = parser.parse_args(argv)
    first, last = (int(part) for part in args.seeds.split("-"))

    root = Path.cwd()
    sys.path.insert(0, str(root / "src"))
    import workloads

    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    digests = json.loads(run.DIGESTS_PATH.read_text()) if run.DIGESTS_PATH.is_file() else {}
    for workload in args.workload or list(workloads.WORKLOADS):
        for seed in range(first, last + 1):
            workdir = root / ".bench_out" / f"record-{workload}-seed{seed}-{os.getpid()}"
            try:
                inputs = workloads.generate(workload, seed, workdir)
                child = run.spawn([sys.executable, "-m", "hydrolora.cli", "sweep", "--config",
                                   inputs.config, "--out", "out"], workdir, env,
                                  time.monotonic() + run.RUN_DEADLINE_S, "sweep")
                tree_dir = workdir / "out" / workload
                if child.returncode != 0 or run.check_artifacts(inputs, tree_dir):
                    print(f"{workload} seed {seed}: sweep failed its checks, not recorded",
                          file=sys.stderr)
                    return 1
                digest = run.output_digest(inputs, run.Tree.scan(tree_dir), child.stdout)
            finally:
                shutil.rmtree(workdir, ignore_errors=True)
            digests.setdefault(workload, {})[str(seed)] = digest
            print(workload, seed, digest, flush=True)
    run.DIGESTS_PATH.write_text(json.dumps(digests, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
