"""Pin the artifact digests of `prf` and `reformer` for a range of seeds.

    python3 bench/pin.py [--seeds N-M]

Run from the repository root, on a commit whose artifacts are known good. For
each seed (by default every input seed, 0 to run.INPUT_SEEDS - 1) it
generates the inputs, runs one verified repetition of each pinned part and records the
normalized digest of every artifact in bench/pins.json, which run.py
compares each repetition against.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
from pathlib import Path

import run

def seed_range(text: str) -> range:
    first, _, last = text.partition("-")
    return range(int(first), int(last or first) + 1)


def pin(workload: str, seed: int, root: Path, env: dict) -> dict[str, str]:
    work = root / ".bench_work" / f"pin-{workload}-{seed}"
    stub = None
    digests = {}
    try:
        run.prepare(workload, seed, work, env)
        stub = run.Stub(env) if workload == "reformer" else None
        for part in run.PARTS[workload]:
            if part in run.UNPINNED_PARTS:
                continue
            rep = run.run_rep(part, work, env, stub.url if stub else None, verify_seed=seed)
            if rep is None or rep["failed"] or rep["errors"]:
                raise SystemExit(f"cannot pin {part} seed {seed}: {rep and rep['errors']}")
            digests.update({name: norm for name, (_, norm) in rep["digests"].items()})
    finally:
        if stub is not None:
            stub.stop()
        shutil.rmtree(work, ignore_errors=True)
    return dict(sorted(digests.items()))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--seeds", type=seed_range, default=range(run.INPUT_SEEDS), help="N or N-M"
    )
    args = parser.parse_args(argv)
    if not set(args.seeds) <= set(range(run.INPUT_SEEDS)):
        parser.error(f"input seeds run from 0 to {run.INPUT_SEEDS - 1}")
    root = Path.cwd()
    env = run.child_env(root)
    pins = run.load_pins()
    for workload in run.PINNED_WORKLOADS:
        for seed in args.seeds:
            pins.setdefault(workload, {})[str(seed)] = pin(workload, seed, root, env)
            print(f"pinned {workload} seed {seed}", flush=True)
    run.PINS.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
