"""patternqr benchmark: one seeded workload, end to end through the public API.

    python3 bench/run.py --workload {prf,reformer} --seed N --seconds S --trace {0,1}

Run from the repository root; the program is imported from ./src. The run
generates the workload's inputs from the seed (untimed), starts the stub LLM
endpoint for `reformer` (untimed), then runs the workload's parts in turn,
each repetition in a fresh interpreter (bench/rep.py), while the next turn
still fits in S seconds; every part runs at least MIN_TURNS times. A part is
one pipeline mode of `prf` (bm25, rm3, rocchio), or one stage of `reformer`:
the offline learning stage (`learn`: induce, label, context retrieval,
train_selector, save_model) or the `reformer` pipeline.

Inputs are generated from the seed modulo INPUT_SEEDS, so every seed has
digests pinned in bench/pins.json (bench/pin.py writes them for seeds 0 to
INPUT_SEEDS - 1).

Correctness: each part's artifacts are byte-identical across repetitions and
match the digests pinned for the input seed (every part but `learn`; a
missing pin fails the run), the first repetition of each pipeline part
re-scores a seeded sample of queries with bm25_score, and `learn` checks its
library, labels, loss and saved model.

Metric names and units are those of BENCHMARK.json; a run whose metrics
differ from that list fails. `--trace 0` reports the end-to-end metrics.
Timings are taken at reference host speed: the host-speed probe
(bench/probe.py) runs before every repetition and after the last, and the
CPU-busy share of each timed region is rescaled by the run's mean probe time
over probe.REFERENCE_S. The raw figures are printed on a `#` line.
ops_per_s divides the workload's operations (a query of a pipeline part, a
pair of `learn`) by the sum over its parts of the mean repetition time, i.e.
by the time one pass over the parts takes on average over the whole run.
setup_s is the median over the repetitions that time it: the bm25 ones of
`prf` (rm3 and rocchio index the same corpus) and the pipeline ones of
`reformer`. peak_rss_mb is the largest over the parts of the part's median.
`--trace 1` alternates untraced and traced repetitions of each part and
reports the per-layer metrics from the traced ones, plus the tracing
overhead. The last stdout line is one JSON object: correct, attempted,
failed, metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
import urllib.request
from pathlib import Path

import numpy

import layers
import probe
from spans import Span

BENCH = Path(__file__).resolve().parent
CONTRACT = BENCH.parent / "BENCHMARK.json"
PINS = BENCH / "pins.json"
CHILD_TIMEOUT_S = 100
GEN_TIMEOUT_S = 120
MIN_TURNS = 3
INPUT_SEEDS = 32
PINNED_WORKLOADS = ("prf", "reformer")
# Its weights digest is checked across repetitions and on reload, not pinned:
# it hashes raw floats, which a different CPU may round differently.
UNPINNED_PARTS = ("learn",)

PARTS = {"prf": ("bm25", "rm3", "rocchio"), "reformer": ("learn", "reformer")}


class Stub:
    """The stub endpoint (bench/stub.py) in its own process."""

    def __init__(self, env):
        self.proc = subprocess.Popen(
            [sys.executable, str(BENCH / "stub.py")],
            stdout=subprocess.PIPE,
            text=True,
            env=env,
        )
        line = self.proc.stdout.readline().strip()
        if not line.isdigit():
            self.stop()
            raise RuntimeError(f"stub endpoint did not start (printed {line!r})")
        self.url = f"http://127.0.0.1:{line}"
        self._opener = urllib.request.build_opener(urllib.request.ProxyHandler({}))

    def served(self) -> int:
        with self._opener.open(self.url + "/stats", timeout=10) as resp:
            return int(json.load(resp)["served"])

    def stop(self) -> None:
        self.proc.terminate()
        try:
            self.proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


def child_env(root: Path) -> dict:
    # One BLAS thread: on a 2-vCPU host a second one competes with the
    # interpreter for the CPUs, and `learn` repetition times then varied
    # about four times as much (IQR/median 0.28 against 0.07).
    return dict(
        os.environ,
        PYTHONPATH=str(root / "src"),
        NO_PROXY="127.0.0.1,localhost",
        no_proxy="127.0.0.1,localhost",
        OPENBLAS_NUM_THREADS="1",
        OMP_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
    )


def prepare(workload: str, seed: int, work: Path, env: dict) -> None:
    subprocess.run(
        [sys.executable, str(BENCH / "gen.py"), "--workload", workload, "--seed", str(seed)]
        + ["--out", str(work)],
        env=env,
        check=True,
        timeout=GEN_TIMEOUT_S,
    )


def ops_by_part(workload: str, work: Path) -> dict[str, int]:
    """Operations in one repetition of each part: pairs of `learn`, else queries."""
    return {
        part: _count_lines(work / ("pairs.tsv" if part == "learn" else "queries.tsv"))
        for part in PARTS[workload]
    }


def _count_lines(path: Path) -> int:
    return sum(1 for line in path.read_text(encoding="utf-8").splitlines() if line)


def run_rep(
    part: str, work: Path, env: dict, base_url=None, verify_seed=None, spans_path=None
) -> dict | None:
    """One repetition in a fresh interpreter; None when it crashed or timed out."""
    cmd = [sys.executable, str(BENCH / "rep.py"), "--part", part, "--dir", str(work)]
    if base_url:
        cmd += ["--base-url", base_url]
    if verify_seed is not None:
        cmd += ["--verify-seed", str(verify_seed)]
    if spans_path is not None:
        cmd += ["--spans", str(spans_path)]
    try:
        proc = subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"# {part} repetition timed out after {CHILD_TIMEOUT_S} s", file=sys.stderr)
        return None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print(f"# {part} repetition exited with {proc.returncode}:", file=sys.stderr)
        print(proc.stderr[-4000:], file=sys.stderr)
        return None
    return dict(json.loads(lines[-1]), part=part)


def load_pins() -> dict:
    return json.loads(PINS.read_text(encoding="utf-8")) if PINS.exists() else {}


def metric_units(kind: str) -> dict[str, str]:
    """Name -> unit of the `end_to_end` or `per_layer` metrics in BENCHMARK.json."""
    spec = json.loads(CONTRACT.read_text(encoding="utf-8"))
    return {metric["name"]: metric["unit"] for metric in spec[kind]}


def check_digests(
    reps: list[dict], pinned: dict | None, ops: dict[str, int]
) -> tuple[int, list[str]]:
    """Failed operations of repetitions whose artifacts differ from the part's
    first repetition, or from the digests pinned for the seed."""
    failed, errors = 0, []
    first: dict[str, str] = {}
    for i, rep in enumerate(reps):
        part = rep["part"]
        problems = [
            f"{name} differs from its first repetition"
            for name, (raw, _) in rep["digests"].items()
            if raw != first.setdefault(name, raw)
        ]
        if pinned is not None and part not in UNPINNED_PARTS:
            wanted = {name: norm for name, norm in pinned.items() if name.split(".")[0] == part}
            if {name: norm for name, (_, norm) in rep["digests"].items()} != wanted:
                problems.append(f"{part} artifacts do not match the digests pinned for the seed")
        if problems:
            failed += ops[part]
            errors += [f"repetition {i}: {problem}" for problem in problems]
    return failed, errors


def by_part(reps: list[dict], ops: dict[str, int], value) -> dict[str, list[float]]:
    """`value(rep)` of every repetition of the parts in `ops`, by part; every
    part must have one."""
    values: dict[str, list[float]] = {}
    for rep in reps:
        if rep["part"] in ops:
            values.setdefault(rep["part"], []).append(value(rep))
    if values.keys() != ops.keys():
        raise ValueError(f"no successful repetition of {sorted(ops.keys() - values.keys())}")
    return values


def rate(reps: list[dict], ops: dict[str, int], slow: float = 1.0) -> float:
    """Operations of one pass over the parts per second of the summed mean
    time of each part, each repetition's CPU-busy share divided by `slow`
    (probe.scaled).

    The mean, not the median: the host's speed changes in spells of tens of
    seconds, and a mean over the whole run averages them where a median of a
    few repetitions picks one.
    """
    times = by_part(reps, ops, lambda rep: probe.scaled(rep["ops_s"], rep["ops_cpu_s"], slow))
    return sum(ops.values()) / sum(statistics.fmean(t) for t in times.values())


def src_lines(root: Path) -> int:
    files = (root / "src" / "patternqr").glob("*.py")
    return sum(len(p.read_text(encoding="utf-8").splitlines()) for p in files)


def measure(args, work: Path, env: dict, stub: Stub | None) -> tuple[list, list, list]:
    """Repetitions of the parts in turn (with tracing, an untraced and a traced
    one per turn) while the next turn still fits in args.seconds; every part
    runs at least MIN_TURNS times.

    Returns (results, traced, probes): results holds None for a failed
    repetition, traced holds (result, spans, requests the stub served) per
    traced one, probes the host-speed probe times around the repetitions.
    """
    parts = PARTS[args.workload]
    modes = (False, True) if args.trace else (False,)
    results, traced, probes, last_turn_s = [], [], [], {}
    start = time.perf_counter()
    turn = 0
    while True:
        part = parts[turn % len(parts)]
        elapsed = time.perf_counter() - start
        if turn >= MIN_TURNS * len(parts) and elapsed + last_turn_s[part] > args.seconds:
            break
        for is_traced in modes:
            i = len(results)
            spans_path = work / f"spans-{i}.json" if is_traced else None
            verify_seed = args.seed if part not in last_turn_s and not is_traced else None
            served = stub.served() if stub else 0
            probes.append(probe.probe())
            rep = run_rep(part, work, env, stub.url if stub else None, verify_seed, spans_path)
            results.append(rep)
            if spans_path is not None and rep is not None:
                spans = [Span(**s) for s in json.loads(spans_path.read_text(encoding="utf-8"))]
                traced.append((rep, spans, (stub.served() if stub else 0) - served))
        last_turn_s[part] = time.perf_counter() - start - elapsed
        turn += 1
    probes.append(probe.probe())
    return results, traced, probes


def trace_metrics(
    args, root: Path, ops: dict, untraced: list[dict], traced: list, errors: list[str]
) -> dict[str, float]:
    if not traced:
        raise ValueError("no traced repetition completed")
    passes = len(traced) / len(PARTS[args.workload])
    metrics = layers.span_metrics([spans for _, spans, _ in traced], passes)
    errors.extend(layers.check_mapping(args.workload, [s for _, spans, _ in traced for s in spans]))
    for _, spans, served in traced:
        attempts = sum(s.name == "gateway.send" for s in spans)
        if args.workload == "reformer" and served != attempts:
            errors.append(
                f"trace: stub served {served} requests but the gateway made "
                f"{attempts} HTTP attempts"
            )
    reps = [rep for rep, _, _ in traced]
    for name in ("index.build.rss_mb", "index.save.s", "index.load.s", "index.file_mb"):
        measured = [r["extra"][name] for r in reps if name in r["extra"]]
        metrics[name] = statistics.median(measured) if measured else 0.0
    metrics["stub.served"] = sum(served for _, _, served in traced) / passes
    rate_traced, rate_untraced = rate(reps, ops), rate(untraced, ops)
    metrics["trace.overhead_pct"] = 100.0 * (rate_untraced / rate_traced - 1.0)
    metrics["meta.src_lines"] = float(src_lines(root))
    metrics["meta.nproc"] = float(os.cpu_count() or 1)
    print(f"# tracing overhead: untraced {rate_untraced:.3f} ops/s, traced {rate_traced:.3f} ops/s "
          f"({metrics['trace.overhead_pct']:+.2f}%)")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(PARTS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "patternqr" / "__init__.py").is_file():
        print("error: src/patternqr not found; run from the repository root", file=sys.stderr)
        return 2
    env = child_env(root)
    input_seed = args.seed % INPUT_SEEDS
    work = root / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    stub = None
    try:
        prepare(args.workload, input_seed, work, env)
        if args.workload == "reformer":
            stub = Stub(env)
        results, traced, probes = measure(args, work, env, stub)
        ops = ops_by_part(args.workload, work)
    finally:
        if stub is not None:
            stub.stop()
        shutil.rmtree(work, ignore_errors=True)

    done = [r for r in results if r is not None]
    pinned = load_pins().get(args.workload, {}).get(str(input_seed))
    attempted = sum(ops[r["part"]] if r else max(ops.values()) for r in results)
    failed, errors = check_digests(done, pinned, ops)
    if args.workload in PINNED_WORKLOADS and pinned is None:
        failed = attempted
        errors.append(f"no digests pinned for {args.workload} input seed {input_seed}; "
                      f"run bench/pin.py for seeds 0-{INPUT_SEEDS - 1}")
    failed += sum(max(ops.values()) for r in results if r is None) + sum(r["failed"] for r in done)
    for rep in done:
        errors.extend(rep["errors"])

    meta = {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "src_lines": src_lines(root),
        "input_seed": input_seed,
        "repetitions": len(results),
        "traced_repetitions": len(traced),
        "pinned": pinned is not None,
        "rep_ops_per_s": [(r["part"], round(r["ops"] / r["ops_s"], 4)) for r in done],
        "rep_setup_s": [round(r["setup_s"], 4) for r in done if r["setup_s"] is not None],
        "probe_s": [round(p, 4) for p in probes],
    }
    print("# meta " + json.dumps(meta, sort_keys=True))
    untraced = [r for r in done if not any(r is t for t, _, _ in traced)]
    metrics: dict[str, float] = {}
    units = metric_units("per_layer" if args.trace else "end_to_end")
    try:
        if args.trace:
            metrics = trace_metrics(args, root, ops, untraced, traced, errors)
        else:
            slow = probe.slowdown(probes)
            rss = by_part(untraced, ops, lambda rep: rep["extra"]["peak_rss_mb"])
            timed = [r for r in untraced if r["setup_s"] is not None]
            metrics = {
                "setup_s": statistics.median(
                    probe.scaled(r["setup_s"], r["setup_cpu_s"], slow) for r in timed
                ),
                "ops_per_s": rate(untraced, ops, slow),
                "peak_rss_mb": max(statistics.median(v) for v in rss.values()),
            }
            queries = {part: n for part, n in ops.items() if part != "learn"}
            rates = [f"qps {rate(untraced, queries, slow):.3f} queries/s"]
            if "learn" in ops:
                pairs = {"learn": ops["learn"]}
                rates.append(f"pairs_per_s {rate(untraced, pairs, slow):.3f} pairs/s")
            print(
                f"# {args.workload} seed {args.seed}: setup_s {metrics['setup_s']:.4f} s | "
                f"ops_per_s {metrics['ops_per_s']:.3f} ops/s | {' | '.join(rates)} | "
                f"peak_rss_mb {metrics['peak_rss_mb']:.1f} MB | "
                f"error_rate {min(failed, attempted) / attempted:.4f} fraction"
            )
            print(
                f"# raw, host {slow:.3f}x slower than reference: setup_s "
                f"{statistics.median(r['setup_s'] for r in timed):.4f} s | "
                f"ops_per_s {rate(untraced, ops):.3f} ops/s"
            )
    except (ValueError, statistics.StatisticsError) as exc:
        errors.append(f"no metrics: {exc}")
    if metrics and metrics.keys() != units.keys():
        errors.append(f"metrics differ from BENCHMARK.json: reported but not listed "
                      f"{sorted(metrics.keys() - units.keys())}, listed but not reported "
                      f"{sorted(units.keys() - metrics.keys())}")
        metrics = {}
    for error in errors:
        print(f"# FAIL {error}", file=sys.stderr)
    failed = min(failed, attempted)
    correct = failed == 0 and not errors
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
