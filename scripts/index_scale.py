"""Index-build scale report on generated Zipf corpora.

    python scripts/index_scale.py --docs 200000 1000000 --dir /tmp/index-scale

Run from the repository root; the program is imported from ./src. For each
size the script writes a corpus TSV with the benchmark's generator
(bench/gen.py: Zipf(1.07) over a 20k-word vocabulary, 60 tokens a document),
then runs each step in a fresh interpreter, so that each step's peak RSS is
its own (read from Linux's /proc/self/status):

- `build`: `build_index(iter_corpus_tsv(corpus))`, the path `patternqr index`
  and `run` take, then `save_index` to the index file;
- `load`: `load_index` of that file.

One JSON object per step goes to stdout: seconds, the peak RSS of the
process, its growth over the interpreter with its imports loaded, and that
growth in bytes per token. `save` reports the growth of the peak that
`save_index` adds after the build. The last line projects each step's
growth to the 8.8M passages of the MS MARCO passage collection, linearly in
the number of tokens at the largest size's rate, for passages of 56 tokens.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

import gen  # noqa: E402  (bench/gen.py)
from patternqr.index import build_index, iter_corpus_tsv, load_index, save_index  # noqa: E402

MSMARCO_PASSAGES = 8_841_823
MSMARCO_TOKENS_PER_PASSAGE = 56
SEED = 0
BLOCK_DOCS = 10_000


def peak_rss_mb() -> float:
    """This process image's peak RSS (Linux `VmHWM`). Not `ru_maxrss`: across
    `exec` that keeps the peak of the process that spawned this one."""
    with open("/proc/self/status", encoding="ascii") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc/self/status")


def write_corpus(path: Path, num_docs: int) -> None:
    """Write `num_docs` Zipf documents, a block at a time."""
    words = [gen.word(rank) for rank in range(gen.VOCAB_SIZE)]
    rng = np.random.default_rng(SEED)
    with open(path, "w", encoding="utf-8", newline="\n") as out:
        for start in range(0, num_docs, BLOCK_DOCS):
            ranks = gen.zipf_docs(rng, min(BLOCK_DOCS, num_docs - start)).tolist()
            out.writelines(
                f"{gen.doc_id(start + i)}\t{' '.join(map(words.__getitem__, row))}\n"
                for i, row in enumerate(ranks)
            )


def run_step(step: str, corpus: Path, index_path: Path) -> list[dict]:
    """One step, measured in this process (a child of `main`)."""
    base = peak_rss_mb()
    start = time.perf_counter()
    if step == "load":
        index = load_index(index_path)
        return [_measure("load", start, base, index)]
    index = build_index(iter_corpus_tsv(corpus))
    built = _measure("build", start, base, index)
    base, start = peak_rss_mb(), time.perf_counter()
    save_index(index, index_path)
    saved = _measure("save", start, base, index)
    saved["file_mb"] = index_path.stat().st_size / 2**20
    return [built, saved]


def _measure(step: str, start: float, base_mb: float, index) -> dict:
    seconds = time.perf_counter() - start
    peak = peak_rss_mb()
    tokens = int(index.stream.size)
    return {
        "step": step,
        "docs": index.num_docs,
        "tokens": tokens,
        "seconds": round(seconds, 3),
        "peak_rss_mb": round(peak, 1),
        "growth_mb": round(peak - base_mb, 1),
        "bytes_per_token": round((peak - base_mb) * 2**20 / max(tokens, 1), 2),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--docs", type=int, nargs="+", default=[200_000, 1_000_000])
    parser.add_argument("--dir", type=Path, required=True, help="where corpora and indexes go")
    parser.add_argument("--step", choices=["build", "load"], help=argparse.SUPPRESS)
    parser.add_argument("--corpus", type=Path, help=argparse.SUPPRESS)
    parser.add_argument("--index", type=Path, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.step:
        for record in run_step(args.step, args.corpus, args.index):
            print(json.dumps(record), flush=True)
        return 0

    args.dir.mkdir(parents=True, exist_ok=True)
    last: dict[str, dict] = {}
    for num_docs in args.docs:
        corpus = args.dir / f"corpus-{num_docs}.tsv"
        index_path = args.dir / f"index-{num_docs}.npz"
        if not corpus.exists():
            write_corpus(corpus, num_docs)
        for step in ("build", "load"):
            cmd = [sys.executable, __file__, "--step", step, "--corpus", str(corpus)]
            child = subprocess.run(
                [*cmd, "--index", str(index_path), "--dir", str(args.dir)],
                check=True, capture_output=True, text=True,
            )
            for line in child.stdout.splitlines():
                record = json.loads(line)
                record["corpus_mb"] = round(corpus.stat().st_size / 2**20, 1)
                print(json.dumps(record), flush=True)
                last[record["step"]] = record
    tokens = MSMARCO_PASSAGES * MSMARCO_TOKENS_PER_PASSAGE
    projection = {
        step: round(record["bytes_per_token"] * tokens / 2**30, 1) for step, record in last.items()
    }
    print(json.dumps({"msmarco_passages": MSMARCO_PASSAGES, "tokens": int(tokens),
                      "projected_growth_gb": projection}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
