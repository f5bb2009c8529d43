"""Embedding-table load benchmark: wall time and peak RSS of one load.

    python3 tools/embedding_io.py --rows 100000 --dim 300 --vocabulary 2000 \
        --dir /tmp/embedding-io

Writes a seeded, locally generated word-vector table in the text format
``ucnet.embeddings`` reads (``<rows> <dim>`` header, then one token and its
values to 6 decimals per line, as word2vec's text dumps print them), unless
the file is already there. Then each case loads it in a fresh Python
process and reports its wall time and peak RSS:

- ``whole-file``: the loader ucnet had before streaming. It decodes the
  whole file, splits it into lines, keeps every row as a list of Python
  floats and builds the matrix at the end. It cannot filter.
- ``streaming``: ``ucnet.embeddings.load_embeddings`` on every row.
- ``streaming-filtered``: the same, kept to a seeded ``--vocabulary`` of
  the table's tokens, as the CLI keeps a corpus's.

``peak_rss_mb`` is the process's peak resident set (``ru_maxrss``), and
``load_rss_mb`` is that peak less the resident set just before the load.
On a small table the peak can be the imports' rather than the load's.
``matrix_sha256`` is the SHA-256 of a case's matrix bytes; the full loads
also report ``vocabulary_sha256``, that of the ``--vocabulary`` tokens'
rows in file order. The run fails unless ``whole-file`` and ``streaming``
give the same matrix bytes and ``streaming``'s vocabulary rows are
``streaming-filtered``'s matrix, byte for byte. The last line of output is
one JSON object. Run from the repository root; it downloads nothing.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CASES = ("whole-file", "streaming", "streaming-filtered")


def write_table(path: Path, rows: int, dim: int, seed: int) -> None:
    import numpy as np

    rng = np.random.default_rng(seed)
    with path.open("w", encoding="utf-8", newline="\n") as fh:
        fh.write(f"{rows} {dim}\n")
        for lo in range(0, rows, 1000):
            block = rng.normal(0.0, 0.1, size=(min(1000, rows - lo), dim))
            fh.writelines(f"w{lo + i} " + " ".join(f"{v:.6f}" for v in row)
                          + "\n" for i, row in enumerate(block.tolist()))


def whole_file_load(path: Path, dim: int):
    """The pre-streaming loader's work: every row parsed, checks included."""
    import numpy as np

    lines = path.read_bytes().decode("utf-8").splitlines()
    count, file_dim = map(int, lines[0].split())
    if file_dim != dim:
        raise ValueError(f"{path}: dimension {file_dim}, expected {dim}")
    vocab: dict[str, int] = {}
    rows: list[list[float]] = []
    for line in lines[1:]:
        parts = line.split()
        if not parts:
            continue
        if parts[0] in vocab or len(parts) - 1 != dim:
            raise ValueError(f"{path}: bad line for {parts[0]!r}")
        rows.append([float(v) for v in parts[1:]])
        vocab[parts[0]] = len(vocab)
    if len(vocab) != count:
        raise ValueError(f"{path}: header promises {count} tokens")
    matrix = np.array(rows, dtype=np.float64).reshape(len(rows), dim)
    if not np.isfinite(matrix).all():
        raise ValueError(f"{path}: non-finite values")
    return vocab, matrix


def _peak_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _resident_mb() -> float:
    """The resident set now (Linux); elsewhere the peak so far."""
    try:
        pages = int(Path("/proc/self/statm").read_text().split()[1])
    except OSError:
        return _peak_mb()
    return pages * os.sysconf("SC_PAGE_SIZE") / 2**20


def run_case(case: str, path: Path, dim: int, vocabulary: list[str]) -> dict:
    """Load once in this process; the caller starts a fresh one per case."""
    from ucnet.embeddings import load_embeddings

    keep = set(vocabulary) if case == "streaming-filtered" else None
    before = _resident_mb()
    start = time.perf_counter()
    if case == "whole-file":
        vocab, matrix = whole_file_load(path, dim)
    else:
        table = load_embeddings(path, dim, keep)
        vocab, matrix = table.vocab, table.matrix
    seconds = time.perf_counter() - start
    peak = _peak_mb()
    result = {"case": case, "load_s": round(seconds, 4),
              "peak_rss_mb": round(peak, 2),
              "load_rss_mb": round(peak - before, 2), "rows_kept": len(vocab),
              "matrix_mb": round(matrix.nbytes / 2**20, 2),
              "matrix_sha256": _sha256(matrix)}
    if keep is None:
        rows = sorted(vocab[token] for token in vocabulary)
        result["vocabulary_sha256"] = _sha256(matrix[rows])
    return result


def _sha256(matrix) -> str:
    import numpy as np

    return hashlib.sha256(np.ascontiguousarray(matrix).tobytes()).hexdigest()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--rows", type=int, default=100_000)
    parser.add_argument("--dim", type=int, default=300)
    parser.add_argument("--vocabulary", type=int, default=2000)
    parser.add_argument("--seed", type=int, default=16)
    parser.add_argument("--dir", required=True,
                        help="where the table is written and kept")
    parser.add_argument("--child", choices=CASES, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not 0 <= args.vocabulary <= args.rows or args.dim <= 0:
        parser.error("need --dim > 0 and 0 <= --vocabulary <= --rows")

    import numpy as np

    directory = Path(args.dir)
    path = directory / f"table-{args.rows}x{args.dim}-seed{args.seed}.txt"
    picked = np.random.default_rng(args.seed + 1).choice(
        args.rows, size=args.vocabulary, replace=False)
    vocabulary = [f"w{i}" for i in sorted(picked.tolist())]
    if args.child:
        print(json.dumps(run_case(args.child, path, args.dim, vocabulary)))
        return 0

    directory.mkdir(parents=True, exist_ok=True)
    if not path.exists():
        start = time.perf_counter()
        partial = path.with_suffix(".partial")
        write_table(partial, args.rows, args.dim, args.seed)
        partial.replace(path)
        print(f"wrote {path} in {time.perf_counter() - start:.1f} s",
              file=sys.stderr)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    results = []
    for case in CASES:
        child = subprocess.run(
            [sys.executable, __file__, *(argv or sys.argv[1:]), "--child", case],
            env=env, capture_output=True, text=True, check=False)
        if child.returncode:
            raise SystemExit(f"{case} failed:\n{child.stderr}")
        results.append(json.loads(child.stdout.splitlines()[-1]))
        print(json.dumps(results[-1]), file=sys.stderr)
    whole, streaming, filtered = results
    if whole["matrix_sha256"] != streaming["matrix_sha256"]:
        raise SystemExit("whole-file and streaming loads disagree on the "
                         "matrix bytes")
    if streaming["vocabulary_sha256"] != filtered["matrix_sha256"]:
        raise SystemExit("streaming-filtered's matrix is not streaming's "
                         "rows of the vocabulary, byte for byte")
    print(json.dumps({"table": {"rows": args.rows, "dim": args.dim,
                                "seed": args.seed, "bytes": path.stat().st_size,
                                "vocabulary": args.vocabulary},
                      "python": sys.version.split()[0],
                      "numpy": np.__version__, "cases": results}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
