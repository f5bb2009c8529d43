"""Recurrent-product benchmark: the LSTM step's ``h @ wh.T``, wide and per gate.

    python3 tools/recurrent_gemm.py --repeats 7 --calls 200

A float32 LSTM step multiplies the hidden states of its ``b`` running rows
by the recurrent weights. ``wide`` is one ``(b, H) @ (H, 4H)`` product by a
C-ordered copy of ``wh.T``; ``per-gate`` is four ``(b, H) @ (H, H)``
products, one per gate block of ``wh.T``, each copied C-ordered, into the
planes of a ``(4, b, H)`` array, which is how ``ucnet.neural`` runs it.
Both go through ``ucnet.neural._rowwise_matmul``, so a one-row step is
multiplied as a pair of copies of its row.

For each timed step width, each case runs ``--calls`` products ``--repeats``
times; ``wide_us`` and ``per_gate_us`` are the best repeat's time a product,
in microseconds. Every width from 1 to the largest timed one is also
checked: each per-gate row must equal the wide product's row bit for bit.
The last line of output is one JSON object, and the exit status is 1 if any
row differs. Run from the repository root; BLAS threads are whatever the
environment sets (``OPENBLAS_NUM_THREADS``).
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
from ucnet.neural import _rowwise_matmul  # noqa: E402

WIDTHS = (*range(1, 17), 32, 96, 144)


def staged(wh: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The wide ``(H, 4H)`` and the per-gate ``(4, H, H)`` copies of ``wh.T``."""
    hidden = wh.shape[1]
    return (np.ascontiguousarray(wh.T),
            np.ascontiguousarray(wh.reshape(4, hidden, hidden).transpose(0, 2, 1)))


def best_us(product, calls: int, repeats: int) -> float:
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        for _ in range(calls):
            product()
        best = min(best, (time.perf_counter() - start) / calls)
    return round(best * 1e6, 2)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--hidden", type=int, default=300)
    parser.add_argument("--repeats", type=int, default=7)
    parser.add_argument("--calls", type=int, default=200)
    parser.add_argument("--seed", type=int, default=19)
    args = parser.parse_args(argv)
    if min(args.hidden, args.repeats, args.calls) < 1:
        parser.error("need --hidden, --repeats and --calls >= 1")

    hidden = args.hidden
    rng = np.random.default_rng(args.seed)
    bound = np.sqrt(6.0 / (2 * hidden))
    wh = rng.uniform(-bound, bound, size=(4 * hidden, hidden)).astype(np.float32)
    wide_t, planes = staged(wh)
    states = rng.uniform(-1.0, 1.0, size=(max(WIDTHS), hidden)).astype(np.float32)

    differing = []
    for b in range(1, max(WIDTHS) + 1):
        wide = _rowwise_matmul(states[:b], wide_t)
        per_gate = _rowwise_matmul(states[:b], planes)
        if not np.array_equal(wide.reshape(b, 4, hidden).transpose(1, 0, 2),
                              per_gate):
            differing.append(b)

    timings = []
    for b in WIDTHS:
        h = states[:b]
        wide_out = np.empty((b, 4 * hidden), np.float32)
        gate_out = np.empty((4, b, hidden), np.float32)
        timings.append({
            "rows": b,
            "wide_us": best_us(lambda: _rowwise_matmul(h, wide_t, out=wide_out),
                               args.calls, args.repeats),
            "per_gate_us": best_us(
                lambda: _rowwise_matmul(h, planes, out=gate_out),
                args.calls, args.repeats)})
        print(json.dumps(timings[-1]), file=sys.stderr)
    print(json.dumps({"hidden": hidden, "dtype": "float32",
                      "repeats": args.repeats, "calls": args.calls,
                      "python": sys.version.split()[0], "numpy": np.__version__,
                      "same_bits": not differing, "differing_rows": differing,
                      "timings": timings}))
    if differing:
        print(f"per-gate rows differ from the wide product at step widths "
              f"{differing}", file=sys.stderr)
    return 1 if differing else 0


if __name__ == "__main__":
    raise SystemExit(main())
