"""One benchmark process: set up a workload and, unless told only to set
up, run its timed stages. `run.py` starts it as a fresh child process with
BLAS threads pinned and reads the JSON it writes to --result.

setup_s runs from the start of this process, before numpy and ucnet are
imported, to the end of the workload's set-up.
"""

from time import perf_counter

START = perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import statistics  # noqa: E402

import numpy as np  # noqa: E402

import ucnet  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


def _blas() -> str:
    try:
        config = np.show_config(mode="dicts")
        blas = config["Build Dependencies"]["blas"]
        return f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        return "unknown"


def run(workload_name: str, seed: int, seconds: float, mode: str, work_dir,
        spans_path=None) -> dict:
    tracer = spans.Tracer(f"{workload_name}-seed{seed}") if mode == "traced" else None
    if tracer:
        tracer.install()
    workload = workloads.WORKLOADS[workload_name]
    ctx = workloads.Context(work_dir, seed, tracer)
    workload.setup(ctx)
    setup_s = perf_counter() - START
    result = {
        "setup_s": setup_s,
        "inputs_digest": workloads.file_digest(*sorted(
            p for p in ctx.inputs.iterdir()
            if not p.name.endswith(".manifest.json"))),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas(),
        "ucnet": ucnet.__version__,
    }
    if mode != "setup":
        passes = []
        begin = perf_counter()
        last = 0.0
        # Start another pass only if it should end within the run's seconds.
        while not passes or perf_counter() - begin + last <= seconds:
            start = perf_counter()
            ctx.times = {}
            figures = workload.run_pass(ctx)
            figures["pipeline_s"] = sum(ctx.times.values())
            figures["stages"] = ctx.times
            passes.append(figures)
            last = perf_counter() - start
        result["passes"] = passes
        result["pipeline_s"] = statistics.median(p["pipeline_s"] for p in passes)
    if tracer:
        tracer.uninstall()
        tracer.finish()
        result["layers"] = tracer.metrics()
        if spans_path:
            tracer.dump(spans_path)
    result["attempted"] = len(ctx.ops)
    result["failures"] = [f"{name}: {detail}" for name, ok, detail in ctx.ops
                          if not ok]
    return result


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", choices=("setup", "measure", "traced"),
                        required=True)
    parser.add_argument("--dir", required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--spans", default=None)
    args = parser.parse_args()
    result = run(args.workload, args.seed, args.seconds, args.mode, args.dir,
                 args.spans)
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1)


if __name__ == "__main__":
    main()
