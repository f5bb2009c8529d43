"""ucnet benchmark: workloads driven through the CLI and library API.

    python3 perfbench/run.py --workload paper-train --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1

Run from the repository root. With --trace 0 the last line of output is a
JSON object with the end-to-end metrics of BENCHMARK.json; with --trace 1 it
has the per-layer metrics of one traced pass (set-up included), checked
against one untraced pass. BENCHMARK.json declares paper-train and
long-threads; classic-large runs by name. `--workload all` runs all three
both ways and prints every metric. Each measurement runs in a fresh child
process with BLAS threads pinned to 1; results, with provenance, and the
traced run's spans are kept under .perfbench/results/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
STATE = ROOT / ".perfbench"
WORKLOADS = ("paper-train", "long-threads", "classic-large")
# Set-up runs per measured run; setup_s is their median. The set-up-only
# runs are split between before and after the measured one, so that the
# median spans the whole run rather than its first seconds.
SETUP_REPEATS = 9
# A run, all of its child processes included, ends within this time.
RUN_TIMEOUT_S = 175
PINNED_THREADS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


class BenchError(Exception):
    pass


def _code_hash() -> str:
    """Digest of the program and benchmark sources, keying stored digests."""
    digest = hashlib.sha256()
    for base in (ROOT / "src" / "ucnet", HERE):
        for path in sorted(base.rglob("*")):
            if path.is_file() and path.suffix in (".py", ".txt"):
                digest.update(path.relative_to(ROOT).as_posix().encode())
                digest.update(path.read_bytes())
    return digest.hexdigest()


def _git_sha() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                          capture_output=True, text=True, check=False)
    return done.stdout.strip() or None


def _spawn(workload: str, seed: int, seconds: float, mode: str, work: Path,
           deadline: float, spans_path: Path | None = None) -> tuple[dict, float]:
    """Run worker.py in a fresh process; returns its result and peak RSS (MB).

    The child is killed if it is still running at `deadline` (monotonic).
    """
    work.mkdir(parents=True, exist_ok=True)
    result_path = work / "result.json"
    env = dict(os.environ)
    env.update({name: "1" for name in PINNED_THREADS})
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    argv = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--mode", mode,
            "--dir", str(work), "--result", str(result_path)]
    if spans_path:
        argv += ["--spans", str(spans_path)]
    with open(work / "child.log", "wb") as log:
        child = subprocess.Popen(argv, stdout=log, stderr=subprocess.STDOUT,
                                 env=env, cwd=ROOT)
        while True:
            pid, status, usage = os.wait4(child.pid, os.WNOHANG)
            if pid:
                break
            if time.monotonic() > deadline:
                child.kill()
                _, status, usage = os.wait4(child.pid, 0)
                break
            time.sleep(0.02)
    # Reaped by wait4 (which also gives the child's own peak RSS), so tell
    # Popen not to wait for it again.
    child.returncode = os.waitstatus_to_exitcode(status)
    if child.returncode != 0 or not result_path.exists():
        tail = (work / "child.log").read_text(errors="replace")[-2000:]
        raise BenchError(f"{mode} process for {workload} exited with "
                         f"{child.returncode}:\n{tail}")
    return json.loads(result_path.read_text()), usage.ru_maxrss / 1024.0


def _check_repeat(key: str, digest: str | None) -> str | None:
    """Compare with the digest stored for the same workload, seed and code."""
    if digest is None:
        return None
    path = STATE / "digests.json"
    stored = json.loads(path.read_text()) if path.exists() else {}
    if stored.setdefault(key, digest) != digest:
        return f"output digest differs from an earlier run ({key})"
    path.write_text(json.dumps(stored, indent=1, sort_keys=True))
    return None


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """One benchmark run; returns the result record."""
    work = STATE / "work" / f"{name}-seed{seed}-trace{int(trace)}-{os.getpid()}"
    results = STATE / "results"
    results.mkdir(parents=True, exist_ok=True)
    tag = f"{name}-seed{seed}-trace{int(trace)}"
    deadline = time.monotonic() + RUN_TIMEOUT_S
    failures: list[str] = []
    try:
        if trace:
            # One pass each, so per-layer totals do not depend on how many
            # passes fit in the run.
            measured, _ = _spawn(name, seed, 0, "measure", work / "plain",
                                 deadline)
            traced, _ = _spawn(name, seed, 0, "traced", work / "traced",
                               deadline, results / f"{tag}.spans.jsonl")
            runs = [measured, traced]
        else:
            def setup_only(i):
                return _spawn(name, seed, seconds, "setup", work / f"setup{i}",
                              deadline)[0]
            before = (SETUP_REPEATS - 1) // 2
            runs = [setup_only(i) for i in range(before)]
            measured, peak_rss_mb = _spawn(name, seed, seconds, "measure",
                                           work / "measure", deadline)
            runs.append(measured)
            runs += [setup_only(i) for i in range(before, SETUP_REPEATS - 1)]
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted = sum(r["attempted"] for r in runs)
    for r in runs:
        failures += r["failures"]
    checks = {"inputs repeat": len({r["inputs_digest"] for r in runs}) == 1}
    digests = {p["digest"] for r in runs for p in r.get("passes", [])}
    checks["outputs identical over passes and processes"] = len(digests) == 1
    repeat_error = _check_repeat(f"{name} seed={seed} code={_code_hash()[:16]}",
                                 measured["passes"][0]["digest"])
    checks["outputs repeat across runs"] = repeat_error is None
    attempted += len(checks)
    failures += [f"check {c}" for c, ok in checks.items() if not ok]

    passes = measured["passes"]
    keys = set.intersection(*(set(p) for p in passes)) - {"digest", "stages"}
    figures = {key: statistics.median(p[key] for p in passes)
               for key in sorted(keys)}
    if trace:
        metrics = dict(traced["layers"])
        metrics["trace.overhead_ratio"] = \
            traced["pipeline_s"] / measured["pipeline_s"] - 1.0
    else:
        metrics = {"setup_s": statistics.median(r["setup_s"] for r in runs),
                   "pipeline_s": measured["pipeline_s"],
                   "peak_rss_mb": peak_rss_mb,
                   "videos_per_s": figures["videos_per_s"]}
    record = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": trace,
        "correct": not failures, "attempted": attempted,
        "failed": len(failures), "failures": failures,
        "metrics": metrics,
        "figures": figures | {"ops_failed_ratio": len(failures) / attempted,
                              "passes": len(passes)},
        "stages": [p["stages"] for p in passes],
        "provenance": {
            "seed": seed, "git_sha": _git_sha(), "code_sha256": _code_hash(),
            "ucnet": measured["ucnet"], "python": measured["python"],
            "numpy": measured["numpy"],
            "blas": measured["blas"], "cpu_count": os.cpu_count(),
            "pinned_threads": {n: "1" for n in PINNED_THREADS},
        },
    }
    (results / f"{tag}.json").write_text(json.dumps(record, indent=1))
    return record


def _print_table(record: dict, units: dict[str, str]) -> None:
    print(f"# {record['workload']} seed={record['seed']} "
          f"trace={int(record['trace'])} correct={record['correct']} "
          f"ops={record['attempted']} failed={record['failed']}")
    for failure in record["failures"]:
        print(f"#   FAILED {failure}")
    for name, value in record["metrics"].items():
        print(f"{record['workload']:14} {name:40} {value:14.6g} {units[name]}")
    for name, value in record["figures"].items():
        if name not in record["metrics"]:
            print(f"{record['workload']:14} {name:40} {value:14.6g}")
    print(json.dumps({"provenance": record["provenance"]}))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time per run (default: run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "ucnet" / "__init__.py").is_file():
        print(f"error: no ucnet sources under {ROOT / 'src'}; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    traces = (False, True) if args.workload == "all" else (bool(args.trace),)
    records = []
    try:
        for name in names:
            for trace in traces:
                records.append(run_workload(name, args.seed, seconds, trace))
                _print_table(records[-1], units)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if len(records) == 1:
        metrics = records[0]["metrics"]
    else:
        metrics = {f"{r['workload']}/{k}": v for r in records
                   for k, v in r["metrics"].items()}
    failed = sum(r["failed"] for r in records)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": sum(r["attempted"] for r in records),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k.split("/")[-1]]}
                    for k, v in metrics.items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
