"""The relop benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs rounds of one workload, each in a fresh process (perfbench/worker.py)
on its own inputs (round r uses seed N + 100000 r), until the rounds' timed
parts add up to S seconds (at least one round), and prints one JSON
document on stdout: ``correct``, ``attempted``, ``failed`` and ``metrics``.
With ``--trace 0`` the metrics are the end-to-end ones (medians over the
run's samples); with ``--trace 1`` each round is an untraced round followed
by a traced one, and the metrics are the per-layer ones plus the tracing
overhead. Everything else (progress, per-round figures, the machine's
facts) goes to stderr, and the full record to
``.perfbench_work/<workload>/result.json``. ``--reduced`` runs the small
inputs the benchmark's own tests use.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from perfbench.workloads import WORKLOADS  # noqa: E402

END_TO_END = {"setup_s": "s", "wall_s": "s", "peak_rss_mib": "MiB"}
SETUP_SAMPLES = 3  # set-up is measured at least this often per run
ROUND_TIMEOUT_S = 170
ROUND_SEED_STRIDE = 100_000


def per_layer_units(names) -> dict[str, str]:
    def unit(name: str) -> str:
        if name.endswith("_us"):
            return "us"
        if name.endswith("_s"):
            return "s"
        if name.endswith("_pct"):
            return "%"
        if name.endswith("_per_post"):
            return "calls/post"
        return "count"

    return {name: unit(name) for name in names}


def log(message: str) -> None:
    print(f"[perfbench] {message}", file=sys.stderr, flush=True)


def instance_seed(seed: int, round_no: int) -> int:
    """Each round of a run works on its own inputs, all fixed by the seed."""
    return seed + ROUND_SEED_STRIDE * round_no


def spawn(args, env, workdir: Path, round_no: int, extra: list[str]) -> tuple[float, dict]:
    """Start one worker and return (set-up seconds, its result)."""
    shutil.rmtree(workdir, ignore_errors=True)
    result_path = workdir.with_suffix(".json")
    result_path.unlink(missing_ok=True)
    command = [sys.executable, str(ROOT / "perfbench" / "worker.py"),
               "--workload", args.workload, "--seed", str(instance_seed(args.seed, round_no)),
               "--workdir", str(workdir), "--result", str(result_path), *extra]
    if args.reduced:
        command.append("--reduced")
    started = time.clock_gettime(time.CLOCK_MONOTONIC)
    # the program's stdout goes to our stderr, so stdout holds only the result
    done = subprocess.run(command, env=env, stdout=sys.stderr, timeout=ROUND_TIMEOUT_S,
                          check=False)
    if done.returncode != 0:
        raise RuntimeError(f"worker exited with code {done.returncode}")
    result = json.loads(result_path.read_text(encoding="utf-8"))
    return result["ready"] - started, result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--reduced", action="store_true")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "relop" / "__init__.py").is_file():
        log(f"no relop sources under {ROOT / 'src'}; nothing to benchmark")
        return 2
    nproc = len(os.sched_getaffinity(0))
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(nproc)  # at most one BLAS thread per processor
    base = ROOT / ".perfbench_work" / (("reduced-" if args.reduced else "") + args.workload)
    base.mkdir(parents=True, exist_ok=True)

    setup, rounds, traced = [], [], []
    measured = 0.0  # timed seconds of the rounds whose metrics are reported
    try:
        while True:
            round_no = len(rounds)
            seconds, result = spawn(args, env, base / "round", round_no, ["--trace", "0"])
            rounds.append(result)
            if args.trace:
                traced.append(spawn(args, env, base / "round", round_no, ["--trace", "1"])[1])
                measured += traced[-1]["wall_s"]
            else:
                setup.append(seconds)
                measured += result["wall_s"]
            log(f"round {len(rounds)}: wall {rounds[-1]['wall_s']:.3f} s")
            if measured >= args.seconds:
                break
        while not args.trace and len(setup) < SETUP_SAMPLES:
            setup.append(spawn(args, env, base / "probe", 0, ["--setup-only"])[0])
    except (RuntimeError, subprocess.TimeoutExpired, OSError, ValueError) as exc:
        log(f"run aborted: {exc}")
        return 1

    done = rounds + traced
    ops = [op for r in done for op in r["ops"]]
    failed = [op for op in ops if op["failed"]]
    correct = all(op["known_fault_only"] for op in failed)
    for op in {op["stage"]: op for op in failed}.values():
        log(f"stage {op['stage']} failed: {'; '.join(op['problems'])}")
    if args.trace:
        names = list(traced[0]["layers"])
        values = {n: statistics.median(t["layers"][n] for t in traced) for n in names}
        # each traced round repeats the untraced round before it
        values["trace.overhead_pct"] = 100.0 * statistics.median(
            t["wall_s"] / r["wall_s"] - 1.0 for r, t in zip(rounds, traced))
        units = per_layer_units(values)
    else:
        values = {"setup_s": statistics.median(setup),
                  "wall_s": statistics.median(r["wall_s"] for r in rounds),
                  "peak_rss_mib": statistics.median(r["peak_rss_mib"] for r in rounds)}
        units = END_TO_END
    metrics = {n: {"value": v, "unit": units[n]} for n, v in values.items()}
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "env": done[0]["env"], "setup_s": setup, "rounds": rounds, "traced": traced}
    (base / "result.json").write_text(json.dumps(record, indent=1), encoding="utf-8")
    log(f"environment: {json.dumps(done[0]['env'], sort_keys=True)}")
    print(json.dumps({"correct": correct, "attempted": len(ops), "failed": len(failed),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
