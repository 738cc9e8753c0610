"""One round of a workload, in the fresh process that run.py starts.

The round sets up (interpreter start, ``import relop``, input generation),
runs the workload's stages through ``relop.pipeline.run_stage`` and times
them, reads the process's peak RSS, and only then checks every stage's
artifacts. It writes its result as JSON to ``--result``; stdout is free
for the program's own output.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))


def monotonic() -> float:
    # CLOCK_MONOTONIC is system-wide, so run.py can compare it with its own
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def blas_threads():
    """Thread count the loaded OpenBLAS reports, or None if it cannot be asked."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()
                           and ".so" in line})
        for path in libs:
            lib = ctypes.CDLL(path)
            for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                           "openblas_get_num_threads"):
                fn = getattr(lib, symbol, None)
                if fn is not None:
                    fn.restype = ctypes.c_int
                    return int(fn())
    except OSError:
        pass
    return None


def environment() -> dict:
    import numpy
    import scipy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": numpy.__config__.CONFIG["Build Dependencies"]["blas"].get("name"),
        "blas_threads": blas_threads(),
        "machine": platform.machine(),
    }


def make_config(workload: str, seed: int, workdir: Path, reduced: bool):
    from relop.config import PipelineConfig

    from perfbench import workloads

    config = PipelineConfig()
    for key, value in workloads.config_overrides(workload, seed, workdir, reduced).items():
        setattr(config, key, value)
    return config


def check_stages(stages, config, counts: dict, errors: dict) -> list[dict]:
    """Check every stage's artifacts; one record per operation."""
    from relop.pipeline import data_path

    from perfbench import checks

    ctx = checks.Context(workdir=Path(config.workdir), config=config, counts=counts,
                         data_dir=data_path("seeds.csv").parent)
    ops = []
    for name in stages:
        if name in errors:
            problems = [checks.Problem(f"stage raised {errors[name]}")]
        else:
            try:
                problems = checks.CHECKS[name](ctx)
            except Exception as exc:  # an artifact the check cannot read fails it
                problems = [checks.Problem(f"check raised {type(exc).__name__}: {exc}")]
        ops.append({
            "stage": name,
            "failed": bool(problems),
            "known_fault_only": bool(problems) and all(p.known for p in problems),
            "problems": [("known: " if p.known else "") + p.text for p in problems],
        })
    return ops


def run_round(workload: str, seed: int, workdir: Path, trace: bool, reduced: bool) -> dict:
    """Run the workload's stages on inputs already in ``workdir``, then check."""
    from relop.pipeline import run_stage

    from perfbench import workloads
    from perfbench.tracer import Tracer

    config = make_config(workload, seed, workdir, reduced)
    tracer = Tracer() if trace else None
    counts, errors, stage_s = {}, {}, {}
    if tracer:
        tracer.install()
    try:
        started = time.perf_counter()
        for name in workloads.stages(workload):
            begin = time.perf_counter()
            try:
                if tracer:
                    counts[name] = tracer.run_span(f"stage.{name}", run_stage, name, config)
                else:
                    counts[name] = run_stage(name, config)
            except Exception as exc:  # a stage that raises is a failed operation
                errors[name] = f"{type(exc).__name__}: {exc}"
            stage_s[name] = time.perf_counter() - begin
        wall = time.perf_counter() - started
    finally:
        if tracer:
            tracer.uninstall()
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    ops = check_stages(workloads.stages(workload), config, counts, errors)
    result = {"wall_s": wall, "stage_s": stage_s, "peak_rss_mib": peak_rss_mib, "ops": ops,
              "counts": counts}
    if tracer:
        result["layers"] = tracer.metrics()
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--result", type=Path, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--reduced", action="store_true")
    args = parser.parse_args(argv)

    import relop
    import relop.pipeline  # noqa: F401  (the stage entry point is part of set-up)

    if not Path(relop.__file__).resolve().is_relative_to(ROOT / "src"):
        raise SystemExit(f"relop imported from {relop.__file__}, not from {ROOT / 'src'}")
    from perfbench import workloads

    args.workdir.mkdir(parents=True, exist_ok=True)
    workloads.make_inputs(args.workload, args.seed, args.workdir, args.reduced)
    ready = monotonic()
    result = {"ready": ready}
    if not args.setup_only:
        result.update(run_round(args.workload, args.seed, args.workdir, bool(args.trace),
                                args.reduced))
        result["env"] = environment()
    args.result.write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
