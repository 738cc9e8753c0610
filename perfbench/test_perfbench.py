"""Tests of the benchmark itself: the checkers reject corrupted artifacts,
a reduced run of every workload completes, and the result document names
exactly the metrics BENCHMARK.json declares.

    PYTHONPATH=src python -m pytest -q perfbench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

from perfbench import checks, workloads  # noqa: E402
from perfbench.run import END_TO_END, per_layer_units  # noqa: E402
from perfbench.tracer import Tracer  # noqa: E402
from perfbench.worker import check_stages, make_config, run_round  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
KNOWN_FAILURES = {"chain-default": {"train", "metrics"}, "corpus-large": set(),
                  "moons-protocol": {"metrics"}}


def run_benchmark(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=300, check=False)


# ---------------------------------------------------------------------------
# the declared metrics


def test_benchmark_json_declares_what_the_command_reports():
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == END_TO_END
    names = list(Tracer().metrics()) + ["trace.overhead_pct"]
    assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} == per_layer_units(names)
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.WORKLOADS)


# ---------------------------------------------------------------------------
# checkers against corrupted artifacts of one reduced chain


@pytest.fixture(scope="module")
def chain_round(tmp_path_factory):
    workdir = tmp_path_factory.mktemp("chain")
    result = run_round("chain-default", 5, workdir, trace=False, reduced=True)
    return workdir, result


def recheck(chain, target: Path, stage: str, corrupt) -> dict:
    source, counts = chain[0], chain[1]["counts"]
    shutil.copytree(source, target)
    corrupt(target)
    config = make_config("chain-default", 5, target, reduced=True)
    return check_stages([stage], config, counts, {})[0]


def test_reduced_chain_fails_only_on_the_known_fault(chain_round):
    _, result = chain_round
    failed = {op["stage"] for op in result["ops"] if op["failed"]}
    assert failed == KNOWN_FAILURES["chain-default"]
    assert all(op["known_fault_only"] for op in result["ops"] if op["failed"])


def test_shifted_point_is_rejected(chain_round, tmp_path):
    def shift(workdir: Path) -> None:
        lines = (workdir / "points.tsv").read_text(encoding="utf-8").splitlines()
        at = next(i for i, line in enumerate(lines) if line.startswith("state\t"))
        level, entity, count, values = lines[at].split("\t")
        first, *rest = values.split()
        lines[at] = "\t".join([level, entity, count,
                               " ".join([repr(float(first) + 1e-9), *rest])])
        (workdir / "points.tsv").write_text("\n".join(lines) + "\n", encoding="utf-8")

    op = recheck(chain_round, tmp_path / "w", "aggregate", shift)
    assert op["failed"] and not op["known_fault_only"]


def test_renamed_label_is_rejected(chain_round, tmp_path):
    def rename(workdir: Path) -> None:
        path = workdir / "hashtag_labels.csv"
        lines = path.read_text(encoding="utf-8").splitlines()
        at = next(i for i, line in enumerate(lines) if line.startswith("#side0tag"))
        tag, label, count = lines[at].split(",")
        lines[at] = ",".join([tag, "pro_clinton" if label != "pro_clinton" else "pro_trump", count])
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")

    op = recheck(chain_round, tmp_path / "w", "hashtag-net", rename)
    assert op["failed"] and not op["known_fault_only"]


def test_dropped_sweep_row_is_rejected(chain_round, tmp_path):
    def drop(workdir: Path) -> None:
        lines = (workdir / "sweep.csv").read_text(encoding="utf-8").splitlines()
        (workdir / "sweep.csv").write_text("\n".join(lines[:-1]) + "\n", encoding="utf-8")

    op = recheck(chain_round, tmp_path / "w", "sweep", drop)
    assert op["failed"] and not op["known_fault_only"]


def test_wrong_selected_k_is_rejected(chain_round, tmp_path):
    def wrong(workdir: Path) -> None:
        chosen = int((workdir / "selected_k.txt").read_text(encoding="utf-8"))
        (workdir / "selected_k.txt").write_text(f"{chosen + 1}\n", encoding="utf-8")

    op = recheck(chain_round, tmp_path / "w", "metrics", wrong)
    assert op["failed"] and not op["known_fault_only"]


def test_mislabeled_training_line_is_rejected(chain_round, tmp_path):
    def relabel(workdir: Path) -> None:
        path = workdir / "training_set.tsv"
        text = path.read_text(encoding="utf-8")
        assert "pro_trump\t" in text
        path.write_text(text.replace("pro_trump\t", "pro_clinton\t", 1), encoding="utf-8")

    op = recheck(chain_round, tmp_path / "w", "label-tweets", relabel)
    assert op["failed"] and not op["known_fault_only"]


def test_numpy_scalar_repr_is_the_known_fault():
    problems: list[checks.Problem] = []
    assert checks._number("np.float64(0.25)", "cell", problems) == 0.25
    assert [p.known for p in problems] == [True]
    checks._number("nan-ish", "cell", problems)
    assert [p.known for p in problems] == [True, False]


# ---------------------------------------------------------------------------
# whole runs of the command


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_reduced_run_completes(workload):
    done = run_benchmark(ROOT, "--workload", workload, "--seed", "3", "--seconds", "0",
                         "--trace", "0", "--reduced")
    assert done.returncode == 0, done.stderr[-2000:]
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    per_round = len(workloads.stages(workload))
    assert result["attempted"] % per_round == 0
    assert result["failed"] * per_round == \
        result["attempted"] * len(KNOWN_FAILURES[workload])
    assert {n: m["unit"] for n, m in result["metrics"].items()} == END_TO_END
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_traced_run_reports_every_per_layer_metric():
    done = run_benchmark(ROOT, "--workload", "chain-default", "--seed", "4", "--seconds", "0",
                         "--trace", "1", "--reduced")
    assert done.returncode == 0, done.stderr[-2000:]
    result = json.loads(done.stdout.strip().splitlines()[-1])
    declared = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert {n: m["unit"] for n, m in result["metrics"].items()} == declared
    assert result["metrics"]["lnp.solve_calls"]["value"] > 0
    assert result["metrics"]["oowe.window_visits"]["value"] > 0


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = run_benchmark(tmp_path, "--workload", "chain-default", "--seed", "1",
                         "--seconds", "1", "--trace", "0")
    assert done.returncode != 0
    assert done.stdout == ""
