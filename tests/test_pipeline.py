import hashlib
import json
import re
import shutil
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from relop.cli import main
from relop.config import (
    PipelineConfig,
    UsageError,
    apply_overrides,
    config_hash,
    dump_config,
    load_config,
    stage_seed,
)
from relop.pipeline import (
    CHAIN,
    DataError,
    VerificationFailure,
    _check_weights,
    data_path,
    run_stage,
    stage_verify,
)

SMALL = dict(
    synth_tweets_per_class=250,
    synth_users_per_class=12,
    synth_tokens_per_tweet=8,
    epochs=2,
    embed_dim=10,
    hidden_dim=6,
    min_count=3,
    runs=3,
    k_min=2,
    k_max=6,
    label_counts="4,8",
    lnp_k=5,
    smacof_iters=150,
)


def small_config(workdir, **extra) -> PipelineConfig:
    config = PipelineConfig(workdir=str(workdir))
    for key, value in {**SMALL, **extra}.items():
        setattr(config, key, value)
    return config


def artifact_hashes(workdir) -> dict[str, str]:
    out = {}
    for path in sorted(Path(workdir).iterdir()):
        if path.name in ("runs.jsonl", ".lock"):
            continue  # manifest carries durations; never part of the artifact set
        out[path.name] = hashlib.sha256(path.read_bytes()).hexdigest()
    return out


class TestConfig:
    def test_dump_load_roundtrip(self, tmp_path):
        config = PipelineConfig(master_seed=7, alpha=0.25, workdir="x/y")
        path = tmp_path / "run.conf"
        path.write_text(dump_config(config))
        assert load_config(path) == config

    def test_comments_and_blanks_ignored(self, tmp_path):
        path = tmp_path / "run.conf"
        path.write_text("# comment\n\nmaster_seed = 9\n")
        assert load_config(path).master_seed == 9

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "run.conf"
        path.write_text("no_such_key = 1\n")
        with pytest.raises(UsageError):
            load_config(path)
        with pytest.raises(UsageError):
            apply_overrides(PipelineConfig(), [("nope", "1")])

    def test_removed_iteration_cap_is_rejected(self, tmp_path):
        path = tmp_path / "run.conf"
        for line in ("propagate_max_iters = 10000\n", "nonnegative_weights = false\n"):
            path.write_text(line)
            with pytest.raises(UsageError):
                load_config(path)

    def test_override_type_parsing(self):
        config = apply_overrides(
            PipelineConfig(),
            [("master_seed", "3"), ("alpha", "0.9"), ("lpa_weighted", "true"),
             ("lnp_metric", "euclidean"), ("plot_size_channel", "representativeness"),
             ("label_counts", "4, 8")],
        )
        assert config.master_seed == 3
        assert config.alpha == 0.9
        assert config.lpa_weighted is True
        assert config.lnp_metric == "euclidean"
        assert config.plot_size_channel == "representativeness"
        assert config.label_counts == "4, 8"

    def test_every_field_is_read(self):
        """A knob that nothing reads has no place in the config: each field
        is read in the package as ``config.<name>`` or relocates an input
        through ``_RELOCATED_BY``."""
        from relop import pipeline

        package = Path(pipeline.__file__).parent
        source = "".join(path.read_text(encoding="utf-8") for path in package.glob("*.py"))
        read = set(re.findall(r"\bconfig\.(\w+)", source)) | set(pipeline._RELOCATED_BY.values())
        assert [f.name for f in fields(PipelineConfig) if f.name not in read] == []

    def test_hash_tracks_content(self):
        a, b = PipelineConfig(), PipelineConfig(master_seed=1)
        assert config_hash(a) != config_hash(b)
        assert config_hash(a) == config_hash(PipelineConfig())

    def test_stage_seeds_differ_per_stage(self):
        config = PipelineConfig()
        assert stage_seed(config, "train") != stage_seed(config, "sweep")


class TestRunStage:
    def test_unknown_stage(self, tmp_path):
        with pytest.raises(UsageError):
            run_stage("launch-missiles", small_config(tmp_path))

    def test_missing_input_names_path(self, tmp_path):
        config = small_config(tmp_path)
        with pytest.raises(DataError, match="corpus.jsonl"):
            run_stage("ingest", config)

    def test_lock_file_rejects_concurrent_runs(self, tmp_path):
        config = small_config(tmp_path)
        Path(tmp_path, ".lock").touch()
        with pytest.raises(DataError, match="lock"):
            run_stage("synth", config)

    def test_failed_stage_removes_partial_outputs(self, tmp_path):
        config = small_config(tmp_path)
        run_stage("synth", config)
        Path(tmp_path, "clean.jsonl").write_text('{"broken": true}\n')
        with pytest.raises(Exception):
            run_stage("hashtag-net", config)
        assert not Path(tmp_path, "hashtag_labels.csv").exists()

    def test_manifest_chains_input_hashes(self, tmp_path):
        config = small_config(tmp_path)
        run_stage("synth", config)
        run_stage("ingest", config)
        records = [
            json.loads(line) for line in Path(tmp_path, "runs.jsonl").read_text().splitlines()
        ]
        assert [r["stage"] for r in records] == ["synth", "ingest"]
        corpus_path = str(Path(tmp_path, "corpus.jsonl"))
        assert records[1]["inputs"][corpus_path] == records[0]["outputs"][corpus_path]
        assert records[1]["config_hash"] == config_hash(config)


@pytest.fixture(scope="module")
def chain_dirs(tmp_path_factory):
    """The reduced full chain, run twice with one master seed and once with
    another; dimensions are small but every stage executes."""
    outputs = {}
    for name, seed in (("a", 11), ("b", 11), ("c", 12)):
        workdir = tmp_path_factory.mktemp(f"chain_{name}")
        config = small_config(workdir, master_seed=seed)
        run_stage("all", config)
        outputs[name] = workdir
    return outputs


class TestPipelineChain:
    def test_all_stage_outputs_exist(self, chain_dirs):
        expected = {
            "corpus.jsonl", "clean.jsonl", "hashtag_labels.csv", "training_set.tsv",
            "model.bin", "vocab.tsv", "embeddings.tsv", "points.tsv",
            "state_summary.csv", "predictions.csv", "sweep.csv",
            "quality_runs.csv", "quality_summary.csv", "selected_k.txt",
            "scatter_states.svg", "error_curves.svg", "pne_curve.svg",
        }
        present = {p.name for p in Path(chain_dirs["a"]).iterdir()}
        assert expected <= present

    def test_same_seed_reruns_byte_identical(self, chain_dirs):
        assert artifact_hashes(chain_dirs["a"]) == artifact_hashes(chain_dirs["b"])

    def test_different_seed_changes_artifacts(self, chain_dirs):
        a = artifact_hashes(chain_dirs["a"])
        c = artifact_hashes(chain_dirs["c"])
        assert a.keys() == c.keys()
        assert a != c

    def test_rerun_single_stage_is_idempotent(self, chain_dirs):
        workdir = chain_dirs["a"]
        config = small_config(workdir, master_seed=11)
        before = artifact_hashes(workdir)
        run_stage("predict", config)
        assert artifact_hashes(workdir) == before

    def test_sweep_reports_propagation_outcomes(self, chain_dirs):
        records = [
            json.loads(line)
            for line in Path(chain_dirs["a"], "runs.jsonl").read_text().splitlines()
        ]
        counts = next(r["counts"] for r in records if r["stage"] == "sweep")
        assert isinstance(counts["unreached_rows"], int) and counts["unreached_rows"] >= 0
        for stage in ("sweep", "metrics"):
            counts = next(r["counts"] for r in records if r["stage"] == stage)
            for key in ("fallback_rows", "unsettled_rows"):
                assert isinstance(counts[key], int) and counts[key] >= 0

    def test_sweep_takes_smacof_iters_from_the_config(self, chain_dirs, tmp_path, monkeypatch):
        """``predict``, ``sweep`` and ``metrics`` each unfold the state points
        once, to the same bits, and record its step count and stop: ``tol``
        at the default ``smacof_iters``, ``cap`` at 3."""
        from relop import lnp

        for name in ("points.tsv", "state_truth.csv", "initial_labels.csv"):
            shutil.copy(Path(chain_dirs["a"], name), tmp_path / name)
        unfolded = []
        unfold = lnp.unfold

        def spy(*args, **kwargs):
            unfolded.append(unfold(*args, **kwargs))
            return unfolded[-1]

        monkeypatch.setattr(lnp, "unfold", spy)
        stages = ("predict", "sweep", "metrics")
        args = ["--workdir", str(tmp_path), "--runs", "2", "--k_min", "2", "--k_max", "3",
                "--label_counts", "4"]
        for extra, stop in (([], "tol"), (["--smacof_iters", "3"], "cap")):
            unfolded.clear()
            for stage in stages:
                assert main([stage, *args, *extra]) == 0
            assert len(unfolded) == 3
            assert len({coords.tobytes() for coords, _, _ in unfolded}) == 1
            records = [
                json.loads(line)
                for line in Path(tmp_path, "runs.jsonl").read_text().splitlines()
            ][-3:]
            assert [r["stage"] for r in records] == list(stages)
            for record, (_, steps, _) in zip(records, unfolded):
                assert record["counts"]["unfold_stop"] == stop
                assert record["counts"]["unfold_iters"] == steps
            assert (steps == 3) == (stop == "cap")

    def test_predictions_schema(self, chain_dirs):
        lines = Path(chain_dirs["a"], "predictions.csv").read_text().splitlines()
        assert lines[0] == "entity,class,score_1,score_2"
        assert all(len(line.split(",")) == 4 for line in lines[1:])


class TestCli:
    def test_help_exits_zero(self, capsys):
        assert main(["help"]) == 0
        assert "stages:" in capsys.readouterr().out

    def test_usage_error_is_exit_1(self, capsys):
        assert main(["not-a-stage", "--workdir", "/tmp/nope"]) == 1
        assert main(["synth", "--no_such_key", "1"]) == 1
        assert main(["sweep", "--nonnegative_weights", "false"]) == 1

    # each bad value below is rejected as the key is parsed, before the stage
    # looks for its inputs (an empty work directory is a data error, exit 2)
    def test_unknown_lnp_metric_is_exit_1(self, tmp_path, capsys):
        assert main(["predict", "--workdir", str(tmp_path), "--lnp_metric", "hyperbolic"]) == 1
        assert "lnp_metric" in capsys.readouterr().err

    def test_unparsable_label_counts_is_exit_1(self, tmp_path, capsys):
        assert main(["sweep", "--workdir", str(tmp_path), "--label_counts", "x"]) == 1
        assert "label_counts" in capsys.readouterr().err

    def test_unknown_plot_size_channel_is_exit_1(self, tmp_path, capsys):
        assert main(["plot", "--workdir", str(tmp_path), "--plot_size_channel", "stdev"]) == 1
        assert "plot_size_channel" in capsys.readouterr().err

    def test_zero_lnp_k_is_exit_1(self, tmp_path, capsys):
        assert main(["predict", "--workdir", str(tmp_path), "--lnp_k", "0"]) == 1
        assert "lnp_k" in capsys.readouterr().err

    def test_label_budget_below_class_count_is_exit_1(self, chain_dirs, tmp_path, capsys):
        """One label for two classes draws none; the sweep stops before it
        writes ``sweep.csv``."""
        for name in ("points.tsv", "state_truth.csv"):
            shutil.copy(Path(chain_dirs["a"], name), tmp_path / name)
        assert main(["sweep", "--workdir", str(tmp_path), "--label_counts", "1,4"]) == 1
        assert "label_counts" in capsys.readouterr().err
        assert not Path(tmp_path, "sweep.csv").exists()

    def test_data_error_is_exit_2(self, tmp_path):
        assert main(["ingest", "--workdir", str(tmp_path)]) == 2

    def test_config_print_canonical(self, capsys):
        assert main(["config", "print", "--master_seed", "5"]) == 0
        out = capsys.readouterr().out
        assert out == dump_config(apply_overrides(PipelineConfig(), [("master_seed", "5")]))

    def test_stage_via_cli(self, tmp_path, capsys):
        args = ["synth", "--workdir", str(tmp_path)]
        for key, value in SMALL.items():
            args += [f"--{key}", str(value)]
        assert main(args) == 0
        assert Path(tmp_path, "corpus.jsonl").exists()

    def test_config_file_loading(self, tmp_path):
        conf = tmp_path / "run.conf"
        conf.write_text(dump_config(small_config(tmp_path / "w")))
        assert main(["synth", "--config", str(conf)]) == 0
        assert Path(tmp_path, "w", "corpus.jsonl").exists()


class TestIngestStage:
    def test_one_tokenize_call_per_parsed_post(self, tmp_path, monkeypatch):
        from relop import ingest, pipeline

        config = small_config(tmp_path)
        run_stage("synth", config)
        calls = []
        for module in (pipeline, ingest):
            real = module.tokenize

            def counted(text, *args, real=real):
                calls.append(text)
                return real(text, *args)

            monkeypatch.setattr(module, "tokenize", counted)
        counts = run_stage("ingest", config)
        assert counts["parsed"] > 0
        assert len(calls) == counts["parsed"]

    def test_distinct_chunks_counts_each_distinct_chunk_once(self, tmp_path):
        config = small_config(tmp_path)
        run_stage("synth", config)
        counts = run_stage("ingest", config)
        texts = [
            json.loads(line)["text"]
            for line in Path(tmp_path, "corpus.jsonl").read_text().splitlines()
        ]
        chunks = [chunk for text in texts for chunk in text.split()]
        assert 0 < counts["distinct_chunks"] == len(set(chunks)) <= len(chunks)
        assert _manifest(tmp_path)[-1]["counts"]["distinct_chunks"] == counts["distinct_chunks"]

    def test_official_fraction_is_official_over_relevant(self, tmp_path):
        config = small_config(tmp_path)
        run_stage("synth", config)
        run_stage("ingest", config)
        counts = _manifest(tmp_path)[-1]["counts"]
        assert 0 < counts["official"] < counts["relevant"]
        assert counts["official_fraction"] == round(counts["official"] / counts["relevant"], 6)

    def test_keywords_match_whatever_their_case(self, tmp_path):
        run_stage("synth", small_config(tmp_path))
        written = []
        for keyword in ("Trump", "trump"):
            assert main(["ingest", "--workdir", str(tmp_path), "--keywords_a", keyword]) == 0
            written.append(Path(tmp_path, "clean.jsonl").read_bytes())
        assert written[0] and written[0] == written[1]

    def test_empty_keyword_group_is_usage_error(self, tmp_path):
        run_stage("synth", small_config(tmp_path))
        assert main(["ingest", "--workdir", str(tmp_path), "--keywords_a", ""]) == 1
        assert not Path(tmp_path, "clean.jsonl").exists()

    def test_official_clients_file_without_a_client_is_data_error(self, tmp_path):
        run_stage("synth", small_config(tmp_path))
        clients = tmp_path / "clients.txt"
        clients.write_text("\n  \n")
        args = ["ingest", "--workdir", str(tmp_path), "--official_clients_file", str(clients)]
        assert main(args) == 2
        assert not Path(tmp_path, "clean.jsonl").exists()


class TestVerifyStage:
    def test_corrupted_model_fails_loudly(self, tmp_path, capsys):
        config = small_config(tmp_path)
        Path(tmp_path).mkdir(exist_ok=True)
        (Path(tmp_path) / "model.bin").write_bytes(b"RELOPOWE" + b"\xff" * 40)
        with pytest.raises(VerificationFailure):
            stage_verify(config)
        out = capsys.readouterr().out
        assert "FAIL oowe_gradients" in out

    def test_verify_exit_code_3_via_cli(self, tmp_path):
        (Path(tmp_path) / "model.bin").write_bytes(b"RELOPOWE" + b"\x00" * 17)
        args = ["verify", "--workdir", str(tmp_path)]
        assert main(args) == 3

    @pytest.mark.parametrize("seed", [3, 16, 56])
    def test_weight_check_certifies_hard_seeds(self, seed):
        """Seeds at which a grid search over signed weights missed the
        optimum by 5e-6 to 3e-4; over the simplex every instance is certified."""
        ok, detail = _check_weights(PipelineConfig(master_seed=seed))
        assert ok, detail


class TestArtifactTables:
    def test_entity_id_with_a_comma_round_trips(self, tmp_path):
        from relop.pipeline import _read_entity_csv, _write_csv

        rows = [("Washington, D.C.", "clinton"), ('say "hi"', "trump"), ("WY", "trump")]
        path = tmp_path / "labels.csv"
        path.write_text('entity,class\n"Washington, D.C.",clinton\n')
        assert _read_entity_csv(path) == {"Washington, D.C.": "clinton"}
        _write_csv(path, ("entity", "class"), rows)
        lines = path.read_text().splitlines()
        assert lines[1] == '"Washington, D.C.",clinton' and lines[3] == "WY,trump"
        assert _read_entity_csv(path) == dict(rows)

    def test_hashtag_with_a_comma_reaches_the_training_set(self, tmp_path):
        from relop.hashtags import OpinionLabel, write_label_map
        from relop.ingest import content_tokens, tokenize

        tokens = content_tokens(tokenize("vote #maga,#trump2016 rally"))
        assert tokens == ["vote", "#maga,#trump2016", "rally"]
        record = {"id": "1", "user_id": "u1", "state": None, "tokens": tokens}
        Path(tmp_path, "clean.jsonl").write_text(json.dumps(record) + "\n")
        tag = "#maga,#trump2016"
        write_label_map(tmp_path / "hashtag_labels.csv", {tag: OpinionLabel.PRO_TRUMP}, {tag: 1})
        assert main(["label-tweets", "--workdir", str(tmp_path)]) == 0
        assert Path(tmp_path, "training_set.tsv").read_text() == "pro_trump\tvote rally\n"


class TestFixtures:
    def test_table2_label_files(self):
        from relop.pipeline import _read_entity_csv

        eight = _read_entity_csv(data_path("labels_8.csv"))
        twelve = _read_entity_csv(data_path("labels_12.csv"))
        assert {e for e, c in eight.items() if c == "clinton"} == {"CA", "DC", "MA", "NY"}
        assert {e for e, c in eight.items() if c == "trump"} == {"NE", "OK", "WV", "WY"}
        assert {e for e, c in twelve.items() if c == "clinton"} == {"CA", "DC", "MA", "NY", "DE", "CT"}
        assert {e for e, c in twelve.items() if c == "trump"} == {"NE", "OK", "WV", "WY", "KS", "WI"}

    def test_polling_fixture_has_seven_misses(self):
        from relop.lnp import evaluate_fixture
        from relop.pipeline import _read_entity_csv

        polling = _read_entity_csv(data_path("polling_cces_2016.csv"))
        truth = _read_entity_csv(data_path("election_2016.csv"))
        count, misses = evaluate_fixture(polling, truth)
        assert count == 7
        assert misses == ["FL", "IA", "MI", "NC", "OH", "PA", "WI"]

    def test_population_table_covers_all_states(self):
        from relop.ingest import US_STATE_CODES
        from relop.pipeline import _read_entity_csv

        populations = _read_entity_csv(data_path("population_2016.csv"))
        assert set(populations) == US_STATE_CODES


def _manifest(workdir) -> list[dict]:
    return [json.loads(line) for line in Path(workdir, "runs.jsonl").read_text().splitlines()]


class TestManifests:
    def test_records_carry_the_process_peak_rss_so_far(self, tmp_path):
        import resource

        config = small_config(tmp_path)
        run_stage("synth", config)
        run_stage("ingest", config)
        after = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        peaks = [record["peak_rss_mib"] for record in _manifest(tmp_path)]
        assert len(peaks) == 2
        assert 0 < peaks[0] <= peaks[1] <= after + 0.05

    def test_manifest_records_every_file_a_stage_opens(self, tmp_path, monkeypatch):
        """Every file a stage reads is a recorded input and every file it
        writes a recorded output; only the manifest itself is exempt."""
        import builtins
        import io

        from relop import pipeline

        opened: list[tuple[Path, str]] = []
        hashing = []
        real_open, real_sha256 = builtins.open, pipeline._sha256

        def recording_open(file, mode="r", *args, **kwargs):
            if not hashing and isinstance(file, (str, Path)):
                opened.append((Path(file).resolve(), mode))
            return real_open(file, mode, *args, **kwargs)

        def sha256(path):  # hashing for the manifest is not the stage's own IO
            hashing.append(path)
            try:
                return real_sha256(path)
            finally:
                hashing.pop()

        monkeypatch.setattr(builtins, "open", recording_open)
        monkeypatch.setattr(io, "open", recording_open)
        monkeypatch.setattr(pipeline, "_sha256", sha256)
        config = small_config(tmp_path)
        undeclared = {}
        for name in [*CHAIN, "verify"]:
            opened.clear()
            run_stage(name, config)
            record = _manifest(tmp_path)[-1]
            assert record["stage"] == name
            inputs = {Path(p).resolve() for p in record["inputs"]}
            outputs = {Path(p).resolve() for p in record["outputs"]}
            for path, mode in opened:
                if path.name == "runs.jsonl":
                    continue
                writes = any(flag in mode for flag in "wax+")
                if path not in (outputs if writes else inputs):
                    undeclared.setdefault(name, set()).add((path.name, mode))
        assert undeclared == {}

    def test_failed_plot_removes_every_figure(self, tmp_path):
        config = small_config(tmp_path)
        figures = ("scatter_states.svg", "error_curves.svg", "pne_curve.svg")
        for name in figures:
            Path(tmp_path, name).write_text("<svg/>")
        Path(tmp_path, "points.tsv").write_text("state\tCA\t3\t0.1 0.")  # truncated row
        with pytest.raises(ValueError):
            run_stage("plot", config)
        assert [name for name in figures if Path(tmp_path, name).exists()] == []

    def test_plot_removes_figures_it_does_not_draw(self, tmp_path):
        """Without sweep or quality tables ``plot`` draws only the scatter; older
        curves are removed and the manifest credits only the scatter to it."""
        config = small_config(tmp_path)
        for name in ("error_curves.svg", "pne_curve.svg"):
            Path(tmp_path, name).write_text("<svg/>")
        Path(tmp_path, "points.tsv").write_text(
            "".join(f"state\tS{i}\t1\t{i}.0 {i % 3}.5\n" for i in range(6))
        )
        run_stage("plot", config)
        assert not Path(tmp_path, "error_curves.svg").exists()
        assert not Path(tmp_path, "pne_curve.svg").exists()
        outputs = _manifest(tmp_path)[-1]["outputs"]
        assert [Path(path).name for path in outputs] == ["scatter_states.svg"]

    def test_predict_counts_unreached_rows(self, tmp_path):
        """Labels in only one of two far clusters reach none of the other's
        points: their score rows stay all zero and are counted."""
        rng = np.random.default_rng(0)
        near = rng.standard_normal((5, 3))
        far = rng.standard_normal((5, 3)) + 100.0
        lines = [
            f"state\t{prefix}{i}\t1\t{' '.join(map(repr, row.tolist()))}\n"
            for prefix, cloud in (("A", near), ("B", far))
            for i, row in enumerate(cloud)
        ]
        Path(tmp_path, "points.tsv").write_text("".join(lines))
        labels = tmp_path / "labels.csv"
        labels.write_text("entity,class\nA0,clinton\nA1,trump\n")
        config = small_config(tmp_path, lnp_metric="euclidean", lnp_k=3, labels_file=str(labels))
        counts = run_stage("predict", config)
        assert counts["unreached_rows"] == 5
        assert counts["fallback_rows"] == 0 and counts["unsettled_rows"] == 0
        assert str(labels) in _manifest(tmp_path)[-1]["inputs"]
