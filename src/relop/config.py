"""Flat key=value pipeline configuration with a canonical dump format."""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, fields
from pathlib import Path


class UsageError(Exception):
    """Bad invocation: unknown stage, unknown key, unparsable value."""


@dataclass
class PipelineConfig:
    # paths; empty strings fall back to packaged defaults or workdir artifacts
    workdir: str = "runs/default"
    corpus: str = ""
    gazetteer: str = ""
    seeds_file: str = ""
    official_clients_file: str = ""
    population_file: str = ""
    labels_file: str = ""
    truth_file: str = ""
    # seeding
    master_seed: int = 42
    # ingest
    keywords_a: str = "trump,realdonaldtrump,donaldtrump"
    keywords_b: str = "hillary,clinton,hillaryclinton"
    min_count: int = 5
    # hashtag network
    p_o: float = 1e-6
    prune_ratio: float = 0.001
    lpa_max_sweeps: int = 100
    lpa_weighted: bool = False
    # embedding
    window: int = 3
    embed_dim: int = 50
    hidden_dim: int = 20
    learning_rate: float = 0.1
    alpha: float = 0.5
    epochs: int = 10
    # prediction
    lnp_k: int = 18
    lnp_metric: str = "geodesic"
    propagate_tol: float = 1e-9
    smacof_iters: int = 500
    smacof_tol: float = 1e-9
    # sweep / metrics
    k_min: int = 2
    k_max: int = 25
    label_counts: str = "4,8,12,16"
    runs: int = 50
    # synthetic corpus
    synth_classes: int = 2
    synth_tweets_per_class: int = 500
    synth_lexicon_size: int = 25
    synth_neutral_size: int = 120
    synth_tokens_per_tweet: int = 10
    synth_users_per_class: int = 40
    synth_bot_fraction: float = 0.1
    synth_initial_labels_per_class: int = 2
    # plotting
    plot_label_count: int = 8
    plot_size_channel: str = "stddev"


_FIELD_TYPES = {f.name: f.type for f in fields(PipelineConfig)}
# string keys that take one of a fixed set of values
_CHOICES = {
    "lnp_metric": ("euclidean", "geodesic"),
    "plot_size_channel": ("stddev", "representativeness"),
}


def _parse_value(name: str, raw: str):
    kind = _FIELD_TYPES[name]
    raw = raw.strip()
    try:
        if kind in ("int", int):
            if name == "lnp_k" and int(raw) < 1:
                raise UsageError("config value lnp_k must be at least 1")
            return int(raw)
        if kind in ("float", float):
            return float(raw)
        if kind in ("bool", bool):
            if raw.lower() in ("true", "1", "yes"):
                return True
            if raw.lower() in ("false", "0", "no"):
                return False
            raise ValueError(raw)
        if name == "label_counts":
            parse_int_list(raw)
    except ValueError as exc:
        raise UsageError(f"cannot parse config value {name} = {raw!r}") from exc
    if name in _CHOICES and raw not in _CHOICES[name]:
        raise UsageError(f"config value {name} must be one of {', '.join(_CHOICES[name])}")
    return raw


def _format_value(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def dump_config(config: PipelineConfig) -> str:
    """Canonical textual form: one ``key = value`` line per field, in
    declaration order. This string defines the config hash."""
    lines = [f"{f.name} = {_format_value(getattr(config, f.name))}" for f in fields(config)]
    return "\n".join(lines) + "\n"


def load_config(path) -> PipelineConfig:
    config = PipelineConfig()
    text = Path(path).read_text(encoding="utf-8")
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise UsageError(f"{path}:{lineno}: expected 'key = value', got {line!r}")
        key, _, raw = line.partition("=")
        key = key.strip()
        if key not in _FIELD_TYPES:
            raise UsageError(f"{path}:{lineno}: unknown config key {key!r}")
        setattr(config, key, _parse_value(key, raw))
    return config


def apply_overrides(config: PipelineConfig, pairs: list[tuple[str, str]]) -> PipelineConfig:
    for key, raw in pairs:
        if key not in _FIELD_TYPES:
            raise UsageError(f"unknown config key {key!r}")
        setattr(config, key, _parse_value(key, raw))
    return config


def config_hash(config: PipelineConfig) -> str:
    return hashlib.sha256(dump_config(config).encode("utf-8")).hexdigest()[:16]


def stage_seed(config: PipelineConfig, stage: str) -> int:
    """Per-stage seed derived by hashing (stage name, master seed)."""
    digest = hashlib.sha256(f"{stage}:{config.master_seed}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "little")


def parse_int_list(raw: str) -> list[int]:
    return [int(part) for part in raw.split(",") if part.strip()]


def parse_str_list(raw: str) -> list[str]:
    return [part.strip() for part in raw.split(",") if part.strip()]
