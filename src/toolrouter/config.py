"""Pipeline configuration: one file, flag overrides win."""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Iterable, get_type_hints

import yaml

from .backends import HTTPChatBackend, HTTPEmbeddingBackend, MockChatBackend, MockEmbeddingBackend
from .errors import BadConfig, IoError, ParseError
from .gateway import Gateway
from .mutation import EvolveConfig
from .router import RouterConfig
from .sampler import SamplerConfig
from .synthesis import SynthesisConfig


@dataclass
class BackendConfig:
    mode: str = "mock"  # mock | live
    chat_base_url: str = ""
    embed_base_url: str = ""
    api_key_env: str = "TOOLROUTER_API_KEY"
    chat_model: str = "default"
    embed_model: str = "mock-embed-64"
    embed_dim: int = 64
    max_retries: int = 3
    max_chat_calls: int | None = None


@dataclass
class PipelineConfig:
    seed: int | None = 42
    tau: float = 0.82
    backend: BackendConfig = field(default_factory=BackendConfig)
    mutation: EvolveConfig = field(default_factory=EvolveConfig)
    sampler: SamplerConfig = field(default_factory=SamplerConfig)
    synthesis: SynthesisConfig = field(default_factory=SynthesisConfig)
    eval: RouterConfig = field(default_factory=RouterConfig)

    @property
    def rng_seed(self) -> int:
        """The seed the stages derive theirs from; 0 when a live run sets none."""
        return self.seed if self.seed is not None else 0

    def validate(self) -> None:
        if not 0 < self.tau < 1:
            raise BadConfig(f"tau must be in (0, 1), got {self.tau}")
        if self.backend.mode not in ("mock", "live"):
            raise BadConfig(f"unknown backend mode: {self.backend.mode!r}")
        if self.backend.mode == "mock" and self.seed is None:
            raise BadConfig("mock mode requires an explicit seed")
        if self.backend.max_retries < 0:
            raise BadConfig(f"backend max_retries must be >= 0, got {self.backend.max_retries}")
        if self.backend.embed_dim < 1:
            raise BadConfig(f"backend embed_dim must be >= 1, got {self.backend.embed_dim}")


# The YAML-settable keys of each stage section. The pipeline sets the other
# fields of a stage config (seeds, model ids, the router variant and kind).
STAGE_KEYS: dict[str, tuple[type, tuple[str, ...]]] = {
    "mutation": (EvolveConfig, ("max_retries", "tool_fraction", "temperature")),
    "sampler": (SamplerConfig, ("num_seeds", "target_size", "target_range", "restart_prob")),
    "synthesis": (SynthesisConfig, ("max_retries", "max_turns", "error_prob", "temperature")),
    "eval": (RouterConfig, ("temperature",)),
}


def _is_int(value: Any) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


# Field type -> (what a value must be, its check).
_VALUE_CHECKS: dict[Any, tuple[str, Callable[[Any], bool]]] = {
    int: ("an integer", _is_int),
    int | None: ("an integer or null", lambda v: v is None or _is_int(v)),
    float: ("a number", lambda v: _is_int(v) or isinstance(v, float)),
    str: ("a string", lambda v: isinstance(v, str)),
    bool: ("a boolean", lambda v: isinstance(v, bool)),
    tuple[int, int]: (
        "a list of two integers",
        lambda v: isinstance(v, list) and len(v) == 2 and all(map(_is_int, v)),
    ),
}


def _typed(cls: type, raw: Any, where: str, settable: Iterable[str] | None = None) -> dict[str, Any]:
    """The mapping's values, checked against the field types of dataclass ``cls``."""
    if not isinstance(raw, dict):
        raise BadConfig(f"{where} must be a mapping")
    types = get_type_hints(cls)
    unknown = sorted(set(map(str, raw)) - set(types))
    if unknown:
        raise BadConfig(f"unknown {where} key(s): {', '.join(unknown)}")
    derived = sorted(set(raw) - set(types if settable is None else settable))
    if derived:
        raise BadConfig(f"{where} key(s) set by the pipeline, not by a config file: {', '.join(derived)}")
    values = {}
    for key, value in raw.items():
        if types[key] in _VALUE_CHECKS:
            must_be, check = _VALUE_CHECKS[types[key]]
            if not check(value):
                raise BadConfig(f"{where} {key} must be {must_be}, got {value!r}")
        values[key] = tuple(value) if types[key] == tuple[int, int] else value  # from a YAML list
    return values


def load_config(path: str | Path | None) -> PipelineConfig:
    if path is None:
        return PipelineConfig()
    path = Path(path)
    try:
        raw = yaml.safe_load(path.read_text(encoding="utf-8")) or {}
    except OSError as exc:
        raise IoError(f"cannot read config {path}: {exc}") from exc
    except yaml.YAMLError as exc:
        raise ParseError(str(path), "invalid YAML") from exc
    where = f"config {path}"
    raw = _typed(PipelineConfig, raw, where)
    sections = {"backend": BackendConfig(**_typed(BackendConfig, raw.pop("backend", {}), f"{where} backend"))}
    for name, (stage_cls, keys) in STAGE_KEYS.items():
        sections[name] = stage_cls(**_typed(stage_cls, raw.pop(name, {}), f"{where} {name}", keys))
    cfg = PipelineConfig(**raw, **sections)
    cfg.validate()
    return cfg


def make_gateway(cfg: PipelineConfig) -> Gateway:
    backend = cfg.backend
    if backend.mode == "mock":
        return Gateway(
            chat_backend=MockChatBackend(seed=cfg.rng_seed, model_id=backend.chat_model),
            embedding_backend=MockEmbeddingBackend(
                seed=cfg.rng_seed, dim=backend.embed_dim, model_id=backend.embed_model
            ),
            max_retries=backend.max_retries,
            backoff_s=0.0,
            max_chat_calls=backend.max_chat_calls,
        )
    return Gateway(
        chat_backend=HTTPChatBackend(
            base_url=backend.chat_base_url,
            model_id=backend.chat_model,
            api_key_env=backend.api_key_env,
        ),
        embedding_backend=HTTPEmbeddingBackend(
            base_url=backend.embed_base_url,
            model_id=backend.embed_model,
            dim=backend.embed_dim,
            api_key_env=backend.api_key_env,
        ),
        max_retries=backend.max_retries,
        max_chat_calls=backend.max_chat_calls,
    )
