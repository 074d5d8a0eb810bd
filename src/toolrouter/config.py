"""Pipeline configuration: one file, flag overrides win."""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Any

import yaml

from .backends import HTTPChatBackend, HTTPEmbeddingBackend, MockChatBackend, MockEmbeddingBackend
from .errors import BadConfig, IoError, ParseError
from .gateway import Gateway


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
    cache: bool = False


@dataclass
class PipelineConfig:
    seed: int | None = 42
    tau: float = 0.82
    backend: BackendConfig = field(default_factory=BackendConfig)
    mutation: dict[str, Any] = field(default_factory=dict)
    sampler: dict[str, Any] = field(default_factory=dict)
    synthesis: dict[str, Any] = field(default_factory=dict)
    eval: dict[str, Any] = field(default_factory=dict)

    def validate(self) -> None:
        if not 0 < self.tau < 1:
            raise BadConfig(f"tau must be in (0, 1), got {self.tau}")
        if self.backend.mode not in ("mock", "live"):
            raise BadConfig(f"unknown backend mode: {self.backend.mode!r}")
        if self.backend.mode == "mock" and self.seed is None:
            raise BadConfig("mock mode requires an explicit seed")


def _known_keys(cls: type, raw: Any, where: str) -> dict[str, Any]:
    if not isinstance(raw, dict):
        raise BadConfig(f"{where} must be a mapping")
    unknown = sorted(set(map(str, raw)) - {f.name for f in fields(cls)})
    if unknown:
        raise BadConfig(f"unknown {where} key(s): {', '.join(unknown)}")
    return raw


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
    raw = _known_keys(PipelineConfig, raw, f"config {path}")
    backend = BackendConfig(**_known_keys(BackendConfig, raw.pop("backend", {}), f"config {path} backend"))
    cfg = PipelineConfig(backend=backend, **raw)
    cfg.validate()
    return cfg


def make_gateway(cfg: PipelineConfig) -> Gateway:
    backend = cfg.backend
    if backend.mode == "mock":
        seed = cfg.seed if cfg.seed is not None else 0
        return Gateway(
            chat_backend=MockChatBackend(seed=seed, model_id=backend.chat_model),
            embedding_backend=MockEmbeddingBackend(
                seed=seed, dim=backend.embed_dim, model_id=backend.embed_model
            ),
            max_retries=backend.max_retries,
            backoff_s=0.0,
            max_chat_calls=backend.max_chat_calls,
            cache=backend.cache,
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
        cache=backend.cache,
    )
