"""Pipeline configuration: one YAML file whose values the flags replace before
anything is checked. A loaded config is frozen; each dataclass checks itself."""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Any, Callable, Iterable, get_type_hints

import yaml

from ._util import read_text
from .backends import HTTPChatBackend, HTTPEmbeddingBackend, MockChatBackend, MockEmbeddingBackend
from .errors import BadConfig, ParseError
from .gateway import Gateway
from .graph import DEFAULT_TAU, GraphConfig
from .mutation import EvolveConfig
from .router import RouterConfig
from .sampler import SamplerConfig
from .synthesis import SynthesisConfig


@dataclass(frozen=True)
class BackendConfig:
    mode: str = "mock"  # mock | live
    chat_base_url: str = ""
    embed_base_url: str = ""
    api_key_env: str = "TOOLROUTER_API_KEY"
    chat_model: str = "default"
    embed_model: str = "mock-embed-64"
    embed_dim: int = 64
    max_retries: int = 3
    max_chat_calls: int | None = None  # 0 allows no chat call

    def __post_init__(self) -> None:
        if self.mode not in ("mock", "live"):
            raise BadConfig(f"unknown backend mode: {self.mode!r}")
        if self.max_retries < 0:
            raise BadConfig(f"backend max_retries must be >= 0, got {self.max_retries}")
        if self.embed_dim < 1:
            raise BadConfig(f"backend embed_dim must be >= 1, got {self.embed_dim}")
        if self.max_chat_calls is not None and self.max_chat_calls < 0:
            raise BadConfig(f"backend max_chat_calls must be >= 0, got {self.max_chat_calls}")


@dataclass(frozen=True)
class PipelineConfig:
    seed: int | None = 42
    tau: float = DEFAULT_TAU
    backend: BackendConfig = field(default_factory=BackendConfig)
    mutation: EvolveConfig = field(default_factory=EvolveConfig)
    sampler: SamplerConfig = field(default_factory=SamplerConfig)
    synthesis: SynthesisConfig = field(default_factory=SynthesisConfig)
    eval: RouterConfig = field(default_factory=RouterConfig)

    def __post_init__(self) -> None:
        GraphConfig(tau=self.tau)  # the one check of the tau range
        if self.backend.mode == "mock" and self.seed is None:
            raise BadConfig("mock mode requires an explicit seed")

    @property
    def rng_seed(self) -> int:
        """The seed the stages derive theirs from; 0 when a live run sets none."""
        return self.seed if self.seed is not None else 0


# The YAML-settable keys of each stage section: the fields of its config but
# the ones the pipeline sets (the seed, the router variant and kind).
_STAGES = {"mutation": EvolveConfig, "sampler": SamplerConfig, "synthesis": SynthesisConfig, "eval": RouterConfig}
STAGE_KEYS: dict[str, tuple[type, tuple[str, ...]]] = {
    name: (cls, tuple(f.name for f in fields(cls) if f.name not in ("rng_seed", "variant", "kind")))
    for name, cls in _STAGES.items()
}


def _is_int(value: Any) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


# Field type -> (what a value must be, its check).
_VALUE_CHECKS: dict[Any, tuple[str, Callable[[Any], bool]]] = {
    int: ("an integer", _is_int),
    int | None: ("an integer or null", lambda v: v is None or _is_int(v)),
    float: ("a number", lambda v: _is_int(v) or isinstance(v, float)),
    str: ("a string", lambda v: isinstance(v, str)),
    tuple[int, int]: (
        "a list of two integers",
        lambda v: isinstance(v, list) and len(v) == 2 and all(map(_is_int, v)),
    ),
}


def _typed(cls: type, raw: Any, where: str, settable: Iterable[str] | None = None, **flags: Any) -> dict[str, Any]:
    """The mapping's values, each of ``flags`` that is not None in place of the
    mapping's, checked against the field types of dataclass ``cls``."""
    if not isinstance(raw, dict):
        raise BadConfig(f"{where} must be a mapping")
    raw = {**raw, **{key: value for key, value in flags.items() if value is not None}}
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


def load_config(
    path: str | Path | None = None, *, seed: int | None = None, backend: str | None = None, tau: float | None = None
) -> PipelineConfig:
    """The config file at ``path`` (the defaults when None) with each flag that
    is not None in place of the file's value, which is then never read."""
    raw: Any = {}
    if path is not None:
        path = Path(path)
        try:
            raw = yaml.safe_load(read_text(path, "config")) or {}
        except yaml.YAMLError as exc:
            raise ParseError(str(path), "invalid YAML") from exc
        except (RecursionError, ValueError) as exc:  # nested past the recursion limit, an int past the digit limit
            raise ParseError(str(path), str(exc)) from exc
    where = "config" if path is None else f"config {path}"
    raw = _typed(PipelineConfig, raw, where, seed=seed, tau=tau)
    backend_raw = _typed(BackendConfig, raw.pop("backend", {}), f"{where} backend", mode=backend)
    sections = {"backend": BackendConfig(**backend_raw)}
    for name, (stage_cls, keys) in STAGE_KEYS.items():
        sections[name] = stage_cls(**_typed(stage_cls, raw.pop(name, {}), f"{where} {name}", keys))
    return PipelineConfig(**raw, **sections)


def make_gateway(cfg: PipelineConfig) -> Gateway:
    """One gateway over the mock or the HTTP backend pair; the mock one sleeps no backoff."""
    backend = cfg.backend
    if backend.mode == "mock":
        chat = MockChatBackend(seed=cfg.rng_seed, model_id=backend.chat_model)
        embed = MockEmbeddingBackend(seed=cfg.rng_seed, dim=backend.embed_dim, model_id=backend.embed_model)
        backoff = {"backoff_s": 0.0}
    else:
        chat = HTTPChatBackend(backend.chat_base_url, backend.chat_model, backend.api_key_env)
        embed = HTTPEmbeddingBackend(backend.embed_base_url, backend.embed_model, backend.embed_dim, backend.api_key_env)
        backoff = {}  # the gateway's default
    return Gateway(chat, embed, max_retries=backend.max_retries, max_chat_calls=backend.max_chat_calls, **backoff)
