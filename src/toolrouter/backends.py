"""Chat and embedding backends: deterministic offline mocks plus HTTP clients.

The mock chat backend is template-driven: it recognizes the prompt kind by
the marker lines in :mod:`toolrouter.prompts` and emits schema-valid canned
responses that are a pure function of (seed, request).
"""

from __future__ import annotations

import hashlib
import json
import os
import re
from typing import Any, Callable, Sequence

import numpy as np

from . import prompts
from ._util import typed
from .errors import BackendUnavailable
from .gateway import ChatRequest, TransientBackendError

_TOKEN_RE = re.compile(r"[a-z0-9_]+")


def _stable_digest(*parts: str) -> str:
    return hashlib.sha256("\x1f".join(parts).encode("utf-8")).hexdigest()


# ---------------------------------------------------------------------------
# Embedding backends
# ---------------------------------------------------------------------------


class MockEmbeddingBackend:
    """Seeded hash-to-unit-vector embedder, fixed dimension 64.

    Each token hashes to a pseudo-random direction; a text embeds to the
    normalized sum of its token directions, so token overlap translates into
    cosine similarity. Deterministic given (seed, text).
    """

    def __init__(self, seed: int = 0, dim: int = 64, model_id: str = "mock-embed-64") -> None:
        self.seed = seed
        self.dim = dim
        self.model_id = model_id
        self._token_cache: dict[str, np.ndarray] = {}

    def _token_vector(self, token: str) -> np.ndarray:
        vec = self._token_cache.get(token)
        if vec is None:
            digest = _stable_digest(str(self.seed), token)
            rng = np.random.default_rng(int(digest[:16], 16))
            vec = rng.standard_normal(self.dim)
            self._token_cache[token] = vec
        return vec

    def embed(self, texts: Sequence[str]) -> list[list[float]]:
        out: list[list[float]] = []
        for text in texts:
            tokens = _TOKEN_RE.findall(text.lower())
            if not tokens:
                tokens = [_stable_digest(str(self.seed), text)[:12]]
            acc = np.zeros(self.dim)
            for token in tokens:
                acc += self._token_vector(token)
            norm = float(np.linalg.norm(acc))
            if norm == 0.0:  # all-token cancellation is practically impossible
                acc[0] = 1.0
                norm = 1.0
            out.append((acc / norm).tolist())
        return out


# ---------------------------------------------------------------------------
# Mock chat backend
# ---------------------------------------------------------------------------


def _json_after(text: str, marker: str) -> Any:
    """Decode the first JSON value following a marker line."""
    idx = text.index(marker) + len(marker)
    rest = text[idx:]
    start = min(i for i in (rest.find("{"), rest.find("[")) if i >= 0)
    value, _ = json.JSONDecoder().raw_decode(rest[start:])
    return value


def _slug(label: str) -> str:
    return re.sub(r"[^a-z0-9]+", "_", label.lower()).strip("_")


def _fill_arguments(schema: dict[str, Any]) -> dict[str, Any]:
    """Minimal schema-conforming arguments: every required field, typed dummies
    (of the first type a property lists)."""
    fillers = {
        "string": "example",
        "integer": 1,
        "number": 1.0,
        "boolean": True,
        "array": [],
        "object": {},
        "null": None,
    }
    arguments: dict[str, Any] = {}
    properties = schema.get("properties", {})
    for prop in schema.get("required", []):
        prop_type = properties.get(prop, {}).get("type", "string")
        if isinstance(prop_type, list):
            prop_type = prop_type[0] if prop_type else "string"
        arguments[prop] = fillers.get(prop_type, "example")
    return arguments


# The current query of a routing prompt and the header of the pool block after it.
_ROUTING_QUERY = re.compile(r'<current query>"(.*?)"</current query>\n\nAvailable (tools|agents):\n<\2>', re.DOTALL)


class MockChatBackend:
    """Pattern-matching canned-response chat backend for offline runs."""

    def __init__(self, seed: int = 0, model_id: str = "mock-chat") -> None:
        self.seed = seed
        self.model_id = model_id

    def complete(self, request: ChatRequest) -> str:
        """The canned reply to the request's prompt; TransientBackendError for
        a prompt it cannot match or read, as a live backend's failed call."""
        try:
            return self._reply("\n".join(m.content for m in request.messages))
        except (LookupError, TypeError, ValueError, AttributeError) as exc:  # JSONDecodeError is a ValueError
            raise TransientBackendError(f"mock chat backend cannot read this prompt: {exc!r}") from exc

    def _reply(self, prompt: str) -> str:
        if prompts.TOOL_MUTATION_MARKER in prompt:
            return self._tool_mutant(prompt)
        if prompts.AGENT_MUTATION_MARKER in prompt:
            return self._agent_mutant(prompt)
        if prompts.TASK_PROPOSAL_MARKER in prompt:
            return self._task_plan(prompt)
        if prompts.ASSISTANT_TURN_MARKER in prompt:
            return self._assistant_turn(prompt)
        if prompts.RESULT_SIM_MARKER in prompt:
            return self._simulated_result(prompt)
        if prompts.USER_TURN_MARKER in prompt:
            return self._user_turn(prompt)
        if prompt.startswith((prompts.ROUTER_SYSTEM_AGENT, prompts.ROUTER_SYSTEM_TOOL)):
            return self._routing_reply(prompt)
        if prompts.LRA_REASONER_MARKER in prompt:
            return self._lra_action(prompt)
        raise TransientBackendError("mock chat backend cannot match this prompt kind")

    # -- mutation ---------------------------------------------------------

    @staticmethod
    def _mutation_type(prompt: str) -> str:
        match = re.search(r"^## Mutation Strategy: (.+)$", prompt, re.MULTILINE)
        if match is None:
            raise TransientBackendError("mutation prompt without strategy line")
        return match.group(1).strip()

    def _tool_mutant(self, prompt: str) -> str:
        base = _json_after(prompt, "## Original Tool Analysis")
        op_slug = _slug(self._mutation_type(prompt))
        schema = dict(base.get("inputSchema", {"type": "object", "properties": {}}))
        properties = dict(schema.get("properties", {}))
        properties[f"{op_slug}_mode"] = {
            "type": "string",
            "description": f"Behavior selector introduced by the {op_slug} variant.",
        }
        schema["properties"] = properties
        schema["type"] = "object"
        mutant = {
            "name": f"{base['name']}_{op_slug}",
            "description": f"{base['description']} Variant emphasizing {op_slug.replace('_', ' ')}.",
            "inputSchema": schema,
            "tags": base.get("tags", []),
        }
        return json.dumps(mutant, ensure_ascii=False)

    def _agent_mutant(self, prompt: str) -> str:
        name_match = re.search(r"^Agent Name: (.+)$", prompt, re.MULTILINE)
        desc_match = re.search(r"^Description: (.+)$", prompt, re.MULTILINE)
        if name_match is None or desc_match is None:
            raise TransientBackendError("agent mutation prompt missing base fields")
        base_name = name_match.group(1).strip()
        tools = list(_json_after(prompt, "Tools Used by This Agent:"))
        schema = _json_after(prompt, "Agent InputSchema (Parameters):")
        op_slug = _slug(self._mutation_type(prompt))

        stem = base_name[: -len("_agent")] if base_name.endswith("_agent") else base_name
        seen: list[str] = []
        for tool in tools:
            if tool not in seen:
                seen.append(tool)
        tools = seen[:8]
        i = 1
        while len(tools) < 4:
            extra = f"{op_slug}_tool_{i}"
            if extra not in tools:
                tools.append(extra)
            i += 1

        properties = {}
        for prop, prop_schema in dict(schema.get("properties", {})).items():
            prop_schema = dict(prop_schema)
            if not prop_schema.get("description"):
                prop_schema["description"] = f"Configures {prop.replace('_', ' ')} for this agent."
            properties[prop] = prop_schema
        if not properties:
            properties["instruction"] = {
                "type": "string",
                "description": "Natural-language instruction describing the job for this agent.",
            }
        mutant = {
            "name": f"{stem}_{op_slug}_agent",
            "description": f"{desc_match.group(1).strip()} Respecialized via {op_slug.replace('_', ' ')}.",
            "tools": tools,
            "inputSchema": {"type": "object", "properties": properties},
            "tags": ["general agent"],
        }
        return json.dumps(mutant, ensure_ascii=False)

    # -- trajectory synthesis -------------------------------------------------

    def _task_plan(self, prompt: str) -> str:
        specs = _json_after(prompt, "<candidates>")
        names = [spec["name"] for spec in specs]
        tag = _stable_digest(str(self.seed), *names)[:8]
        task = (
            f"Complete a multi-step workflow (job {tag}) that exercises the following capabilities "
            f"in order: {', '.join(names)}."
        )
        steps = [{"goal": f"Use {name} to advance the workflow", "candidate": name} for name in names]
        return json.dumps({"task": task, "steps": steps}, ensure_ascii=False)

    def _assistant_turn(self, prompt: str) -> str:
        if prompts.PLAN_COMPLETE_SENTENCE in prompt:
            tag = _stable_digest(str(self.seed), prompt)[:8]
            return json.dumps(
                {"assistant": f"All steps are complete. Final answer: workflow finished ({tag}).", "calls": []},
                ensure_ascii=False,
            )
        step = _json_after(prompt, prompts.NEXT_STEP_HEADER)
        arguments = _fill_arguments(step.get("spec", {}).get("inputSchema", {}))
        return json.dumps(
            {
                "assistant": f"Proceeding: {step['goal']}.",
                "calls": [{"name": step["candidate"], "arguments": arguments}],
            },
            ensure_ascii=False,
        )

    def _simulated_result(self, prompt: str) -> str:
        name_match = re.search(r"^Call: (.+)$", prompt, re.MULTILINE)
        name = name_match.group(1).strip() if name_match else "unknown"
        tag = _stable_digest(str(self.seed), prompt)[:10]
        return f"[simulated] {name} completed successfully; output reference {tag}."

    def _user_turn(self, prompt: str) -> str:
        if prompts.ERROR_HINT_SENTENCE in prompt:
            return "That last result looks off to me, please double-check it and try again."
        return "Looks good so far, please continue with the next step."

    # -- routing ----------------------------------------------------------------

    def _routing_reply(self, prompt: str) -> str:
        # the pool block after the current query: the query and history may hold "<tools>" too
        match = _ROUTING_QUERY.search(prompt)
        if match is None:
            raise TransientBackendError("routing prompt without a query and pool block")
        query = match.group(1)
        names = [spec["name"] for spec in json.JSONDecoder().raw_decode(prompt, match.end())[0]]
        chosen = next((name for name in names if name in query), names[0] if names else "none")
        return f'<think>Matching the query against candidate capabilities.</think>\n["{chosen}"]'

    # -- light routing agent ------------------------------------------------------

    def _lra_action(self, prompt: str) -> str:
        routes = prompt.count("[router decision]")
        executions = prompt.count("[execution result]")
        if routes == 0:
            task_match = re.search(r"^Task: (.+)$", prompt, re.MULTILINE)
            need = task_match.group(1).strip() if task_match else "complete the task"
            return json.dumps({"action": "route", "need": need})
        if executions < routes:
            return json.dumps({"action": "execute", "arguments": {}})
        return json.dumps({"action": "final", "answer": "Task complete."})


# ---------------------------------------------------------------------------
# HTTP backends (de-facto chat/embedding JSON schema)
# ---------------------------------------------------------------------------


HTTP_TIMEOUT_S = 60.0  # of each request
MAX_TOKENS = 2048  # of each chat reply


class _HTTPBackend:
    """One ``requests.Session`` per backend, carrying the bearer header."""

    def __init__(self, base_url: str, model_id: str, api_key_env: str = "TOOLROUTER_API_KEY") -> None:
        import requests

        self.base_url = base_url.rstrip("/")
        self.model_id = model_id
        self._session = requests.Session()
        self._session.headers["Authorization"] = f"Bearer {os.environ.get(api_key_env, '')}"

    def _post(self, path: str, payload: dict[str, Any], what: str, extract: Callable[[Any], Any]) -> Any:
        """POST ``payload`` and ``extract`` the JSON reply.

        A 4xx other than 408 (timeout) and 429 (rate limit) raises
        BackendUnavailable, which the gateway does not retry; connection
        errors, other HTTP errors and a reply of the wrong shape raise
        TransientBackendError.
        """
        try:
            response = self._session.post(f"{self.base_url}/{path}", json=payload, timeout=HTTP_TIMEOUT_S)
            status = response.status_code
            if not 400 <= status < 500 or status in (408, 429):
                response.raise_for_status()
                return extract(response.json())
        except Exception as exc:  # connection, HTTP status, or payload shape
            raise TransientBackendError(f"{what} backend failure: {exc}") from exc
        raise BackendUnavailable(f"{what} backend rejected the request: HTTP {status}")


class HTTPChatBackend(_HTTPBackend):
    def complete(self, request: ChatRequest) -> str:
        payload = {
            "model": self.model_id,
            "messages": [{"role": m.role, "content": m.content} for m in request.messages],
            "temperature": request.temperature,
            "max_tokens": MAX_TOKENS,
        }
        return self._post("chat/completions", payload, "chat", self._content)

    @staticmethod
    def _content(body: Any) -> str:
        return typed(body["choices"][0]["message"]["content"], str, "chat reply content")


class HTTPEmbeddingBackend(_HTTPBackend):
    def __init__(self, base_url: str, model_id: str, dim: int, api_key_env: str = "TOOLROUTER_API_KEY") -> None:
        super().__init__(base_url, model_id, api_key_env)
        self.dim = dim

    def embed(self, texts: Sequence[str]) -> list[list[float]]:
        payload = {"model": self.model_id, "input": list(texts)}
        return self._post("embeddings", payload, "embedding", self._rows)

    @staticmethod
    def _rows(body: Any) -> list:
        """Each ``data`` item's embedding at its ``index``; an item without one
        keeps its place. ValueError unless the indices are the ints 0..n-1."""
        data = body["data"]
        places = [item.get("index", place) for place, item in enumerate(data)]
        if any(type(place) is not int for place in places) or sorted(places) != list(range(len(data))):
            raise ValueError(f"embedding reply indices {places} are not 0..{len(data) - 1} once each")
        return [item["embedding"] for _, item in sorted(zip(places, data), key=lambda pair: pair[0])]
