"""Spans and counters around the public functions of each toolrouter module.

The tracer wraps functions from the outside: it rebinds each public function
in every toolrouter module that imported it, and each traced method on its
class, and restores the originals on exit. Nothing under src/ changes. Spans
(name, start, end, parent, op id) stay in memory until the run writes them.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, Iterator

LAYERS = (
    "registry", "graph", "mutation", "sampler", "synthesis", "supervision",
    "router", "evaluation", "lra", "gateway", "backends", "cli",
)
VARIANTS = ("embedding_q", "embedding_qh", "llm", "oracle", "random")
SETTING_KEYS = {"Clean": "clean", "+Mutation": "plus_mutation", "+External": "plus_external"}
CLI_COMMANDS = ("build-graph", "mutate", "synthesize", "extract", "evaluate")

_DISCARD_REASONS = (
    ("over length", "over_length"),
    ("unparseable assistant turn", "unparseable_turn"),
    ("assistant action carries more than", "too_many_calls"),
    ("out-of-subset call", "out_of_subset_call"),
    ("schema-violating arguments", "schema_violation"),
)

# (name, unit, better): the per-layer metrics a traced run reports.
PER_LAYER: tuple[tuple[str, str, str], ...] = (
    ("graph.build_graph.s", "s", "lower"),
    ("graph.neighbors.calls", "count", "lower"),
    ("graph.neighbors.s", "s", "lower"),
    ("sampler.sample_subset.calls", "count", "lower"),
    ("sampler.sample_subset.s", "s", "lower"),
    ("graph.nodes", "count", "higher"),
    ("graph.edges", "count", "higher"),
    ("graph.mean_degree", "edges/node", "higher"),
    ("graph.add_mutant.calls", "count", "higher"),
    ("graph.add_mutant.s", "s", "lower"),
    ("mutation.evolve.s", "s", "lower"),
    ("mutation.rounds", "count", "higher"),
    ("mutation.accepted", "count", "higher"),
    ("mutation.accept_ratio", "ratio", "higher"),
    ("graph.save_graph.s", "s", "lower"),
    ("graph.load_graph.s", "s", "lower"),
    ("graph.snapshot_bytes", "bytes", "lower"),
    ("synthesis.synthesize_batch.s", "s", "lower"),
    ("synthesis.propose_task.s", "s", "lower"),
    ("synthesis.simulate_trajectory.s", "s", "lower"),
    ("synthesis.attempts", "count", "lower"),
    ("synthesis.trajectories", "count", "higher"),
    ("synthesis.yield", "ratio", "higher"),
    ("synthesis.discarded.over_length", "count", "lower"),
    ("synthesis.discarded.other", "count", "lower"),
    ("synthesis.chat_calls_per_trajectory", "calls/traj", "lower"),
    ("supervision.build_dataset.s", "s", "lower"),
    ("supervision.render_sample.s", "s", "lower"),
    ("supervision.load_dataset.s", "s", "lower"),
    ("supervision.instances", "count", "higher"),
    ("supervision.dataset_bytes", "bytes", "lower"),
    ("gateway.chat.calls", "count", "lower"),
    ("gateway.chat.s", "s", "lower"),
    ("backends.chat.calls", "count", "lower"),
    ("backends.chat.s", "s", "lower"),
    ("gateway.retries", "count", "lower"),
    ("gateway.approx_tokens", "tokens", "lower"),
    *(
        (f"registry.{fn}.{stat}", unit, "lower")
        for fn in ("pool_specs", "serialize_phi", "bank_merge", "load_bank")
        for stat, unit in (("calls", "count"), ("s", "s"))
    ),
    ("gateway.embed_texts.calls", "count", "lower"),
    ("gateway.embed_texts.s", "s", "lower"),
    ("gateway.texts_embedded", "count", "lower"),
    ("gateway.embed_unique_ratio", "ratio", "higher"),
    ("backends.embed.calls", "count", "lower"),
    ("backends.embed.s", "s", "lower"),
    *(
        (f"router.route.{variant}.{stat}", unit, "lower")
        for variant in VARIANTS
        for stat, unit in (("calls", "count"), ("s", "s"))
    ),
    ("router.abstain_ratio", "ratio", "lower"),
    *((f"evaluation.evaluate.{key}.s", "s", "lower") for key in SETTING_KEYS.values()),
    ("evaluation.build_pool.calls", "count", "lower"),
    ("evaluation.build_pool.s", "s", "lower"),
    ("evaluation.build_pool.per_record", "calls/record", "lower"),
    ("evaluation.pool_size.mean", "candidates", "higher"),
    ("lra.run_episode.calls", "count", "higher"),
    ("lra.run_episode.s", "s", "lower"),
    ("lra.steps", "steps/episode", "lower"),
    ("lra.max_prompt_chars", "chars", "lower"),
    ("lra.catalog_entries_in_prompt", "count", "lower"),
    *((f"cli.{command}.s", "s", "lower") for command in CLI_COMMANDS),
    *((f"{layer}.self_s", "s", "lower") for layer in LAYERS),
    ("trace.spans", "count", "lower"),
    ("trace.overhead_s", "s", "lower"),
)


def _discard_reason(message: str) -> str:
    for prefix, key in _DISCARD_REASONS:
        if message.startswith(prefix):
            return key
    return "invalid_trajectory"


class Tracer:
    """Collects spans and counters while installed (``with Tracer() as t``)."""

    def __init__(self) -> None:
        self.spans: list[tuple[int, str, float, float, int, int]] = []  # id, name, start, end, parent, op
        self.counts: Counter[str] = Counter()
        self.discards: Counter[str] = Counter()
        self.op = -1
        self.paused = False  # set while the benchmark checks outputs
        self._next_id = 0
        self._stack: list[tuple[int, str]] = []
        self._restore: list[Callable[[], None]] = []
        self._texts: set[int] = set()
        self._eval_pairs: set[tuple[int, str]] = set()
        self._usages: dict[int, object] = {}
        self._max_prompt_chars = 0
        self._catalog_entries = 0
        self.graph_props: dict[str, float] = {}

    # -- spans --------------------------------------------------------------

    def start(self, name: str) -> tuple[int, str, float, int]:
        span_id = self._next_id
        self._next_id += 1
        parent = self._stack[-1][0] if self._stack else -1
        self._stack.append((span_id, name))
        return span_id, name, time.perf_counter(), parent

    def end(self, token: tuple[int, str, float, int]) -> None:
        end = time.perf_counter()
        span_id, name, start, parent = token
        self._stack.pop()
        self.spans.append((span_id, name, start, end, parent, self.op))

    def inside(self, name: str) -> bool:
        return any(entry[1] == name for entry in self._stack)

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        token = self.start(name)
        try:
            yield
        finally:
            self.end(token)

    # -- installation -------------------------------------------------------

    def __enter__(self) -> "Tracer":
        from toolrouter import backends, evaluation, gateway, graph, lra, mutation
        from toolrouter import registry, router, sampler, supervision, synthesis

        functions = [
            (graph.build_graph, "graph.build_graph", None),
            (graph.add_mutant, "graph.add_mutant", None),
            (graph.save_graph, "graph.save_graph", self._after_save_graph),
            (graph.load_graph, "graph.load_graph", None),
            (sampler.sample_subset, "sampler.sample_subset", self._after_sample),
            (mutation.evolve, "mutation.evolve", self._after_evolve),
            (synthesis.synthesize_batch, "synthesis.synthesize_batch", None),
            (synthesis.propose_task, "synthesis.propose_task", None),
            (synthesis.simulate_trajectory, "synthesis.simulate_trajectory", self._after_simulate),
            (supervision.build_dataset, "supervision.build_dataset", self._after_build_dataset),
            (supervision.render_sample, "supervision.render_sample", None),
            (supervision.load_dataset, "supervision.load_dataset", None),
            (registry.serialize_phi, "registry.serialize_phi", None),
            (registry.load_bank, "registry.load_bank", None),
            (router.route, self._route_name, self._after_route),
            (evaluation.evaluate, self._evaluate_name, self._after_evaluate),
            (evaluation.build_pool, "evaluation.build_pool", self._after_build_pool),
            (lra.run_episode, "lra.run_episode", self._after_episode),
        ]
        for fn, name, after in functions:
            self._patch_function(fn, self._wrap(fn, name, after))
        methods = [
            (graph.CandidateGraph, "neighbors", "graph.neighbors", None),
            (registry.CandidatePool, "specs", "registry.pool_specs", None),
            (registry.CandidateBank, "merge", "registry.bank_merge", None),
            (gateway.Gateway, "chat", "gateway.chat", self._after_gateway_call),
            (gateway.Gateway, "embed_texts", "gateway.embed_texts", self._after_embed),
            (backends.MockChatBackend, "complete", "backends.chat", None),
            (backends.MockEmbeddingBackend, "embed", "backends.embed", None),
        ]
        for cls, attr, name, after in methods:
            raw = inspect.getattr_static(cls, attr)
            if isinstance(raw, staticmethod):
                wrapped = staticmethod(self._wrap(raw.__func__, name, after))
            else:
                wrapped = self._wrap(raw, name, after)
            setattr(cls, attr, wrapped)
            self._restore.append(functools.partial(setattr, cls, attr, raw))
        return self

    def __exit__(self, *exc) -> None:
        for restore in reversed(self._restore):
            restore()
        self._restore.clear()

    def _patch_function(self, original: Callable, wrapper: Callable) -> None:
        for module in [m for n, m in sys.modules.items() if n.startswith("toolrouter") and m]:
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapper)
                    self._restore.append(functools.partial(setattr, module, attr, original))

    def _wrap(self, fn: Callable, name, after) -> Callable:
        signature = inspect.signature(fn)
        dynamic = callable(name)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.paused:
                return fn(*args, **kwargs)
            bound = signature.bind(*args, **kwargs) if dynamic or after else None
            token = tracer.start(name(bound.arguments) if dynamic else name)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                tracer._on_error(token[1], exc)
                raise
            finally:
                tracer.end(token)
            if after is not None:
                after(bound.arguments, result)
            return result

        return wrapper

    # -- per-call hooks -----------------------------------------------------

    def _on_error(self, name: str, exc: Exception) -> None:
        if name == "synthesis.simulate_trajectory":
            self.discards[_discard_reason(getattr(exc, "reason", str(exc)))] += 1
        elif name == "synthesis.propose_task":
            self.discards["plan_retries_exhausted"] += 1
        elif name.startswith("backends."):
            self.counts["gateway.retries"] += 1

    @staticmethod
    def _route_name(args: dict) -> str:
        return f"router.route.{args['cfg'].variant}"

    @staticmethod
    def _evaluate_name(args: dict) -> str:
        return f"evaluation.evaluate.{SETTING_KEYS.get(args['setting'].variant.value, 'other')}"

    def _after_evaluate(self, args: dict, _result) -> None:
        self._eval_pairs.update((id(record), args["setting"].variant.value) for record in args["dataset"])

    def _after_save_graph(self, args: dict, _result) -> None:
        graph = args["graph"]
        self.graph_props = {
            "graph.nodes": len(graph),
            "graph.edges": len(graph.edges),
            "graph.mean_degree": 2 * len(graph.edges) / max(1, len(graph)),
        }
        self.counts["graph.snapshot_bytes"] += Path(args["path"]).stat().st_size

    def _after_sample(self, _args: dict, _result) -> None:
        if self.inside("synthesis.synthesize_batch"):
            self.counts["synthesis.attempts"] += 1

    def _after_evolve(self, _args: dict, result) -> None:
        self.counts["mutation.rounds"] += len(result.records)
        self.counts["mutation.accepted"] += result.accepted

    def _after_simulate(self, _args: dict, _result) -> None:
        self.counts["synthesis.trajectories"] += 1

    def _after_build_dataset(self, _args: dict, counts: dict) -> None:
        self.counts["supervision.instances"] += sum(counts.values())
        self.counts["supervision.dataset_bytes"] += sum(Path(p).stat().st_size for p in counts)

    def _after_route(self, _args: dict, decision) -> None:
        self.counts["router.abstained"] += int(decision.abstained)

    def _after_build_pool(self, _args: dict, pool) -> None:
        self.counts["evaluation.pool_size.total"] += len(pool)

    def _after_episode(self, _args: dict, log) -> None:
        self.counts["lra.steps"] += len(log.steps)
        self._max_prompt_chars = max(self._max_prompt_chars, log.context_audit["max_prompt_chars"])
        self._catalog_entries = max(self._catalog_entries, log.context_audit["catalog_entries_in_prompt"])

    def _after_gateway_call(self, args: dict, _result) -> None:
        gateway = args["self"]
        self._usages.setdefault(id(gateway.usage), gateway.usage)
        if self.inside("synthesis.synthesize_batch"):
            self.counts["synthesis.chat_calls"] += 1

    def _after_embed(self, args: dict, _result) -> None:
        self._after_gateway_call(args, _result)
        texts = args["texts"]
        self.counts["gateway.texts_embedded"] += len(texts)
        self._texts.update(hash(text) for text in texts)

    # -- results ------------------------------------------------------------

    def write(self, path: Path) -> None:
        with path.open("w", encoding="utf-8") as handle:
            for span_id, name, start, end, parent, op in self.spans:
                record = {"id": span_id, "name": name, "start": start, "end": end, "parent": parent, "op": op}
                handle.write(json.dumps(record) + "\n")

    def stats(self) -> tuple[dict[str, float], dict[str, float], dict[str, float]]:
        """Per-name call counts and inclusive seconds, and per-layer self seconds."""
        calls: Counter[str] = Counter()
        seconds: defaultdict[str, float] = defaultdict(float)
        child_time: defaultdict[int, float] = defaultdict(float)
        for _id, _name, start, end, parent, _op in self.spans:
            child_time[parent] += end - start
        names = {span[0]: span[1] for span in self.spans}
        parents = {span[0]: span[4] for span in self.spans}
        layer_self: defaultdict[str, float] = defaultdict(float)
        for span_id, name, start, end, _parent, _op in self.spans:
            calls[name] += 1
            layer_self[name.split(".", 1)[0]] += end - start - child_time[span_id]
            # inclusive time counts only the outermost span of a recursive name
            ancestor = parents[span_id]
            while ancestor != -1 and names[ancestor] != name:
                ancestor = parents[ancestor]
            if ancestor == -1:
                seconds[name] += end - start
        return dict(calls), dict(seconds), dict(layer_self)

    def metrics(self, overhead_s: float) -> dict[str, float]:
        calls, seconds, layer_self = self.stats()
        c = self.counts
        out: dict[str, float] = {}
        for name, _unit, _better in PER_LAYER:
            if name.endswith(".calls"):
                out[name] = calls.get(name[: -len(".calls")], 0)
            elif name.endswith(".self_s"):
                out[name] = layer_self.get(name[: -len(".self_s")], 0.0)
            elif name.endswith(".s"):
                out[name] = seconds.get(name[: -len(".s")], 0.0)
        attempts = c["synthesis.attempts"]
        trajectories = c["synthesis.trajectories"]
        route_calls = sum(calls.get(f"router.route.{v}", 0) for v in VARIANTS)
        out.update(
            {
                **{k: self.graph_props.get(k, 0) for k in ("graph.nodes", "graph.edges", "graph.mean_degree")},
                "mutation.rounds": c["mutation.rounds"],
                "mutation.accepted": c["mutation.accepted"],
                "mutation.accept_ratio": c["mutation.accepted"] / max(1, c["mutation.rounds"]),
                "graph.snapshot_bytes": c["graph.snapshot_bytes"],
                "synthesis.attempts": attempts,
                "synthesis.trajectories": trajectories,
                "synthesis.yield": trajectories / max(1, attempts),
                "synthesis.discarded.over_length": self.discards["over_length"],
                "synthesis.discarded.other": sum(self.discards.values()) - self.discards["over_length"],
                "synthesis.chat_calls_per_trajectory": c["synthesis.chat_calls"] / max(1, trajectories),
                "supervision.instances": c["supervision.instances"],
                "supervision.dataset_bytes": c["supervision.dataset_bytes"],
                "gateway.retries": c["gateway.retries"],
                "gateway.approx_tokens": sum(u.approx_tokens for u in self._usages.values()),
                "gateway.texts_embedded": c["gateway.texts_embedded"],
                "gateway.embed_unique_ratio": len(self._texts) / max(1, c["gateway.texts_embedded"]),
                "router.abstain_ratio": c["router.abstained"] / max(1, route_calls),
                "evaluation.build_pool.per_record": calls.get("evaluation.build_pool", 0)
                / max(1, len(self._eval_pairs)),
                "evaluation.pool_size.mean": c["evaluation.pool_size.total"]
                / max(1, calls.get("evaluation.build_pool", 0)),
                "lra.steps": c["lra.steps"] / max(1, calls.get("lra.run_episode", 0)),
                "lra.max_prompt_chars": self._max_prompt_chars,
                "lra.catalog_entries_in_prompt": self._catalog_entries,
                "trace.spans": len(self.spans),
                "trace.overhead_s": overhead_s,
            }
        )
        return out

    def bases(self) -> dict[str, str]:
        """The base each ratio was taken over, for the report."""
        calls, _, _ = self.stats()
        c = self.counts
        return {
            "synthesis.yield": f"{c['synthesis.trajectories']} kept / {c['synthesis.attempts']} attempts",
            "mutation.accept_ratio": f"{c['mutation.accepted']} accepted / {c['mutation.rounds']} rounds",
            "gateway.embed_unique_ratio": f"{len(self._texts)} distinct / {c['gateway.texts_embedded']} texts",
            "evaluation.build_pool.per_record": (
                f"{calls.get('evaluation.build_pool', 0)} calls / {len(self._eval_pairs)} (record, setting) pairs"
            ),
            "router.abstain_ratio": (
                f"{c['router.abstained']} abstained / "
                f"{sum(calls.get(f'router.route.{v}', 0) for v in VARIANTS)} decisions"
            ),
        }
