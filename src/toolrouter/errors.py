"""Exception hierarchy shared across the toolkit."""

from __future__ import annotations


class ToolRouterError(Exception):
    """Base class for all toolkit errors."""


# --- candidate specs / banks -------------------------------------------------


class SpecError(ToolRouterError):
    """A candidate specification violates its invariants."""


class MissingField(SpecError):
    def __init__(self, field: str) -> None:
        super().__init__(f"missing required field: {field}")
        self.field = field


class BadAgentName(SpecError):
    def __init__(self, name: str) -> None:
        super().__init__(f'agent name must end with "_agent": {name!r}')
        self.name = name


class SchemaMalformed(SpecError):
    def __init__(self, path: str, reason: str = "") -> None:
        msg = f"malformed input schema at {path}"
        if reason:
            msg += f": {reason}"
        super().__init__(msg)
        self.path = path


class DuplicateToolEntry(SpecError):
    def __init__(self, tool: str) -> None:
        super().__init__(f"duplicate tool entry in agent tools list: {tool!r}")
        self.tool = tool


class ValidationError(ToolRouterError):
    """A bank-level validation failure (e.g. duplicate candidate name)."""

    def __init__(self, name: str, reason: str) -> None:
        super().__init__(f"invalid candidate {name!r}: {reason}")
        self.name = name
        self.reason = reason


class ParseError(ToolRouterError):
    """A bank or dataset file could not be parsed."""

    def __init__(self, location: str, reason: str) -> None:
        super().__init__(f"parse error at {location}: {reason}")
        self.location = location


# --- gateway ------------------------------------------------------------------


class GatewayError(ToolRouterError):
    """Base class for chat/embedding backend failures."""


class BackendUnavailable(GatewayError):
    pass


class BudgetExceeded(GatewayError):
    pass


class RetriesExhausted(BackendUnavailable):
    """Transient backend failures persisted past the retry limit."""


class DimensionMismatch(GatewayError):
    pass


class MalformedEmbedding(GatewayError):
    """A backend returned something other than a list of flat, finite numeric
    rows of finite, nonzero norm."""


# --- graph ----------------------------------------------------------------------


class GraphError(ToolRouterError):
    pass


class ZeroVector(GraphError):
    pass


class EmptyBank(GraphError):
    pass


class EmptyGraph(GraphError):
    pass


class UnknownParent(GraphError):
    def __init__(self, name: str) -> None:
        super().__init__(f"unknown parent node: {name!r}")
        self.name = name


class DuplicateName(GraphError):
    def __init__(self, name: str) -> None:
        super().__init__(f"node name already present: {name!r}")
        self.name = name


# --- mutation -------------------------------------------------------------------


class MutationError(ToolRouterError):
    pass


class NotParseable(MutationError):
    pass


class NameEqualsParent(MutationError):
    pass


class TagMismatch(MutationError):
    pass


# --- sampling / synthesis ---------------------------------------------------------


class BadConfig(ToolRouterError, ValueError):
    """A configuration or argument value out of its range; a ValueError too, as Python's own checks raise."""


class OutOfSubsetReference(ToolRouterError):
    def __init__(self, name: str) -> None:
        super().__init__(f"plan references a candidate outside the subset: {name!r}")
        self.name = name


class RetriesExhaustedSynthesis(ToolRouterError):
    pass


class Discarded(ToolRouterError):
    """A simulated trajectory failed validation and was dropped."""

    def __init__(self, reason: str) -> None:
        super().__init__(f"trajectory discarded: {reason}")
        self.reason = reason


# --- supervision / evaluation ------------------------------------------------------


class PoolMissingLabel(ToolRouterError):
    def __init__(self, label: str) -> None:
        super().__init__(f"ground-truth label not in pool: {label!r}")
        self.label = label


class MissingParameter(ToolRouterError):
    def __init__(self, parameter: str) -> None:
        super().__init__(f"pool setting requires parameter: {parameter}")
        self.parameter = parameter


class IoError(ToolRouterError):
    pass
