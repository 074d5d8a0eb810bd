"""Prompt templates for every LLM-facing stage.

Templates use ``<<SLOT>>`` placeholders (filled by :func:`fill`, or given
as their texts and values by :func:`pieces`) because several templates
contain literal JSON braces. The offline mock backend dispatches on the
marker lines defined here, so renderers and the mock stay in sync.
"""

from __future__ import annotations

import re
from functools import lru_cache

_SLOT_RE = re.compile(r"<<([A-Z_]+)>>")


@lru_cache(maxsize=16)
def _pieces(template: str) -> tuple[tuple[str, ...], tuple[str, ...], frozenset[str]]:
    """The template split at its slots (text, slot, text, ..., text), its slots in order, and their set."""
    parts = tuple(_SLOT_RE.split(template))
    return parts, parts[1::2], frozenset(parts[1::2])


def pieces(template: str, **values: str) -> list[str]:
    """``template`` split at its ``<<NAME>>`` slots, with the object ``values[NAME]``
    in each: text, value, text, ..., text.

    Only the template is scanned, so slot text inside an inserted value stays
    as it is. Each template is split once per process (a small cache keyed by
    the template). The slots and the value names must be the same set (ValueError).
    """
    texts, slots, names = _pieces(template)
    if names != values.keys():
        raise ValueError(f"template slots {sorted(names)} do not match the values {sorted(values)}")
    filled = list(texts)
    filled[1::2] = [values[slot] for slot in slots]
    return filled


def fill(template: str, **values: str) -> str:
    """``template`` with ``values[NAME]`` at every ``<<NAME>>`` slot: the join of :func:`pieces`."""
    return "".join(pieces(template, **values))

# --- mutation (tool) ---------------------------------------------------------

TOOL_MUTATION_MARKER = "# Role: Expert Tool Designer"

TOOL_MUTATION_TEMPLATE = """\
# Role: Expert Tool Designer

You are an expert tool designer specializing in creating innovative software tools through genetic algorithm-inspired mutations. Your expertise includes API design, parameter optimization, and functional enhancement.

## Your Task

Perform a MUTATION OPERATION on the given tool to create a new, related but distinct tool that serves a similar domain but with meaningful innovations.

## Original Tool Analysis

<<BASE_JSON>>

## Mutation Strategy: <<MUTATION_TYPE>>

<<MUTATION_DESCRIPTION>>

## Design Requirements

### Functional Requirements:
- Innovation: Create meaningful functional differences while maintaining domain relevance
- Utility: Ensure the new tool solves a real problem or improves upon existing functionality
- Compatibility: Maintain similar complexity level and use case applicability

### Technical Requirements:
- Parameters: Design intuitive, well-typed parameters following JSON Schema standards
- Naming: Use clear, descriptive names that immediately convey purpose
- Documentation: Write concise but comprehensive descriptions
- Validation: Include appropriate parameter validation and constraints

### Constraints:
- Keep the same domain tags: <<TAGS_JSON>>
- Avoid direct copying - ensure meaningful differentiation
- Maintain professional tool naming conventions
- Focus on practical, implementable functionality

## Expected Output

Return ONLY valid JSON in this exact format (no markdown, no extra text):

{
  "name": "descriptive_tool_name",
  "description": "Clear, actionable description of what this tool does and why it's useful",
  "inputSchema": {
    "type": "object",
    "properties": {
      "parameter_name": {
        "type": "appropriate_type",
        "description": "What this parameter does and how to use it"
      }
    },
    "required": ["list_required_parameters"]
  },
  "tags": <<TAGS_JSON>>
}

CRITICAL: Use only double quotes, no single quotes. No markdown formatting.

## Quality Checklist
- Tool name is descriptive and unique
- Description clearly explains purpose and value
- Parameters are well-designed with proper types
- Required parameters are logically necessary
- JSON syntax is valid and complete
"""

# --- mutation (agent) ----------------------------------------------------------

AGENT_MUTATION_MARKER = "# Role: Expert Agent Architect"

AGENT_MUTATION_TEMPLATE = """\
# Role: Expert Agent Architect

You are an expert AI agent architect specializing in designing autonomous agents through genetic algorithm-inspired mutations. Your expertise includes agent workflow design, tool orchestration, and capability planning.

## Your Task

Perform a MUTATION OPERATION on the given agent to create a new, related but distinct agent that serves a similar purpose but with meaningful innovations in its capabilities and tool composition.

## Original Agent Analysis

Agent Name: <<AGENT_NAME>>

Description: <<AGENT_DESCRIPTION>>

Tools Used by This Agent:

<<AGENT_TOOLS_JSON>>

Agent InputSchema (Parameters):

<<AGENT_SCHEMA_JSON>>

## Mutation Strategy: <<MUTATION_TYPE>>

<<MUTATION_DESCRIPTION>>

## Design Requirements

### Agent Design Principles:
- Coherent Toolset: The tools should work together to accomplish the agent's goals
- Clear Workflow: The agent should have a logical flow of operations
- Practical Utility: The agent should solve real-world problems
- Tool Synergy: Tools should complement each other, not duplicate functionality

### Tool Evolution Guidelines:
- You may ADD new tools that enhance the agent's capabilities
- You may MODIFY existing tools to better fit the new agent's purpose
- You may REMOVE tools that don't align with the new agent's focus
- You may RENAME tools to reflect their new context
- Aim for 4-8 tools per agent (not too few, not too many)

### Naming Convention:
- Agent name MUST end with "_agent" suffix
- Use snake_case format
- Name should clearly indicate the agent's primary function
- Example: "code_review_agent", "data_analysis_agent", "document_qa_agent"

### Tags Guidelines:
- Tags should categorize the agent's primary domain or capability
- Use descriptive tags like: "code agent", "search agent", "web agent", "data agent", "research agent", "automation agent", "analysis agent", "multimodal agent", etc.
- Can include multiple tags if the agent spans multiple domains

## Expected Output

Return ONLY valid JSON in this exact format (no markdown, no extra text):

{
  "name": "descriptive_name_agent",
  "description": "Clear description of what this agent does, its primary use cases, and how it accomplishes its goals",
  "tools": ["tool_name_1", "tool_name_2", "tool_name_3"],
  "inputSchema": {
    "type": "object",
    "properties": {
      "parameter_name": {
        "type": "appropriate_type",
        "description": "Detailed description of what this parameter configures for the agent"
      }
    }
  },
  "tags": ["category agent"]
}

CRITICAL REQUIREMENTS:
- Agent name MUST end with "_agent"
- Use only double quotes, no single quotes
- No markdown formatting
- Tools array should contain 4-8 tool names
- Each tool name should be descriptive and use snake_case
- Tags should be descriptive category labels (e.g., "code agent", "search agent", "web agent")
- Each parameter in inputSchema.properties MUST have a detailed "description" field

## Quality Checklist
- Agent name ends with "_agent" and clearly describes purpose
- Description explains the agent's workflow and capabilities
- Tools form a coherent set that enables the agent's goals
- Tools are appropriately evolved from the original (not just copied)
- Parameters make sense for configuring this agent
- Each parameter has a clear, detailed description in inputSchema
- Tags accurately categorize the agent's domain
- JSON syntax is valid and complete
"""

# --- task proposal ---------------------------------------------------------------

TASK_PROPOSAL_MARKER = "You are a task designer for multi-step assistant workflows."

TASK_PROPOSAL_TEMPLATE = """\
You are a task designer for multi-step assistant workflows.

Design a realistic user task together with a coarse-grained execution plan that exercises the candidates below. Every plan step must reference exactly one candidate from the list, by name; do not invent candidates.

<candidates>
<<CANDIDATES_JSON>>
</candidates>

Return ONLY valid JSON in this exact format (no markdown, no extra text):
{"task": "task description", "steps": [{"goal": "what this step achieves", "candidate": "candidate_name"}]}
"""

# --- role-based simulation ----------------------------------------------------------

ASSISTANT_TURN_MARKER = "You are simulating the assistant"

ASSISTANT_TURN_TEMPLATE = """\
You are simulating the assistant in a multi-turn dialogue. Decide the next assistant action.

Task: <<TASK>>

Plan:
<<PLAN_JSON>>

Transcript so far:
<<TRANSCRIPT>>

<<STEP_SECTION>>

Return ONLY valid JSON in this exact format (no markdown, no extra text):
{"assistant": "assistant message", "calls": [{"name": "candidate_name", "arguments": {}}]}
"""

NEXT_STEP_HEADER = "Next planned step:"
PLAN_COMPLETE_SENTENCE = "All planned steps are complete. Provide the final answer to the user."

RESULT_SIM_MARKER = "You are simulating the execution environment."

RESULT_SIM_TEMPLATE = """\
You are simulating the execution environment. Produce a plausible result for this candidate invocation; do not actually execute anything.

Call: <<NAME>>
Arguments: <<ARGS_JSON>>
Candidate spec:
<<SPEC_JSON>>

Return a short plain-text result.
"""

USER_TURN_MARKER = "You are simulating the user"

USER_TURN_TEMPLATE = """\
You are simulating the user in a multi-turn dialogue. React briefly to the assistant's latest action and ask to continue.
<<ERROR_HINT>>
Transcript so far:
<<TRANSCRIPT>>

Return a short plain-text user message.
"""

ERROR_HINT_SENTENCE = "The last result appeared incorrect; signal that something went wrong and ask for a retry."

# --- routing (benchmark sample format) --------------------------------------------------

ROUTER_SYSTEM_AGENT = """\
You are an Agent Router.
Your task is to analyze the meaning of a user query and select the most relevant agents based on the agents' descriptions and schemas.

Guidelines:
1. Consider both the agent descriptions and input schemas when judging relevance.
2. Use the inputSchema to understand what parameters each agent accepts.
3. Do not infer hidden capabilities or invent agents.
4. Return only one agent that is most relevant.
5. Output strictly in the required format: ["agent_name"], no extra commentary."""

ROUTER_SYSTEM_TOOL = """\
You are a Tool Router.
Your task is to analyze the meaning of a user query and select the most relevant tools based on the tools' descriptions and schemas.

Guidelines:
1. Consider both the tool descriptions and input schemas when judging relevance.
2. Use the inputSchema to understand what parameters each tool accepts.
3. Do not infer hidden capabilities or invent tools.
4. Return only one tool that is most relevant.
5. Output strictly in the required format: ["tool_name"], no extra commentary."""

ROUTER_USER_TEMPLATE = """\
Below are examples of the user's past interactions, including queries and system responses:
<history><<HISTORY>></history>

Current user query:
<current query>"<<QUERY>>"</current query>

Available <<PLURAL>>:
<<<PLURAL>>><<POOL_JSON>></<<PLURAL>>>

Task:
<task>
Analyze the current query in the context of the user's past queries and <<SINGULAR>> descriptions.
Return the most relevant <<SINGULAR>> based on their descriptions and schemas.
</task>

Output requirements:
###
- First, think through your reasoning inside <think></think> tags
- Then output only one <<SINGULAR>> name as a JSON array
- Format:
<think>
Your reasoning about which <<SINGULAR>> to select...
</think>

["<<SINGULAR>>_name"]
###"""

# --- light routing agent reasoner ----------------------------------------------------------

LRA_REASONER_MARKER = "You are a task-solving agent equipped with exactly two tools."

LRA_REASONER_TEMPLATE = """\
You are a task-solving agent equipped with exactly two tools. You never see the candidate catalog; use the router to discover what to run.

Available tools:
<<TOOLS_JSON>>

Task: <<TASK>>

Transcript so far:
<<TRANSCRIPT>>

Return ONLY valid JSON, exactly one of:
{"action": "route", "need": "what capability you need right now"}
{"action": "execute", "arguments": {}}
{"action": "final", "answer": "final answer text"}
"""
