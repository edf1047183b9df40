"""LLM substrate: client protocol, prompts, response parsing, simulated GPT-4."""

from repro.llm.client import (
    Conversation,
    LLMClient,
    LLMProtocolError,
    Message,
    RetryingClient,
    TransientLLMError,
    UsageStats,
)
from repro.llm.extract import (
    ExtractionError,
    extract_module,
    try_extract_module,
)
from repro.llm.mock_gpt import CapabilityProfile, MockGPT
from repro.llm.transcripts import ReplayClient, TranscriptRecorder
from repro.llm.prompts import (
    AnalyzerReport,
    CommandReport,
    FeedbackLevel,
    PromptSetting,
    RepairHints,
    initial_multi_round_prompt,
    prompt_agent_conversation,
    render_generic_feedback,
    render_no_feedback,
    single_round_prompt,
)

__all__ = [
    "AnalyzerReport",
    "CapabilityProfile",
    "CommandReport",
    "Conversation",
    "ExtractionError",
    "FeedbackLevel",
    "LLMClient",
    "LLMProtocolError",
    "Message",
    "MockGPT",
    "PromptSetting",
    "ReplayClient",
    "RetryingClient",
    "TranscriptRecorder",
    "TransientLLMError",
    "RepairHints",
    "UsageStats",
    "extract_module",
    "initial_multi_round_prompt",
    "prompt_agent_conversation",
    "render_generic_feedback",
    "render_no_feedback",
    "single_round_prompt",
    "try_extract_module",
]
