"""LLM client abstraction.

The study called OpenAI/Azure GPT-4 over HTTPS; this repository talks to any
object satisfying :class:`LLMClient`.  The offline reproduction plugs in
:class:`repro.llm.mock_gpt.MockGPT`; a thin adapter to a real API client can
be substituted without touching the repair pipelines.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Protocol

from repro import chaos, obs
from repro.runtime.errors import ReproError, TransientError
from repro.runtime.retry import RetryPolicy, call_with_retry


def estimate_tokens(text: str) -> int:
    """A model-free token estimate (the usual ~4 chars/token heuristic).

    The offline mock has no real tokenizer; this keeps prompt/completion
    cost telemetry comparable in shape to what a billed API would report.
    """
    return max(1, len(text) // 4) if text else 0


@dataclass(frozen=True)
class Message:
    """One chat message."""

    role: str  # "system" | "user" | "assistant"
    content: str


@dataclass
class Conversation:
    """An ordered chat history, as sent to the model."""

    messages: list[Message] = field(default_factory=list)

    def add(self, role: str, content: str) -> None:
        self.messages.append(Message(role=role, content=content))

    def last_assistant(self) -> str | None:
        for message in reversed(self.messages):
            if message.role == "assistant":
                return message.content
        return None

    def rendered(self) -> str:
        """A flat text rendering (used for seeding the mock's RNG)."""
        return "\n".join(f"[{m.role}] {m.content}" for m in self.messages)


class LLMClient(Protocol):
    """Anything that can complete a chat conversation."""

    def complete(self, conversation: Conversation) -> str:
        """Return the assistant's next message for the conversation."""
        ...


@dataclass
class UsageStats:
    """Request accounting, mirroring what an API client would expose."""

    requests: int = 0
    prompt_chars: int = 0
    completion_chars: int = 0

    def record(self, conversation: Conversation, completion: str) -> None:
        self.requests += 1
        self.prompt_chars += sum(len(m.content) for m in conversation.messages)
        self.completion_chars += len(completion)


class TransientLLMError(TransientError):
    """A retryable transport failure: rate limit, dropped connection,
    empty completion.  Real API adapters raise this; the retrying client
    absorbs it."""

    code = "llm.transient"


class LLMProtocolError(ReproError):
    """A non-retryable protocol violation (e.g. a non-string completion)."""

    code = "llm.protocol"


@dataclass
class RetryingClient:
    """An :class:`LLMClient` decorator adding deterministic retry.

    Wraps any client; transparently retries :class:`TransientError`
    completions on the policy's backoff schedule.  Over the offline
    :class:`~repro.llm.mock_gpt.MockGPT` it is a zero-cost pass-through;
    over a real API adapter it is the production resilience layer.  An
    empty or non-string completion is treated as transient — the
    most common real-API glitch — and retried like a dropped connection.
    """

    inner: LLMClient
    policy: RetryPolicy = field(default_factory=RetryPolicy)
    sleep: Callable[[float], None] | None = None
    retries: int = 0
    """Total retries performed, across all requests."""

    def complete(self, conversation: Conversation) -> str:
        def attempt() -> str:
            # Chaos sites bracket the real call: a transport failure fires
            # before the provider is reached (so the retry loop absorbs it),
            # while garbage/truncation corrupt an otherwise-good completion
            # (so the downstream extraction layer must absorb them).
            if chaos.fire("llm.transient") is not None:
                raise TransientLLMError("chaos: injected transport failure")
            completion = self.inner.complete(conversation)
            if not isinstance(completion, str):
                raise LLMProtocolError(
                    f"completion is {type(completion).__name__}, not str"
                )
            if not completion.strip():
                raise TransientLLMError("empty completion")
            event = chaos.fire("llm.garbage")
            if event is not None:
                return chaos.garbled_completion(event.payload)
            event = chaos.fire("llm.truncate", length=len(completion))
            if event is not None:
                return chaos.truncated_completion(completion, event.payload)
            return completion

        def count(attempt_no: int, delay: float, error: BaseException) -> None:
            self.retries += 1
            if obs.get_metrics().enabled:
                obs.counter("llm.retries").inc()

        with obs.span("llm.complete", messages=len(conversation.messages)) as span:
            completion = call_with_retry(
                attempt, policy=self.policy, sleep=self.sleep, on_retry=count
            )
            metrics = obs.get_metrics()
            if metrics.enabled:
                prompt_tokens = sum(
                    estimate_tokens(m.content) for m in conversation.messages
                )
                completion_tokens = estimate_tokens(completion)
                obs.counter("llm.requests").inc()
                obs.counter("llm.prompt_tokens").inc(prompt_tokens)
                obs.counter("llm.completion_tokens").inc(completion_tokens)
                span.set(
                    prompt_tokens=prompt_tokens,
                    completion_tokens=completion_tokens,
                )
        return completion

