"""``repro.service`` — repair-as-a-service: the fault-tolerant daemon.

The paper evaluates repair tools as offline batch runs; this package turns
the same engine into a long-lived service that stays available when
solvers wedge, LLM backends flap, and load spikes.  The pieces:

- :mod:`repro.service.protocol` — the line-delimited JSON job protocol
  spoken over a local socket, plus the :class:`JobSpec`/:class:`JobRecord`
  vocabulary shared by daemon, client, and the cluster ledger;
- :mod:`repro.service.admission` — backpressure by *rejection*: a bounded
  queue and per-tenant token buckets (folded from ledger debits) that
  answer "no, retry after N seconds" instead of buffering without bound;
- :mod:`repro.service.breaker` — circuit breakers that trip on classified
  error rates (LLM transport, analyzer) and fast-fail while open, with
  half-open probes to detect recovery;
- :mod:`repro.service.pool` — the warm worker pool: priority +
  longest-first dispatch, health checks, and automatic replacement of
  wedged workers;
- :mod:`repro.service.daemon` — :class:`ReproService`, the asyncio daemon
  behind ``repro serve``: admission → queue → executor fleet → streamed
  progress → result; a lone daemon is a one-replica cluster, and graceful
  drain journals its in-flight jobs so a restarted daemon adopts them;
- :mod:`repro.service.client` — the blocking socket client behind
  ``repro submit`` / ``repro jobs``;
- :mod:`repro.service.ledger` — the append-only, replayable cluster job
  journal and the replica's handle on it
  (:class:`~repro.service.ledger.ClusterStore`).  The journal is the one
  durable record: job ownership (fenced, heartbeat-renewed leases with
  monotonic tokens and expiry-driven adoption, which make ``repro
  serve`` replicas safe to ``kill -9``), at-most-once commits whose
  cells are the result store (keyed by recipe and run seed),
  at-least-once execution, durable tenant quotas;
- :mod:`repro.service.loadgen` — the synthetic-client load harness
  (``--replicas N`` spreads the fleet across a hosted cluster);
- :mod:`repro.service.drill` — ``repro chaos --service``: the one
  suite of fault-injection drills run *against the live daemon*, alone
  and as a two-replica fleet: the availability SLO (no lost jobs, no
  corrupted results, bounded queue latency), backpressure, breakers,
  drain/resume, lease edge cases and a mid-job ``kill -9`` failover, in
  one byte-stable report.

Heavy modules (daemon, drill — they pull in the experiment engine) are
imported lazily by the CLI; importing :mod:`repro.service` itself stays
cheap.
"""

from repro.service.admission import (
    Admission,
    AdmissionController,
    TokenBucket,
)
from repro.service.breaker import (
    BreakerConfig,
    CircuitBreaker,
)
from repro.service.ledger import (
    LEDGER_SCHEMA,
    ClusterFold,
    ClusterStore,
    DuplicateCommitError,
    JobLedger,
    StaleWriterError,
)
from repro.service.protocol import (
    PROTOCOL_SCHEMA,
    JobSpec,
    JobState,
    ProtocolError,
    ServiceError,
    decode_message,
    encode_message,
)

__all__ = [
    "Admission",
    "AdmissionController",
    "BreakerConfig",
    "CircuitBreaker",
    "ClusterFold",
    "ClusterStore",
    "DuplicateCommitError",
    "JobLedger",
    "JobSpec",
    "JobState",
    "LEDGER_SCHEMA",
    "PROTOCOL_SCHEMA",
    "ProtocolError",
    "ServiceError",
    "StaleWriterError",
    "TokenBucket",
    "decode_message",
    "encode_message",
]
