"""Request-coalescing serving tier.

:class:`~repro.serving.batcher.ContractBatcher` fuses a window of
concurrent (ε, δ) contracts against one session into single streamed
evaluations; :class:`~repro.serving.service.CoalescingService` wraps a
batcher fleet in an asyncio front-end over the
:class:`~repro.core.registry.SessionRegistry` with queue-bound load
shedding and background housekeeping.  See ``docs/serving.md`` for the
operational story.
"""

from repro.serving.batcher import BatcherStats, ContractBatcher
from repro.serving.service import CoalescingService

__all__ = ["BatcherStats", "CoalescingService", "ContractBatcher"]
