"""The original (pre-optimization) linearizability checker.

This is the textbook Wing & Gong search the repository shipped before the
iterative engine in :mod:`repro.verify.linearizability` replaced it: a
stack of ``(remaining-mask, state, chosen-tuple)`` configurations, an
O(n) re-scan for the minimum response per configuration, and memoization
on raw states.  It is kept verbatim as the *oracle* for differential
testing; its one consumer, the hypothesis suite in
``tests/verify/test_differential.py``, asserts the new engine returns
identical verdicts on thousands of random histories.

Do not "fix" or optimize this module; its value is that it stays exactly
what it was.
"""

from __future__ import annotations

from typing import Any, Optional

from repro.objects.spec import ObjectSpec
from repro.verify.history import History, HistoryEntry
from repro.verify.linearizability import (LinearizabilityResult,
                                          _partition_by_key)

__all__ = ["check_linearizable_reference"]


def check_linearizable_reference(
    spec: ObjectSpec,
    history: History,
    partition_by_key: bool = False,
    max_configurations: int = 2_000_000,
) -> LinearizabilityResult:
    """The historical checker behind the current result type."""
    if partition_by_key:
        partitions = _partition_by_key(spec, history)
        if partitions is None:
            raise ValueError(
                "history contains multi-key operations; cannot partition"
            )
        for key, sub in sorted(partitions.items(), key=lambda kv: repr(kv[0])):
            result = _check_whole(spec, sub, max_configurations)
            if not result.ok:
                result.reason = f"sub-history for key {key!r}: {result.reason}"
                return result
        return LinearizabilityResult(True)
    return _check_whole(spec, history, max_configurations)


def _check_whole(
    spec: ObjectSpec, history: History, max_configurations: int
) -> LinearizabilityResult:
    entries = list(history)
    if not entries:
        return LinearizabilityResult(True, witness=[])

    n = len(entries)
    initial_state = spec.initial_state()

    # Precompute the real-time precedence structure.  entry i must be
    # linearized before entry j whenever i.responded_at < j.invoked_at.
    responded = [
        e.responded_at if e.responded_at is not None else float("inf")
        for e in entries
    ]
    invoked = [e.invoked_at for e in entries]

    full_mask = (1 << n) - 1
    seen: set[tuple[int, Any]] = set()
    # Depth-first search over (remaining-set, state); stack holds
    # (mask, state, chosen-so-far) with chosen kept via parent pointers.
    stack: list[tuple[int, Any, tuple]] = [(full_mask, initial_state, ())]

    while stack:
        mask, state, chosen = stack.pop()
        if mask == 0:
            witness = [entries[i] for i in chosen]
            return LinearizabilityResult(True, witness=witness)
        key = (mask, state)
        if key in seen:
            continue
        seen.add(key)
        if len(seen) > max_configurations:
            raise RuntimeError(
                f"linearizability search exceeded {max_configurations} "
                f"configurations on a history of {n} operations"
            )

        # An operation is a candidate next linearization point iff no other
        # remaining operation responded before it was invoked.
        min_response = min(
            responded[i] for i in range(n) if mask & (1 << i)
        )
        remaining_all_pending = min_response == float("inf")
        if remaining_all_pending:
            # Every remaining op is pending; all may simply never take
            # effect, so the history is linearizable.
            witness = [entries[i] for i in chosen]
            return LinearizabilityResult(True, witness=witness)

        for i in range(n):
            bit = 1 << i
            if not mask & bit:
                continue
            if invoked[i] > min_response:
                continue  # some remaining op responded before i was invoked
            entry = entries[i]
            new_state, response = spec.apply_any(state, entry.op)
            if (not entry.pending and not entry.response_unknown
                    and response != entry.response):
                continue  # observed response inconsistent with this point
            stack.append((mask & ~bit, new_state, chosen + (i,)))
            if entry.pending:
                # A pending op may also never take effect: drop it.
                stack.append((mask & ~bit, state, chosen))

    return LinearizabilityResult(
        False,
        reason="no valid linearization order exists",
    )
