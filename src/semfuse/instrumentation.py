"""Operation counters proving which code paths a command exercised.

The student-only inference path must never touch the prior provider or
the attention machinery; `semfuse fuse` snapshots these counters around
its work and fails loudly if either moved. A training pass may run some
pairs in a forked worker process, which sends its counters' moves back
for `add`, so the parent's counts are those of a single process.
"""
from __future__ import annotations

COUNTERS: dict[str, int] = {"provider": 0, "attention": 0}


def bump(name: str) -> None:
    COUNTERS[name] = COUNTERS.get(name, 0) + 1


def add(moves: dict[str, int]) -> None:
    """Add the counter moves `delta` gave in another process."""
    for name, n in moves.items():
        COUNTERS[name] = COUNTERS.get(name, 0) + n


def snapshot() -> dict[str, int]:
    return dict(COUNTERS)


def delta(before: dict[str, int]) -> dict[str, int]:
    now = snapshot()
    return {k: now.get(k, 0) - before.get(k, 0) for k in set(now) | set(before)}
