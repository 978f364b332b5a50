"""Operation counters proving which code paths a command exercised.

The student-only inference path must never touch the prior provider or
the attention machinery; `semfuse fuse` snapshots these counters around
its work and fails loudly if either moved. Training pairs run on several
threads, so a bump holds a lock: a read-modify-write of the dict is not
atomic under the interpreter lock.
"""
from __future__ import annotations

import threading

COUNTERS: dict[str, int] = {"provider": 0, "attention": 0}
_LOCK = threading.Lock()


def bump(name: str) -> None:
    with _LOCK:
        COUNTERS[name] = COUNTERS.get(name, 0) + 1


def snapshot() -> dict[str, int]:
    with _LOCK:
        return dict(COUNTERS)


def delta(before: dict[str, int]) -> dict[str, int]:
    now = snapshot()
    return {k: now.get(k, 0) - before.get(k, 0) for k in set(now) | set(before)}
