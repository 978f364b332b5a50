"""Operation counters under concurrent bumps."""
import sys
import threading

from semfuse import instrumentation


def test_bump_loses_no_increment_across_threads(monkeypatch):
    # more threads than cores, handing the interpreter lock over far more
    # often than by default: an unlocked read-modify-write loses bumps
    monkeypatch.setattr(instrumentation, "COUNTERS", {})
    threads = [threading.Thread(target=lambda: [instrumentation.bump("stress")
                                                for _ in range(20_000)]) for _ in range(4)]
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(old)
    assert not any(t.is_alive() for t in threads)
    assert instrumentation.snapshot() == {"stress": 80_000}
