"""Operation counters and the moves a pair worker sends back."""
from semfuse import instrumentation


def test_add_applies_the_moves_of_delta(monkeypatch):
    # a worker's moves, added here, leave the counts one process would show
    monkeypatch.setattr(instrumentation, "COUNTERS", {"provider": 2})
    before = instrumentation.snapshot()
    instrumentation.bump("provider")
    instrumentation.bump("attention")
    moves = instrumentation.delta(before)
    instrumentation.add(moves)
    assert instrumentation.snapshot() == {"provider": 4, "attention": 2}
