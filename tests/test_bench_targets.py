"""Every function the benchmark's tracer patches must still exist in the package.

``bench/tracer.py`` wraps the functions named in its ``TARGETS`` for a traced run. A
target that a refactor renamed or deleted is skipped with a warning, and the traced
result loses that target's metrics without failing. This test only reads ``bench/``.
It retires with ROADMAP item 2's benchmark-only change, after which the tracer reads an
in-package trace instead of patching names.
"""

from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "bench"


def test_every_tracer_target_resolves(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import tracer

    assert tracer.missing_targets() == []
