"""An importable scheme plugin whose every scenario misses a deadline.

Worker processes (pool children, subprocess fleets) import it by path,
so the factory lives at module top level like any real plugin.
"""

from repro.errors import DeadlineMissError


def build_miss(estimator):
    """Raise the error ``ScenarioSpec``'s default ``on_miss`` produces."""
    raise DeadlineMissError("tg0", 20.0, 20.5)
