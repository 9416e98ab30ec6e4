"""Identifier generation.

Components across the platform need short, unique, human-readable ids
(node ids, lease ids, extension ids, message ids).  A per-process
:class:`IdGenerator` produces ``prefix:N`` strings deterministically, which
keeps simulation runs reproducible (no UUID randomness in the hot path).
"""

from __future__ import annotations

import itertools


class IdGenerator:
    """Generates sequential ``prefix:N`` identifiers, thread-safely.

    Separate instances count independently; a single instance never
    repeats an id.  No lock is taken: the counter lookup
    (``dict.get``/``dict.setdefault``) and the draw (``next`` on an
    :class:`itertools.count`) are each one C-level call, atomic under
    CPython's GIL.  Two threads racing to create a prefix both receive
    the counter ``setdefault`` stored first, so no value is drawn twice.
    """

    def __init__(self):
        self._counters: dict[str, itertools.count] = {}

    def next(self, prefix: str) -> str:
        """Return the next id for ``prefix``, e.g. ``next('lease')`` → ``'lease:0'``."""
        counter = self._counters.get(prefix)
        if counter is None:
            counter = self._counters.setdefault(prefix, itertools.count())
        return f"{prefix}:{next(counter)}"

    def reset(self) -> None:
        """Forget all counters (mainly for tests)."""
        self._counters.clear()


_DEFAULT = IdGenerator()


def fresh_id(prefix: str) -> str:
    """Return a fresh id from the process-wide default generator."""
    return _DEFAULT.next(prefix)
