"""Network messages and the wire-copy rule.

A message carries a ``kind`` string used for handler dispatch and an
arbitrary ``payload``.  The network passes every delivered payload
through :func:`wire_copy`, so two nodes can never share mutable state
through a message — the same discipline a serializing network imposes.

The copy rule:

- immutable atoms (``str``, ``int``, ``float``, ``bool``, ``None``,
  ``bytes``, ``complex``) travel as they are, and so does a
  ``frozenset`` whose members are all atoms;
- ``dict``, ``list`` and ``tuple`` are rebuilt element by element;
- an instance of a *plain* class (default pickling protocol, no
  ``__deepcopy__``, ``__setstate__``, ``__getstate__`` or
  ``__slots__`` — frozen dataclasses such as request bodies, envelopes
  and service items) is rebuilt as ``cls.__new__(cls)`` plus a copy of
  its ``__dict__``, exactly what :func:`copy.deepcopy` would build;
- anything else, and any subtree nested deeper than
  :data:`WIRE_COPY_DEPTH`, goes to :func:`copy.deepcopy` (which also
  makes cyclic payloads terminate).

Aliasing *inside* one payload is not preserved: each occurrence of a
mutable container gets its own copy, as on a JSON-like wire, where a
shared sub-object is serialized once per reference.
"""

from __future__ import annotations

import copy
import copyreg
from dataclasses import dataclass, field
from typing import Any

from repro.util.ids import fresh_id

#: Destination address meaning "every node currently in radio range".
BROADCAST = "*"


@dataclass(frozen=True)
class Message:
    """One network datagram."""

    source: str
    destination: str
    kind: str
    payload: Any = None
    message_id: str = field(default_factory=lambda: fresh_id("msg"))
    #: Telemetry trace context (wire form of
    #: :class:`repro.telemetry.spans.SpanContext`), stamped by the sending
    #: node when an operation span is active there.  None on ordinary
    #: traffic; handlers on the receiving node run under this context, so
    #: cross-node protocol chains share one trace id.
    trace: dict | None = None

    @property
    def is_broadcast(self) -> bool:
        """True if this message was addressed to every node in range."""
        return self.destination == BROADCAST

    def __repr__(self) -> str:
        return (
            f"<Message {self.kind} {self.source}->{self.destination} "
            f"id={self.message_id}>"
        )


#: Subtrees nested deeper than this go to :func:`copy.deepcopy`, whose
#: memo terminates cycles.  Real payloads are a handful of levels deep.
WIRE_COPY_DEPTH = 32

_ATOMS = frozenset({str, int, float, bool, type(None), bytes, complex})
#: Per-class verdict of :func:`_is_plain` (classes are few, instances many).
_PLAIN: dict[type, bool] = {}
_OBJECT_GETSTATE = getattr(object, "__getstate__", None)


def wire_copy(value: Any) -> Any:
    """Return an isolated copy of ``value`` under the module's copy rule.

    The result equals ``copy.deepcopy(value)`` and shares no mutable
    object with ``value``; it is several times cheaper on the dict/list/
    dataclass trees protocol messages are made of.
    """
    return _copy(value, 0)


def _copy(value: Any, depth: int) -> Any:
    cls = type(value)
    if cls in _ATOMS:
        return value
    if depth >= WIRE_COPY_DEPTH:
        return copy.deepcopy(value)
    depth += 1
    if cls is dict:
        return {
            (k if type(k) in _ATOMS else _copy(k, depth)): (
                v if type(v) in _ATOMS else _copy(v, depth)
            )
            for k, v in value.items()
        }
    if cls is list:
        return [v if type(v) in _ATOMS else _copy(v, depth) for v in value]
    if cls is tuple:
        return tuple([v if type(v) in _ATOMS else _copy(v, depth) for v in value])
    if cls is frozenset:
        if all(type(v) in _ATOMS for v in value):
            return value
        return copy.deepcopy(value)
    plain = _PLAIN.get(cls)
    if plain is None:
        plain = _PLAIN[cls] = _is_plain(cls)
    if not plain:
        return copy.deepcopy(value)
    clone = cls.__new__(cls)
    state = value.__dict__
    if state:
        clone.__dict__.update(_copy(state, depth))
    return clone


def _is_plain(cls: type) -> bool:
    """True if ``copy.deepcopy`` would rebuild a ``cls`` instance as
    ``cls.__new__(cls)`` plus a deep copy of its ``__dict__``."""
    return (
        cls.__new__ is object.__new__
        and cls.__reduce_ex__ is object.__reduce_ex__
        and cls.__reduce__ is object.__reduce__
        and getattr(cls, "__getstate__", None) is _OBJECT_GETSTATE
        and cls not in copyreg.dispatch_table
        and not any(
            hasattr(cls, name)
            for name in (
                "__deepcopy__",
                "__setstate__",
                "__getnewargs__",
                "__getnewargs_ex__",
            )
        )
        and all("__slots__" not in vars(base) for base in cls.__mro__)
    )
