"""Join points — the static shadows where advice can attach.

A *join point* is a well-defined point in the execution of a program.  As
in PROSE, the weaver prepares a hook at every potential join point when a
class is loaded; a join point therefore has a static identity (class,
member, kind) independent of whether any advice is currently active there.

Kinds reproduce the paper's list: method boundaries (entry/exit are the
``before``/``after`` halves of a ``METHOD`` join point), field changes, and
exception throws (the ``after_throwing`` half of a ``METHOD`` join point is
modelled separately as ``EXCEPTION`` for crosscut matching).
"""

from __future__ import annotations

import enum
from typing import Iterator


class JoinPointKind(enum.Enum):
    """The kind of program point a join point denotes."""

    METHOD = "method"
    FIELD_WRITE = "field_write"
    EXCEPTION = "exception"


class JoinPoint:
    """The static identity of a hook: ``(kind, class, member)``.

    ``member`` is a method name for ``METHOD``/``EXCEPTION`` join points
    and a field name for ``FIELD_WRITE``.  Field-write join points are
    created lazily per field name the first time that field is assigned on
    an instrumented class, since Python fields have no static declaration.
    """

    __slots__ = ("kind", "cls", "member")

    def __init__(self, kind: JoinPointKind, cls: type, member: str):
        self.kind = kind
        self.cls = cls
        self.member = member

    @property
    def class_name(self) -> str:
        """Unqualified name of the class owning this join point."""
        return self.cls.__name__

    def mro_names(self) -> Iterator[str]:
        """Names of the owning class and its bases (``object`` excluded).

        Crosscut type patterns match against any of these, so a crosscut
        on ``Device`` also picks up join points of its ``Motor`` subclass.
        """
        for base in self.cls.__mro__:
            if base is not object:
                yield base.__name__

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, JoinPoint)
            and other.kind is self.kind
            and other.cls is self.cls
            and other.member == self.member
        )

    def __hash__(self) -> int:
        return hash((self.kind, self.cls, self.member))

    def __repr__(self) -> str:
        return f"<JoinPoint {self.kind.value} {self.class_name}.{self.member}>"
