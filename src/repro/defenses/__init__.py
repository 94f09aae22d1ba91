"""Pluggable defense strategies behind one registry.

``DEFENSES`` holds the named entries (``no-delay`` / ``infinite`` /
``drop-tail`` / ``rcad`` / ``phantom`` / ``proportional-delay`` /
``jittered-delay``); scenario specs select them by name with keyword
parameters.  See :mod:`repro.defenses.registry`.
"""

from repro.defenses.registry import (
    DEFENSES,
    Defense,
    DefenseContext,
    DefenseMaterialization,
    DefenseRegistry,
    DropTailDefense,
    JitteredDelayDefense,
    NoDelayDefense,
    PhantomDefense,
    ProportionalDelayDefense,
    RcadDefense,
    UnknownDefenseError,
    UnlimitedBufferDefense,
)

__all__ = [
    "DEFENSES",
    "Defense",
    "DefenseContext",
    "DefenseMaterialization",
    "DefenseRegistry",
    "UnknownDefenseError",
    "NoDelayDefense",
    "UnlimitedBufferDefense",
    "DropTailDefense",
    "RcadDefense",
    "PhantomDefense",
    "ProportionalDelayDefense",
    "JitteredDelayDefense",
]
