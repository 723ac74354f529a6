"""Stopping rules of the finite-graph single walks: a mandatory step cap and
an optional target vertex.

The target rule fires on hitting the target at step n >= 1, so a walk that
starts on its target leaves it first.  A walk that reaches the cap without
firing the target rule is reported as truncated.  The lattice and cylinder
experiments do not use these rules: they stop their walks on an abscissa
band or on absorbing vertices.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

CAP = "cap"
TARGET = "target"


@dataclass(frozen=True)
class StoppingRule:
    max_steps: int
    target: Optional[int] = None

    def __post_init__(self):
        if self.max_steps < 1:
            raise ValueError("a step cap >= 1 is mandatory")


@dataclass(frozen=True)
class StoppingReport:
    """Which condition ended the walk and at which step; `cap` means truncation."""

    reason: str
    step: int
    vertex: int

    @property
    def truncated(self) -> bool:
        return self.reason == CAP
