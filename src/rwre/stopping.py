"""Stopping rules for walks: first-coordinate thresholds, vertex hits, and a
mandatory step cap.

The right rule fires when the first coordinate reaches `right_level` or more,
the left rule when it reaches `left_level` or less; the backtrack time of the
transience experiments is the left rule at level -1.  The target rule fires on
hitting a vertex at step n >= 1.  At step 0 the coordinate rules are already
live; the target rule is not.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

CAP = "cap"
RIGHT = "right"
LEFT = "left"
TARGET = "target"


@dataclass(frozen=True)
class StoppingRule:
    max_steps: int
    right_level: Optional[int] = None
    left_level: Optional[int] = None
    target: Optional[int] = None

    def __post_init__(self):
        if self.max_steps < 1:
            raise ValueError("a step cap >= 1 is mandatory")

    def needs_coords(self) -> bool:
        return self.right_level is not None or self.left_level is not None

    def check(self, vertex: int, coords, step: int) -> Optional[str]:
        """Reason fired at this position, or None.  Priority: right, left, target."""
        if coords is not None:
            if self.right_level is not None and coords[0] >= self.right_level:
                return RIGHT
            if self.left_level is not None and coords[0] <= self.left_level:
                return LEFT
        if self.target is not None and step >= 1 and vertex == self.target:
            return TARGET
        return None


@dataclass(frozen=True)
class StoppingReport:
    """Which condition ended the walk and at which step; `cap` means truncation."""

    reason: str
    step: int
    vertex: int

    @property
    def truncated(self) -> bool:
        return self.reason == CAP
