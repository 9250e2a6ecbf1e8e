"""Compact orientable surface descriptors.

A surface is written Sigma_{g,n}: genus g with n boundary circles.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True, order=True)
class Surface:
    genus: int
    boundary_components: int

    def __post_init__(self):
        if self.genus < 0 or self.boundary_components < 0:
            raise ValueError("genus and boundary count must be non-negative")

    @property
    def chi(self):
        return 2 - 2 * self.genus - self.boundary_components

    def __repr__(self):
        return "Sigma_{%d,%d}" % (self.genus, self.boundary_components)

