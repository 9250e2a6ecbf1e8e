"""Compact orientable surface descriptors.

A surface is written Sigma_{g,n}: genus g with n boundary circles; chi
and n fix it, by the genus law ``surface_with``.
"""

from __future__ import annotations

from dataclasses import dataclass

from .quadratic import _integer


@dataclass(frozen=True, order=True)
class Surface:
    genus: int
    boundary_components: int

    def __post_init__(self):
        _integer(self.genus, "genus", 0)
        _integer(self.boundary_components, "boundary_components", 0)

    @property
    def chi(self):
        return 2 - 2 * self.genus - self.boundary_components

    def __repr__(self):
        return "Sigma_{%d,%d}" % (self.genus, self.boundary_components)


def surface_with(chi, boundary):
    """The surface of Euler characteristic ``chi`` with ``boundary``
    circles, or None when its genus would be negative or a half-integer."""
    twice_genus = 2 - chi - boundary
    if twice_genus < 0 or twice_genus % 2 != 0:
        return None
    return Surface(twice_genus // 2, boundary)
