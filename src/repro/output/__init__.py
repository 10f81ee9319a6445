"""Output facilities: legacy VTK dumps, time-history CSV, ASCII plots.

Checkpoints live in :mod:`repro.fleet.checkpoint` (the one checkpoint
format, which restores dt and probe state for bitwise resumes)."""

from .ascii_plot import ascii_plot
from .profiles import (
    Profile,
    front_position,
    linear_profile,
    radial_profile,
)
from .timehist import TimeHistory
from .vtk import write_vtk

__all__ = [
    "write_vtk",
    "TimeHistory",
    "ascii_plot",
    "Profile",
    "linear_profile",
    "radial_profile",
    "front_position",
]
