"""Alternating projections on convex sets, with perturbation schedules,
set-convergence probes, and certified experiment families.  The root has
the names of the README's library tour; the rest is in the submodules."""

from .sets import Ball, Halfspace
from .engine import RunConfig, run_classical
from .variational import aw_distance, omega_angle, strongly_exposes_probe
from .constructions import stable_scenario

__version__ = "0.1.0"
