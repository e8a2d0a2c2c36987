"""Timing simulation (the gem5 RiscvMinorCPU role).

- :class:`SystemConfig` / :class:`Simulator` — configuration points of
  the co-design space and the exact trace runner;
- :class:`Cache` / :class:`CacheHierarchy` — exact set-associative LRU
  cache simulation;
- :func:`reuse_profile` — one-pass stack-distance miss curves, with
  :class:`SparseReuseProfile` as the weighted sparse form the sweep's
  fast backend queries for a whole L2 axis at once;
- :class:`LatencyModel` / :class:`MemoryTimings` — issue occupancy
  (constant-latency vector mode, per the paper's gem5 fork) and stall
  modeling;
- :class:`SimStats` — the reported statistics.
"""

from repro.sim.cache import Cache, CacheHierarchy, CacheStats, HierarchyStats
from repro.sim.core import CONSTANT, THROUGHPUT, LatencyModel, MemoryTimings
from repro.sim.energy import EnergyBreakdown, EnergyModel, estimate_energy
from repro.sim.stackdist import ReuseProfile, SparseReuseProfile, reuse_profile
from repro.sim.stats import SimStats
from repro.sim.system import Simulator, SystemConfig

__all__ = [
    "SystemConfig",
    "Simulator",
    "SimStats",
    "Cache",
    "CacheHierarchy",
    "CacheStats",
    "HierarchyStats",
    "ReuseProfile",
    "SparseReuseProfile",
    "reuse_profile",
    "LatencyModel",
    "MemoryTimings",
    "CONSTANT",
    "THROUGHPUT",
    "EnergyModel",
    "EnergyBreakdown",
    "estimate_energy",
]
