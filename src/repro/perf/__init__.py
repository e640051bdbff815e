"""Performance subsystem: resource meters (Figure 9 / Figure 11).  Replay
speed is measured by the ladder (``python -m ladder``), not here."""

from repro.perf.meters import ResourceProfile, profile_many, profile_policy

__all__ = [
    "ResourceProfile",
    "profile_policy",
    "profile_many",
]
