"""Time-synchronized buffer of past observations and vehicle states."""

import math
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from .vehicle import VehicleState


@dataclass(frozen=True)
class Observation:
    """Ray-distance scan: one distance per angular bin, plus a timestamp."""

    rays: np.ndarray
    timestamp: float

    def __post_init__(self):
        # a private copy, so the caller's array cannot change the scan
        rays = np.array(self.rays, dtype=float)
        if rays.ndim != 1 or rays.size == 0:
            raise ValueError("rays must be a non-empty 1-D vector")
        if not (rays.min() > 0.0 and rays.max() < math.inf):  # nan fails the first, +-inf one of the two
            raise ValueError("ray distances must be finite and positive")
        rays.setflags(write=False)
        object.__setattr__(self, "rays", rays)
        if not math.isfinite(self.timestamp):
            raise ValueError("timestamp must be finite")


@dataclass(frozen=True)
class MemoryEntry:
    """Synchronized (observation, state) pair, stamped by its observation."""

    observation: Observation
    state: VehicleState

    @property
    def timestamp(self) -> float:
        return self.observation.timestamp


@dataclass
class AugmentedMemory:
    """Bounded history over the past interval, strictly increasing timestamps.

    Single-writer structure; entries handed out by window() are immutable
    snapshots and may cross threads.
    """

    capacity: int
    _entries: deque = field(default_factory=deque, repr=False)

    def __post_init__(self):
        if self.capacity < 1:
            raise ValueError("capacity must be at least 1")

    def __len__(self) -> int:
        return len(self._entries)

    def push(self, entry: MemoryEntry) -> "AugmentedMemory":
        """Append an entry; evicts the oldest when over capacity.

        Timestamps must strictly increase; a stale or duplicate timestamp
        is rejected.
        """
        if self._entries and entry.timestamp <= self._entries[-1].timestamp:
            raise ValueError(
                f"non-monotonic timestamp {entry.timestamp} "
                f"(latest stored: {self._entries[-1].timestamp})"
            )
        self._entries.append(entry)
        while len(self._entries) > self.capacity:
            self._entries.popleft()
        return self

    def window(self) -> list[MemoryEntry]:
        """The stored entries, oldest first, padded to the capacity.

        When fewer than capacity entries exist, the oldest one is repeated
        at the front so the result has length exactly capacity.
        """
        if not self._entries:
            raise ValueError("window() on an empty memory")
        tail = list(self._entries)
        return [tail[0]] * (self.capacity - len(tail)) + tail
