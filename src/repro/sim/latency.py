"""Message-delay models.

A delay model maps ``(src, dst, rng)`` to a one-way message latency.  The
paper's model requires that *after* the global stabilization time every
message delay is bounded by a known constant delta; the network module
enforces that bound by construction when given a post-GST model, so the
models here should be configured with ``maximum <= delta`` for the
post-stabilization phase.
"""

from __future__ import annotations

import random
from abc import ABC, abstractmethod
from typing import Mapping, Sequence

__all__ = [
    "DelayModel",
    "FixedDelay",
    "UniformDelay",
    "SpikeDelay",
    "GeoDelay",
]


class DelayModel(ABC):
    """Computes one-way message delays."""

    #: True when :meth:`sample` ignores ``(src, dst)``.  Pair-independent
    #: models can be presampled in batches (:meth:`presample`) without
    #: changing the rng draw sequence, because draw k always belongs to the
    #: k-th message regardless of its endpoints.
    pair_independent = False

    @abstractmethod
    def sample(self, src: int, dst: int, rng: random.Random) -> float:
        """Return the latency for one message from ``src`` to ``dst``."""

    def presample(self, rng: random.Random, n: int) -> list[float]:
        """Draw ``n`` delays ahead of time (pair-independent models only).

        Must consume ``rng`` exactly as ``n`` successive :meth:`sample`
        calls would, so buffered and unbuffered runs see identical draws.
        """
        if not self.pair_independent:
            raise TypeError(
                f"{type(self).__name__} delays depend on (src, dst); "
                "presampling would reorder the draw sequence"
            )
        return [self.sample(0, 0, rng) for _ in range(n)]

    @property
    @abstractmethod
    def maximum(self) -> float:
        """An upper bound on any delay this model can produce."""


class FixedDelay(DelayModel):
    """Every message takes exactly ``delay`` time units."""

    pair_independent = True

    def __init__(self, delay: float) -> None:
        if delay < 0:
            raise ValueError("delay must be non-negative")
        self.delay = delay

    def sample(self, src: int, dst: int, rng: random.Random) -> float:
        return self.delay

    def presample(self, rng: random.Random, n: int) -> list[float]:
        return [self.delay] * n

    @property
    def maximum(self) -> float:
        return self.delay

    def __repr__(self) -> str:
        return f"FixedDelay({self.delay})"


class UniformDelay(DelayModel):
    """Delays drawn uniformly from ``[low, high]``."""

    pair_independent = True

    def __init__(self, low: float, high: float) -> None:
        if not 0 <= low <= high:
            raise ValueError("need 0 <= low <= high")
        self.low = low
        self.high = high

    def sample(self, src: int, dst: int, rng: random.Random) -> float:
        return rng.uniform(self.low, self.high)

    def presample(self, rng: random.Random, n: int) -> list[float]:
        uniform = rng.uniform
        low, high = self.low, self.high
        return [uniform(low, high) for _ in range(n)]

    @property
    def maximum(self) -> float:
        return self.high

    def __repr__(self) -> str:
        return f"UniformDelay({self.low}, {self.high})"


class SpikeDelay(DelayModel):
    """Mostly-fast delays with occasional slow outliers.

    With probability ``spike_prob`` the delay is drawn uniformly from
    ``[base_high, spike_high]``, otherwise from ``[base_low, base_high]``.
    Useful for modelling the pre-stabilization (asynchronous) phase, where
    message delays are unbounded in the model but must be finite in a
    simulation.
    """

    pair_independent = True

    def __init__(
        self,
        base_low: float,
        base_high: float,
        spike_high: float,
        spike_prob: float = 0.05,
    ) -> None:
        if not 0 <= base_low <= base_high <= spike_high:
            raise ValueError("need 0 <= base_low <= base_high <= spike_high")
        if not 0 <= spike_prob <= 1:
            raise ValueError("spike_prob must be a probability")
        self.base_low = base_low
        self.base_high = base_high
        self.spike_high = spike_high
        self.spike_prob = spike_prob

    def sample(self, src: int, dst: int, rng: random.Random) -> float:
        if rng.random() < self.spike_prob:
            return rng.uniform(self.base_high, self.spike_high)
        return rng.uniform(self.base_low, self.base_high)

    def presample(self, rng: random.Random, n: int) -> list[float]:
        # One random() then one uniform() per draw, exactly as sample().
        out = []
        for _ in range(n):
            if rng.random() < self.spike_prob:
                out.append(rng.uniform(self.base_high, self.spike_high))
            else:
                out.append(rng.uniform(self.base_low, self.base_high))
        return out

    @property
    def maximum(self) -> float:
        return self.spike_high

    def __repr__(self) -> str:
        return (
            f"SpikeDelay({self.base_low}, {self.base_high}, "
            f"{self.spike_high}, p={self.spike_prob})"
        )


class GeoDelay(DelayModel):
    """Delays driven by a symmetric region-to-region latency matrix.

    ``assignment`` maps a process id to a region index, ``matrix[i][j]``
    gives the base one-way latency between regions ``i`` and ``j``, and
    ``jitter`` adds a uniform random component in ``[0, jitter]``.
    """

    def __init__(
        self,
        assignment: Mapping[int, int],
        matrix: Sequence[Sequence[float]],
        jitter: float = 0.0,
    ) -> None:
        self.assignment = dict(assignment)
        self.matrix = [list(row) for row in matrix]
        size = len(self.matrix)
        for row in self.matrix:
            if len(row) != size:
                raise ValueError("latency matrix must be square")
        for region in self.assignment.values():
            if not 0 <= region < size:
                raise ValueError(f"region {region} out of range")
        if jitter < 0:
            raise ValueError("jitter must be non-negative")
        self.jitter = jitter

    def sample(self, src: int, dst: int, rng: random.Random) -> float:
        base = self.matrix[self.assignment[src]][self.assignment[dst]]
        if self.jitter:
            return base + rng.uniform(0, self.jitter)
        return base

    @property
    def maximum(self) -> float:
        return max(max(row) for row in self.matrix) + self.jitter

    def __repr__(self) -> str:
        return f"GeoDelay(regions={len(self.matrix)}, jitter={self.jitter})"
