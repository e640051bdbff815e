"""Adaptive learning-rate controller — Algorithm 2 (``UPDATELR``).

The learning rate ``λ`` scales the multiplicative-weights updates applied to
the insertion probabilities.  Every ``i`` requests the controller compares
the hit-rate delta ``Δ = Π_t − Π_{t−i}`` against the learning-rate delta
``δ = λ_{t−i} − λ_{t−2i}`` and follows a gradient-based stochastic
hill-climbing rule:

* ``Δ/δ > 0`` — the last λ move helped; amplify it:
  ``λ ← min(λ + λ·Δ/δ, 1)``;
* ``Δ/δ < 0`` — it hurt; back off: ``λ ← max(λ + λ·Δ/δ, λ_min)``;
* ``δ == 0`` with stagnant or zero hit rate for ``unlearn_limit``
  consecutive windows — random restart: λ is redrawn uniformly from
  ``[λ_min, 1]`` (the paper's "reset to initial value", supporting the
  random restarts of stochastic hill climbing).

The controller is policy-agnostic and reused verbatim by SCIP, SCI and the
enhancement wrappers, and independently exercised by the ablation benches.
"""

from __future__ import annotations

import random
from typing import Optional

__all__ = ["LearningRateController", "LAMBDA_MIN", "LAMBDA_MAX"]

LAMBDA_MIN = 0.001
LAMBDA_MAX = 1.0


class LearningRateController:
    """Implements ``UPDATELR`` with the paper's default constants.

    Parameters
    ----------
    initial:
        λ at t=0 (the paper restarts into [0.001, 1]; 0.1 is a neutral
        starting point within that band and is swept by the ablation bench).
    unlearn_limit:
        Consecutive stagnant windows tolerated before a random restart
        (paper: 10).
    rng:
        Seeded RNG for the random restarts.
    """

    #: Observability hook (see :class:`repro.obs.probe.Probe`); class-level
    #: no-op until :meth:`attach_probe` shadows it.
    _probe = None

    def __init__(
        self,
        initial: float = 0.1,
        unlearn_limit: int = 10,
        rng: Optional[random.Random] = None,
    ):
        if not LAMBDA_MIN <= initial <= LAMBDA_MAX:
            raise ValueError(
                f"initial λ must be in [{LAMBDA_MIN}, {LAMBDA_MAX}], got {initial}"
            )
        if unlearn_limit < 1:
            # below 1 every window with δ == 0 restarts λ, improving or not
            raise ValueError(f"unlearn_limit must be >= 1, got {unlearn_limit}")
        self.rng = rng or random.Random(0)
        self.unlearn_limit = unlearn_limit
        self.value = initial          # λ_t
        self._prev = initial          # λ_{t-i}
        self._prev2 = initial         # λ_{t-2i}
        self.unlearn_count = 0
        self.updates = 0
        self.restarts = 0

    def update(self, hit_rate_now: float, hit_rate_prev: float) -> float:
        """One ``UPDATELR`` step; returns the new λ.

        Parameters mirror Algorithm 2: ``Π_t`` and ``Π_{t−i}``.
        """
        delta = hit_rate_now - hit_rate_prev          # Δ_t
        d_lambda = self._prev - self._prev2           # δ_t
        new = self._prev
        restarted = False
        if d_lambda != 0.0:
            ratio = delta / d_lambda
            if ratio > 0:
                new = min(self._prev + self._prev * ratio, LAMBDA_MAX)
            else:
                new = max(self._prev + self._prev * ratio, LAMBDA_MIN)
            self.unlearn_count = 0
        else:
            if hit_rate_now == 0.0 or delta <= 0.0:
                self.unlearn_count += 1
            if self.unlearn_count >= self.unlearn_limit:
                self.unlearn_count = 0
                new = self.rng.uniform(LAMBDA_MIN, LAMBDA_MAX)
                self.restarts += 1
                restarted = True
        self._prev2 = self._prev
        self._prev = new
        self.value = new
        self.updates += 1
        if self._probe is not None:
            if restarted:
                self._probe.emit("lambda_restart", value=new, update=self.updates)
            self._probe.emit(
                "lambda_update",
                value=new,
                delta=delta,
                hit_rate=hit_rate_now,
                update=self.updates,
            )
        return new

    # -- observability ---------------------------------------------------------
    def attach_probe(self, probe) -> None:
        """Emit ``lambda_update`` / ``lambda_restart`` events per UPDATELR."""
        self._probe = probe

    def detach_probe(self) -> None:
        self._probe = None
