"""Two-expert Multi-Armed Bandit over insertion positions — §2.3 / §3.3.

SCIP frames insertion-position choice as a bandit with exactly two *experts*:

* **MIP** — MRU Insertion Policy (insert at the head), and
* **LIP** — LRU Insertion Policy (insert at the tail),

holding execution probabilities ``ω_m + ω_l = 1``.  Ghost hits in the
history lists are the (negative) reward signal: a ghost hit in ``H_m`` means
an MRU insertion traversed the whole cache unused (a ZRO/P-ZRO) — penalise
MIP; a ghost hit in ``H_l`` means an LRU insertion threw away a future hit —
penalise LIP.  Penalties are multiplicative, ``ω ← ω·e^{−λ}`` (Algorithm 1,
L8/L11), followed by normalisation and a 0.01 exploration floor — the
EXP3-style update LeCaR introduced for cache experts, which the paper adopts.
``SELECT`` draws γ ∈ [0,1] and picks MIP iff ``ω_m > γ`` — a Bernoulli(ω_m)
bimodal insertion.

The update and both selections are part of SCIP's one statement,
:meth:`repro.core.scip.SCIPCache._kernel`; this class holds the state they
act on — the ω pair, the penalty counts, the selection mode and the RNG —
and the probe ``weight_update`` events go to.
"""

from __future__ import annotations

import random
from typing import Optional

__all__ = ["PositionBandit"]


class PositionBandit:
    """The ω_m/ω_l weight pair of SCIP's two experts.

    Parameters
    ----------
    initial_w_mru:
        Starting ω_m (default 0.9: begin close to plain LRU behaviour so the
        policy only deviates once evidence of ZROs/P-ZROs accumulates —
        matching the deployment story of replacing LRU in TDC).
    rng:
        Seeded RNG used for the γ draws.
    mode:
        ``threshold`` follows §3.1's BIP description — "when α > 0.5, BIP
        will insert the object into the MRU position, otherwise into the LRU
        position" — a deterministic, noise-free switch.  ``bernoulli``
        follows Algorithm 1's ``SELECT`` literally (γ ~ U[0,1], MRU iff
        ω_m > γ).  The two coincide in expectation; threshold avoids paying
        the tail-insertion cost on random draws while ω_m is high.
    """

    #: Observability hook (see :class:`repro.obs.probe.Probe`); class-level
    #: no-op until :meth:`attach_probe` shadows it.
    _probe = None

    def __init__(
        self,
        initial_w_mru: float = 0.9,
        rng: Optional[random.Random] = None,
        mode: str = "threshold",
    ):
        if not 0.0 < initial_w_mru < 1.0:
            raise ValueError(f"initial ω_m must be in (0, 1), got {initial_w_mru}")
        if mode not in ("threshold", "bernoulli"):
            raise ValueError(f"mode must be 'threshold' or 'bernoulli', got {mode!r}")
        self.w_mru = initial_w_mru
        self.w_lru = 1.0 - initial_w_mru
        self.rng = rng or random.Random(0)
        self.mode = mode
        self.penalties_mru = 0
        self.penalties_lru = 0

    # -- observability ---------------------------------------------------------
    def attach_probe(self, probe) -> None:
        """Emit ``weight_update`` events (ω pair after each penalty)."""
        self._probe = probe

    def detach_probe(self) -> None:
        self._probe = None

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"PositionBandit(w_mru={self.w_mru:.4f}, w_lru={self.w_lru:.4f})"
