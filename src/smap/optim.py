"""Adam with bias correction, the single supported optimizer."""

from __future__ import annotations

import numpy as np

from .autodiff import Tensor

BETA1 = 0.9
BETA2 = 0.999
EPS = 1e-8


class Adam:
    def __init__(self, params: list[Tensor], lr: float = 3e-4):
        self.params = list(params)
        self.lr = lr
        self.t = 0
        self._m = [np.zeros_like(p.data) for p in self.params]
        self._v = [np.zeros_like(p.data) for p in self.params]

    def step(self, grads: dict[Tensor, np.ndarray]) -> None:
        """One update from ``grads``, keyed by parameter; a parameter with no
        entry is left as it is."""
        self.t += 1
        bc1 = 1.0 - BETA1 ** self.t
        bc2 = 1.0 - BETA2 ** self.t
        for p, m, v in zip(self.params, self._m, self._v):
            g = grads.get(p)
            if g is None:
                continue
            m *= BETA1
            m += (1.0 - BETA1) * g
            v *= BETA2
            v += (1.0 - BETA2) * (g * g)
            p.data -= self.lr * (m / bc1) / (np.sqrt(v / bc2) + EPS)
