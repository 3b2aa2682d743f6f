"""Adam with decoupled weight decay. A checkpoint's Adam state is written
and read by ``model.save_checkpoint`` and ``model.load_checkpoint``."""

from dataclasses import dataclass, field

import numpy as np

from .errors import ParameterError


@dataclass
class AdamState:
    lr: float = 1e-4
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    weight_decay: float = 1e-5
    step: int = 0
    m: dict = field(default_factory=dict)
    v: dict = field(default_factory=dict)


def adam_step(state, params, grads):
    """One Adam update over a dict of parameter arrays (in place).

    Decoupled weight decay: p <- p - lr*wd*p is applied before the
    bias-corrected moment update.
    """
    state.step += 1
    t = state.step
    b1, b2 = state.beta1, state.beta2
    for name in sorted(params):
        p, g = params[name], grads[name]
        if p.shape != np.shape(g):
            raise ParameterError(f"adam_step: shape mismatch for {name}")
        if name not in state.m:
            state.m[name] = np.zeros_like(p)
            state.v[name] = np.zeros_like(p)
        if state.weight_decay:
            p -= state.lr * state.weight_decay * p
        m = state.m[name]
        v = state.v[name]
        m *= b1
        m += (1.0 - b1) * g
        v *= b2
        v += (1.0 - b2) * np.square(g)
        mhat = m / (1.0 - b1 ** t)
        vhat = v / (1.0 - b2 ** t)
        p -= state.lr * mhat / (np.sqrt(vhat) + state.eps)
    return params

