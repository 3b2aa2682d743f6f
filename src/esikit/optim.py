"""Adam with decoupled weight decay, plus optimizer-state serialization."""

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import ParameterError
from .tensorio import load_tensor_dir, read_json, save_tensor_dir


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


def save_adam_state(state, out_dir):
    out_dir = Path(out_dir)
    tensors = {f"m/{k}": v for k, v in state.m.items()}
    tensors.update({f"v/{k}": v for k, v in state.v.items()})
    save_tensor_dir(tensors, out_dir / "adam_moments")
    scalars = {
        "lr": state.lr, "beta1": state.beta1, "beta2": state.beta2,
        "eps": state.eps, "weight_decay": state.weight_decay, "step": state.step,
    }
    (out_dir / "adam_state.json").write_text(json.dumps(scalars, indent=2))


def load_adam_state(in_dir):
    in_dir = Path(in_dir)
    scalars = read_json(in_dir / "adam_state.json")
    state = AdamState(**{k: scalars[k] for k in
                         ("lr", "beta1", "beta2", "eps", "weight_decay", "step")})
    tensors = load_tensor_dir(in_dir / "adam_moments")
    for key, arr in tensors.items():
        kind, name = key.split("/", 1)
        getattr(state, kind)[name] = arr.astype(np.float64)
    return state
