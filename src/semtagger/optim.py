"""Parameter update rules (SGD, Adam) and the step-decay learning-rate schedule.

Optimizers operate on flat dicts of named float64 arrays so the same code
updates encoder tensors and the CRF transition matrix. Each rule is one
in-place update (``sgd_update``, ``adam_update``) that writes the parameters
and Adam's moments where they live; a caller that wants the old values keeps
its own copies. Clipping scales the gradients it is given in place. Adam's
hyperparameters, its block size and the schedule's decay are fixed module
constants.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DimensionError

OPTIMIZERS = {"adam": 1e-3, "sgd": 1e-2}  # name -> default base learning rate

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8
# Elements per block of an in-place Adam update: a block of the parameters,
# gradients and both moments plus two temporaries is 6 x 256 KB, which fits
# a 2 MB L2 cache, where whole-tensor passes over a large embedding table
# spill between the update's fourteen passes.
ADAM_BLOCK = 32768

LR_DECAY = 0.1         # the learning rate is multiplied by this ...
LR_DECAY_EPOCHS = 10   # ... once every this many epochs


def lr_at(base_lr: float, epoch: int) -> float:
    """Learning rate in effect for the given 0-indexed epoch:
    base_lr * LR_DECAY ** floor(epoch / LR_DECAY_EPOCHS)."""
    if base_lr <= 0:
        raise ConfigError(f"base_lr must be positive, got {base_lr}")
    if epoch < 0:
        raise ConfigError(f"epoch must be >= 0, got {epoch}")
    return base_lr * LR_DECAY ** (epoch // LR_DECAY_EPOCHS)


@dataclass
class OptimState:
    """Optimizer bookkeeping. Moment dicts exist only for Adam."""

    kind: str                      # "sgd" | "adam"
    step_count: int = 0
    m: dict[str, np.ndarray] | None = None  # first moments
    v: dict[str, np.ndarray] | None = None  # second moments


def init_optim_state(kind: str, params: dict[str, np.ndarray]) -> OptimState:
    kind = kind.lower()
    if kind == "sgd":
        return OptimState(kind="sgd")
    if kind == "adam":
        m = {name: np.zeros_like(p) for name, p in params.items()}
        v = {name: np.zeros_like(p) for name, p in params.items()}
        return OptimState(kind="adam", m=m, v=v)
    raise ConfigError(f"unknown optimizer {kind!r} (expected 'sgd' or 'adam')")


def _check_shapes(params: dict[str, np.ndarray], grads: dict[str, np.ndarray]):
    if params.keys() != grads.keys():
        raise DimensionError(
            f"parameter/gradient name mismatch: {sorted(params)} vs {sorted(grads)}"
        )
    for name in params:
        if params[name].shape != grads[name].shape:
            raise DimensionError(
                f"shape mismatch for {name!r}: "
                f"{params[name].shape} vs {grads[name].shape}"
            )


def sgd_update(params: dict[str, np.ndarray], grads: dict[str, np.ndarray],
               lr: float) -> None:
    """Plain gradient descent in place: p -= lr * g. Each gradient is
    scaled by lr in place, so ``grads`` serves as the temporary."""
    if lr <= 0:
        raise ConfigError(f"lr must be positive, got {lr}")
    _check_shapes(params, grads)
    for name, p in params.items():
        step = grads[name]
        step *= lr
        p -= step


def adam_update(params: dict[str, np.ndarray], grads: dict[str, np.ndarray],
                state: OptimState, lr: float) -> None:
    """One Adam update with bias correction, written into ``params``,
    ``state.m`` and ``state.v``; advances ``state.step_count``.

    Each tensor goes in blocks of leading-axis rows, at most ADAM_BLOCK
    elements a block unless one row is larger, so a block of the four arrays
    and the two temporaries stays in cache through all of its passes.
    """
    if lr <= 0:
        raise ConfigError(f"lr must be positive, got {lr}")
    if state.kind != "adam" or state.m is None or state.v is None:
        raise ConfigError("Adam requires an Adam OptimState with moment tensors")
    _check_shapes(params, grads)
    _check_shapes(params, state.m)
    _check_shapes(params, state.v)

    state.step_count += 1
    t = state.step_count
    b1, b2 = ADAM_BETA1, ADAM_BETA2
    bias1 = 1.0 - b1 ** t
    bias2 = 1.0 - b2 ** t
    # m = b1 m + (1 - b1) g, v = b2 v + (1 - b2) g g and
    # p - lr (m / bias1) / (sqrt(v / bias2) + eps), each rounded in the order
    # written; slices of the leading axis are views of any array, where a
    # reshape of a non-contiguous one would update a copy
    for name, p in params.items():
        rows = max(1, ADAM_BLOCK // max(1, math.prod(p.shape[1:])))
        tmp, step = np.empty((2, min(rows, len(p))) + p.shape[1:])
        for start in range(0, len(p), rows):
            w, g, m, v = (x[start:start + rows] for x in (
                p, grads[name], state.m[name], state.v[name]))
            a, b = tmp[:len(w)], step[:len(w)]
            np.multiply(g, 1.0 - b1, out=a)
            m *= b1
            m += a
            np.multiply(g, 1.0 - b2, out=a)
            a *= g
            v *= b2
            v += a
            np.divide(v, bias2, out=a)
            np.sqrt(a, out=a)
            a += ADAM_EPS
            np.divide(m, bias1, out=b)
            b *= lr
            b /= a
            w -= b


def clip_grads(grads: dict[str, np.ndarray], max_norm: float) -> dict[str, np.ndarray]:
    """Scale all gradients in place so their global L2 norm is at most
    max_norm; returns ``grads``."""
    if max_norm <= 0:
        raise ConfigError(f"max_norm must be positive, got {max_norm}")
    total = np.sqrt(sum(float(np.sum(g * g)) for g in grads.values()))
    if total > max_norm:
        scale = max_norm / total
        for g in grads.values():
            g *= scale
    return grads
