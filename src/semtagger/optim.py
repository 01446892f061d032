"""Parameter update rules (SGD, Adam) and the step-decay learning-rate schedule.

Optimizers operate on flat dicts of named float64 arrays so the same code
updates encoder tensors and the CRF transition matrix. Steps are functional:
they return fresh arrays / state and never mutate their inputs. Clipping
scales the gradients it is given in place. Adam's hyperparameters and the
schedule's decay are fixed module constants.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DimensionError

OPTIMIZERS = {"adam": 1e-3, "sgd": 1e-2}  # name -> default base learning rate

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8

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


def sgd_step(params: dict[str, np.ndarray], grads: dict[str, np.ndarray],
             lr: float) -> dict[str, np.ndarray]:
    """Plain gradient descent: p' = p - lr * g."""
    if lr <= 0:
        raise ConfigError(f"lr must be positive, got {lr}")
    _check_shapes(params, grads)
    return {name: np.subtract(p, (step := lr * grads[name]), out=step)
            for name, p in params.items()}


def adam_step(params: dict[str, np.ndarray], grads: dict[str, np.ndarray],
              state: OptimState, lr: float) -> tuple[dict[str, np.ndarray], OptimState]:
    """One Adam update with bias correction; returns (new params, new state)."""
    if lr <= 0:
        raise ConfigError(f"lr must be positive, got {lr}")
    if state.kind != "adam" or state.m is None or state.v is None:
        raise ConfigError("adam_step requires an Adam OptimState with moment tensors")
    _check_shapes(params, grads)
    _check_shapes(params, state.m)

    t = state.step_count + 1
    b1, b2 = ADAM_BETA1, ADAM_BETA2
    bias1 = 1.0 - b1 ** t
    bias2 = 1.0 - b2 ** t
    new_params, new_m, new_v = {}, {}, {}
    # m = b1 m + (1 - b1) g, v = b2 v + (1 - b2) g g and
    # p - lr (m / bias1) / (sqrt(v / bias2) + eps), each rounded in the order
    # written, with one temporary per tensor besides the arrays returned
    for name, p in params.items():
        g = grads[name]
        tmp = np.multiply(1.0 - b1, g)
        m = new_m[name] = np.multiply(b1, state.m[name])
        m += tmp
        np.multiply(1.0 - b2, g, out=tmp)
        tmp *= g
        v = new_v[name] = np.multiply(b2, state.v[name])
        v += tmp
        np.divide(v, bias2, out=tmp)
        np.sqrt(tmp, out=tmp)
        tmp += ADAM_EPS
        step = new_params[name] = np.divide(m, bias1)
        step *= lr
        step /= tmp
        np.subtract(p, step, out=step)
    return new_params, OptimState(kind="adam", step_count=t, m=new_m, v=new_v)


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
