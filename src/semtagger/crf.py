"""Log-space linear-chain CRF over emission scores.

Conventions used throughout:

* ``transitions`` is a ``(K+2, K+2)`` float64 matrix indexed ``[from, to]``.
  Indices ``K`` and ``K+1`` are synthetic START and STOP states, so a path
  ``y_1 .. y_T`` scores

      transitions[START, y_1]
      + sum_t transitions[y_t, y_{t+1}]
      + transitions[y_T, STOP]
      + sum_t emissions[t, y_t]

* Structurally impossible cells (anything entering START or leaving STOP)
  hold ``NEG_INF``, a finite sentinel: additions never produce NaN, and
  exp(NEG_INF) underflows to exactly 0.0 in double precision, so the
  sentinel can never win a max or contribute to a log-sum-exp.

* All scores live in log space; decoding uses max-plus with backpointers.
  The forward and backward recursions are the scaled forward-backward of
  Rabiner (1989): each step's log-sum-exp over the K source tags is one
  matrix-vector product in exp space,

      log sum_i exp(v_i + trans[i, j])
          = max(v) + c_j + log(exp(v - max v) @ exp(trans - c))_j,

  with ``c_j = max_i trans[i, j]``, so ``exp(trans - c)`` is computed once
  per call instead of K^2 ``exp`` calls per step. Every factor is at most 1,
  so nothing overflows. A column whose scaled sum falls below ``_TINY`` has
  lost digits to underflow and is recomputed in log space, which keeps the
  result exact for every finite transition matrix.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, DivergenceError, EmptySequenceError

NEG_INF = -1e4

# A scaled sum below _TINY is redone in log space. The expected transition
# counts use one matmul over all steps when each step's scale factor is at
# most exp(_MAX_LOG_SCALE), far enough below the float64 maximum that a sum
# over T steps stays finite; other steps are summed term by term.
_TINY = 1e-200
_MAX_LOG_SCALE = 600.0


@dataclass
class CrfParams:
    """Transition scores for ``num_tags`` real tags plus START/STOP states."""

    num_tags: int
    transitions: np.ndarray  # (K+2, K+2), [from, to], float64

    def __post_init__(self):
        k = self.num_tags
        if k < 1:
            raise DimensionError(f"num_tags must be >= 1, got {k}")
        self.transitions = np.asarray(self.transitions, dtype=np.float64)
        if self.transitions.shape != (k + 2, k + 2):
            raise DimensionError(
                f"transitions must have shape {(k + 2, k + 2)}, "
                f"got {self.transitions.shape}"
            )
        if not np.all(np.isfinite(self.transitions)):
            raise DivergenceError("transitions must be finite everywhere")
        if not np.all(self.transitions[:, self.start] == NEG_INF):
            raise ValueError("transitions into START must be NEG_INF")
        if not np.all(self.transitions[self.stop, :] == NEG_INF):
            raise ValueError("transitions out of STOP must be NEG_INF")

    @property
    def start(self) -> int:
        return self.num_tags

    @property
    def stop(self) -> int:
        return self.num_tags + 1


@dataclass
class CrfGradients:
    """d(loss)/d(transitions) and d(loss)/d(emissions) for one sentence."""

    d_transitions: np.ndarray  # (K+2, K+2)
    d_emissions: np.ndarray    # (T, K)


def init_crf_params(num_tags: int, seed: int = 0) -> CrfParams:
    """Fresh transition matrix: uniform(-0.1, 0.1), sentinels applied."""
    rng = np.random.default_rng(seed)
    trans = rng.uniform(-0.1, 0.1, size=(num_tags + 2, num_tags + 2))
    trans[:, num_tags] = NEG_INF       # nothing enters START
    trans[num_tags + 1, :] = NEG_INF   # nothing leaves STOP
    return CrfParams(num_tags=num_tags, transitions=trans)


def _check_emissions(params: CrfParams, emissions: np.ndarray) -> np.ndarray:
    emissions = np.asarray(emissions, dtype=np.float64)
    if emissions.ndim != 2:
        raise DimensionError(f"emissions must be 2-D (T, K), got ndim={emissions.ndim}")
    if emissions.shape[0] == 0:
        raise EmptySequenceError("emission matrix has zero time steps")
    if emissions.shape[1] != params.num_tags:
        raise DimensionError(
            f"emissions have {emissions.shape[1]} tag columns, "
            f"params expect {params.num_tags}"
        )
    if not np.all(np.isfinite(emissions)):
        raise DivergenceError("emissions must be finite")
    return emissions


def _check_path(params: CrfParams, emissions: np.ndarray, path) -> np.ndarray:
    path = np.asarray(path, dtype=np.intp)
    if path.ndim != 1 or path.shape[0] != emissions.shape[0]:
        raise DimensionError(
            f"path length {path.shape} does not match T={emissions.shape[0]}"
        )
    if path.size and (path.min() < 0 or path.max() >= params.num_tags):
        raise IndexError(
            f"tag index out of range [0, {params.num_tags}): {path.tolist()}"
        )
    return path


def score_path(params: CrfParams, emissions: np.ndarray, path) -> float:
    """Unnormalized log score of one tag path (emissions + transitions)."""
    emissions = _check_emissions(params, emissions)
    return _score_path(params, emissions, _check_path(params, emissions, path))


def _score_path(params: CrfParams, emissions: np.ndarray, path: np.ndarray) -> float:
    t_idx = np.arange(emissions.shape[0])
    score = emissions[t_idx, path].sum()
    score += params.transitions[params.start, path[0]]
    score += params.transitions[path[:-1], path[1:]].sum()
    score += params.transitions[path[-1], params.stop]
    return float(score)


def _logsumexp(x: np.ndarray, axis=None):
    """log(sum(exp(x))) along ``axis``, shifted by the max; ``x`` is finite."""
    top = np.max(x, axis=axis)
    shift = top if axis is None else np.expand_dims(top, axis)
    return top + np.log(np.exp(x - shift).sum(axis=axis))


def _scaled(trans: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(exp(trans - c), c)`` with ``c`` the column maxima of ``trans``."""
    shift = trans.max(axis=0)
    return np.exp(trans - shift), shift


def _log_matvec(v: np.ndarray, trans: np.ndarray, scaled: np.ndarray,
                shift: np.ndarray) -> np.ndarray:
    """``log sum_i exp(v[i] + trans[i, j])`` for every column ``j``, given
    ``(scaled, shift) = _scaled(trans)``."""
    top = v.max()
    sums = np.exp(v - top) @ scaled
    low = sums < _TINY
    if not low.any():
        return top + shift + np.log(sums)
    sums[low] = 1.0
    out = top + shift + np.log(sums)
    out[low] = _logsumexp(v[:, None] + trans[:, low], axis=0)
    return out


def _forward(params: CrfParams, emissions: np.ndarray) -> tuple[np.ndarray, float]:
    """``(alpha, log Z)``: ``alpha[t, k]`` is the log sum over prefixes ending
    in tag ``k`` at time ``t``."""
    big_t, k = emissions.shape
    trans = params.transitions[:k, :k]
    scaled, shift = _scaled(trans)
    alpha = np.empty((big_t, k))
    alpha[0] = params.transitions[params.start, :k] + emissions[0]
    for t in range(1, big_t):
        alpha[t] = _log_matvec(alpha[t - 1], trans, scaled, shift) + emissions[t]
    return alpha, float(_logsumexp(alpha[-1] + params.transitions[:k, params.stop]))


def _backward(params: CrfParams, emissions: np.ndarray) -> np.ndarray:
    """beta[t, k] = log sum over suffixes given tag k at time t (excl. emission
    at t): the forward step through the transposed transition matrix."""
    big_t, k = emissions.shape
    trans = params.transitions[:k, :k].T
    scaled, shift = _scaled(trans)
    beta = np.empty((big_t, k))
    beta[-1] = params.transitions[:k, params.stop]
    for t in range(big_t - 2, -1, -1):
        beta[t] = _log_matvec(emissions[t + 1] + beta[t + 1], trans, scaled, shift)
    return beta


def _expected_transitions(trans: np.ndarray, alpha: np.ndarray, right: np.ndarray,
                          log_z: float) -> np.ndarray:
    """``sum_t P(y_t = i, y_{t+1} = j | x)`` without the ``(T-1, K, K)`` tensor.

    ``right[t] = emissions[t + 1] + beta[t + 1]``. Each step's term factors as
    ``exp(trans - top) * a_t[i] * b_t[j] * exp(log_scale[t])`` with ``a_t``,
    ``b_t`` at most 1, so the steps whose scale cannot overflow sum in one
    matmul. ``log_scale >= -2 log K`` since log Z is at most the best pair's
    score plus ``2 log K``, so no scale underflows.
    """
    left = alpha[:-1]
    top = trans.max()
    left_max = left.max(axis=1)
    right_max = right.max(axis=1)
    log_scale = left_max + right_max + top - log_z
    ok = log_scale <= _MAX_LOG_SCALE
    a = np.exp(left[ok] - left_max[ok, None] + log_scale[ok, None])
    b = np.exp(right[ok] - right_max[ok, None])
    counts = np.exp(trans - top) * (a.T @ b)
    for t in np.flatnonzero(~ok):
        counts += np.exp(left[t][:, None] + trans + right[t][None, :] - log_z)
    return counts


def log_partition(params: CrfParams, emissions: np.ndarray) -> float:
    """log Z: log-sum-exp of the scores of all K^T paths, via the forward pass."""
    return _forward(params, _check_emissions(params, emissions))[1]


def nll_loss(params: CrfParams, emissions: np.ndarray, gold) -> float:
    """Negative log-likelihood of the gold path: log Z - score(gold). Always >= 0."""
    return log_partition(params, emissions) - score_path(params, emissions, gold)


def nll_and_grad(params: CrfParams, emissions: np.ndarray,
                 gold) -> tuple[float, CrfGradients]:
    """``nll_loss`` and its analytic gradient from one forward-backward pass.

    The gradient is expected counts minus observed counts. The START row and
    STOP column of ``d_transitions`` carry the boundary terms; cells blocked
    by the sentinel convention are exactly 0.
    """
    emissions = _check_emissions(params, emissions)
    gold = _check_path(params, emissions, gold)
    big_t, k = emissions.shape
    alpha, log_z = _forward(params, emissions)
    beta = _backward(params, emissions)
    unary = np.exp(alpha + beta - log_z)

    d_trans = np.zeros_like(params.transitions)
    if big_t > 1:
        d_trans[:k, :k] = _expected_transitions(
            params.transitions[:k, :k], alpha, emissions[1:] + beta[1:], log_z)
        np.subtract.at(d_trans, (gold[:-1], gold[1:]), 1.0)
    d_trans[params.start, :k] = unary[0]
    d_trans[params.start, gold[0]] -= 1.0
    d_trans[:k, params.stop] = unary[-1]
    d_trans[gold[-1], params.stop] -= 1.0

    unary[np.arange(big_t), gold] -= 1.0
    loss = log_z - _score_path(params, emissions, gold)
    return loss, CrfGradients(d_transitions=d_trans, d_emissions=unary)


def viterbi_decode(params: CrfParams, emissions: np.ndarray) -> tuple[np.ndarray, float]:
    """Highest-scoring tag path and its score, by max-plus dynamic programming.

    ``pi[t, s]`` is the best score of any prefix ending in tag ``s`` at time
    ``t``; ``bp[t, s]`` records the maximizing predecessor. Ties break toward
    the lowest tag index (argmax keeps the first maximizer). The returned
    score equals ``score_path`` of the returned path exactly.
    """
    emissions = _check_emissions(params, emissions)
    big_t, k = emissions.shape
    trans = params.transitions[:k, :k]

    pi = params.transitions[params.start, :k] + emissions[0]
    bp = np.empty((big_t, k), dtype=np.intp)
    for t in range(1, big_t):
        cand = pi[:, None] + trans             # cand[i, j]: best-through-i then i->j
        bp[t] = cand.argmax(axis=0)
        pi = cand[bp[t], np.arange(k)] + emissions[t]

    final = pi + params.transitions[:k, params.stop]
    path = np.empty(big_t, dtype=np.intp)
    path[-1] = int(final.argmax())
    for t in range(big_t - 1, 0, -1):
        path[t - 1] = bp[t, path[t]]
    return path, _score_path(params, emissions, path)
