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

* The forward and backward sweeps and Viterbi run packed: one loop over the
  time steps of a group of sentences sorted longest first (see ``_pack``).
  At step ``t`` only the prefix of sentences still running is active, so no
  lane computes past its sentence's end and a padded cell is never read.
  One sentence is a group of one; there is no second per-sentence copy of
  any recursion. Packing does not change a single bit. A stacked product
  such as ``e[:, None, :] @ scaled`` runs one matrix-vector product per
  sentence inside one numpy call, with the same BLAS kernel as
  ``e[i] @ scaled`` (a matrix-matrix product of the stacked rows would not:
  its blocking moves the last bits). Max, argmax and every elementwise step
  treat each lane on its own, and the per-sentence work (log Z's final
  log-sum-exp, the expected transition counts, the boundary rows,
  ``_score_path``) keeps its one-sentence call shape.
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


def _pack(arrays: list[np.ndarray]) -> tuple[np.ndarray, list[int]]:
    """Time-major ``(T_max, n, ...)`` stack of ``n`` arrays sorted longest
    first, and the number of lanes active at each step: lane ``i`` runs at
    step ``t`` iff ``t < len(arrays[i])``, so the active lanes are a prefix.
    Cells past a lane's end are zero and never read. A single array is
    returned as a view."""
    lengths = [len(a) for a in arrays]
    if any(a < b for a, b in zip(lengths, lengths[1:])):
        raise DimensionError(f"packed arrays must be sorted longest first, "
                             f"got lengths {lengths}")
    if len(arrays) == 1:
        return arrays[0][:, None], [1] * lengths[0]
    packed = np.zeros((lengths[0], len(arrays)) + arrays[0].shape[1:])
    for i, a in enumerate(arrays):
        packed[:len(a), i] = a
    active, n = [], len(lengths)
    for t in range(lengths[0]):
        while lengths[n - 1] <= t:
            n -= 1
        active.append(n)
    return packed, active


def _sweep(first: np.ndarray, emissions: list[np.ndarray],
           trans: np.ndarray) -> np.ndarray:
    """Packed rows of the log-space recursion ``rows[t, l, j] = log sum_i
    exp(rows[t-1, l, i] + emissions[l][t-1, i] + trans[i, j])`` from
    ``rows[0, l] = first``, for emission matrices sorted longest first: each
    row is stored before its own step's emission is added."""
    scaled, shift = _scaled(trans)
    packed, active = _pack(emissions)
    rows = np.empty(packed.shape)
    rows[0] = first
    for m, prev, e, row in zip(active[1:], rows, packed, rows[1:]):
        if m < len(emissions):  # only the first m lanes still run
            prev, e, row = prev[:m], e[:m], row[:m]
        v = prev + e
        top = v.max(axis=1, keepdims=True)
        v -= top
        sums = (np.exp(v, out=v)[:, None, :] @ scaled)[:, 0]
        np.add(top, shift, out=row)
        if sums.min() >= _TINY:
            row += np.log(sums, out=sums)
            continue
        # underflowed columns are redone in log space, from the lane's v
        # recomputed (the exp above overwrote it)
        low = sums < _TINY
        sums[low] = 1.0
        row += np.log(sums, out=sums)
        for lane in np.flatnonzero(low.any(axis=1)):
            cols = low[lane]
            row[lane, cols] = _logsumexp(
                (prev[lane] + e[lane])[:, None] + trans[:, cols], axis=0)
    return rows


def _forward(params: CrfParams,
             emissions: list[np.ndarray]) -> list[tuple[np.ndarray, float]]:
    """``(alpha, log Z)`` per emission matrix, sorted longest first:
    ``alpha[t, k]`` is the log sum over prefixes ending in tag ``k`` at time
    ``t``."""
    k = params.num_tags
    rows = _sweep(params.transitions[params.start, :k], emissions,
                  params.transitions[:k, :k])
    out = []
    for lane, e in enumerate(emissions):
        alpha = rows[:len(e), lane] + e
        out.append((alpha, float(_logsumexp(
            alpha[-1] + params.transitions[:k, params.stop]))))
    return out


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
    return _forward(params, [_check_emissions(params, emissions)])[0][1]


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
    return nll_and_grads(params, [emissions], [gold])[0]


def nll_and_grads(params: CrfParams, emissions: list,
                  golds: list) -> list[tuple[float, CrfGradients]]:
    """``nll_and_grad`` of each emission matrix and gold path, sorted longest
    first, from one packed alpha sweep and one packed beta sweep;
    bit-identical to one call per sentence."""
    emissions = [_check_emissions(params, e) for e in emissions]
    golds = [_check_path(params, e, gold) for e, gold in zip(emissions, golds)]
    k, start, stop = params.num_tags, params.start, params.stop
    trans = params.transitions
    # beta[t, k]: log sum over suffixes given tag k at time t, excluding the
    # emission at t; the forward sweep run right to left through trans.T
    betas = _sweep(trans[:k, stop], [e[::-1] for e in emissions],
                   trans[:k, :k].T)
    out = []
    for lane, (e, gold, (alpha, log_z)) in enumerate(
            zip(emissions, golds, _forward(params, emissions))):
        big_t = len(e)
        beta = betas[:big_t, lane][::-1]
        unary = np.exp(alpha + beta - log_z)

        d_trans = np.zeros_like(trans)
        if big_t > 1:
            d_trans[:k, :k] = _expected_transitions(
                trans[:k, :k], alpha, e[1:] + beta[1:], log_z)
            np.subtract.at(d_trans, (gold[:-1], gold[1:]), 1.0)
        d_trans[start, :k] = unary[0]
        d_trans[start, gold[0]] -= 1.0
        d_trans[:k, stop] = unary[-1]
        d_trans[gold[-1], stop] -= 1.0

        unary[np.arange(big_t), gold] -= 1.0
        loss = log_z - _score_path(params, e, gold)
        out.append((loss, CrfGradients(d_transitions=d_trans,
                                       d_emissions=unary)))
    return out


def _viterbi(params: CrfParams, emissions: list[np.ndarray]) -> list[np.ndarray]:
    """Best path per emission matrix, sorted longest first, by one packed
    max-plus loop.

    ``pi[l, j]`` is the best score of any prefix of lane ``l`` ending in tag
    ``j``; ``bp[t, l, j]`` records the maximizing predecessor. The step runs
    on the transposed table, ``cand[l, j, i] = trans[i, j] + pi[l, i]``, so
    each argmax reads one contiguous row and keeps the first maximizer: ties
    break toward the lowest tag index.
    """
    k = params.num_tags
    trans_t = np.ascontiguousarray(params.transitions[:k, :k].T)
    packed, active = _pack(emissions)
    lanes, tags = np.arange(len(emissions))[:, None], np.arange(k)
    pi = params.transitions[params.start, :k] + packed[0]
    last = np.empty((len(emissions), k))  # pi at each lane's final step
    bp = np.empty(packed.shape, dtype=np.intp)
    cands = np.empty((len(emissions), k, k))  # each step's candidates, reused
    for t in range(1, len(packed)):
        n = active[t]
        last[n:len(pi)] = pi[n:]
        cand = cands[:n]
        # fill, then add: one broadcast add into out= takes up to twice as long
        cand[...] = pi[:n, None, :]
        cand += trans_t
        best = cand.argmax(axis=2, out=bp[t, :n])
        pi = cand[lanes[:n], tags, best] + packed[t, :n]
    last[:len(pi)] = pi
    final = last + params.transitions[:k, params.stop]
    paths = []
    for lane, e in enumerate(emissions):
        path = np.empty(len(e), dtype=np.intp)
        path[-1] = int(final[lane].argmax())
        for t in range(len(e) - 1, 0, -1):
            path[t - 1] = bp[t, lane, path[t]]
        paths.append(path)
    return paths


def viterbi_decode(params: CrfParams, emissions: np.ndarray) -> tuple[np.ndarray, float]:
    """Highest-scoring tag path and its score, by max-plus dynamic programming.

    Ties break toward the lowest tag index. The returned score equals
    ``score_path`` of the returned path exactly.
    """
    emissions = _check_emissions(params, emissions)
    (path,) = _viterbi(params, [emissions])
    return path, _score_path(params, emissions, path)

