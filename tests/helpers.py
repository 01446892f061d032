"""Shared oracles for the test suite.

Everything the library computes with dynamic programming or analytic calculus
is re-derived here the slow, obviously-correct way: explicit enumeration of
all K^T paths and central finite differences. Tests compare the fast code
against these.
"""

import itertools

import numpy as np
from scipy.special import logsumexp

from semtagger import Sentence, nll_and_grad
from semtagger.crf import _TINY as TINY
from semtagger.crf import NEG_INF, CrfParams


def rel_err(a, b) -> float:
    """Norm-based relative error, safe when both sides are ~0."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    denom = max(np.linalg.norm(a) + np.linalg.norm(b), 1e-12)
    return float(np.linalg.norm(a - b) / denom)


def all_paths(num_tags: int, length: int) -> np.ndarray:
    """(K^T, T) array of every tag path, in lexicographic order."""
    return np.array(list(itertools.product(range(num_tags), repeat=length)),
                    dtype=np.intp)


def brute_scores(params: CrfParams, emissions: np.ndarray):
    """Score of every path, computed term by term from the definition."""
    big_t, k = emissions.shape
    paths = all_paths(k, big_t)
    trans = params.transitions
    scores = emissions[np.arange(big_t)[None, :], paths].sum(axis=1)
    scores = scores + trans[params.start, paths[:, 0]]
    for t in range(big_t - 1):
        scores = scores + trans[paths[:, t], paths[:, t + 1]]
    scores = scores + trans[paths[:, -1], params.stop]
    return paths, scores


def brute_log_partition(params: CrfParams, emissions: np.ndarray) -> float:
    _, scores = brute_scores(params, emissions)
    return float(logsumexp(scores))


def brute_viterbi(params: CrfParams, emissions: np.ndarray):
    """Best path by enumeration; argmax keeps the lexicographically first
    maximizer, which is the lowest-index tie-break."""
    paths, scores = brute_scores(params, emissions)
    best = int(np.argmax(scores))
    return paths[best], float(scores[best])


def brute_marginals(params: CrfParams, emissions: np.ndarray):
    paths, scores = brute_scores(params, emissions)
    probs = np.exp(scores - logsumexp(scores))
    big_t, k = emissions.shape
    unary = np.zeros((big_t, k))
    for t in range(big_t):
        np.add.at(unary[t], paths[:, t], probs)
    pairwise = np.zeros((big_t - 1, k, k))
    for t in range(big_t - 1):
        np.add.at(pairwise[t], (paths[:, t], paths[:, t + 1]), probs)
    return unary, pairwise


def gradient_posteriors(params: CrfParams, emissions: np.ndarray, gold):
    """``(unary, pair_counts)`` read off ``nll_and_grad``, for comparison with
    ``brute_marginals``. The gradient is expected minus observed counts, so
    adding the gold path back gives ``unary[t, k] = P(y_t = k | x)`` and
    ``pair_counts[i, j] = sum_t P(y_t = i, y_{t+1} = j | x)``."""
    gold = np.asarray(gold, dtype=np.intp)
    _, grads = nll_and_grad(params, emissions, gold)
    k = params.num_tags
    unary = grads.d_emissions.copy()
    unary[np.arange(len(gold)), gold] += 1.0
    pair_counts = grads.d_transitions[:k, :k].copy()
    np.add.at(pair_counts, (gold[:-1], gold[1:]), 1.0)
    return unary, pair_counts


def fd_grad(f, x: np.ndarray, step: float, mask: np.ndarray | None = None):
    """Central-difference gradient of the scalar f() with respect to x.

    f must read x live; entries where mask is False are left untouched and
    get gradient 0 (used to skip the CRF's structural sentinel cells).
    """
    grad = np.zeros_like(x, dtype=np.float64)
    flat_x = x.ravel()
    flat_g = grad.ravel()
    flat_m = None if mask is None else np.asarray(mask).ravel()
    for i in range(flat_x.size):
        if flat_m is not None and not flat_m[i]:
            continue
        orig = flat_x[i]
        flat_x[i] = orig + step
        f_plus = f()
        flat_x[i] = orig - step
        f_minus = f()
        flat_x[i] = orig
        flat_g[i] = (f_plus - f_minus) / (2.0 * step)
    return grad


def trans_mask(params: CrfParams) -> np.ndarray:
    """True on cells free to vary (everything but the sentinel-locked ones)."""
    mask = np.ones_like(params.transitions, dtype=bool)
    mask[:, params.start] = False
    mask[params.stop, :] = False
    return mask


def zero_transition_params(num_tags: int) -> CrfParams:
    """All-zero real-tag and boundary transitions (uniform path scores)."""
    trans = np.zeros((num_tags + 2, num_tags + 2))
    trans[:, num_tags] = NEG_INF      # nothing enters START
    trans[num_tags + 1, :] = NEG_INF  # nothing leaves STOP
    return CrfParams(num_tags=num_tags, transitions=trans)


def random_crf_instance(rng: np.random.Generator, num_tags: int, length: int,
                        block: tuple[float, float] | None = None):
    """A CRF with random finite transitions plus random emissions and gold path.

    Transitions are standard normal; with ``block=(low, high)`` the real-tag
    block is redrawn from uniform(low, high) instead, for wide-range scores.
    """
    trans = rng.normal(0.0, 1.0, size=(num_tags + 2, num_tags + 2))
    if block is not None:
        trans[:num_tags, :num_tags] = rng.uniform(*block, size=(num_tags, num_tags))
    trans[:, num_tags] = NEG_INF      # nothing enters START
    trans[num_tags + 1, :] = NEG_INF  # nothing leaves STOP
    params = CrfParams(num_tags=num_tags, transitions=trans)
    emissions = rng.normal(0.0, 1.0, size=(length, num_tags))
    gold = rng.integers(0, num_tags, size=length)
    return params, emissions, gold.astype(np.intp)


def make_toy_corpus(num_sentences: int, vocab_size: int, num_tags: int,
                    seed: int, min_len: int = 3, max_len: int = 8):
    """Deterministic synthetic task: token 'tok<i>' always carries tag
    't<i mod K>', so perfect training accuracy is attainable."""
    rng = np.random.default_rng(seed)
    sentences = []
    for _ in range(num_sentences):
        length = int(rng.integers(min_len, max_len + 1))
        ids = rng.integers(0, vocab_size, size=length)
        tokens = [f"tok{i}" for i in ids]
        tags = [f"t{i % num_tags}" for i in ids]
        sentences.append(Sentence(tokens=tokens, tags=tags))
    return sentences


def type_vectors(vocab_size: int, dim: int, seed: int) -> np.ndarray:
    """One fixed random vector per token type, standing in for precomputed
    contextual embeddings."""
    return np.random.default_rng(seed).normal(0.0, 1.0, size=(vocab_size, dim))


# ---- one-sentence reference loops
#
# The encoder, the CRF forward pass and Viterbi run packed over groups of
# sentences. These are the same recursions one sentence and one step at a
# time, on plain vectors, with every operation in the same order; the packed
# code must match them bit for bit.

def loop_emissions(params, inputs) -> np.ndarray:
    """Emissions (T, K) of one sentence (token ids or (T, D) vectors)."""
    arr = np.asarray(inputs)
    x = params.embedding[arr] if arr.ndim == 1 else arr.astype(np.float64)
    h_dim = params.hidden_dim
    gi, gf, gg, go = (slice(b * h_dim, (b + 1) * h_dim) for b in range(4))
    zx = x @ params.lstm_input_weights.T + params.lstm_bias
    h, c = np.zeros(h_dim), np.zeros(h_dim)
    hidden = np.empty((len(x), h_dim))
    for t in range(len(x)):
        z = zx[t] + params.lstm_hidden_weights @ h
        act = 0.5 * (1.0 + np.tanh(0.5 * z))
        act[gg] = np.tanh(z[gg])
        c = act[gf] * c + act[gi] * act[gg]
        h = hidden[t] = act[go] * np.tanh(c)
    return hidden @ params.out_weights.T + params.out_bias


def _loop_logsumexp(x, axis=None):
    top = np.max(x, axis=axis)
    shift = top if axis is None else np.expand_dims(top, axis)
    return top + np.log(np.exp(x - shift).sum(axis=axis))


def loop_log_partition(params: CrfParams, emissions: np.ndarray) -> float:
    """log Z by the scaled forward recursion, one matrix-vector product per
    step, redoing underflowed columns in log space (see ``crf``)."""
    k = params.num_tags
    trans = params.transitions[:k, :k]
    shift = trans.max(axis=0)
    scaled = np.exp(trans - shift)
    alpha = params.transitions[params.start, :k] + emissions[0]
    for t in range(1, len(emissions)):
        top = alpha.max()
        sums = np.exp(alpha - top) @ scaled
        low = sums < TINY
        sums[low] = 1.0
        row = top + shift + np.log(sums)
        row[low] = _loop_logsumexp(alpha[:, None] + trans[:, low], axis=0)
        alpha = row + emissions[t]
    return float(_loop_logsumexp(alpha + params.transitions[:k, params.stop]))


def loop_viterbi(params: CrfParams, emissions: np.ndarray) -> np.ndarray:
    """Best path by max-plus with backpointers, ties to the lowest tag."""
    big_t, k = emissions.shape
    trans = params.transitions[:k, :k]
    pi = params.transitions[params.start, :k] + emissions[0]
    bp = np.empty((big_t, k), dtype=np.intp)
    for t in range(1, big_t):
        cand = pi[:, None] + trans
        bp[t] = cand.argmax(axis=0)
        pi = cand[bp[t], np.arange(k)] + emissions[t]
    path = np.empty(big_t, dtype=np.intp)
    path[-1] = int((pi + params.transitions[:k, params.stop]).argmax())
    for t in range(big_t - 1, 0, -1):
        path[t - 1] = bp[t, path[t]]
    return path
