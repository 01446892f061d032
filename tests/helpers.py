"""Shared oracles for the test suite.

Everything the library computes with dynamic programming or analytic calculus
is re-derived here the slow, obviously-correct way: explicit enumeration of
all K^T paths and central finite differences. Tests compare the fast code
against these.
"""

import itertools

import numpy as np
from scipy.special import logsumexp

from semtagger import EncoderParams, EpochMetrics, Sentence, nll_and_grad
from semtagger.crf import _MAX_LOG_SCALE as MAX_LOG_SCALE
from semtagger.crf import _TINY as TINY
from semtagger.crf import NEG_INF, CrfParams
from semtagger.optim import ADAM_BETA1, ADAM_BETA2, ADAM_EPS, lr_at


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
# The encoder, the CRF sweeps, Viterbi and the training step run packed over
# groups of sentences. These are the same recursions one sentence and one
# step at a time, on plain vectors, with every operation in the same order;
# the packed code must match them bit for bit. They change only with an
# intended change of the trained bits, declared in CHANGES.md.

def loop_lstm(params, inputs):
    """``(x, gates, cell, tanh_cell, hidden)`` of one sentence (token ids or
    (T, D) vectors): the inputs, the post-activation gates (T, 4H) in the
    order i, f, g, o, and the cell, tanh(cell) and hidden states (T, H)."""
    arr = np.asarray(inputs)
    x = params.embedding[arr] if arr.ndim == 1 else arr.astype(np.float64)
    h_dim = params.hidden_dim
    gi, gf, gg, go = (slice(b * h_dim, (b + 1) * h_dim) for b in range(4))
    zx = x @ params.lstm_input_weights.T + params.lstm_bias
    h, c = np.zeros(h_dim), np.zeros(h_dim)
    gates = np.empty((len(x), 4 * h_dim))
    cell, tanh_cell, hidden = (np.empty((len(x), h_dim)) for _ in range(3))
    for t in range(len(x)):
        z = zx[t] + params.lstm_hidden_weights @ h
        act = 0.5 * (1.0 + np.tanh(0.5 * z))
        act[gg] = np.tanh(z[gg])
        gates[t] = act
        c = cell[t] = act[gf] * c + act[gi] * act[gg]
        tanh_cell[t] = np.tanh(c)
        h = hidden[t] = act[go] * tanh_cell[t]
    return x, gates, cell, tanh_cell, hidden


def loop_emissions(params, inputs) -> np.ndarray:
    """Emissions (T, K) of one sentence (token ids or (T, D) vectors)."""
    return loop_lstm(params, inputs)[-1] @ params.out_weights.T + params.out_bias


def _loop_logsumexp(x, axis=None):
    top = np.max(x, axis=axis)
    shift = top if axis is None else np.expand_dims(top, axis)
    return top + np.log(np.exp(x - shift).sum(axis=axis))


def _loop_sweep(first, emissions, trans) -> np.ndarray:
    """Rows ``r[t] = log sum_i exp(r[t-1, i] + emissions[t-1, i] + trans[i, j])``
    from ``r[0] = first``, by the scaled recursion, one matrix-vector product
    per step, redoing underflowed columns in log space (see ``crf``)."""
    shift = trans.max(axis=0)
    scaled = np.exp(trans - shift)
    rows = np.empty(emissions.shape)
    rows[0] = first
    for t in range(1, len(emissions)):
        v = rows[t - 1] + emissions[t - 1]
        top = v.max()
        sums = np.exp(v - top) @ scaled
        low = sums < TINY
        sums[low] = 1.0
        rows[t] = top + shift + np.log(sums)
        rows[t, low] = _loop_logsumexp(v[:, None] + trans[:, low], axis=0)
    return rows


def _loop_alpha(params: CrfParams, emissions: np.ndarray):
    k = params.num_tags
    alpha = _loop_sweep(params.transitions[params.start, :k], emissions,
                        params.transitions[:k, :k]) + emissions
    log_z = _loop_logsumexp(alpha[-1] + params.transitions[:k, params.stop])
    return alpha, float(log_z)


def loop_log_partition(params: CrfParams, emissions: np.ndarray) -> float:
    """log Z by the forward recursion."""
    return _loop_alpha(params, emissions)[1]


def loop_score_path(params: CrfParams, emissions: np.ndarray, path) -> float:
    score = emissions[np.arange(len(path)), path].sum()
    score += params.transitions[params.start, path[0]]
    score += params.transitions[path[:-1], path[1:]].sum()
    score += params.transitions[path[-1], params.stop]
    return float(score)


def _loop_expected_transitions(trans, alpha, right, log_z) -> np.ndarray:
    """Expected transition counts, the steps whose scale cannot overflow in
    one matmul and the others term by term (see ``crf``)."""
    left = alpha[:-1]
    top = trans.max()
    left_max, right_max = left.max(axis=1), right.max(axis=1)
    log_scale = left_max + right_max + top - log_z
    ok = log_scale <= MAX_LOG_SCALE
    a = np.exp(left[ok] - left_max[ok, None] + log_scale[ok, None])
    b = np.exp(right[ok] - right_max[ok, None])
    counts = np.exp(trans - top) * (a.T @ b)
    for t in np.flatnonzero(~ok):
        counts += np.exp(left[t][:, None] + trans + right[t][None, :] - log_z)
    return counts


def loop_nll_and_grad(params: CrfParams, emissions: np.ndarray, gold):
    """``(loss, d_transitions, d_emissions)`` of one sentence from the alpha
    sweep and the beta sweep (right to left through ``trans.T``)."""
    big_t, k = emissions.shape
    trans = params.transitions
    alpha, log_z = _loop_alpha(params, emissions)
    beta = _loop_sweep(trans[:k, params.stop], emissions[::-1],
                       trans[:k, :k].T)[::-1]
    unary = np.exp(alpha + beta - log_z)
    d_trans = np.zeros_like(trans)
    if big_t > 1:
        d_trans[:k, :k] = _loop_expected_transitions(
            trans[:k, :k], alpha, emissions[1:] + beta[1:], log_z)
        np.subtract.at(d_trans, (gold[:-1], gold[1:]), 1.0)
    d_trans[params.start, :k] = unary[0]
    d_trans[params.start, gold[0]] -= 1.0
    d_trans[:k, params.stop] = unary[-1]
    d_trans[gold[-1], params.stop] -= 1.0
    unary[np.arange(big_t), gold] -= 1.0
    return log_z - loop_score_path(params, emissions, gold), d_trans, unary


def loop_backward(params, inputs, d_emissions) -> dict[str, np.ndarray]:
    """Encoder gradients of ``sum(d_emissions * emissions)`` for one
    sentence, by backpropagation through time one step at a time; the
    embedding's is dense (V, D)."""
    x, gates, cell, tanh_cell, hidden = loop_lstm(params, inputs)
    big_t, h_dim = hidden.shape
    i, f, g, o = (gates[:, b * h_dim:(b + 1) * h_dim] for b in range(4))
    dh_emit = d_emissions @ params.out_weights
    dz = np.empty((big_t, 4 * h_dim))
    dh_rec, dc_rec = np.zeros(h_dim), np.zeros(h_dim)
    for t in range(big_t - 1, -1, -1):
        c_prev = cell[t - 1] if t > 0 else np.zeros(h_dim)
        dh = dh_emit[t] + dh_rec
        dc = dc_rec + dh * o[t] * (1.0 - tanh_cell[t] ** 2)
        dz[t, :h_dim] = dc * g[t] * i[t] * (1.0 - i[t])
        dz[t, h_dim:2 * h_dim] = dc * c_prev * f[t] * (1.0 - f[t])
        dz[t, 2 * h_dim:3 * h_dim] = dc * i[t] * (1.0 - g[t] ** 2)
        dz[t, 3 * h_dim:] = dh * tanh_cell[t] * o[t] * (1.0 - o[t])
        dh_rec = params.lstm_hidden_weights.T @ dz[t]
        dc_rec = dc * f[t]
    h_prev = np.vstack([np.zeros((1, h_dim)), hidden[:-1]])
    grads = {}
    if params.embedding is not None:
        grads["embedding"] = np.zeros_like(params.embedding)
        np.add.at(grads["embedding"], np.asarray(inputs),
                  dz @ params.lstm_input_weights)
    grads["lstm_input_weights"] = dz.T @ x
    grads["lstm_hidden_weights"] = dz.T @ h_prev
    grads["lstm_bias"] = dz.sum(axis=0)
    grads["out_weights"] = d_emissions.T @ hidden
    grads["out_bias"] = d_emissions.sum(axis=0)
    return grads


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


def _models(params: dict[str, np.ndarray]) -> tuple[EncoderParams, CrfParams]:
    encoder = EncoderParams(**{"embedding": None, **{
        name: p for name, p in params.items() if name != "crf_transitions"}})
    trans = params["crf_transitions"]
    return encoder, CrfParams(len(trans) - 2, trans)


def loop_evaluate(params: dict[str, np.ndarray], data) -> tuple[float, float]:
    """(mean NLL, Viterbi token accuracy), one sentence at a time, the
    losses summed in data order."""
    encoder, crf = _models(params)
    loss_sum, correct, tokens = 0.0, 0, 0
    for inputs, gold in data:
        e = loop_emissions(encoder, inputs)
        loss_sum += loop_log_partition(crf, e) - loop_score_path(crf, e, gold)
        correct += int(np.sum(loop_viterbi(crf, e) == gold))
        tokens += len(gold)
    return loss_sum / len(data), correct / tokens


def loop_clip(grads, max_norm):
    total = np.sqrt(sum(float(np.sum(g * g)) for g in grads.values()))
    if total <= max_norm:
        return grads
    return {name: g * (max_norm / total) for name, g in grads.items()}


def loop_train_epoch(params: dict[str, np.ndarray], moments, train_data,
                     val_data, config, epoch: int):
    """One epoch of training one sentence at a time, then full-set metrics.

    ``params`` maps tensor names (``TaggerModel.tensors()`` order) to arrays
    and ``moments`` is Adam's ``(step_count, m, v)`` (None for SGD). Each
    batch sums its sentences' gradients in batch order into zeros, divides
    by its size, clips, and takes one step with fresh arrays. Returns
    ``(params, moments, EpochMetrics)``.
    """
    lr = lr_at(config.effective_lr, epoch)
    order = np.random.default_rng([config.seed, epoch]).permutation(
        len(train_data))
    size = config.batch_size
    for start in range(0, len(order), size):
        batch = order[start:start + size]
        encoder, crf = _models(params)
        sums = {name: np.zeros_like(p) for name, p in params.items()}
        for i in batch:
            inputs, gold = train_data[i]
            emissions = loop_emissions(encoder, inputs)
            _, d_trans, d_emissions = loop_nll_and_grad(crf, emissions, gold)
            grads = loop_backward(encoder, inputs, d_emissions)
            grads["crf_transitions"] = d_trans
            for name in sums:
                sums[name] += grads[name]
        grads = {name: s / len(batch) for name, s in sums.items()}
        if config.clip_norm is not None:
            grads = loop_clip(grads, config.clip_norm)
        if moments is None:
            params = {name: p - lr * grads[name] for name, p in params.items()}
            continue
        t, m0, v0 = moments
        t += 1
        bias1, bias2 = 1.0 - ADAM_BETA1 ** t, 1.0 - ADAM_BETA2 ** t
        m = {name: ADAM_BETA1 * m0[name] + (1.0 - ADAM_BETA1) * g
             for name, g in grads.items()}
        v = {name: ADAM_BETA2 * v0[name] + (1.0 - ADAM_BETA2) * g * g
             for name, g in grads.items()}
        params = {name: p - lr * (m[name] / bias1)
                  / (np.sqrt(v[name] / bias2) + ADAM_EPS)
                  for name, p in params.items()}
        moments = t, m, v
    metrics = EpochMetrics(epoch, *loop_evaluate(params, train_data),
                           *loop_evaluate(params, val_data), lr)
    return params, moments, metrics
