"""Neural emission scorer: embedding lookup -> unidirectional LSTM -> linear layer.

The forward pass produces the (T, K) emission matrix consumed by the CRF and
a tape of per-step activations; the backward pass replays the tape in reverse
and returns exact gradients (backpropagation through time), so no autodiff
framework is involved.

Two input modes share the same LSTM stack:

* token mode -- a 1-D integer array of vocab ids, embedded via a learned
  (V, D) table (row lookup, i.e. a linear layer applied to one-hot ids);
* vector mode -- a 2-D (T, D) float array of externally precomputed
  per-token vectors (e.g. 768-dim contextual embeddings consumed as data).

Gate layout in the stacked LSTM weights is fixed as four (H, ...) blocks in
the order: input gate, forget gate, candidate, output gate.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DimensionError, EmptySequenceError


@dataclass
class EncoderParams:
    """All learned tensors of the encoder. ``embedding`` is None in vector mode."""

    embedding: np.ndarray | None   # (V, D)
    lstm_input_weights: np.ndarray  # (4H, D)
    lstm_hidden_weights: np.ndarray  # (4H, H)
    lstm_bias: np.ndarray           # (4H,)
    out_weights: np.ndarray         # (K, H)
    out_bias: np.ndarray            # (K,)

    @property
    def input_dim(self) -> int:
        return self.lstm_input_weights.shape[1]

    @property
    def hidden_dim(self) -> int:
        return self.lstm_hidden_weights.shape[1]

    @property
    def num_tags(self) -> int:
        return self.out_weights.shape[0]

    @property
    def vocab_size(self) -> int:
        if self.embedding is None:
            raise ConfigError("encoder has no embedding table (vector mode)")
        return self.embedding.shape[0]

    def tensors(self) -> dict[str, np.ndarray]:
        """Named parameter tensors, for optimizers and checkpoints."""
        out = {}
        if self.embedding is not None:
            out["embedding"] = self.embedding
        out["lstm_input_weights"] = self.lstm_input_weights
        out["lstm_hidden_weights"] = self.lstm_hidden_weights
        out["lstm_bias"] = self.lstm_bias
        out["out_weights"] = self.out_weights
        out["out_bias"] = self.out_bias
        return out


@dataclass
class EncoderGradients:
    """Gradients shaped like EncoderParams; ``d_inputs`` only in vector mode."""

    embedding: np.ndarray | None
    lstm_input_weights: np.ndarray
    lstm_hidden_weights: np.ndarray
    lstm_bias: np.ndarray
    out_weights: np.ndarray
    out_bias: np.ndarray
    d_inputs: np.ndarray | None = None

    def tensors(self) -> dict[str, np.ndarray]:
        out = {}
        if self.embedding is not None:
            out["embedding"] = self.embedding
        out["lstm_input_weights"] = self.lstm_input_weights
        out["lstm_hidden_weights"] = self.lstm_hidden_weights
        out["lstm_bias"] = self.lstm_bias
        out["out_weights"] = self.out_weights
        out["out_bias"] = self.out_bias
        return out


@dataclass
class EncoderTape:
    """Per-step activations cached by ``forward`` for the backward pass.

    Replaying ``forward(params, tape.inputs)`` reproduces the emissions
    bit-for-bit (the stored inputs are the post-lookup vectors).
    """

    inputs: np.ndarray          # (T, D) embedded / external input vectors
    token_ids: np.ndarray | None  # (T,) or None in vector mode
    gate_i: np.ndarray          # (T, H) input gate, post-sigmoid
    gate_f: np.ndarray          # (T, H) forget gate, post-sigmoid
    gate_g: np.ndarray          # (T, H) candidate, post-tanh
    gate_o: np.ndarray          # (T, H) output gate, post-sigmoid
    cell: np.ndarray            # (T, H) c_t
    tanh_cell: np.ndarray       # (T, H) tanh(c_t)
    hidden: np.ndarray          # (T, H) h_t


def _sigmoid(x: np.ndarray) -> np.ndarray:
    """Logistic function through tanh, so no ``exp`` can overflow."""
    return 0.5 * (1.0 + np.tanh(0.5 * x))


def _glorot(rng: np.random.Generator, fan_in: int, fan_out: int, shape) -> np.ndarray:
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=shape)


def _init_lstm_stack(rng, input_dim: int, hidden_dim: int, num_tags: int):
    # Gate blocks get per-block Glorot limits; the four blocks of each stacked
    # matrix share one fan pair, so a single draw covers them.
    w_x = _glorot(rng, input_dim, hidden_dim, (4 * hidden_dim, input_dim))
    w_h = _glorot(rng, hidden_dim, hidden_dim, (4 * hidden_dim, hidden_dim))
    bias = np.zeros(4 * hidden_dim)
    bias[hidden_dim:2 * hidden_dim] = 1.0  # forget gate starts open
    out_w = _glorot(rng, hidden_dim, num_tags, (num_tags, hidden_dim))
    out_b = np.zeros(num_tags)
    return w_x, w_h, bias, out_w, out_b


def init_params(vocab_size: int, emb_dim: int, hidden_dim: int, num_tags: int,
                seed: int) -> EncoderParams:
    """Seeded Glorot-uniform initialization for token mode (learned embedding)."""
    for name, dim in (("vocab_size", vocab_size), ("emb_dim", emb_dim),
                      ("hidden_dim", hidden_dim), ("num_tags", num_tags)):
        if dim < 1:
            raise ConfigError(f"{name} must be >= 1, got {dim}")
    rng = np.random.default_rng(seed)
    embedding = _glorot(rng, vocab_size, emb_dim, (vocab_size, emb_dim))
    w_x, w_h, bias, out_w, out_b = _init_lstm_stack(rng, emb_dim, hidden_dim, num_tags)
    return EncoderParams(embedding, w_x, w_h, bias, out_w, out_b)


def init_external_params(input_dim: int, hidden_dim: int, num_tags: int,
                         seed: int) -> EncoderParams:
    """Initialization for vector mode: no embedding table, inputs arrive as vectors."""
    for name, dim in (("input_dim", input_dim), ("hidden_dim", hidden_dim),
                      ("num_tags", num_tags)):
        if dim < 1:
            raise ConfigError(f"{name} must be >= 1, got {dim}")
    rng = np.random.default_rng(seed)
    w_x, w_h, bias, out_w, out_b = _init_lstm_stack(rng, input_dim, hidden_dim, num_tags)
    return EncoderParams(None, w_x, w_h, bias, out_w, out_b)


def _resolve_inputs(params: EncoderParams, tokens) -> tuple[np.ndarray, np.ndarray | None]:
    """Map the union input (ids or vectors) to (T, D) float vectors."""
    arr = np.asarray(tokens)
    if arr.size == 0:
        raise EmptySequenceError("encoder input must contain at least one token")
    if arr.ndim == 1 and np.issubdtype(arr.dtype, np.integer):
        if params.embedding is None:
            raise DimensionError("token ids given but encoder has no embedding table")
        ids = arr.astype(np.intp)
        if ids.min() < 0 or ids.max() >= params.embedding.shape[0]:
            raise IndexError(
                f"token id out of range [0, {params.embedding.shape[0]})"
            )
        return params.embedding[ids], ids
    if arr.ndim == 2:
        vectors = arr.astype(np.float64)
        if vectors.shape[1] != params.input_dim:
            raise DimensionError(
                f"input vectors have dim {vectors.shape[1]}, "
                f"encoder expects {params.input_dim}"
            )
        return vectors, None
    raise DimensionError(
        "input must be a 1-D integer id array or a 2-D (T, D) vector array"
    )


def forward(params: EncoderParams, tokens) -> tuple[np.ndarray, EncoderTape]:
    """Run the LSTM over one sentence; return (emissions (T, K), tape).

    Hidden and cell state start at zero. ``emissions[t] = W_out h_t + b_out``.
    """
    x, token_ids = _resolve_inputs(params, tokens)
    big_t = x.shape[0]
    h_dim = params.hidden_dim

    zx = x @ params.lstm_input_weights.T + params.lstm_bias  # (T, 4H)
    gates = np.empty((big_t, 4 * h_dim))  # post-activation gate blocks
    gi, gf, gg, go = (slice(n * h_dim, (n + 1) * h_dim) for n in range(4))
    cell = np.empty((big_t, h_dim))
    tanh_cell = np.empty((big_t, h_dim))
    hidden = np.empty((big_t, h_dim))

    h = np.zeros(h_dim)
    c = np.zeros(h_dim)
    for t in range(big_t):
        z = zx[t] + params.lstm_hidden_weights @ h
        act = gates[t]
        act[:] = _sigmoid(z)
        act[gg] = np.tanh(z[gg])
        c = act[gf] * c + act[gi] * act[gg]
        cell[t] = c
        tanh_cell[t] = np.tanh(c)
        h = act[go] * tanh_cell[t]
        hidden[t] = h

    emissions = hidden @ params.out_weights.T + params.out_bias
    tape = EncoderTape(x, token_ids, gates[:, gi], gates[:, gf], gates[:, gg],
                       gates[:, go], cell, tanh_cell, hidden)
    return emissions, tape


def backward(params: EncoderParams, tape: EncoderTape,
             d_emissions: np.ndarray) -> EncoderGradients:
    """Exact reverse-mode gradients of sum(d_emissions * emissions).

    The tape must come from a ``forward`` call with the same parameters.
    In token mode the embedding gradient is dense (V, D) but nonzero only on
    rows of tokens present in the sentence; in vector mode ``d_inputs``
    carries the (T, D) gradient with respect to the external vectors.
    """
    big_t, h_dim = tape.hidden.shape
    if h_dim != params.hidden_dim or tape.inputs.shape[1] != params.input_dim:
        raise DimensionError("tape does not match encoder parameter shapes")
    d_emissions = np.asarray(d_emissions, dtype=np.float64)
    if d_emissions.shape != (big_t, params.num_tags):
        raise DimensionError(
            f"d_emissions must have shape {(big_t, params.num_tags)}, "
            f"got {d_emissions.shape}"
        )

    d_out_w = d_emissions.T @ tape.hidden
    d_out_b = d_emissions.sum(axis=0)
    dh_emit = d_emissions @ params.out_weights  # (T, H)

    i, f, g, o = tape.gate_i, tape.gate_f, tape.gate_g, tape.gate_o
    dz = np.empty((big_t, 4 * h_dim))
    dh_rec = np.zeros(h_dim)
    dc_rec = np.zeros(h_dim)
    for t in range(big_t - 1, -1, -1):
        c_prev = tape.cell[t - 1] if t > 0 else np.zeros(h_dim)
        dh = dh_emit[t] + dh_rec
        dc = dc_rec + dh * o[t] * (1.0 - tape.tanh_cell[t] ** 2)
        dz[t, :h_dim] = dc * g[t] * i[t] * (1.0 - i[t])
        dz[t, h_dim:2 * h_dim] = dc * c_prev * f[t] * (1.0 - f[t])
        dz[t, 2 * h_dim:3 * h_dim] = dc * i[t] * (1.0 - g[t] ** 2)
        dz[t, 3 * h_dim:] = dh * tape.tanh_cell[t] * o[t] * (1.0 - o[t])
        dh_rec = params.lstm_hidden_weights.T @ dz[t]
        dc_rec = dc * f[t]

    h_prev = np.vstack([np.zeros((1, h_dim)), tape.hidden[:-1]])
    d_w_x = dz.T @ tape.inputs
    d_w_h = dz.T @ h_prev
    d_bias = dz.sum(axis=0)
    d_inputs = dz @ params.lstm_input_weights  # (T, D)

    if tape.token_ids is not None:
        d_embedding = np.zeros_like(params.embedding)
        np.add.at(d_embedding, tape.token_ids, d_inputs)
        return EncoderGradients(d_embedding, d_w_x, d_w_h, d_bias, d_out_w, d_out_b)
    return EncoderGradients(None, d_w_x, d_w_h, d_bias, d_out_w, d_out_b,
                            d_inputs=d_inputs)
