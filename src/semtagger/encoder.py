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

Both recurrences run packed over a group of sentences sorted longest first,
laid out time-major by ``crf._pack``; one sentence is a group of one. At
step ``t`` only the prefix of sentences still running is active, so no lane
computes past its sentence's end; backpropagation through time runs from
the last step down, and a lane joins it at its own last step. Packing gives
the same bits: the recurrent products ``W_h @ h[:, :, None]`` and
``W_h.T @ dz[:, :, None]`` are one matrix-vector product per sentence inside
one numpy call, the same BLAS kernel as ``W_h @ h`` and ``W_h.T @ dz`` (a
matrix-matrix product such as ``dz @ W_h`` would differ in the last bits),
and the gates are elementwise. The input and output layers and the weight
gradients stay one product or reduction per sentence, as unpacked.

With two or more lanes running, the forward recurrent product goes in blocks
of ``ROWS_PER_BLOCK`` rows of ``W_h``, every lane per block, so each block is
read from memory once per step for all lanes while it sits in cache; at
H = 600 ``W_h`` is 11.5 MB and one 200-row block 0.96 MB. This is exact too:
each output row of a matrix-vector product is its own dot product, and every
block boundary falls on a multiple of 4 rows. The second condition is the
BLAS kernel's: OpenBLAS's ``dgemv_t`` (Haswell) takes output rows in groups
of 4, and a boundary inside a group moves the last bits of the rows after
it. So the exactness rests on that kernel's row grouping, which
``tools/bitcheck.py`` checks at the experiment-7 shape. One product is kept
where blocking gains nothing: when one block covers all 4H rows (H = 50 is
200 rows), and at a step with one lane running, which reads ``W_h`` once
either way. The backward product ``W_h.T @ dz`` is not blocked.

``backward_group`` adds each sentence's gradients straight into the
caller's sums, in batch order, and the same blocks of gate rows set how it
adds the two ``(4H, .)`` weight gradients: block by block, every sentence
per block, ``sums[rows] += dz[:, rows].T @ x``. A gate row's gradient is its
own dot products, so under the same multiple-of-4 rule each element gets the
same products, added in the same order, as from the whole product; no
sentence's dense gradient (26 MB at H = 600) is made, and a block's sums
stay in cache across the sentences.
"""

from dataclasses import dataclass, fields

import numpy as np

from .crf import _pack
from .errors import ConfigError, DimensionError, EmptySequenceError

# Rows of W_h per block of the packed recurrent product, and gate rows per
# block of the weight-gradient sums (see above): a multiple of 4, and small
# enough for a block to fit a core's 2 MB L2 at H = 600. A module constant,
# like trainer.GROUP_SIZE, not a setting.
ROWS_PER_BLOCK = 200


@dataclass
class EncoderParams:
    """All learned tensors of the encoder. ``embedding`` is None in vector mode.

    Construction checks that the shapes agree with one another (the
    DimensionError a damaged checkpoint ends in)."""

    embedding: np.ndarray | None   # (V, D)
    lstm_input_weights: np.ndarray  # (4H, D)
    lstm_hidden_weights: np.ndarray  # (4H, H)
    lstm_bias: np.ndarray           # (4H,)
    out_weights: np.ndarray         # (K, H)
    out_bias: np.ndarray            # (K,)

    def __post_init__(self):
        if self.lstm_input_weights.ndim != 2 or self.out_weights.ndim != 2:
            raise DimensionError("lstm_input_weights and out_weights must be 2-D")
        d = self.lstm_input_weights.shape[1]
        k, h = self.out_weights.shape
        expected = {"lstm_input_weights": (4 * h, d),
                    "lstm_hidden_weights": (4 * h, h), "lstm_bias": (4 * h,),
                    "out_bias": (k,)}
        if self.embedding is not None:
            expected["embedding"] = self.embedding.shape[:1] + (d,)
        for name, shape in expected.items():
            if getattr(self, name).shape != shape:
                raise DimensionError(
                    f"{name} has shape {getattr(self, name).shape}, "
                    f"but D={d} K={k} H={h} need {shape}")

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
        """Named parameter tensors in field order, for optimizers and
        checkpoints; the embedding is left out in vector mode."""
        return {f.name: getattr(self, f.name) for f in fields(self)
                if getattr(self, f.name) is not None}


@dataclass
class EncoderTape:
    """Activations of one packed forward pass, cached for the backward pass.

    The group is sorted longest first and the arrays are time-major
    ``(T_max, n, ...)`` as ``crf._pack`` lays them out; ``active[t]`` lanes
    run at step ``t``. ``forward``'s tape is a group of one. Replaying
    ``forward(params, tape.inputs[0])`` reproduces the emissions bit for bit
    (the stored inputs are the post-lookup vectors).
    """

    inputs: list[np.ndarray]              # per sentence (T, D) input vectors
    token_ids: list[np.ndarray | None]    # per sentence (T,), None in vector mode
    gates: np.ndarray       # (T_max, n, 4H) post-activation gates i, f, g, o
    cell: np.ndarray        # (T_max, n, H) c_t
    tanh_cell: np.ndarray   # (T_max, n, H) tanh(c_t)
    hidden: np.ndarray      # (T_max, n, H) h_t
    active: list[int]       # lanes running at each step


def _sigmoid(x: np.ndarray, out: np.ndarray) -> None:
    """Logistic function through tanh, so no ``exp`` can overflow, computed
    into ``out`` as ``0.5 * (1.0 + tanh(0.5 * x))``."""
    np.multiply(0.5, x, out=out)
    np.tanh(out, out=out)
    out += 1.0
    out *= 0.5


def _glorot(rng: np.random.Generator, fan_in: int, fan_out: int, shape) -> np.ndarray:
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=shape)


def init_params(vocab_size: int | None, emb_dim: int, hidden_dim: int,
                num_tags: int, seed: int) -> EncoderParams:
    """Seeded Glorot-uniform initialization. ``vocab_size`` None means vector
    mode: no embedding table, and ``emb_dim`` is the input vectors' dim."""
    for name, dim in (("vocab_size", vocab_size), ("emb_dim", emb_dim),
                      ("hidden_dim", hidden_dim), ("num_tags", num_tags)):
        if dim is not None and dim < 1:
            raise ConfigError(f"{name} must be >= 1, got {dim}")
    rng = np.random.default_rng(seed)
    # a seed fixes the draw order: table, input, recurrent, then output weights
    embedding = (None if vocab_size is None
                 else _glorot(rng, vocab_size, emb_dim, (vocab_size, emb_dim)))
    # Gate blocks get per-block Glorot limits; the four blocks of each stacked
    # matrix share one fan pair, so a single draw covers them.
    w_x = _glorot(rng, emb_dim, hidden_dim, (4 * hidden_dim, emb_dim))
    w_h = _glorot(rng, hidden_dim, hidden_dim, (4 * hidden_dim, hidden_dim))
    bias = np.zeros(4 * hidden_dim)
    bias[hidden_dim:2 * hidden_dim] = 1.0  # forget gate starts open
    out_w = _glorot(rng, hidden_dim, num_tags, (num_tags, hidden_dim))
    return EncoderParams(embedding, w_x, w_h, bias, out_w, np.zeros(num_tags))


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


def _lstm(params: EncoderParams, zx: np.ndarray, active: list[int]):
    """The LSTM recurrence over packed input projections ``zx`` (T_max, n, 4H)
    with ``active[t]`` lanes running at step ``t`` (see ``crf._pack``). Each
    step overwrites its projections with the post-activation gates. Returns
    ``zx``, so holding the gates, and the cell, tanh(cell) and hidden states
    (T_max, n, H); cells past a lane's end are left unwritten."""
    big_t, n, _ = zx.shape
    h_dim = params.hidden_dim
    gi, gf, gg, go = (slice(b * h_dim, (b + 1) * h_dim) for b in range(4))
    cell = np.empty((big_t, n, h_dim))
    tanh_cell = np.empty((big_t, n, h_dim))
    hidden = np.empty((big_t, n, h_dim))
    w_h = params.lstm_hidden_weights
    blocks = [slice(r, r + ROWS_PER_BLOCK)
              for r in range(0, 4 * h_dim, ROWS_PER_BLOCK)]
    # the recurrent products of steps that run block by block
    blocked = np.empty((n, 4 * h_dim)) if n > 1 and len(blocks) > 1 else None

    h = c = np.zeros((n, h_dim))
    for m, act, c_t, tanh_t, h_t in zip(active, zx, cell, tanh_cell, hidden):
        if m < n:  # only the first m lanes still run
            act, c_t, tanh_t, h_t, h, c = (
                a[:m] for a in (act, c_t, tanh_t, h_t, h, c))
        if m == 1 or blocked is None:
            z = (w_h @ h[:, :, None])[:, :, 0]
        else:
            z = blocked[:m]
            for rows in blocks:
                z[:, rows] = (w_h[rows] @ h[:, :, None])[:, :, 0]
        z += act  # the step's input projection, until act takes the gates
        _sigmoid(z, out=act)
        np.tanh(z[:, gg], out=act[:, gg])
        c = np.add(act[:, gf] * c, act[:, gi] * act[:, gg], out=c_t)
        h = np.multiply(act[:, go], np.tanh(c, out=tanh_t), out=h_t)
    return zx, cell, tanh_cell, hidden


def forward_taped(params: EncoderParams,
                  inputs: list) -> tuple[list[np.ndarray], EncoderTape]:
    """Emissions (T, K) of each input, sorted longest first, and the tape of
    the one packed LSTM loop that made them; bit-identical to one
    ``forward`` call per input."""
    xs, token_ids = zip(*(_resolve_inputs(params, tokens) for tokens in inputs))
    zx, active = _pack([x @ params.lstm_input_weights.T + params.lstm_bias
                        for x in xs])
    gates, cell, tanh_cell, hidden = _lstm(params, zx, active)
    emissions = [hidden[:len(x), lane] @ params.out_weights.T + params.out_bias
                 for lane, x in enumerate(xs)]
    return emissions, EncoderTape(list(xs), list(token_ids), gates, cell,
                                  tanh_cell, hidden, active)


def forward(params: EncoderParams, tokens) -> tuple[np.ndarray, EncoderTape]:
    """Run the LSTM over one sentence; return (emissions (T, K), tape).

    Hidden and cell state start at zero. ``emissions[t] = W_out h_t + b_out``.
    """
    (emissions,), tape = forward_taped(params, [tokens])
    return emissions, tape


def backward_group(params: EncoderParams, tape: EncoderTape,
                   d_emissions: list[np.ndarray], sums: dict[str, np.ndarray],
                   order) -> None:
    """One packed BPTT loop over ``tape``'s group, given each lane's
    d(loss)/d(emissions), adding every lane's gradients into ``sums`` (shaped
    like ``params.tensors()``) lane by lane in ``order``: bit for bit the
    sums of one ``backward`` per lane added in that order. The two
    ``(4H, .)`` weight gradients go block by block of gate rows (see the
    module docstring); the embedding's touches the sentence's own rows."""
    h_dim = params.hidden_dim
    gi, gf, gg, go = (slice(b * h_dim, (b + 1) * h_dim) for b in range(4))
    dh_emit = _pack([d @ params.out_weights for d in d_emissions])[0]
    # lane-major, so each lane's (T, 4H) block is contiguous for its gemms
    dz = np.empty((len(d_emissions), len(tape.active), 4 * h_dim))
    dh_rec = np.zeros(dh_emit.shape[1:])
    dc_rec = np.zeros(dh_emit.shape[1:])
    w_h_t = params.lstm_hidden_weights.T
    for t in range(len(tape.active) - 1, -1, -1):
        m = tape.active[t]  # only the first m lanes run at step t
        act, tanh_c = tape.gates[t, :m], tape.tanh_cell[t, :m]
        i, f, g, o = act[:, gi], act[:, gf], act[:, gg], act[:, go]
        c_prev = tape.cell[t - 1, :m] if t > 0 else np.zeros((m, h_dim))
        dh = dh_emit[t, :m] + dh_rec[:m]
        dc = dc_rec[:m] + dh * o * (1.0 - tanh_c ** 2)
        dz_t = dz[:m, t]
        dz_t[:, gi] = dc * g * i * (1.0 - i)
        dz_t[:, gf] = dc * c_prev * f * (1.0 - f)
        dz_t[:, gg] = dc * i * (1.0 - g ** 2)
        dz_t[:, go] = dh * tanh_c * o * (1.0 - o)
        dh_rec[:m] = (w_h_t @ dz_t[:, :, None])[:, :, 0]
        dc_rec[:m] = dc * f

    h_prevs = [None] * len(d_emissions)
    for lane in order:
        x, ids, d_em = tape.inputs[lane], tape.token_ids[lane], d_emissions[lane]
        dz_lane = dz[lane, :len(x)]
        # h_0 = 0, then the lane's hidden states, contiguous as unpacked
        states = np.vstack([np.zeros((1, h_dim)), tape.hidden[:len(x), lane]])
        h_prevs[lane] = states[:-1]
        if ids is not None:
            rows, inverse = np.unique(ids, return_inverse=True)
            block = np.zeros((len(rows), x.shape[1]))
            np.add.at(block, inverse, dz_lane @ params.lstm_input_weights)
            sums["embedding"][rows] += block
        sums["lstm_bias"] += dz_lane.sum(axis=0)
        sums["out_weights"] += d_em.T @ states[1:]
        sums["out_bias"] += d_em.sum(axis=0)
    for r in range(0, 4 * h_dim, ROWS_PER_BLOCK):
        rows = slice(r, r + ROWS_PER_BLOCK)
        for lane in order:
            dz_rows = dz[lane, :len(tape.inputs[lane]), rows].T
            sums["lstm_input_weights"][rows] += dz_rows @ tape.inputs[lane]
            sums["lstm_hidden_weights"][rows] += dz_rows @ h_prevs[lane]


def backward(params: EncoderParams, tape: EncoderTape,
             d_emissions: np.ndarray) -> EncoderParams:
    """Exact reverse-mode gradients of sum(d_emissions * emissions), held in
    an ``EncoderParams`` shaped like ``params``.

    The tape must come from a ``forward`` call with the same parameters.
    In token mode the embedding gradient is dense (V, D) but nonzero only on
    rows of tokens present in the sentence. In vector mode the inputs are
    data, so no gradient is taken with respect to them.
    """
    big_t, n, h_dim = tape.hidden.shape
    if (n != 1 or h_dim != params.hidden_dim
            or tape.inputs[0].shape[1] != params.input_dim):
        raise DimensionError("tape does not match encoder parameter shapes")
    d_emissions = np.asarray(d_emissions, dtype=np.float64)
    if d_emissions.shape != (big_t, params.num_tags):
        raise DimensionError(
            f"d_emissions must have shape {(big_t, params.num_tags)}, "
            f"got {d_emissions.shape}"
        )
    sums = {name: np.zeros_like(p) for name, p in params.tensors().items()}
    backward_group(params, tape, [d_emissions], sums, [0])
    return EncoderParams(**{"embedding": None, **sums})
