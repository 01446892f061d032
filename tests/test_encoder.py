"""LSTM encoder: forward semantics, BPTT against finite differences, errors."""

import math

import numpy as np
import pytest

from helpers import fd_grad, rel_err
from semtagger import (ConfigError, DimensionError, EmptySequenceError,
                       backward, forward, init_params)
from semtagger.encoder import ROWS_PER_BLOCK, EncoderParams


def zero_params(input_dim, hidden_dim, num_tags, vocab_size=None):
    emb = (np.zeros((vocab_size, input_dim)) if vocab_size else None)
    return EncoderParams(
        embedding=emb,
        lstm_input_weights=np.zeros((4 * hidden_dim, input_dim)),
        lstm_hidden_weights=np.zeros((4 * hidden_dim, hidden_dim)),
        lstm_bias=np.zeros(4 * hidden_dim),
        out_weights=np.zeros((num_tags, hidden_dim)),
        out_bias=np.zeros(num_tags),
    )


def test_init_shapes_and_seeding():
    p = init_params(vocab_size=7, emb_dim=4, hidden_dim=5, num_tags=3, seed=1)
    assert p.embedding.shape == (7, 4)
    assert p.lstm_input_weights.shape == (20, 4)
    assert p.lstm_hidden_weights.shape == (20, 5)
    assert p.lstm_bias.shape == (20,)
    assert p.out_weights.shape == (3, 5)
    assert p.out_bias.shape == (3,)
    q = init_params(7, 4, 5, 3, seed=1)
    assert np.array_equal(p.embedding, q.embedding)
    assert np.array_equal(p.lstm_input_weights, q.lstm_input_weights)
    r = init_params(7, 4, 5, 3, seed=2)
    assert not np.array_equal(p.embedding, r.embedding)


def test_init_forget_gate_bias_is_one():
    h = 5
    p = init_params(7, 4, h, 3, seed=0)
    assert np.all(p.lstm_bias[h:2 * h] == 1.0)
    assert np.all(p.lstm_bias[:h] == 0.0)
    assert np.all(p.lstm_bias[2 * h:] == 0.0)


def test_init_rejects_bad_dims():
    with pytest.raises(ConfigError):
        init_params(0, 4, 5, 3, seed=0)
    with pytest.raises(ConfigError):
        init_params(7, 4, 5, 0, seed=0)
    with pytest.raises(ConfigError):
        init_params(None, 0, 5, 3, seed=0)


def test_zero_weights_fixed_point():
    # all-zero parameters: i=o=0.5, g=0 => c=0, h=0, emissions = bias = 0
    p = zero_params(3, 4, 2, vocab_size=5)
    emissions, tape = forward(p, np.array([0, 3, 1]))
    assert np.all(emissions == 0.0)
    assert np.all(tape.hidden == 0.0)
    assert np.all(tape.cell == 0.0)
    gate_i, gate_f, gate_g, gate_o = np.split(tape.gates, 4, axis=2)
    assert np.all(gate_i == 0.5)
    assert np.all(gate_f == 0.5)
    assert np.all(gate_o == 0.5)
    assert np.all(gate_g == 0.0)


def test_single_step_by_hand():
    # T=1, D=1, H=1: every gate computable with a calculator
    p = zero_params(1, 1, 1)
    p.lstm_input_weights = np.array([[0.5], [0.25], [1.0], [2.0]])
    p.out_weights = np.array([[3.0]])
    p.out_bias = np.array([0.1])
    x = np.array([[1.0]])

    sig = lambda v: 1.0 / (1.0 + math.exp(-v))
    i, g, o = sig(0.5), math.tanh(1.0), sig(2.0)
    c = i * g                       # f * c_prev = 0
    h = o * math.tanh(c)
    want = 3.0 * h + 0.1

    emissions, tape = forward(p, x)
    assert math.isclose(emissions[0, 0], want, rel_tol=1e-12)
    assert math.isclose(tape.cell[0, 0, 0], c, rel_tol=1e-12)
    assert math.isclose(tape.gates[0, 0, 1], sig(0.25), rel_tol=1e-12)


def test_token_and_vector_modes_agree():
    p = init_params(vocab_size=6, emb_dim=3, hidden_dim=4, num_tags=2, seed=5)
    twin = EncoderParams(
        embedding=None,
        lstm_input_weights=p.lstm_input_weights,
        lstm_hidden_weights=p.lstm_hidden_weights,
        lstm_bias=p.lstm_bias,
        out_weights=p.out_weights,
        out_bias=p.out_bias,
    )
    ids = np.array([2, 5, 0, 2])
    em_tok, _ = forward(p, ids)
    em_vec, _ = forward(twin, p.embedding[ids])
    assert np.array_equal(em_tok, em_vec)


def test_tape_replay_reproduces_emissions():
    p = init_params(6, 3, 4, 2, seed=8)
    emissions, tape = forward(p, np.array([1, 4, 4, 3]))
    again, _ = forward(p, tape.inputs[0])
    assert np.array_equal(emissions, again)


def test_order_sensitivity():
    # the recurrence must make emissions depend on the prefix
    p = init_params(6, 3, 4, 2, seed=9)
    a, _ = forward(p, np.array([1, 2, 3]))
    b, _ = forward(p, np.array([2, 1, 3]))
    assert not np.allclose(a[2], b[2])


def _fd_check_params(params, inputs, seed, tol=1e-4):
    rng = np.random.default_rng(seed)
    emissions, tape = forward(params, inputs)
    weights = rng.normal(size=emissions.shape)  # random projection to a scalar
    grads = backward(params, tape, weights)

    f = lambda: float(np.sum(weights * forward(params, inputs)[0]))
    for name, tensor in params.tensors().items():
        fd = fd_grad(f, tensor, 1e-5)
        got = grads.tensors()[name]
        assert rel_err(got, fd) <= tol, name


def test_backward_matches_finite_differences_token_mode():
    rng = np.random.default_rng(20)
    for trial in range(4):
        params = init_params(vocab_size=int(rng.integers(4, 8)),
                             emb_dim=int(rng.integers(2, 5)),
                             hidden_dim=int(rng.integers(2, 6)),
                             num_tags=int(rng.integers(2, 4)),
                             seed=100 + trial)
        length = int(rng.integers(1, 6))
        ids = rng.integers(0, params.vocab_size, size=length)
        _fd_check_params(params, ids, seed=trial)


def test_backward_matches_finite_differences_vector_mode():
    rng = np.random.default_rng(21)
    for trial in range(3):
        params = init_params(None, emb_dim=int(rng.integers(2, 5)),
                             hidden_dim=int(rng.integers(2, 6)),
                             num_tags=int(rng.integers(2, 4)),
                             seed=200 + trial)
        length = int(rng.integers(1, 6))
        vectors = rng.normal(size=(length, params.input_dim))
        _fd_check_params(params, vectors, seed=50 + trial)


def test_embedding_gradient_hits_only_seen_rows():
    params = init_params(vocab_size=9, emb_dim=3, hidden_dim=4, num_tags=2,
                         seed=3)
    ids = np.array([2, 7, 2])
    emissions, tape = forward(params, ids)
    grads = backward(params, tape, np.ones_like(emissions))
    nonzero_rows = {int(r) for r in np.nonzero(
        np.any(grads.embedding != 0.0, axis=1))[0]}
    assert nonzero_rows <= {2, 7}
    assert 7 in nonzero_rows


def test_repeated_token_gradients_accumulate():
    params = init_params(vocab_size=5, emb_dim=2, hidden_dim=3, num_tags=2,
                         seed=4)
    params.embedding[2] = params.embedding[1]
    emissions, tape = forward(params, np.array([1, 1]))
    grads = backward(params, tape, np.ones_like(emissions))
    # ids [1, 2] embed to the same inputs, but give each position its own row;
    # a repeated id must collect the sum of both per-position gradients
    em2, tape2 = forward(params, np.array([1, 2]))
    assert np.array_equal(em2, emissions)
    g2 = backward(params, tape2, np.ones_like(em2))
    assert np.any(g2.embedding[2] != 0.0)
    assert np.allclose(grads.embedding[1], g2.embedding[1] + g2.embedding[2],
                       atol=1e-12)


def test_input_validation_errors():
    params = init_params(5, 3, 4, 2, seed=0)
    with pytest.raises(EmptySequenceError):
        forward(params, np.array([], dtype=np.intp))
    with pytest.raises(IndexError):
        forward(params, np.array([0, 5]))
    with pytest.raises(IndexError):
        forward(params, np.array([-1]))
    with pytest.raises(DimensionError):
        forward(params, np.zeros((2, 4)))  # wrong vector dim
    with pytest.raises(DimensionError):
        forward(params, np.zeros(3))  # 1-D floats are neither ids nor vectors
    ext = init_params(None, 3, 4, 2, seed=0)
    with pytest.raises(DimensionError):
        forward(ext, np.array([0, 1]))  # ids without an embedding table


def test_backward_shape_validation():
    params = init_params(5, 3, 4, 2, seed=0)
    emissions, tape = forward(params, np.array([1, 2]))
    with pytest.raises(DimensionError):
        backward(params, tape, np.zeros((2, 3)))
    with pytest.raises(DimensionError):
        backward(params, tape, np.zeros((3, 2)))


def test_float64_throughout():
    params = init_params(5, 3, 4, 2, seed=0)
    emissions, tape = forward(params, np.array([1, 2], dtype=np.int32))
    assert emissions.dtype == np.float64
    grads = backward(params, tape, np.ones_like(emissions))
    assert grads.lstm_input_weights.dtype == np.float64


def test_row_blocks_end_on_multiples_of_four():
    # the blocked recurrent product is exact only when every block boundary
    # falls on a multiple of 4 rows (see the encoder module docstring)
    assert ROWS_PER_BLOCK > 0 and ROWS_PER_BLOCK % 4 == 0
