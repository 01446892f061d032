"""CRF layer against brute-force enumeration and finite differences."""

import math
import warnings

import numpy as np
import pytest

from helpers import (brute_log_partition, brute_marginals, brute_viterbi,
                     fd_grad, gradient_posteriors, random_crf_instance,
                     rel_err, trans_mask, zero_transition_params)
from semtagger import (DimensionError, DivergenceError, EmptySequenceError,
                       init_crf_params, log_partition, nll_and_grad, nll_loss,
                       score_path, viterbi_decode)
from semtagger.crf import NEG_INF, CrfParams

# Real-tag transition blocks far outside what exp() can represent: the scaled
# recursion must fall back to log space where its exp-space sums underflow
# and to term-by-term pair sums where a step's scale factor would overflow.
WIDE_BLOCKS = ((-1000.0, 1000.0), (-5.0, 800.0))


@pytest.fixture()
def strict_fp():
    """Overflow, division by zero and invalid operations raise; so does any
    warning. Underflow is expected and stays silent."""
    with np.errstate(over="raise", divide="raise", invalid="raise"), \
            warnings.catch_warnings():
        warnings.simplefilter("error")
        yield


def test_single_tag_single_step_by_hand():
    # K=1, T=1: exactly one path, so logZ equals its score and NLL is 0
    params = init_crf_params(1, seed=3)
    emissions = np.array([[0.7]])
    want = (params.transitions[params.start, 0] + 0.7
            + params.transitions[0, params.stop])
    assert math.isclose(score_path(params, emissions, [0]), want, rel_tol=1e-15)
    assert math.isclose(log_partition(params, emissions), want, rel_tol=1e-15)
    assert abs(nll_loss(params, emissions, [0])) < 1e-12


def test_score_path_is_sum_of_terms():
    rng = np.random.default_rng(11)
    params, emissions, _ = random_crf_instance(rng, 3, 4)
    path = [2, 0, 1, 1]
    tr = params.transitions
    want = (tr[params.start, 2] + emissions[0, 2]
            + tr[2, 0] + emissions[1, 0]
            + tr[0, 1] + emissions[2, 1]
            + tr[1, 1] + emissions[3, 1]
            + tr[1, params.stop])
    assert math.isclose(score_path(params, emissions, path), want, rel_tol=1e-15)


def test_log_partition_matches_enumeration(strict_fp):
    rng = np.random.default_rng(0)
    for block in (None, *WIDE_BLOCKS):
        for trial in range(60):
            k = int(rng.integers(1, 5))
            big_t = int(rng.integers(1, 7))
            params, emissions, _ = random_crf_instance(rng, k, big_t, block)
            fast = log_partition(params, emissions)
            slow = brute_log_partition(params, emissions)
            assert abs(fast - slow) <= 1e-8, (block, trial, k, big_t)


def test_log_partition_stable_under_large_scores():
    # shifting all emissions by c shifts logZ by T*c; no overflow at c=1000
    rng = np.random.default_rng(5)
    params, emissions, _ = random_crf_instance(rng, 3, 5)
    base = log_partition(params, emissions)
    shifted = log_partition(params, emissions + 1000.0)
    assert math.isclose(shifted, base + 5 * 1000.0, rel_tol=1e-12)


def test_nll_is_nonnegative_and_exceeded_by_no_path():
    rng = np.random.default_rng(1)
    for _ in range(20):
        k = int(rng.integers(2, 5))
        big_t = int(rng.integers(1, 6))
        params, emissions, gold = random_crf_instance(rng, k, big_t)
        assert nll_loss(params, emissions, gold) >= -1e-10
        # logZ dominates every single path score
        assert log_partition(params, emissions) > score_path(
            params, emissions, gold) - 1e-10


def test_marginals_match_enumeration(strict_fp):
    rng = np.random.default_rng(2)
    for block in (None, *WIDE_BLOCKS):
        for _ in range(40):
            k = int(rng.integers(1, 5))
            big_t = int(rng.integers(1, 7))
            params, emissions, gold = random_crf_instance(rng, k, big_t, block)
            unary, pair_counts = gradient_posteriors(params, emissions, gold)
            slow_u, slow_p = brute_marginals(params, emissions)
            assert np.max(np.abs(unary - slow_u)) <= 1e-8
            # the expected transition counts are the pairs summed over steps
            assert np.max(np.abs(pair_counts - slow_p.sum(axis=0))) <= 1e-8


def test_marginals_are_distributions():
    rng = np.random.default_rng(3)
    params, emissions, gold = random_crf_instance(rng, 4, 6)
    unary, pair_counts = gradient_posteriors(params, emissions, gold)
    assert np.allclose(unary.sum(axis=1), 1.0, atol=1e-10)
    assert np.all(unary >= 0)
    # summed over steps, the pair counts' rows/cols match the unaries
    assert np.allclose(pair_counts.sum(axis=1), unary[:-1].sum(axis=0), atol=1e-10)
    assert np.allclose(pair_counts.sum(axis=0), unary[1:].sum(axis=0), atol=1e-10)


def test_zero_transitions_factorize_to_softmax():
    # with all-zero transitions the chain decouples: unary marginals are
    # per-position softmaxes of the emissions
    rng = np.random.default_rng(4)
    params = zero_transition_params(3)
    emissions = rng.normal(size=(5, 3))
    unary, _ = gradient_posteriors(params, emissions, [0, 1, 2, 0, 1])
    want = np.exp(emissions)
    want /= want.sum(axis=1, keepdims=True)
    assert np.allclose(unary, want, atol=1e-12)


def test_nll_and_grad_matches_finite_differences(strict_fp):
    # K >= 2: with a single tag the loss is identically zero and relative
    # error against finite-difference noise is undefined (see the K=1 test)
    rng = np.random.default_rng(6)
    for block in (None, *WIDE_BLOCKS):
        for _ in range(15):
            k = int(rng.integers(2, 5))
            big_t = int(rng.integers(1, 6))
            params, emissions, gold = random_crf_instance(rng, k, big_t, block)
            loss, grads = nll_and_grad(params, emissions, gold)
            assert abs(loss - nll_loss(params, emissions, gold)) <= 1e-12

            f = lambda: nll_loss(params, emissions, gold)
            fd_t = fd_grad(f, params.transitions, 1e-6, mask=trans_mask(params))
            fd_e = fd_grad(f, emissions, 1e-6)
            assert rel_err(grads.d_transitions, fd_t) <= 1e-5, block
            assert rel_err(grads.d_emissions, fd_e) <= 1e-5, block


def test_single_tag_loss_and_grad_are_zero():
    # K=1 admits exactly one path, so the NLL is constant 0 and every
    # gradient entry is 0 up to round-off
    rng = np.random.default_rng(12)
    params, emissions, _ = random_crf_instance(rng, 1, 4)
    gold = np.zeros(4, dtype=np.intp)
    assert abs(nll_loss(params, emissions, gold)) <= 1e-10
    _, grads = nll_and_grad(params, emissions, gold)
    assert np.max(np.abs(grads.d_emissions)) <= 1e-12
    assert np.max(np.abs(grads.d_transitions)) <= 1e-12


def test_grad_vanishes_at_sentinel_cells():
    rng = np.random.default_rng(7)
    params, emissions, gold = random_crf_instance(rng, 3, 4)
    d_trans = nll_and_grad(params, emissions, gold)[1].d_transitions
    assert np.all(d_trans[:, params.start] == 0.0)
    assert np.all(d_trans[params.stop, :] == 0.0)


def test_grad_boundary_rows_carry_start_stop_terms():
    rng = np.random.default_rng(8)
    params, emissions, gold = random_crf_instance(rng, 3, 5)
    unary, _ = brute_marginals(params, emissions)
    d_trans = nll_and_grad(params, emissions, gold)[1].d_transitions
    want_start = unary[0].copy()
    want_start[gold[0]] -= 1.0
    want_stop = unary[-1].copy()
    want_stop[gold[-1]] -= 1.0
    assert np.allclose(d_trans[params.start, :3], want_start, atol=1e-12)
    assert np.allclose(d_trans[:3, params.stop], want_stop, atol=1e-12)


def test_viterbi_matches_enumeration():
    rng = np.random.default_rng(9)
    for _ in range(60):
        k = int(rng.integers(1, 5))
        big_t = int(rng.integers(1, 7))
        params, emissions, _ = random_crf_instance(rng, k, big_t)
        path, score = viterbi_decode(params, emissions)
        slow_path, slow_score = brute_viterbi(params, emissions)
        assert np.array_equal(path, slow_path)
        assert abs(score - slow_score) <= 1e-8


def test_viterbi_score_is_score_of_returned_path():
    rng = np.random.default_rng(10)
    params, emissions, _ = random_crf_instance(rng, 4, 6)
    path, score = viterbi_decode(params, emissions)
    assert score == score_path(params, emissions, path)


def test_viterbi_tie_breaks_to_lowest_index():
    # fully degenerate instance: every path scores 0, so the winner must be
    # the all-zeros path
    params = zero_transition_params(3)
    emissions = np.zeros((4, 3))
    path, score = viterbi_decode(params, emissions)
    assert path.tolist() == [0, 0, 0, 0]
    assert score == 0.0


def test_viterbi_single_tag_is_forced():
    params = init_crf_params(1, seed=0)
    emissions = np.array([[0.3], [-2.0], [5.0]])
    path, _ = viterbi_decode(params, emissions)
    assert path.tolist() == [0, 0, 0]


def test_emission_shape_errors():
    params = init_crf_params(3, seed=0)
    with pytest.raises(EmptySequenceError):
        log_partition(params, np.zeros((0, 3)))
    with pytest.raises(DimensionError):
        log_partition(params, np.zeros((2, 4)))
    with pytest.raises(DimensionError):
        log_partition(params, np.zeros(3))
    with pytest.raises(ValueError):
        log_partition(params, np.full((2, 3), np.nan))


def test_non_finite_scores_raise_divergence_error():
    params = init_crf_params(3, seed=0)
    emissions = np.zeros((2, 3))
    emissions[1, 2] = np.nan
    for fn in (log_partition, viterbi_decode):
        with pytest.raises(DivergenceError, match="emissions must be finite"):
            fn(params, emissions)
    with pytest.raises(DivergenceError, match="emissions must be finite"):
        nll_and_grad(params, emissions, [0, 1])
    bad = params.transitions.copy()
    bad[1, 2] = -np.inf
    with pytest.raises(DivergenceError, match="transitions must be finite"):
        CrfParams(num_tags=3, transitions=bad)
    assert issubclass(DivergenceError, ValueError)


def test_path_validation_errors():
    params = init_crf_params(3, seed=0)
    emissions = np.zeros((2, 3))
    with pytest.raises(DimensionError):
        score_path(params, emissions, [0])
    with pytest.raises(IndexError):
        score_path(params, emissions, [0, 3])
    with pytest.raises(IndexError):
        score_path(params, emissions, [-1, 0])


def test_params_sentinel_validation():
    trans = np.zeros((5, 5))
    with pytest.raises(ValueError):
        CrfParams(num_tags=3, transitions=trans)  # sentinels missing
    trans = np.zeros((4, 4))
    trans[:, 3 - 1] = NEG_INF
    with pytest.raises(DimensionError):
        CrfParams(num_tags=3, transitions=trans)  # wrong shape
    ok = zero_transition_params(3)
    bad = ok.transitions.copy()
    bad[0, 0] = np.inf
    with pytest.raises(ValueError):
        CrfParams(num_tags=3, transitions=bad)


def test_init_is_seeded_and_bounded():
    a = init_crf_params(4, seed=42)
    b = init_crf_params(4, seed=42)
    c = init_crf_params(4, seed=43)
    assert np.array_equal(a.transitions, b.transitions)
    assert not np.array_equal(a.transitions, c.transitions)
    free = a.transitions[trans_mask(a)]
    assert np.all(np.abs(free) <= 0.1)


def test_non_finite_transitions_are_divergence_before_sentinel_checks():
    # a step that writes NaN everywhere also breaks the START/STOP sentinels;
    # it must still read as divergence, not as a malformed matrix
    for value in (np.nan, np.inf):
        bad = zero_transition_params(3).transitions.copy()
        bad[:, 3] = value
        with pytest.raises(DivergenceError, match="transitions must be finite"):
            CrfParams(num_tags=3, transitions=bad)
