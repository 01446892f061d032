"""Hypothesis properties of the file formats, of packed evaluation, of the
training step and of the command line.

The formats are the corpus, the contextual-embedding file, the meta-tag map
and the checkpoint archive: they round-trip, and malformed input raises a
package error. Evaluation packs sentences into length-sorted groups, and
gives the same bits as scoring them one at a time. A training epoch leaves
the parameters, the optimizer state and the metrics bit for bit where the
one-sentence reference ``helpers.loop_train_epoch`` does, also with the
encoder's recurrent product split into row blocks and with Adam's update
split into short blocks. On the command
line, setting flags resolve to the config that they name, and no value of
them ends ``train`` or ``replicate`` in a traceback.

Every test runs with a fixed derivation of its examples (``derandomize``) and
no example database, so the suite stays deterministic. Hypothesis still caches
the constants it finds in local source files; that cache goes to the system's
temporary directory, as NumPy's own test suite arranges, so running the tests
writes no ``.hypothesis/`` directory into the checkout.
"""

import contextlib
import io
import json
import os
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, configuration, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from helpers import (TINY, loop_emissions, loop_log_partition, loop_lstm,
                     loop_train_epoch, loop_viterbi, make_toy_corpus)
from semtagger import (MODE_EXTERNAL, MODE_INTERNAL, NEG_INF, UNK_ID,
                       UNK_TOKEN, CheckpointError, DimensionError,
                       DivergenceError, EmbeddedSentence, ExperimentConfig,
                       Sentence, SemtaggerError, TagSet, TaggerModel, Vocab,
                       build_model, build_vocab, encode_corpus, evaluate,
                       forward, init_crf_params, init_optim_state, init_params,
                       load_checkpoint, load_context_embeddings,
                       load_meta_tags, log_partition, parse_corpus,
                       save_checkpoint, serialize_context_embeddings,
                       serialize_corpus, train_epoch)
from semtagger import encoder as encoder_module
from semtagger import optim as optim_module
from semtagger.cli import _resolve_train_config, build_parser, main
from semtagger.crf import _forward, _viterbi
from semtagger.encoder import forward_taped
from semtagger.model import predicted_tags
from semtagger.trainer import SETTINGS

configuration.set_hypothesis_home_dir(
    os.path.join(tempfile.gettempdir(), ".hypothesis"))

PROPERTY = settings(derandomize=True, deadline=None, database=None,
                    max_examples=200,
                    suppress_health_check=[HealthCheck.too_slow])

# A field the serializers can write: not blank, no leading '#', and no TAB,
# CR or LF inside it.
FIELD = st.text(
    st.characters(codec="utf-8", exclude_characters="\t\r\n"),
    min_size=1, max_size=6,
).filter(lambda s: s.strip() and not s.startswith("#"))

ROWS = st.lists(st.tuples(FIELD, FIELD), min_size=1, max_size=5)
SENTENCES = st.lists(
    ROWS.map(lambda rows: Sentence([t for t, _ in rows], [g for _, g in rows])),
    min_size=1, max_size=4)


@st.composite
def embedded_sentences(draw):
    dim = draw(st.integers(1, 4))
    finite = st.floats(allow_nan=False, allow_infinity=False)
    out = []
    for rows in draw(st.lists(ROWS, min_size=1, max_size=4)):
        vectors = draw(st.lists(st.lists(finite, min_size=dim, max_size=dim),
                                min_size=len(rows), max_size=len(rows)))
        out.append(EmbeddedSentence([t for t, _ in rows], [g for _, g in rows],
                                    np.array(vectors, dtype=np.float64)))
    return out


META_LINES = st.lists(
    st.tuples(FIELD, FIELD).map(lambda pair: "\t".join(pair)), min_size=1,
    max_size=6)

# Replacement and inserted lines: short strings over the characters the
# grammars care about, plus a few whole lines that are valid somewhere.
NOISE = st.one_of(
    st.text(st.sampled_from("\t #-.0123456789eEinfaxX\r"), max_size=12),
    st.sampled_from(["", "#", "\t", "a\tX", "a\tX\t1 2", "a\tX\t1", "2 2",
                     "1 3", "0 2", "-1 2", "2 0", "a\tX\tnan 1", "1e999 2"]),
    st.text(max_size=8),
)


@st.composite
def mutated(draw, text):
    """`text` with one to three line-level edits."""
    lines = text.split("\n")
    for _ in range(draw(st.integers(1, 3))):
        op = draw(st.sampled_from(
            ["delete", "duplicate", "swap", "replace", "insert", "truncate"]))
        i = draw(st.integers(0, len(lines) - 1)) if lines else 0
        if op == "insert" or not lines:
            lines.insert(i, draw(NOISE))
        elif op == "delete":
            del lines[i]
        elif op == "duplicate":
            lines.insert(i, lines[i])
        elif op == "swap" and i + 1 < len(lines):
            lines[i], lines[i + 1] = lines[i + 1], lines[i]
        elif op == "replace":
            lines[i] = draw(NOISE)
        elif op == "truncate":
            lines[i] = lines[i][:draw(st.integers(0, len(lines[i])))]
    return "\n".join(lines)


# Any field at all, the ones the serializers must refuse included.
ANY_FIELD = st.one_of(
    st.text(st.characters(codec="utf-8"), max_size=4),
    st.sampled_from(["#", "#x", " ", "\t", "a\tb", "x\r", "\n", "\x1c"]),
)


def _written(serialize, sentences):
    """The serializer's text, or None when it refuses a token or tag."""
    try:
        return serialize(sentences)
    except DimensionError:
        return None


def _survives(parse, text):
    """A parser given any text returns its result or raises a package error."""
    try:
        return parse(io.StringIO(text))
    except SemtaggerError:
        return None


@PROPERTY
@given(SENTENCES)
def test_corpus_round_trips(sentences):
    assert parse_corpus(io.StringIO(serialize_corpus(sentences))) == sentences


@PROPERTY
@given(embedded_sentences())
def test_context_embeddings_round_trip(sentences):
    back = load_context_embeddings(
        io.StringIO(serialize_context_embeddings(sentences)))
    assert len(back) == len(sentences)
    for orig, again in zip(sentences, back):
        assert (again.tokens, again.tags) == (orig.tokens, orig.tags)
        assert np.array_equal(again.vectors, orig.vectors)


@PROPERTY
@given(st.lists(st.lists(st.tuples(ANY_FIELD, ANY_FIELD), min_size=1,
                         max_size=4), min_size=1, max_size=3))
def test_whatever_the_serializers_write_reads_back_exactly(blocks):
    sentences = [Sentence([t for t, _ in rows], [g for _, g in rows])
                 for rows in blocks]
    corpus = _written(serialize_corpus, sentences)
    if corpus is not None:
        assert parse_corpus(io.StringIO(corpus)) == sentences
    embedded = [EmbeddedSentence(s.tokens, s.tags, np.ones((len(s), 2)))
                for s in sentences]
    text = _written(serialize_context_embeddings, embedded)
    assert (text is None) == (corpus is None)  # one rule for both formats
    if text is not None:
        back = load_context_embeddings(io.StringIO(text))
        assert [(s.tokens, s.tags) for s in back] == [
            (s.tokens, s.tags) for s in sentences]


@PROPERTY
@given(SENTENCES.flatmap(lambda s: mutated(serialize_corpus(s))))
def test_mutated_corpus_parses_or_raises_a_package_error(text):
    result = _survives(parse_corpus, text)
    assert result is None or all(isinstance(s, Sentence) for s in result)


@PROPERTY
@given(embedded_sentences().flatmap(
    lambda s: mutated(serialize_context_embeddings(s))))
def test_mutated_embeddings_parse_or_raise_a_package_error(text):
    result = _survives(load_context_embeddings, text)
    assert result is None or all(isinstance(s, EmbeddedSentence)
                                 for s in result)


@PROPERTY
@given(META_LINES.flatmap(lambda lines: mutated("\n".join(lines) + "\n")))
def test_mutated_meta_tags_parse_or_raise_a_package_error(text):
    result = _survives(load_meta_tags, text)
    assert result is None or isinstance(result, dict)


# ---- checkpoint archives

JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=6)
NAMES = st.lists(st.text(max_size=4), min_size=1, max_size=4, unique=True)


@st.composite
def models(draw):
    """A small model of either mode, every tensor value an arbitrary finite
    float64 (subnormals and -0.0 included) apart from the CRF sentinels."""
    tags = draw(NAMES)
    meta_tags = draw(st.none() | st.dictionaries(
        st.sampled_from(tags), st.text(max_size=3), max_size=len(tags)))
    tagset = TagSet({t: i for i, t in enumerate(tags)}, tags, meta_tags)
    dim, hidden = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    if draw(st.booleans()):
        tokens = [UNK_TOKEN] + draw(NAMES.filter(lambda n: UNK_TOKEN not in n))
        vocab = Vocab({t: i for i, t in enumerate(tokens)}, tokens)
        encoder = init_params(len(tokens), dim, hidden, len(tags), seed=0)
    else:
        vocab, encoder = None, init_params(None, dim, hidden, len(tags), 0)
    model = TaggerModel(encoder, init_crf_params(len(tags)), tagset, vocab)
    finite = st.floats(allow_nan=False, allow_infinity=False)
    tensors = {name: draw(arrays(np.float64, arr.shape, elements=finite))
               for name, arr in model.tensors().items()}
    tensors["crf_transitions"][:, len(tags)] = NEG_INF  # into START
    tensors["crf_transitions"][len(tags) + 1, :] = NEG_INF  # out of STOP
    model.set_tensors(tensors)
    return model


def _saved(model, provenance=None) -> bytes:
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "ck.npz")
        save_checkpoint(model, path, provenance)
        with open(path, "rb") as fh:
            return fh.read()


def _loaded(data: bytes):
    """load_checkpoint on a file holding ``data``; a CheckpointError must name
    the file, once."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "ck.npz")
        with open(path, "wb") as fh:
            fh.write(data)
        try:
            return load_checkpoint(path)
        except CheckpointError as exc:
            assert str(exc).count(path) == 1, exc
            raise


def _rewritten(data: bytes, mutate) -> bytes:
    """The archive ``data`` with its members passed through ``mutate``."""
    with np.load(io.BytesIO(data)) as archive:
        members = {name: archive[name] for name in archive.files}
    mutate(members)
    out = io.BytesIO()
    np.savez(out, **members)
    return out.getvalue()


FIELDS = ["format", "version", "mode", "tags", "meta_tags", "vocab",
          "provenance"]


def _set_field(draw, members, key):
    """Set or delete one manifest field, or one element of a list field."""
    manifest = json.loads(members["manifest"].tobytes())
    value = draw(JSON)
    if isinstance(manifest.get(key), list) and draw(st.booleans()):
        items = manifest[key]
        items[draw(st.integers(0, len(items) - 1))] = value
    elif value is None and draw(st.booleans()):
        del manifest[key]
    else:
        manifest[key] = value
    members["manifest"] = np.frombuffer(json.dumps(manifest).encode(),
                                        dtype=np.uint8)


def _retype(draw, members):
    name = draw(st.sampled_from(sorted(members)))
    dtype = draw(st.sampled_from(["float32", ">f8", "int64", "uint8", "bool",
                                  "complex128", "U3", "object"]))
    with np.errstate(over="ignore", invalid="ignore"):
        members[name] = members[name].astype(dtype)


MEMBER_EDITS = {
    **{f"field-{key}": lambda draw, m, key=key: _set_field(draw, m, key)
       for key in FIELDS},
    "drop": lambda draw, m: m.pop(draw(st.sampled_from(sorted(m)))),
    "retype": _retype,
    "extra": lambda draw, m: m.update(
        {draw(st.text(min_size=1, max_size=4)): np.zeros(2)}),
    "manifest-bytes": lambda draw, m: m.update(
        manifest=np.frombuffer(draw(st.binary(max_size=40)), dtype=np.uint8)),
}


def _positions(draw, data: bytes, count: int) -> np.ndarray:
    """Byte offsets spread evenly over the file; st.integers() would favour
    its ends, and so mostly hit the zip magic."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return rng.integers(0, len(data), size=count)


def _truncate(draw, data: bytes) -> bytes:
    return data[:_positions(draw, data, 1)[0]]


def _flip(draw, data: bytes) -> bytes:
    out = np.frombuffer(data, dtype=np.uint8).copy()
    for i in _positions(draw, data, draw(st.integers(1, 3))):
        out[i] ^= draw(st.integers(1, 255))
    return out.tobytes()


@st.composite
def edited(draw, kind: str):
    """A saved checkpoint with one edit of the given kind."""
    data = _saved(draw(models()))
    if kind in MEMBER_EDITS:
        return _rewritten(data, lambda members: MEMBER_EDITS[kind](draw, members))
    return {"truncate": _truncate, "flip": _flip}[kind](draw, data)


@PROPERTY
@given(models(), st.dictionaries(st.text(max_size=3), JSON, max_size=3))
def test_checkpoint_round_trips_bit_exactly(model, provenance):
    back = _loaded(_saved(model, provenance))
    assert back.mode == model.mode
    assert back.tags == model.tags and back.vocab == model.vocab
    assert back.tensors().keys() == model.tensors().keys()
    for name, arr in model.tensors().items():
        again = back.tensors()[name]
        assert again.dtype == arr.dtype and again.shape == arr.shape
        assert again.tobytes() == arr.tobytes(), name


@pytest.mark.parametrize("kind", [*MEMBER_EDITS, "truncate", "flip"])
def test_edited_checkpoint_loads_or_raises_a_checkpoint_error(kind):
    @settings(PROPERTY, max_examples=40)  # per kind: 600 in all
    @given(edited(kind))
    def check(data):
        try:
            model = _loaded(data)
        except CheckpointError:
            return
        assert isinstance(model, TaggerModel)

    check()


# ---- packed evaluation

def _tagset(k: int) -> TagSet:
    tags = [f"t{i}" for i in range(k)]
    return TagSet({t: i for i, t in enumerate(tags)}, tags)


@st.composite
def scored_sets(draw):
    """A model of either mode, every dim at most 8, and 1-12 sentences of
    1-12 tokens in drawn order, so lengths repeat and arrive unsorted.
    Output weights of 0 (constant emissions) and rounded transitions make
    Viterbi ties; large weights and transitions send some columns through
    the log-space redo of underflowed sums."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    k, dim, hidden = (draw(st.integers(1, 8)) for _ in range(3))
    vocab_size = draw(st.none() | st.integers(1, 8))
    encoder = init_params(vocab_size, dim, hidden, k,
                          seed=int(rng.integers(2**31)))
    encoder.out_weights *= draw(st.sampled_from([0.0, 1.0, 50.0]))
    encoder.out_bias = np.round(rng.normal(size=k))
    crf = init_crf_params(k, seed=int(rng.integers(2**31)))
    scale = draw(st.sampled_from([0.0, 1.0, 300.0]))
    if scale:
        crf.transitions[:k, :k] = np.round(rng.normal(size=(k, k)) * scale)
    vocab = None
    if vocab_size is not None:
        tokens = [UNK_TOKEN] + [f"w{i}" for i in range(1, vocab_size)]
        vocab = Vocab({t: i for i, t in enumerate(tokens)}, tokens)
    lengths = draw(st.lists(st.integers(1, 12), min_size=1, max_size=12))
    data = [(rng.normal(size=(n, dim)) * 3 if vocab is None
             else rng.integers(0, vocab_size, size=n),
             rng.integers(0, k, size=n)) for n in lengths]
    return TaggerModel(encoder, crf, _tagset(k), vocab), data


def _check_packed(model, data) -> None:
    """evaluate on the whole set equals the in-order aggregate of evaluate on
    each sentence, and every emission, log Z and path decoded in a group
    equals the one-sentence reference loops and the public one-sentence
    calls, bit for bit."""
    singles = [evaluate(model, [sentence]) for sentence in data]
    loss_sum = 0.0
    for loss, _ in singles:
        loss_sum += loss
    correct = sum(round(acc * len(gold))
                  for (_, acc), (_, gold) in zip(singles, data))
    tokens = sum(len(gold) for _, gold in data)
    assert evaluate(model, data) == (loss_sum / len(data), correct / tokens)

    inputs = sorted((x for x, _ in data), key=len, reverse=True)
    emissions = forward_taped(model.encoder, inputs)[0]
    for x, e, (_, log_z), path in zip(inputs, emissions,
                                      _forward(model.crf, emissions),
                                      _viterbi(model.crf, emissions)):
        assert e.tobytes() == loop_emissions(model.encoder, x).tobytes()
        assert e.tobytes() == forward(model.encoder, x)[0].tobytes()
        assert log_z == loop_log_partition(model.crf, e)
        assert log_z == log_partition(model.crf, e)
        assert path.tolist() == loop_viterbi(model.crf, e).tolist()
        assert path.tolist() == predicted_tags(model, x).tolist()


@PROPERTY
@given(scored_sets())
def test_evaluation_does_not_depend_on_the_grouping(case):
    _check_packed(*case)


def test_underflowed_sums_in_one_lane_leave_the_others_alone():
    # hidden 1: an all-zero input keeps h at 0, so emissions are the zero
    # bias, while an input of 5 saturates the gates and puts +-800 h on two
    # tags; off-diagonal transitions of -600 then underflow that sentence's
    # scaled sums
    k = 3
    encoder = init_params(None, 1, 1, k, seed=0)
    encoder.lstm_input_weights = np.ones((4, 1))
    encoder.out_weights = np.array([[800.0], [-800.0], [0.0]])
    crf = init_crf_params(k, seed=1)
    crf.transitions[:k, :k] = np.where(np.eye(k, dtype=bool), 0.0, -600.0)
    model = TaggerModel(encoder, crf, _tagset(k))
    data = [(np.full((n, 1), x), np.arange(n) % k)
            for n, x in ((4, 0.0), (2, 0.0), (5, 5.0), (7, 0.0), (5, 0.0))]

    trans = crf.transitions[:k, :k]
    scaled = np.exp(trans - trans.max(axis=0))
    for (x, _), extreme in zip(data, (False, False, True, False, False)):
        v = crf.transitions[crf.start, :k] + forward(encoder, x)[0][0]
        assert ((np.exp(v - v.max()) @ scaled).min() < TINY) == extreme
    _check_packed(model, data)


def test_a_non_finite_emission_in_a_group_is_a_divergence():
    # the unknown-token row is never trained on, so only the validation
    # sentence that holds an unknown token scores NaN
    train = make_toy_corpus(12, vocab_size=6, num_tags=3, seed=4, max_len=6)
    vocab, tags = build_vocab(train)
    config = ExperimentConfig(id=3, epochs=1, emb_dim=4, hidden_dim=3)
    model = build_model(config, vocab, tags)
    model.encoder.embedding[UNK_ID] = np.nan
    val = encode_corpus(train[:4], vocab, tags)
    val[2] = (np.r_[UNK_ID, val[2][0][1:]], val[2][1])
    with pytest.raises(DivergenceError, match=(
            "experiment 3 diverged in epoch 0, the end-of-epoch evaluation: "
            "emissions must be finite")):
        train_epoch(model, encode_corpus(train, vocab, tags), val, config, 0,
                    init_optim_state(config.optimizer, model.tensors()))


# ---- the training step

@st.composite
def training_runs(draw, hidden_dims=(1, 8), batch_sizes=(1, 5),
                  train_sizes=(1, 10), optimizers=("adam", "sgd")):
    """A fresh model of either mode with every dim at most 8, a config for
    either optimizer with clipping off, sometimes on or always on, and 1-10
    training plus 1-2 validation sentences of 1-8 tokens in drawn order.
    The keywords narrow the hidden dim, the batch size, the number of
    training sentences and the optimizers."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    k, dim, hidden = (draw(st.integers(*dims))
                      for dims in ((1, 8), (1, 8), hidden_dims))
    vocab_size = draw(st.none() | st.integers(1, 8))
    config = ExperimentConfig(
        optimizer=draw(st.sampled_from(optimizers)),
        epochs=draw(st.integers(1, 2)),
        batch_size=draw(st.integers(*batch_sizes)),
        emb_dim=dim, hidden_dim=hidden, seed=draw(st.integers(0, 2**16)),
        embedding_mode=MODE_INTERNAL if vocab_size else MODE_EXTERNAL,
        clip_norm=draw(st.sampled_from([None, 1.0, 1e-3])))
    vocab = None
    if vocab_size is not None:
        tokens = [UNK_TOKEN] + [f"w{i}" for i in range(1, vocab_size)]
        vocab = Vocab({t: i for i, t in enumerate(tokens)}, tokens)
    model = build_model(config, vocab, _tagset(k))

    def sentences(min_size, max_size):
        return [(rng.normal(size=(n, dim)) if vocab is None
                 else rng.integers(0, vocab_size, size=n),
                 rng.integers(0, k, size=n))
                for n in draw(st.lists(st.integers(1, 8), min_size=min_size,
                                       max_size=max_size))]
    return model, config, sentences(*train_sizes), sentences(1, 2)


@PROPERTY
@given(training_runs())
def test_training_matches_the_one_sentence_reference(case):
    model, config, train, val = case
    state = init_optim_state(config.optimizer, model.tensors())
    params = {name: p.copy() for name, p in model.tensors().items()}
    moments = None
    if config.optimizer == "adam":  # copies: train_epoch updates state in place
        moments = (0, {n: a.copy() for n, a in state.m.items()},
                   {n: a.copy() for n, a in state.v.items()})
    for epoch in range(config.epochs):
        metrics, state = train_epoch(model, train, val, config, epoch, state)
        params, moments, want = loop_train_epoch(params, moments, train, val,
                                                 config, epoch)
        assert metrics == want
        assert {n: p.tobytes() for n, p in model.tensors().items()} == {
            n: p.tobytes() for n, p in params.items()}
        if moments is not None:
            assert state.step_count == moments[0]
            for got, ref in ((state.m, moments[1]), (state.v, moments[2])):
                assert {n: a.tobytes() for n, a in got.items()} == {
                    n: a.tobytes() for n, a in ref.items()}


@PROPERTY
@given(training_runs(hidden_dims=(2, 8), batch_sizes=(2, 5),
                     train_sizes=(2, 12)))
def test_the_blocked_recurrent_product_matches_the_one_sentence_reference(case):
    # 4-row blocks split 4H of 8-32 rows into 2-8 blocks, so every step with
    # two or more lanes running takes the block loop (H = 1 is one block)
    model, config, train, _ = case
    inputs = sorted((x for x, _ in train), key=len, reverse=True)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(encoder_module, "ROWS_PER_BLOCK", 4)
        emissions, tape = encoder_module.forward_taped(model.encoder, inputs)
        for lane, (x, e) in enumerate(zip(inputs, emissions)):
            got = (tape.inputs[lane], *(a[:len(x), lane] for a in (
                tape.gates, tape.cell, tape.tanh_cell, tape.hidden)))
            assert [a.tobytes() for a in got] == [
                a.tobytes() for a in loop_lstm(model.encoder, x)]
            assert e.tobytes() == loop_emissions(model.encoder, x).tobytes()
        # the whole training-step property, evaluation included, on the
        # blocked product
        test_training_matches_the_one_sentence_reference.hypothesis.inner_test(
            case)


@PROPERTY
@given(training_runs(optimizers=("adam",)))
def test_adam_in_blocks_matches_the_one_sentence_reference(case):
    # 13-element blocks are 1-13 rows of the tests' rows of at most 10
    # elements, so most tensors end on a short tail block
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(optim_module, "ADAM_BLOCK", 13)
        test_training_matches_the_one_sentence_reference.hypothesis.inner_test(
            case)


# ------------------------------------------------------------- command line

# README's "Experiment grid" table: optimizer, batch, emb dim, hidden dim,
# embeddings. Every row runs 20 epochs.
README_GRID = {
    1: ("adam", 5, 50, 8, "internal"),
    2: ("adam", 5, 100, 20, "internal"),
    3: ("sgd", 5, 100, 20, "internal"),
    4: ("adam", 20, 100, 20, "internal"),
    5: ("adam", 5, 100, 30, "internal"),
    6: ("adam", 5, 100, 50, "internal"),
    7: ("sgd", 5, 768, 600, "external"),
}

POSITIVE = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)
COUNT = st.integers(1, 1000)

# Each setting's train flag and its valid values. embedding_mode follows from
# --embeddings and has no flag of its own.
SETTING_FLAGS = {
    "optimizer": ("--optimizer", st.sampled_from(["adam", "sgd"])),
    "epochs": ("--epochs", COUNT),
    "batch_size": ("--batch-size", COUNT),
    "emb_dim": ("--emb-dim", COUNT),
    "hidden_dim": ("--hidden-dim", COUNT),
    "base_lr": ("--lr", POSITIVE),
    "clip_norm": ("--clip-norm", POSITIVE),
    "seed": ("--seed", st.integers(0, 2**70)),
}


@PROPERTY
@given(st.sampled_from([None, *README_GRID]),
       st.fixed_dictionaries({}, optional={
           name: values for name, (_, values) in SETTING_FLAGS.items()}))
def test_setting_flags_resolve_to_the_config_they_name(experiment, flags):
    assert set(SETTING_FLAGS) == set(SETTINGS) - {"embedding_mode"}
    argv = ["train"]
    given = {}
    if experiment is not None:
        argv += ["--experiment", str(experiment)]
        optimizer, batch, emb, hidden, mode = README_GRID[experiment]
        given = dict(id=experiment, optimizer=optimizer, epochs=20,
                     batch_size=batch, emb_dim=emb, hidden_dim=hidden,
                     embedding_mode=mode)
    for name, value in flags.items():
        argv.append(f"{SETTING_FLAGS[name][0]}={value}")
    resolved = _resolve_train_config(build_parser().parse_args(argv))
    assert resolved == ExperimentConfig(**{**given, **flags})


# Valid and invalid values for the flags that take a number. Dims stay at 8
# or below, so no example allocates much memory.
SMALL = st.integers(-3, 8)
SEEDS = st.one_of(SMALL, st.just(2**64 + 1))
RATES = st.sampled_from(["nan", "inf", "-inf", "-1", "0", "1e-3", "0.5",
                         "1e6", "1e308"])
RUN_FLAGS = {
    "train": {"--optimizer": st.sampled_from(["adam", "sgd"]),
              "--epochs": SMALL, "--batch-size": SMALL, "--emb-dim": SMALL,
              "--hidden-dim": SMALL, "--min-freq": SMALL, "--seed": SEEDS,
              "--lr": RATES, "--clip-norm": RATES, "--val-fraction": RATES},
    "replicate": {"--min-freq": SMALL, "--seed": SEEDS,
                  "--val-fraction": RATES},
}


@st.composite
def runs(draw):
    """A command and a few of its flags: one bad value can hide another, so
    each example sets at most three."""
    command = draw(st.sampled_from(sorted(RUN_FLAGS)))
    names = draw(st.lists(st.sampled_from(sorted(RUN_FLAGS[command])),
                          unique=True, max_size=3))
    return command, {name: draw(RUN_FLAGS[command][name]) for name in names}


@PROPERTY
@given(runs())
def test_setting_flags_never_end_in_a_traceback(run):
    command, flags = run
    stderr = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        corpus, ini = Path(tmp, "corpus.tsv"), Path(tmp, "grid.ini")
        corpus.write_text(serialize_corpus(
            make_toy_corpus(10, 6, 3, seed=1, max_len=5)), encoding="utf-8")
        ini.write_text("[experiment 1]\nepochs = 2\nemb_dim = 4\n"
                       "hidden_dim = 3\n", encoding="utf-8")
        argv = [command, "-q", "--corpus", str(corpus), "--config", str(ini),
                "--experiment" if command == "train" else "--experiments", "1",
                "--out", str(Path(tmp, "out")),
                *(f"{flag}={value}" for flag, value in flags.items())]
        with (contextlib.redirect_stderr(stderr),
              contextlib.redirect_stdout(io.StringIO())):
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
    err = stderr.getvalue()
    assert code in (0, 1, 2), err
    assert "Traceback" not in err
    if code == 1:
        errors = [line for line in err.splitlines() if line.startswith("error:")]
        assert len(errors) == 1, err
