"""Hypothesis properties of the file formats: round trips and malformed input.

The formats are the corpus, the contextual-embedding file, the meta-tag map
and the checkpoint archive.

Every test runs with a fixed derivation of its examples (``derandomize``) and
no example database, so the suite stays deterministic. Hypothesis still caches
the constants it finds in local source files; that cache goes to the system's
temporary directory, as NumPy's own test suite arranges, so running the tests
writes no ``.hypothesis/`` directory into the checkout.
"""

import io
import json
import os
import tempfile

import numpy as np
import pytest
from hypothesis import HealthCheck, configuration, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from semtagger import (NEG_INF, UNK_TOKEN, CheckpointError, DimensionError,
                       EmbeddedSentence, Sentence, SemtaggerError, TagSet,
                       TaggerModel, Vocab, init_crf_params,
                       init_external_params, init_params,
                       load_checkpoint, load_context_embeddings,
                       load_meta_tags, parse_corpus,
                       save_checkpoint, serialize_context_embeddings,
                       serialize_corpus)

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
        vocab, encoder = None, init_external_params(dim, hidden, len(tags), 0)
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
