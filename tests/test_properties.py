"""Hypothesis properties of the file formats: round trips and malformed input.

Every test runs with a fixed derivation of its examples (``derandomize``) and
no example database, so the suite stays deterministic. Hypothesis still caches
the constants it finds in local source files; that cache goes to the system's
temporary directory, as NumPy's own test suite arranges, so running the tests
writes no ``.hypothesis/`` directory into the checkout.
"""

import io
import os
import tempfile

import numpy as np
from hypothesis import HealthCheck, configuration, given, settings
from hypothesis import strategies as st

from semtagger import (DimensionError, EmbeddedSentence, Sentence,
                       SemtaggerError, load_context_embeddings, load_meta_tags,
                       parse_corpus, serialize_context_embeddings,
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
