"""Corpus/embedding parsing, vocab building, encoding, and splitting."""

import io

import numpy as np
import pytest

from helpers import make_toy_corpus
from semtagger import (ConfigError, DimensionError, EmptyCorpusError,
                       ParseError, Sentence, UnknownTagError, UNK_ID,
                       UNK_TOKEN, build_vocab, encode, load_context_embeddings,
                       load_meta_tags, parse_corpus, serialize_corpus,
                       serialize_context_embeddings, split)
from semtagger.data import EmbeddedSentence

CORPUS = """\
# a comment before anything
The\tDEF
dog\tCON
barks\tEVE

# comment between sentences

dog\tCON
!\tNIL
"""


def test_parse_corpus_basic():
    sents = parse_corpus(io.StringIO(CORPUS))
    assert len(sents) == 2
    assert sents[0].tokens == ["The", "dog", "barks"]
    assert sents[0].tags == ["DEF", "CON", "EVE"]
    assert sents[1].tokens == ["dog", "!"]


def test_parse_corpus_round_trip():
    sents = make_toy_corpus(30, vocab_size=9, num_tags=4, seed=0)
    text = serialize_corpus(sents)
    again = parse_corpus(io.StringIO(text))
    assert again == sents


def test_parse_corpus_crlf_and_trailing_blank():
    text = "a\tX\r\nb\tY\r\n\r\n"
    sents = parse_corpus(io.StringIO(text))
    assert sents == [Sentence(["a", "b"], ["X", "Y"])]


def test_parse_corpus_errors_name_the_line():
    with pytest.raises(ParseError) as err:
        parse_corpus(io.StringIO("a\tX\nbad line\n"))
    assert "line 2" in str(err.value)
    assert err.value.line_number == 2
    with pytest.raises(ParseError) as err:
        parse_corpus(io.StringIO("a\tX\n\nb\tY\tZ\n"))
    assert err.value.line_number == 3
    with pytest.raises(ParseError):
        parse_corpus(io.StringIO("a\t\n"))  # empty tag field


def test_parse_corpus_empty_inputs():
    with pytest.raises(EmptyCorpusError):
        parse_corpus(io.StringIO(""))
    with pytest.raises(EmptyCorpusError):
        parse_corpus(io.StringIO("# only a comment\n\n"))


def test_build_vocab_reserves_unk_and_sorts_tags():
    sents = parse_corpus(io.StringIO(CORPUS))
    vocab, tags = build_vocab(sents)
    assert vocab.id_to_token[UNK_ID] == UNK_TOKEN
    # first-occurrence order after UNK
    assert vocab.id_to_token == [UNK_TOKEN, "The", "dog", "barks", "!"]
    assert tags.id_to_tag == sorted(["DEF", "CON", "EVE", "NIL"])
    assert tags.tag_to_id["CON"] == tags.id_to_tag.index("CON")


def test_build_vocab_min_freq():
    sents = parse_corpus(io.StringIO(CORPUS))
    vocab, _ = build_vocab(sents, min_freq=2)
    assert "dog" in vocab.token_to_id      # occurs twice
    assert "barks" not in vocab.token_to_id
    assert vocab.lookup("barks") == UNK_ID
    for below_one in (0, -3):
        with pytest.raises(ConfigError, match="min_freq must be at least 1"):
            build_vocab(sents, min_freq=below_one)


def test_encode_maps_unknown_tokens_to_unk():
    sents = parse_corpus(io.StringIO(CORPUS))
    vocab, tags = build_vocab(sents)
    ids, tag_ids = encode(Sentence(["dog", "cat"], ["CON", "CON"]), vocab, tags)
    assert ids.tolist() == [vocab.token_to_id["dog"], UNK_ID]
    assert tag_ids.tolist() == [tags.tag_to_id["CON"]] * 2


def test_encode_rejects_unknown_tag():
    sents = parse_corpus(io.StringIO(CORPUS))
    vocab, tags = build_vocab(sents)
    with pytest.raises(UnknownTagError) as err:
        encode(Sentence(["dog"], ["BRAND-NEW"]), vocab, tags)
    assert "BRAND-NEW" in str(err.value)


def test_split_sizes_and_partition():
    sents = make_toy_corpus(100, vocab_size=12, num_tags=5, seed=3)
    train, val = split(sents, 0.1, seed=42)
    assert len(train) == 90 and len(val) == 10
    # partition: every input sentence lands on exactly one side
    key = lambda s: (tuple(s.tokens), tuple(s.tags))
    combined = sorted(map(key, train + val))
    assert combined == sorted(map(key, sents))


def test_split_is_seed_deterministic():
    sents = make_toy_corpus(40, vocab_size=8, num_tags=3, seed=1)
    a_train, a_val = split(sents, 0.25, seed=7)
    b_train, b_val = split(sents, 0.25, seed=7)
    c_train, _ = split(sents, 0.25, seed=8)
    assert a_train == b_train and a_val == b_val
    assert a_train != c_train


def test_split_never_empties_a_side():
    sents = make_toy_corpus(5, vocab_size=4, num_tags=2, seed=2)
    train, val = split(sents, 0.01, seed=0)
    assert len(val) == 1 and len(train) == 4
    train, val = split(sents, 0.99, seed=0)
    assert len(train) == 1 and len(val) == 4


def test_split_fraction_validation():
    sents = make_toy_corpus(4, vocab_size=4, num_tags=2, seed=2)
    for bad in (0.0, 1.0, -0.2, 1.7):
        with pytest.raises(ConfigError):
            split(sents, bad, seed=0)


EMB = """\
# vectors produced by some external encoder
2 3
The\tDEF\t0.25 -1.0 0.5
dog\tCON\t1.0 2.0 3.0

1 3
!\tNIL\t0.0 0.0 1.25
"""


def test_load_context_embeddings_basic():
    sents = load_context_embeddings(io.StringIO(EMB))
    assert len(sents) == 2
    assert sents[0].tokens == ["The", "dog"]
    assert sents[0].tags == ["DEF", "CON"]
    assert sents[0].vectors.shape == (2, 3)
    assert sents[0].vectors[0].tolist() == [0.25, -1.0, 0.5]
    assert sents[1].vectors[0, 2] == 1.25


def test_context_embeddings_round_trip():
    rng = np.random.default_rng(0)
    sents = [
        EmbeddedSentence(["a", "b"], ["X", "Y"], rng.normal(size=(2, 4))),
        EmbeddedSentence(["c"], ["X"], rng.normal(size=(1, 4))),
    ]
    text = serialize_context_embeddings(sents)
    again = load_context_embeddings(io.StringIO(text))
    assert len(again) == 2
    for orig, back in zip(sents, again):
        assert back.tokens == orig.tokens and back.tags == orig.tags
        assert np.array_equal(back.vectors, orig.vectors)  # exact floats


def test_context_embeddings_vector_length_mismatch():
    bad = "1 3\na\tX\t1.0 2.0\n"
    with pytest.raises(ParseError) as err:
        load_context_embeddings(io.StringIO(bad))
    assert err.value.line_number == 2


def test_context_embeddings_mixed_dims_across_sentences():
    bad = "1 2\na\tX\t1.0 2.0\n\n1 3\nb\tY\t1.0 2.0 3.0\n"
    with pytest.raises(ParseError) as err:
        load_context_embeddings(io.StringIO(bad))
    assert "differs" in str(err.value)


def test_context_embeddings_structure_errors():
    with pytest.raises(ParseError):  # bad header
        load_context_embeddings(io.StringIO("one 3\n"))
    with pytest.raises(ParseError):  # truncated sentence
        load_context_embeddings(io.StringIO("2 2\na\tX\t1 2\n"))
    with pytest.raises(ParseError):  # blank line mid-sentence
        load_context_embeddings(io.StringIO("2 2\na\tX\t1 2\n\nb\tY\t1 2\n"))
    with pytest.raises(ParseError):  # missing separator between sentences
        load_context_embeddings(
            io.StringIO("1 2\na\tX\t1 2\n1 2\nb\tY\t1 2\n"))
    with pytest.raises(ParseError):  # non-numeric component
        load_context_embeddings(io.StringIO("1 2\na\tX\t1 x\n"))
    with pytest.raises(EmptyCorpusError):
        load_context_embeddings(io.StringIO("# nothing\n"))


def test_load_meta_tags():
    text = "# map\nDEF\tDET\nCON\tENT\n\nEVE\tEVE\n"
    mapping = load_meta_tags(io.StringIO(text))
    assert mapping == {"DEF": "DET", "CON": "ENT", "EVE": "EVE"}
    with pytest.raises(ParseError):
        load_meta_tags(io.StringIO("DEF DET\n"))
    # an empty field, and a semtag mapped twice, fail naming their own line
    for text, line in (("\tC\n", 1), ("# map\nDEF\t\n", 2),
                       ("t0\tA\n\nt0\tB\n", 3)):
        with pytest.raises(ParseError, match=f"^line {line}: "):
            load_meta_tags(io.StringIO(text))


def test_sentence_invariants():
    with pytest.raises(DimensionError):
        Sentence(["a"], ["X", "Y"])
    with pytest.raises(DimensionError):
        Sentence([], [])
    with pytest.raises(DimensionError):
        EmbeddedSentence(["a"], ["X"], np.zeros((2, 3)))


@pytest.mark.parametrize("bad", ["#", "#tag", "", " ", "a\tb", "a\rb", "a\nb"])
def test_serializers_refuse_tokens_and_tags_they_cannot_write(bad):
    # a '#'-led token would be read back as a comment line and vanish
    for tokens, tags in (([bad, "hash"], ["X", "Y"]), (["a", "b"], ["X", bad])):
        with pytest.raises(DimensionError, match="cannot write"):
            serialize_corpus([Sentence(tokens, tags)])
        with pytest.raises(DimensionError, match="cannot write"):
            serialize_context_embeddings(
                [EmbeddedSentence(tokens, tags, np.zeros((2, 3)))])


@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "1e999"])
def test_context_embeddings_reject_non_finite_components(value):
    text = f"1 2\na\tX\t0.5 1\n\n1 2\nb\tY\t{value} 1\n"
    with pytest.raises(ParseError, match="non-finite vector component") as err:
        load_context_embeddings(io.StringIO(text))
    assert err.value.line_number == 5
    with pytest.raises(DimensionError, match="non-finite vector component"):
        serialize_context_embeddings(
            [EmbeddedSentence(["b"], ["Y"], [[float(value), 1.0]])])
