"""Model bundle and checkpoint save/load round-trips."""

import json

import numpy as np
import pytest

from semtagger import (CheckpointError, TagSet, TaggerModel, Vocab,
                       init_crf_params, init_external_params, init_params,
                       load_checkpoint, save_checkpoint, tag_tokens,
                       tag_vectors)
from semtagger.model import MODE_EXTERNAL, MODE_INTERNAL, predicted_tags


def make_internal_model(seed=0):
    tokens = ["<unk>", "the", "dog", "barks"]
    tags = ["CON", "DEF", "EVE"]
    vocab = Vocab({t: i for i, t in enumerate(tokens)}, tokens)
    tagset = TagSet({t: i for i, t in enumerate(tags)}, tags,
                    meta_tags={"CON": "ENT", "DEF": "DET"})
    encoder = init_params(len(tokens), 4, 5, len(tags), seed=seed)
    crf = init_crf_params(len(tags), seed=seed + 1)
    return TaggerModel(encoder=encoder, crf=crf, tags=tagset, vocab=vocab)


def make_external_model(seed=0):
    tags = ["A", "B"]
    tagset = TagSet({t: i for i, t in enumerate(tags)}, tags)
    encoder = init_external_params(6, 4, len(tags), seed=seed)
    crf = init_crf_params(len(tags), seed=seed + 1)
    return TaggerModel(encoder=encoder, crf=crf, tags=tagset, vocab=None)


def test_checkpoint_round_trip_internal(tmp_path):
    model = make_internal_model()
    path = tmp_path / "ck.json"
    save_checkpoint(model, path, provenance={"note": "unit test"})
    back = load_checkpoint(path)
    assert back.mode == MODE_INTERNAL
    assert back.vocab.id_to_token == model.vocab.id_to_token
    assert back.tags.id_to_tag == model.tags.id_to_tag
    assert back.tags.meta_tags == model.tags.meta_tags
    for name, arr in model.tensors().items():
        assert np.array_equal(back.tensors()[name], arr), name  # bit-exact


def test_checkpoint_round_trip_external(tmp_path):
    model = make_external_model()
    path = tmp_path / "ck.json"
    save_checkpoint(model, path)
    back = load_checkpoint(path)
    assert back.mode == MODE_EXTERNAL
    assert back.vocab is None
    assert back.encoder.embedding is None
    for name, arr in model.tensors().items():
        assert np.array_equal(back.tensors()[name], arr), name


def test_round_trip_preserves_predictions(tmp_path):
    model = make_internal_model(seed=3)
    path = tmp_path / "ck.json"
    save_checkpoint(model, path)
    back = load_checkpoint(path)
    sentence = ["the", "dog", "barks", "loudly"]
    assert tag_tokens(back, sentence) == tag_tokens(model, sentence)


def _manifest(tmp_path, mutate):
    model = make_internal_model()
    path = tmp_path / "ck.json"
    save_checkpoint(model, path)
    manifest = json.loads(path.read_text())
    mutate(manifest)
    path.write_text(json.dumps(manifest))
    return path


@pytest.mark.parametrize("mutate", [
    lambda m: m.update(format="something-else"),
    lambda m: m.update(version=99),
    lambda m: m.update(mode="quantum"),
    lambda m: m.update(tags=[]),
    lambda m: m.update(vocab=None),
    lambda m: m["vocab"].__setitem__(0, "not-unk"),
    lambda m: m["tensors"].pop("crf_transitions"),
    lambda m: m["tensors"]["lstm_bias"].update(shape=[7]),
    lambda m: m["tensors"]["embedding"]["data"].pop(),
    lambda m: m.update(meta_tags=[["CON", "ENT"]]),
    lambda m: m["tensors"]["embedding"]["data"].__setitem__(0, float("nan")),
], ids=["format", "version", "mode", "no-tags", "no-vocab", "unk-missing",
        "missing-tensor", "bad-shape", "truncated-data", "meta-tags-list",
        "non-finite-tensor"])
def test_checkpoint_rejects_tampering(tmp_path, mutate):
    path = _manifest(tmp_path, mutate)
    with pytest.raises(CheckpointError):
        load_checkpoint(path)


def test_checkpoint_rejects_broken_sentinels(tmp_path):
    def mutate(m):
        entry = m["tensors"]["crf_transitions"]
        k2 = entry["shape"][0]
        entry["data"][3] = 0.0  # cell [0, start] must stay at the sentinel
        assert k2 == 5
    path = _manifest(tmp_path, mutate)
    with pytest.raises(CheckpointError):
        load_checkpoint(path)


def test_checkpoint_rejects_non_json(tmp_path):
    path = tmp_path / "ck.json"
    path.write_text("definitely not json{")
    with pytest.raises(CheckpointError):
        load_checkpoint(path)


def test_model_consistency_validation():
    model = make_internal_model()
    with pytest.raises(CheckpointError):  # tagset size vs encoder output
        TaggerModel(encoder=model.encoder, crf=model.crf,
                    tags=TagSet({"A": 0}, ["A"]), vocab=model.vocab)
    with pytest.raises(CheckpointError):  # internal mode needs a vocab
        TaggerModel(encoder=model.encoder, crf=model.crf, tags=model.tags,
                    vocab=None)
    ext = make_external_model()
    with pytest.raises(CheckpointError):  # external mode must not carry one
        TaggerModel(encoder=model.encoder, crf=ext.crf, tags=ext.tags,
                    vocab=None)


def test_tag_tokens_handles_unknown_words():
    model = make_internal_model()
    tags = tag_tokens(model, ["zebra", "dog"])  # zebra -> UNK
    assert len(tags) == 2
    assert all(t in model.tags.id_to_tag for t in tags)


def test_tag_vectors_and_predicted_tags():
    model = make_external_model()
    vectors = np.random.default_rng(0).normal(size=(3, 6))
    tags = tag_vectors(model, vectors)
    assert len(tags) == 3
    ids = predicted_tags(model, vectors)
    assert [model.tags.id_to_tag[i] for i in ids] == tags


def test_set_tensors_revalidates_crf():
    model = make_internal_model()
    tensors = {k: v.copy() for k, v in model.tensors().items()}
    tensors["crf_transitions"][0, model.crf.start] = 0.0  # break a sentinel
    with pytest.raises(ValueError):
        model.set_tensors(tensors)
