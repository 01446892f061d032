"""Model bundle and checkpoint save/load round-trips."""

import json

import numpy as np
import pytest

from semtagger import (CheckpointError, TagSet, TaggerModel, Vocab,
                       init_crf_params, init_params,
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
    encoder = init_params(None, 6, 4, len(tags), seed=seed)
    crf = init_crf_params(len(tags), seed=seed + 1)
    return TaggerModel(encoder=encoder, crf=crf, tags=tagset, vocab=None)


def test_checkpoint_round_trip_internal(tmp_path):
    model = make_internal_model()
    path = tmp_path / "ck.npz"
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
    path = tmp_path / "ck.npz"
    save_checkpoint(model, path)
    back = load_checkpoint(path)
    assert back.mode == MODE_EXTERNAL
    assert back.vocab is None
    assert back.encoder.embedding is None
    for name, arr in model.tensors().items():
        assert np.array_equal(back.tensors()[name], arr), name


def test_round_trip_preserves_predictions(tmp_path):
    model = make_internal_model(seed=3)
    path = tmp_path / "ck.npz"
    save_checkpoint(model, path)
    back = load_checkpoint(path)
    sentence = ["the", "dog", "barks", "loudly"]
    assert tag_tokens(back, sentence) == tag_tokens(model, sentence)


def _archive(tmp_path, mutate):
    """A saved checkpoint whose manifest and tensors ``mutate(m, t)`` edited."""
    model = make_internal_model()
    path = tmp_path / "ck.npz"
    save_checkpoint(model, path)
    with np.load(path) as archive:
        manifest = json.loads(archive["manifest"].tobytes())
        tensors = {name: archive[name] for name in archive.files
                   if name != "manifest"}
    mutate(manifest, tensors)
    raw = np.frombuffer(json.dumps(manifest).encode(), dtype=np.uint8)
    with open(path, "wb") as fh:
        np.savez(fh, manifest=raw, **tensors)
    return path


@pytest.mark.parametrize("mutate", [
    lambda m, t: m.update(format="something-else"),
    lambda m, t: m.update(version=99),
    lambda m, t: m.update(mode="quantum"),
    lambda m, t: m.update(tags=[]),
    lambda m, t: m.update(vocab=None),
    lambda m, t: m["vocab"].__setitem__(0, "not-unk"),
    lambda m, t: t.pop("crf_transitions"),
    lambda m, t: t.update(lstm_bias=t["lstm_bias"][:7]),
    lambda m, t: t.update(embedding=t["embedding"].ravel()[:-1]),
    lambda m, t: m.update(meta_tags=[["CON", "ENT"]]),
    lambda m, t: t["embedding"].__setitem__((0, 0), float("nan")),
    lambda m, t: m["tags"].__setitem__(0, [0]),
    lambda m, t: m["vocab"].__setitem__(1, ["the"]),
    lambda m, t: m["tags"].__setitem__(1, "CON"),
    lambda m, t: m["vocab"].__setitem__(2, "the"),
    lambda m, t: m.update(meta_tags={"CON": 1}),
    lambda m, t: t.update(out_bias=t["out_bias"].astype(np.float32)),
    lambda m, t: t.update(out_bias=t["out_bias"].astype(np.int64)),
    lambda m, t: t.update(extra=np.zeros(2)),
    lambda m, t: t.update(out_bias=np.array([None] * 3, dtype=object)),
], ids=["format", "version", "mode", "no-tags", "no-vocab", "unk-missing",
        "missing-tensor", "bad-shape", "truncated-data", "meta-tags-list",
        "non-finite-tensor", "list-in-tags", "list-in-vocab", "duplicate-tag",
        "duplicate-token", "meta-tag-not-string", "float32-tensor",
        "int64-tensor", "extra-member", "pickled-tensor"])
def test_checkpoint_rejects_tampering(tmp_path, mutate):
    path = _archive(tmp_path, mutate)
    with pytest.raises(CheckpointError) as err:
        load_checkpoint(path)
    assert str(err.value).count(str(path)) == 1, err.value


def test_checkpoint_rejects_broken_sentinels(tmp_path):
    def mutate(m, t):
        transitions = t["crf_transitions"]
        assert transitions.shape == (5, 5)
        transitions[0, 3] = 0.0  # cell [0, start] must stay at the sentinel
    path = _archive(tmp_path, mutate)
    with pytest.raises(CheckpointError, match="inconsistent tensors") as err:
        load_checkpoint(path)
    assert str(err.value).count(str(path)) == 1, err.value


def test_checkpoint_rejects_non_json(tmp_path):
    path = tmp_path / "ck.json"
    path.write_text("definitely not json{")
    with pytest.raises(CheckpointError):
        load_checkpoint(path)


def test_checkpoint_rejects_a_version_1_json_checkpoint(tmp_path):
    path = tmp_path / "checkpoint.json"
    path.write_text(json.dumps({"format": "semtagger-checkpoint", "version": 1,
                                "mode": MODE_INTERNAL, "tensors": {}}))
    with pytest.raises(CheckpointError,
                       match=f"{path} is a version-1 JSON checkpoint"):
        load_checkpoint(path)


def _flip(data: bytes, i: int) -> bytes:
    return data[:i] + bytes([data[i] ^ 1]) + data[i + 1:]


@pytest.mark.parametrize("damage", [
    lambda b: b[:4], lambda b: b[:30], lambda b: b[:1000], lambda b: b[:-1],
    # the low bytes of the end record's central-directory offset: zipfile
    # then seeks before the start of the file, an OSError
    lambda b: _flip(b, len(b) - 6), lambda b: _flip(b, len(b) - 5),
], ids=["truncated-4", "truncated-30", "truncated-1000", "truncated-1",
        "cd-offset-6", "cd-offset-5"])
def test_checkpoint_rejects_a_damaged_archive(tmp_path, damage):
    path = tmp_path / "ck.npz"
    save_checkpoint(make_internal_model(), path)
    path.write_bytes(damage(path.read_bytes()))
    with pytest.raises(CheckpointError, match="damaged archive"):
        load_checkpoint(path)


def test_checkpoint_rejects_an_npy_file(tmp_path):
    path = tmp_path / "ck.npz"
    with open(path, "wb") as fh:
        np.save(fh, np.zeros(3))
    with pytest.raises(CheckpointError, match="no zip header"):
        load_checkpoint(path)


def test_failed_save_keeps_the_previous_checkpoint(tmp_path, monkeypatch):
    path = tmp_path / "ck.npz"
    save_checkpoint(make_internal_model(seed=1), path)
    before = path.read_bytes()

    def fail_midway(file, **members):
        file.write(b"PK\x03\x04 half an archive")
        raise OSError("no space left on device")

    monkeypatch.setattr(np, "savez", fail_midway)
    with pytest.raises(OSError, match="no space"):
        save_checkpoint(make_internal_model(seed=2), path)
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["ck.npz"]


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
