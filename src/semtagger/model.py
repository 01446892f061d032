"""Model bundle (encoder + CRF + vocab/tagset) and its JSON checkpoint format.

A checkpoint is a single JSON manifest listing every tensor by name with its
shape and row-major data. Python's json emits shortest-repr floats, which
round-trip binary64 exactly, so save followed by load reproduces parameters
bit for bit.
"""

import json
from dataclasses import dataclass, fields

import numpy as np

from .crf import CrfParams, viterbi_decode
from .data import UNK_TOKEN, TagSet, Vocab
from .encoder import EncoderParams, forward
from .errors import CheckpointError

CHECKPOINT_FORMAT = "semtagger-checkpoint"
CHECKPOINT_VERSION = 1

MODE_INTERNAL = "internal"
MODE_EXTERNAL = "external"


@dataclass
class TaggerModel:
    encoder: EncoderParams
    crf: CrfParams
    tags: TagSet
    vocab: Vocab | None = None  # None in external-embedding mode

    def __post_init__(self):
        if (self.vocab is None) != (self.encoder.embedding is None):
            raise CheckpointError("a vocab and an embedding table come together")
        if self.vocab is not None and len(self.vocab) != self.encoder.vocab_size:
            raise CheckpointError(
                f"vocab has {len(self.vocab)} entries but embedding has "
                f"{self.encoder.vocab_size} rows"
            )
        if len(self.tags) != self.encoder.num_tags:
            raise CheckpointError(
                f"tagset has {len(self.tags)} tags but encoder emits "
                f"{self.encoder.num_tags}"
            )
        if self.crf.num_tags != len(self.tags):
            raise CheckpointError(
                f"CRF covers {self.crf.num_tags} tags but tagset has {len(self.tags)}"
            )

    @property
    def mode(self) -> str:
        """Internal (learned embedding over a vocab) or external (vectors in)."""
        return MODE_EXTERNAL if self.vocab is None else MODE_INTERNAL

    def tensors(self) -> dict[str, np.ndarray]:
        out = self.encoder.tensors()
        out["crf_transitions"] = self.crf.transitions
        return out

    def set_tensors(self, tensors: dict[str, np.ndarray]) -> None:
        for name in self.encoder.tensors():
            setattr(self.encoder, name, tensors[name])
        # reconstruct so the sentinel/shape invariants are revalidated
        self.crf = CrfParams(self.crf.num_tags, tensors["crf_transitions"])


def predicted_tags(model: TaggerModel, inputs) -> np.ndarray:
    """Viterbi tag ids for already-encoded inputs (token ids or vectors)."""
    emissions, _ = forward(model.encoder, inputs)
    path, _ = viterbi_decode(model.crf, emissions)
    return path


def tag_tokens(model: TaggerModel, tokens: list[str]) -> list[str]:
    """Decode the best tag sequence for raw tokens (internal mode only)."""
    if model.vocab is None:
        raise CheckpointError("token input requires an internal-embedding model")
    ids = np.array([model.vocab.lookup(t) for t in tokens], dtype=np.intp)
    return [model.tags.id_to_tag[i] for i in predicted_tags(model, ids)]


def tag_vectors(model: TaggerModel, vectors: np.ndarray) -> list[str]:
    """Decode the best tag sequence for precomputed context vectors."""
    path = predicted_tags(model, np.asarray(vectors, dtype=np.float64))
    return [model.tags.id_to_tag[i] for i in path]


def save_checkpoint(model: TaggerModel, path, provenance: dict | None = None) -> None:
    manifest = {
        "format": CHECKPOINT_FORMAT,
        "version": CHECKPOINT_VERSION,
        "mode": model.mode,
        "tags": model.tags.id_to_tag,
        "meta_tags": model.tags.meta_tags,
        "vocab": model.vocab.id_to_token if model.vocab is not None else None,
        "provenance": provenance or {},
        "tensors": {
            name: {"shape": list(arr.shape), "data": arr.ravel().tolist()}
            for name, arr in model.tensors().items()
        },
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(manifest, fh)
        fh.write("\n")


def _tensor(manifest: dict, name: str) -> np.ndarray:
    try:
        entry = manifest["tensors"][name]
        arr = np.array(entry["data"], dtype=np.float64).reshape(entry["shape"])
    except (KeyError, TypeError, ValueError) as exc:
        raise CheckpointError(f"bad or missing tensor {name!r}: {exc}") from None
    if not np.isfinite(arr).all():
        raise CheckpointError(f"tensor {name!r} holds non-finite values")
    return arr


def load_checkpoint(path) -> TaggerModel:
    try:
        with open(path, encoding="utf-8") as fh:
            manifest = json.load(fh)
    except json.JSONDecodeError as exc:
        raise CheckpointError(f"not valid JSON: {exc}") from None
    except UnicodeDecodeError as exc:
        raise CheckpointError(f"{path} is not UTF-8 text ({exc.reason})") from None
    if not isinstance(manifest, dict):
        raise CheckpointError("checkpoint must be a JSON object")
    if manifest.get("format") != CHECKPOINT_FORMAT:
        raise CheckpointError(f"unrecognized format {manifest.get('format')!r}")
    if manifest.get("version") != CHECKPOINT_VERSION:
        raise CheckpointError(f"unsupported version {manifest.get('version')!r}")
    mode = manifest.get("mode")
    if mode not in (MODE_INTERNAL, MODE_EXTERNAL):
        raise CheckpointError(f"unknown mode {mode!r}")

    id_to_tag = manifest.get("tags")
    if not isinstance(id_to_tag, list) or not id_to_tag:
        raise CheckpointError("checkpoint lists no tags")
    meta_tags = manifest.get("meta_tags")
    if meta_tags is not None and not isinstance(meta_tags, dict):
        raise CheckpointError("meta_tags must be null or a tag-to-meta-tag object")
    tags = TagSet(
        tag_to_id={t: i for i, t in enumerate(id_to_tag)},
        id_to_tag=list(id_to_tag),
        meta_tags=meta_tags,
    )

    vocab = None
    if mode == MODE_INTERNAL:
        id_to_token = manifest.get("vocab")
        if not isinstance(id_to_token, list) or not id_to_token:
            raise CheckpointError("internal-mode checkpoint lists no vocab")
        if id_to_token[0] != UNK_TOKEN:
            raise CheckpointError(f"vocab id 0 must be {UNK_TOKEN!r}")
        vocab = Vocab(
            token_to_id={t: i for i, t in enumerate(id_to_token)},
            id_to_token=list(id_to_token),
        )

    try:
        encoder = EncoderParams(*(
            None if f.name == "embedding" and mode == MODE_EXTERNAL
            else _tensor(manifest, f.name) for f in fields(EncoderParams)))
        crf = CrfParams(len(id_to_tag), _tensor(manifest, "crf_transitions"))
    except ValueError as exc:  # covers DimensionError and shape mismatches
        raise CheckpointError(f"inconsistent tensors: {exc}") from None
    return TaggerModel(encoder=encoder, crf=crf, tags=tags, vocab=vocab)
