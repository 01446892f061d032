"""Model bundle (encoder + CRF + vocab/tagset) and its checkpoint format.

A checkpoint is one uncompressed ``.npz`` archive (a zip of ``.npy``
members). Each tensor is a float64 member named as in
``TaggerModel.tensors()``; a ``manifest`` member holds UTF-8 JSON as a uint8
array: format, version, mode, tags, meta_tags, vocab and provenance. The
``.npy`` members store the raw binary64 values, so save followed by load
reproduces parameters bit for bit. The loader never unpickles, and rejects an
archive holding any member it does not expect.
"""

import json
import zipfile
from collections import Counter
from dataclasses import dataclass, fields

import numpy as np

from .crf import CrfParams, viterbi_decode
from .data import UNK_TOKEN, TagSet, Vocab, write_atomically
from .encoder import EncoderParams, forward
from .errors import CheckpointError

CHECKPOINT_FORMAT = "semtagger-checkpoint"
CHECKPOINT_VERSION = 2
MANIFEST = "manifest"  # archive member holding the JSON manifest
ZIP_MAGIC = b"PK\x03\x04"

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
    """Write ``model`` to ``path`` as one ``.npz`` archive, atomically (see
    ``write_atomically``: an interrupted save leaves any previous file at
    ``path`` intact; nothing is fsynced, so power loss is not covered)."""
    manifest = {
        "format": CHECKPOINT_FORMAT,
        "version": CHECKPOINT_VERSION,
        "mode": model.mode,
        "tags": model.tags.id_to_tag,
        "meta_tags": model.tags.meta_tags,
        "vocab": model.vocab.id_to_token if model.vocab is not None else None,
        "provenance": provenance or {},
    }
    members = {MANIFEST: np.frombuffer(json.dumps(manifest).encode("utf-8"),
                                       dtype=np.uint8),
               **model.tensors()}
    # a file handle, not a name, so numpy appends no ".npz" suffix
    write_atomically(path, lambda fh: np.savez(fh, **members))


def _strings(value, what: str) -> list[str]:
    """A non-empty list of distinct strings, or a CheckpointError."""
    if (not isinstance(value, list) or not value
            or not all(isinstance(v, str) for v in value)):
        raise CheckpointError(f"{what} must be a non-empty list of strings")
    if len(set(value)) != len(value):
        raise CheckpointError(f"{what} lists an entry twice")
    return value


def _read_manifest(archive) -> dict:
    raw = archive[MANIFEST]
    if not isinstance(raw, np.ndarray) or raw.dtype != np.uint8 or raw.ndim != 1:
        raise CheckpointError(f"{MANIFEST!r} is not a 1-D uint8 array")
    try:
        manifest = json.loads(raw.tobytes().decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise CheckpointError(f"{MANIFEST!r} is not UTF-8 JSON: {exc}") from None
    if not isinstance(manifest, dict):
        raise CheckpointError(f"{MANIFEST!r} must be a JSON object")
    return manifest


def _tensor(archive, name: str) -> np.ndarray:
    arr = archive[name]
    if not isinstance(arr, np.ndarray) or arr.dtype != np.float64:
        raise CheckpointError(f"tensor {name!r} is not a float64 array")
    if not np.isfinite(arr).all():
        raise CheckpointError(f"tensor {name!r} holds non-finite values")
    return arr


def _check_magic(head: bytes, path) -> None:
    """Refuse anything but a zip archive before numpy reads it: ``np.load``
    would return a bare array for a ``.npy`` file and try to unpickle other
    data."""
    if head == ZIP_MAGIC:
        return
    if head.lstrip().startswith(b"{"):
        raise CheckpointError(
            f"{path} is a version-1 JSON checkpoint; this version reads only "
            f"version-{CHECKPOINT_VERSION} .npz checkpoints")
    raise CheckpointError(f"{path} is not a checkpoint archive (no zip header)")


def _model(archive, path) -> TaggerModel:
    if MANIFEST not in archive.files:
        raise CheckpointError(f"{path} holds no {MANIFEST!r} member")
    # save writes stored members; refusing any other keeps zipfile's
    # decompressors and password path (and their error types) out of reach
    for info in archive.zip.infolist():
        if info.compress_type != zipfile.ZIP_STORED or info.flag_bits & 0x1:
            raise CheckpointError(
                f"member {info.filename!r} is compressed or encrypted")
    manifest = _read_manifest(archive)
    if manifest.get("format") != CHECKPOINT_FORMAT:
        raise CheckpointError(f"unrecognized format {manifest.get('format')!r}")
    if manifest.get("version") != CHECKPOINT_VERSION:
        raise CheckpointError(f"unsupported version {manifest.get('version')!r}")
    mode = manifest.get("mode")
    if mode not in (MODE_INTERNAL, MODE_EXTERNAL):
        raise CheckpointError(f"unknown mode {mode!r}")

    id_to_tag = _strings(manifest.get("tags"), "tags")
    meta_tags = manifest.get("meta_tags")
    if meta_tags is not None and not (
            isinstance(meta_tags, dict)
            and all(isinstance(v, str) for v in meta_tags.values())):
        raise CheckpointError("meta_tags must be null or a tag-to-meta-tag object")
    tags = TagSet(tag_to_id={t: i for i, t in enumerate(id_to_tag)},
                  id_to_tag=id_to_tag, meta_tags=meta_tags)

    vocab = None
    if mode == MODE_INTERNAL:
        id_to_token = _strings(manifest.get("vocab"), "vocab")
        if id_to_token[0] != UNK_TOKEN:
            raise CheckpointError(f"vocab id 0 must be {UNK_TOKEN!r}")
        vocab = Vocab(token_to_id={t: i for i, t in enumerate(id_to_token)},
                      id_to_token=id_to_token)
    elif manifest.get("vocab") is not None:
        raise CheckpointError("an external-mode checkpoint carries no vocab")

    names = [f.name for f in fields(EncoderParams)
             if f.name != "embedding" or mode == MODE_INTERNAL]
    names.append("crf_transitions")
    expected, found = Counter(names + [MANIFEST]), Counter(archive.files)
    if found != expected:
        raise CheckpointError(
            f"{mode}-mode checkpoint members differ: missing "
            f"{sorted(expected - found)}, unexpected "
            f"{sorted((found - expected).elements())}")
    tensors = {name: _tensor(archive, name) for name in names}
    transitions = tensors.pop("crf_transitions")
    try:
        encoder = EncoderParams(**{"embedding": None, **tensors})
        crf = CrfParams(len(id_to_tag), transitions)
    except ValueError as exc:  # covers DimensionError and broken sentinels
        raise CheckpointError(f"inconsistent tensors: {exc}") from None
    return TaggerModel(encoder=encoder, crf=crf, tags=tags, vocab=vocab)


def load_checkpoint(path) -> TaggerModel:
    """Read a checkpoint written by ``save_checkpoint``; anything else, a
    damaged archive included, is a CheckpointError."""
    # np.load gets an open file, not the path: given a path, it leaks the
    # file it opened when the zip directory cannot be read
    with open(path, "rb") as fh:
        _check_magic(fh.read(len(ZIP_MAGIC)), path)
        fh.seek(0)
        try:
            with np.load(fh, allow_pickle=False) as archive:
                return _model(archive, path)
        except CheckpointError:
            raise
        except (OSError, EOFError, NotImplementedError, ValueError,
                zipfile.BadZipFile) as exc:
            raise CheckpointError(f"{path} is a damaged archive: {exc}") from None
