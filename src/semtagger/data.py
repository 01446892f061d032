"""Corpus ingestion: TSV parsing, vocab/tagset construction, encoding, splitting,
and the loader for precomputed contextual-embedding files.

Corpus format (two-column TSV):
    one "token<TAB>tag" pair per line; sentences separated by one or more
    blank lines; lines starting with '#' are comments and skipped.

Contextual-embedding format (one file per corpus):
    per sentence, a header line "<num_tokens> <dim>" followed by num_tokens
    lines of "token<TAB>tag<TAB>v1 v2 ... v_dim"; blank line(s) between
    sentences; '#' comment lines are allowed anywhere (useful for recording
    the provenance of the vectors). The vector dimension must be uniform
    across the whole file, and every component finite.

Both serializers refuse a token or tag that would not read back as written:
one that is blank, starts with '#', or holds a TAB, CR or LF; the embedding
serializer also refuses a non-finite component. Files are UTF-8; any other
byte is a ParseError naming the file.

Artifacts (curves, checkpoints) are written with ``write_atomically``, so a
reader never finds a half-written one.
"""

import os
from contextlib import suppress
from dataclasses import dataclass, field
from typing import Iterable, Iterator

import numpy as np

from .errors import (ConfigError, DimensionError, EmptyCorpusError, ParseError,
                     UnknownTagError)

UNK_TOKEN = "<unk>"
UNK_ID = 0


@dataclass
class Sentence:
    tokens: list[str]
    tags: list[str]

    def __post_init__(self):
        if not self.tokens:
            raise DimensionError("sentence must be nonempty")
        if len(self.tokens) != len(self.tags):
            raise DimensionError(
                f"{len(self.tokens)} tokens but {len(self.tags)} tags"
            )

    def __len__(self) -> int:
        return len(self.tokens)


@dataclass
class EmbeddedSentence(Sentence):
    vectors: np.ndarray  # (T, dim)

    def __post_init__(self):
        super().__post_init__()
        self.vectors = np.asarray(self.vectors, dtype=np.float64)
        if self.vectors.shape[0] != len(self.tokens):
            raise DimensionError("tokens, tags and vectors must share one length")


@dataclass
class Vocab:
    """Token <-> dense id bijection with the reserved UNK entry at id 0."""

    token_to_id: dict[str, int]
    id_to_token: list[str]

    def __len__(self) -> int:
        return len(self.id_to_token)

    def lookup(self, token: str) -> int:
        return self.token_to_id.get(token, UNK_ID)


@dataclass
class TagSet:
    """Closed tag inventory; encoding an unseen tag is an error, never UNK."""

    tag_to_id: dict[str, int]
    id_to_tag: list[str]
    meta_tags: dict[str, str] | None = None  # optional semtag -> meta-tag map

    def __len__(self) -> int:
        return len(self.id_to_tag)

    def lookup(self, tag: str) -> int:
        try:
            return self.tag_to_id[tag]
        except KeyError:
            raise UnknownTagError(tag) from None


def _blocks(stream) -> Iterator[tuple[list[tuple[int, str]], int, bool]]:
    """Yield (rows, end, at_eof) for each blank-line-separated block: rows are
    its (line number, line) pairs minus '#' comment lines, and end is the
    number of the blank line that closed it, or of the file's last line when
    the end of the file did (at_eof)."""
    rows: list[tuple[int, str]] = []
    lineno = 0
    for lineno, raw in enumerate(stream, start=1):
        line = raw.rstrip("\r\n")
        if not line.strip():
            if rows:
                yield rows, lineno, False
                rows = []
        elif not line.startswith("#"):
            rows.append((lineno, line))
    if rows:
        yield rows, lineno, True


def _bad_row(lineno: int, line: str, width: int, shape: str):
    """Raise the ParseError for a row that is not `width` TAB-separated fields
    opening with a nonempty token and tag; `shape` opens the field-count one."""
    if line.count("\t") != width - 1:
        raise ParseError(f"{shape} {line!r}", line_number=lineno)
    raise ParseError(f"empty token or tag field in {line!r}", line_number=lineno)


def parse_corpus(text_stream: Iterable[str]) -> list[Sentence]:
    """Parse a two-column TSV stream into sentences, preserving file order."""
    sentences: list[Sentence] = []
    for rows, _, _ in _blocks(text_stream):
        tokens, tags = [], []
        for lineno, line in rows:
            fields = line.split("\t")
            if len(fields) != 2 or not fields[0] or not fields[1]:
                _bad_row(lineno, line, 2, "expected exactly one TAB in")
            tokens.append(fields[0])
            tags.append(fields[1])
        sentences.append(Sentence(tokens=tokens, tags=tags))

    if not sentences:
        raise EmptyCorpusError("corpus contains no sentences")
    return sentences


def _token_tag(token: str, tag: str) -> str:
    """'token<TAB>tag' for a serializer, refusing a field that the parsers
    would not read back as written."""
    for text in (token, tag):
        if (not text.strip() or text.startswith("#")
                or "\t" in text or "\r" in text or "\n" in text):
            raise DimensionError(
                f"cannot write token or tag {text!r}: it is blank, starts "
                "with '#' or holds a TAB, CR or LF")
    return f"{token}\t{tag}"


def serialize_corpus(sentences: Iterable[Sentence]) -> str:
    """Inverse of parse_corpus: blocks of token<TAB>tag lines, blank-line separated."""
    blocks = []
    for s in sentences:
        blocks.append("\n".join(_token_tag(tok, tag)
                                for tok, tag in zip(s.tokens, s.tags)))
    return "\n\n".join(blocks) + "\n"


def _read(path, parse):
    """parse() the file at path as UTF-8 text, naming the file when a byte
    is not UTF-8."""
    with open(path, encoding="utf-8") as fh:
        try:
            return parse(fh)
        except UnicodeDecodeError as exc:
            raise ParseError(f"{path} is not UTF-8 text ({exc.reason})") from None


def write_atomically(path, write) -> None:
    """Call ``write(fh)`` on a new binary file beside ``path``, then move it
    over ``path`` with ``os.replace``.

    A write that raises, or a process killed before the move, leaves ``path``
    as it was; an exception also removes the temporary file. Nothing is
    fsynced, so a power loss can still lose the new file or the old one.
    """
    tmp = f"{os.fspath(path)}.{os.getpid()}.tmp"
    try:
        with open(tmp, "wb") as fh:
            write(fh)
        os.replace(tmp, path)
    except BaseException:
        with suppress(FileNotFoundError):
            os.remove(tmp)
        raise


def read_corpus(path) -> list[Sentence]:
    return _read(path, parse_corpus)


def build_vocab(sentences, min_freq: int = 1) -> tuple[Vocab, TagSet]:
    """Vocab in first-occurrence order with UNK reserved at id 0 (tokens below
    min_freq are dropped and map to UNK at encode time); tags sorted
    lexicographically for stable ids."""
    if not sentences:
        raise EmptyCorpusError("cannot build a vocabulary from zero sentences")
    counts: dict[str, int] = {}
    tag_inventory: set[str] = set()
    for s in sentences:
        for tok in s.tokens:
            counts[tok] = counts.get(tok, 0) + 1
        tag_inventory.update(s.tags)

    id_to_token = [UNK_TOKEN]
    for tok, n in counts.items():  # insertion order = first occurrence
        if n >= min_freq and tok != UNK_TOKEN:
            id_to_token.append(tok)
    vocab = Vocab(
        token_to_id={tok: i for i, tok in enumerate(id_to_token)},
        id_to_token=id_to_token,
    )

    id_to_tag = sorted(tag_inventory)
    tags = TagSet(
        tag_to_id={tag: i for i, tag in enumerate(id_to_tag)},
        id_to_tag=id_to_tag,
    )
    return vocab, tags


def encode(sentence, vocab: Vocab, tags: TagSet) -> tuple[np.ndarray, np.ndarray]:
    """Map one sentence to (token_ids, tag_ids); unknown tokens become UNK,
    unknown tags raise (the tagset is closed)."""
    token_ids = np.array([vocab.lookup(tok) for tok in sentence.tokens], dtype=np.intp)
    tag_ids = encode_tags(sentence.tags, tags)
    return token_ids, tag_ids


def encode_tags(tag_seq: Iterable[str], tags: TagSet) -> np.ndarray:
    return np.array([tags.lookup(t) for t in tag_seq], dtype=np.intp)


def split(sentences: list, val_fraction: float, seed: int) -> tuple[list, list]:
    """Deterministic seeded shuffle, then partition into (train, val).

    When the corpus has at least two sentences the validation side gets at
    least one and at most n-1 of them, so neither side is empty.
    """
    if not 0.0 < val_fraction < 1.0:
        raise ConfigError(f"val_fraction must be in (0, 1), got {val_fraction}")
    n = len(sentences)
    perm = np.random.default_rng(seed).permutation(n)
    n_val = int(round(n * val_fraction))
    if n >= 2:
        n_val = min(max(n_val, 1), n - 1)
    val = [sentences[i] for i in perm[:n_val]]
    train = [sentences[i] for i in perm[n_val:]]
    return train, val


def load_context_embeddings(text_stream: Iterable[str]) -> list[EmbeddedSentence]:
    """Parse a contextual-embedding file (see module docstring for the grammar)."""
    sentences: list[EmbeddedSentence] = []
    for block, end, at_eof in _blocks(text_stream):
        (lineno, line), rows = block[0], block[1:]
        parts = line.split()
        if len(parts) != 2:
            raise ParseError(
                f"expected header '<num_tokens> <dim>', got {line!r}",
                line_number=lineno,
            )
        try:
            count, dim = int(parts[0]), int(parts[1])
        except ValueError:
            raise ParseError(
                f"non-integer sentence header {line!r}", line_number=lineno
            ) from None
        if count < 1 or dim < 1:
            raise ParseError(
                f"header counts must be positive, got {line!r}", line_number=lineno
            )
        if sentences and dim != sentences[0].vectors.shape[1]:
            raise ParseError(f"embedding dim {dim} differs from earlier dim "
                             f"{sentences[0].vectors.shape[1]}", line_number=lineno)

        tokens, tags, vectors = [], [], []
        for lineno, line in rows[:count]:
            fields = line.split("\t")
            if len(fields) != 3 or not fields[0] or not fields[1]:
                _bad_row(lineno, line, 3, "expected 'token<TAB>tag<TAB>values', got")
            try:
                vec = np.array([float(v) for v in fields[2].split()],
                               dtype=np.float64)
            except ValueError:
                raise ParseError(
                    f"non-numeric vector component in {line!r}", line_number=lineno
                ) from None
            if vec.shape[0] != dim:
                raise ParseError(
                    f"vector has {vec.shape[0]} components, header declared {dim}",
                    line_number=lineno,
                )
            if not np.isfinite(vec).all():
                raise ParseError(
                    f"non-finite vector component in {line!r}", line_number=lineno
                )
            tokens.append(fields[0])
            tags.append(fields[1])
            vectors.append(vec)
        if len(rows) > count:
            raise ParseError("expected a blank line between sentences",
                             line_number=rows[count][0])
        if len(rows) < count:
            missing = "file ended with" if at_eof else "unexpected blank line:"
            raise ParseError(
                f"{missing} {count - len(rows)} token line(s) still expected",
                line_number=end,
            )
        sentences.append(EmbeddedSentence(tokens, tags, np.vstack(vectors)))

    if not sentences:
        raise EmptyCorpusError("embedding file contains no sentences")
    return sentences


def serialize_context_embeddings(sentences: Iterable[EmbeddedSentence]) -> str:
    """Inverse of load_context_embeddings; float components round-trip exactly."""
    blocks = []
    for s in sentences:
        if not np.isfinite(s.vectors).all():
            raise DimensionError("cannot write a non-finite vector component")
        lines = [f"{len(s)} {s.vectors.shape[1]}"]
        for tok, tag, vec in zip(s.tokens, s.tags, s.vectors):
            lines.append(_token_tag(tok, tag) + "\t"
                         + " ".join(repr(float(v)) for v in vec))
        blocks.append("\n".join(lines))
    return "\n\n".join(blocks) + "\n"


def read_context_embeddings(path) -> list[EmbeddedSentence]:
    return _read(path, load_context_embeddings)


def load_meta_tags(text_stream: Iterable[str]) -> dict[str, str]:
    """Optional 'semtag<TAB>meta-tag' map; same comment/blank-line rules as TSV."""
    mapping: dict[str, str] = {}
    for rows, _, _ in _blocks(text_stream):
        for lineno, line in rows:
            fields = line.split("\t")
            if len(fields) != 2:
                raise ParseError(f"expected 'semtag<TAB>meta-tag', got {line!r}",
                                 line_number=lineno)
            mapping[fields[0]] = fields[1]
    return mapping


def read_meta_tags(path) -> dict[str, str]:
    return _read(path, load_meta_tags)
