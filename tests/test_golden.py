"""Golden-curves regression: fixed-seed runs must reproduce the files under
``tests/data/`` line for line, so a refactor or speed-up cannot change
training without these tests noticing.

* ``golden_curves.csv``: experiment 6 (token mode, Adam) for 3 epochs.
* ``golden_curves_external.csv``: vector mode, SGD with gradient clipping,
  for 12 epochs, so the learning rate drops after epoch 9 and every epoch
  ends on a partial batch.

Regenerate the files only when training is meant to change, and say why in
CHANGES.md:

    PYTHONPATH=src python tests/test_golden.py
"""

import sys
import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np

from helpers import make_toy_corpus, type_vectors
from semtagger import (EmbeddedSentence, experiment_grid, run_experiment,
                       serialize_context_embeddings, serialize_corpus)

DATA = Path(__file__).resolve().parent / "data"
GOLDEN = DATA / "golden_curves.csv"
GOLDEN_EXTERNAL = DATA / "golden_curves_external.csv"


def golden_run(work: Path) -> list[str]:
    """Experiment 6 (Adam, emb 100, hidden 50, batch 5) for 3 epochs on a
    seeded toy corpus of 5-25-token sentences; returns the curves.csv lines."""
    corpus = work / "corpus.tsv"
    corpus.write_text(serialize_corpus(make_toy_corpus(
        80, vocab_size=400, num_tags=30, seed=2024, min_len=5, max_len=25)),
        encoding="utf-8")
    config = replace(experiment_grid()[6], epochs=3)
    run_experiment(config, corpus=corpus, out_dir=work / "run")
    return (work / "run" / "curves.csv").read_text(encoding="utf-8").splitlines()


def golden_external_run(work: Path) -> list[str]:
    """Experiment 7's optimizer (SGD, batch 5) at emb 6, hidden 4, with
    base_lr 0.1 and clip_norm 1.5 (about half the steps clip), for 12 epochs
    on 24 sentences of 2-9 tokens; the split leaves 22 for training, so each
    epoch ends on a batch of 2. Returns the curves.csv lines."""
    base = make_toy_corpus(24, vocab_size=30, num_tags=5, seed=2025,
                           min_len=2, max_len=9)
    table = type_vectors(30, 6, seed=2026)
    embedded = [EmbeddedSentence(s.tokens, s.tags,
                                 np.vstack([table[int(t[3:])] for t in s.tokens]))
                for s in base]
    vectors = work / "vectors.txt"
    vectors.write_text(serialize_context_embeddings(embedded), encoding="utf-8")
    config = replace(experiment_grid()[7], epochs=12, emb_dim=6, hidden_dim=4,
                     base_lr=0.1, clip_norm=1.5)
    run_experiment(config, embeddings=vectors, out_dir=work / "run")
    return (work / "run" / "curves.csv").read_text(encoding="utf-8").splitlines()


def check_against(path: Path, got: list[str], epochs: int) -> None:
    want = path.read_text(encoding="utf-8").splitlines()
    assert len(got) == len(want) == epochs + 1
    for line_no, (g, w) in enumerate(zip(got, want), start=1):
        assert g == w, f"{path.name} line {line_no}: got {g!r}, golden {w!r}"


def test_curves_match_golden_file(tmp_path):
    check_against(GOLDEN, golden_run(tmp_path), epochs=3)


def test_external_curves_match_golden_file(tmp_path):
    check_against(GOLDEN_EXTERNAL, golden_external_run(tmp_path), epochs=12)


if __name__ == "__main__":
    DATA.mkdir(exist_ok=True)
    for path, run in ((GOLDEN, golden_run), (GOLDEN_EXTERNAL, golden_external_run)):
        with tempfile.TemporaryDirectory() as tmp:
            lines = run(Path(tmp))
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        print(f"wrote {path}", file=sys.stderr)
