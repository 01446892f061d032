"""Golden-curves regression: a fixed-seed experiment-6 run must reproduce
``tests/data/golden_curves.csv`` line for line, so a refactor or speed-up
cannot change training without this test noticing.

Regenerate the file only when training is meant to change, and say why in
CHANGES.md:

    PYTHONPATH=src python tests/test_golden.py
"""

import sys
import tempfile
from dataclasses import replace
from pathlib import Path

from helpers import make_toy_corpus
from semtagger import experiment_grid, run_experiment, serialize_corpus

GOLDEN = Path(__file__).resolve().parent / "data" / "golden_curves.csv"


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


def test_curves_match_golden_file(tmp_path):
    want = GOLDEN.read_text(encoding="utf-8").splitlines()
    got = golden_run(tmp_path)
    assert len(got) == len(want) == 4
    for line_no, (g, w) in enumerate(zip(got, want), start=1):
        assert g == w, f"curves.csv line {line_no}: got {g!r}, golden {w!r}"


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        lines = golden_run(Path(tmp))
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text("\n".join(lines) + "\n", encoding="utf-8")
    print(f"wrote {GOLDEN}", file=sys.stderr)
