"""Check that two source trees train byte for byte alike.

    mkdir ../parent && git archive <commit> | tar -x -C ../parent
    python3 tools/bitcheck.py ../parent/src

Runs the two golden runs of ``tests/test_golden.py`` (``golden_run`` and
``golden_external_run``) and ``exp7_run`` once on this repository's ``src``
and once on the given ``src`` directory, each tree in its own subprocess,
and compares the ``curves.csv`` and ``checkpoint.npz`` they write. Both
sides use this repository's test definitions. ``exp7_run`` trains the
experiment-7 shape (768-dim vectors, hidden 600, SGD, batch 5) for one epoch
on 10 sentences: the Tier-1 tests stay at dims of 8 and below, and a BLAS
kernel may group the rows of a 600-wide product differently from a small
one.

Evaluation writes no checkpoint and ``curves.csv`` rounds to six digits, so
each child also scores the run's input file with the checkpoint it trained:
``evaluate`` on 10 sentences at a time, one line per call with the
``float.hex`` of the loss and the accuracy, then one line per sentence with
its ``tag_tokens`` (token mode) or ``tag_vectors`` (vector mode) path. These
lines go to ``eval.txt``.

For each run and file it prints a mismatch count: the lines of
``curves.csv`` or ``eval.txt`` that differ, and the archive members of
``checkpoint.npz`` whose bytes differ (1 if only the archive's own bytes do).
Exits 0 when every count is 0 and 1 otherwise. BLAS runs on one thread in
both children, so the two sides do the same arithmetic on one host.
"""

import argparse
import os
import subprocess
import sys
import tempfile
import zipfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
RUNS = ("golden_run", "golden_external_run", "exp7_run")
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# Writes each run's files under <work>/<run name>/run/, and eval.txt beside
# them. Uses only names the package has exported since the golden runs were
# added, so an older tree runs it too.
CHILD = """
import sys
from dataclasses import replace
from pathlib import Path
sys.path.insert(0, sys.argv[1])
import test_golden
from helpers import make_toy_corpus, type_vectors
from semtagger import (EmbeddedSentence, evaluate, experiment_grid,
                       load_checkpoint, read_context_embeddings, read_corpus,
                       run_experiment, serialize_context_embeddings,
                       tag_tokens, tag_vectors)
from semtagger.trainer import encode_for


def exp7_run(work):
    # 11 sentences of 5-25 tokens; the split leaves 10 for training
    base = make_toy_corpus(11, vocab_size=60, num_tags=8, seed=2027,
                           min_len=5, max_len=25)
    table = type_vectors(60, 768, seed=2028)
    embedded = [EmbeddedSentence(s.tokens, s.tags,
                                 table[[int(t[3:]) for t in s.tokens]])
                for s in base]
    vectors = work / "vectors.txt"
    vectors.write_text(serialize_context_embeddings(embedded), encoding="utf-8")
    run_experiment(replace(experiment_grid()[7], epochs=1), embeddings=vectors,
                   out_dir=work / "run")


work = Path(sys.argv[2])
for name in sys.argv[3:]:
    (work / name).mkdir()
    (getattr(test_golden, name, None) or globals()[name])(work / name)
    run = work / name / "run"
    model = load_checkpoint(run / "checkpoint.npz")
    if model.vocab is not None:
        sentences = read_corpus(work / name / "corpus.tsv")
        tags = [tag_tokens(model, s.tokens) for s in sentences]
    else:
        sentences = read_context_embeddings(work / name / "vectors.txt")
        tags = [tag_vectors(model, s.vectors) for s in sentences]
    data = encode_for(model, sentences)
    lines = [" ".join(float(v).hex() for v in evaluate(model, data[i:i + 10]))
             for i in range(0, len(data), 10)]
    lines += [" ".join(path) for path in tags]
    (run / "eval.txt").write_text("\\n".join(lines) + "\\n", encoding="utf-8")
"""


def run_tree(src: Path, work: Path) -> None:
    env = dict(os.environ, PYTHONPATH=str(src),
               **{var: "1" for var in THREAD_VARS})
    subprocess.run([sys.executable, "-c", CHILD, str(ROOT / "tests"),
                    str(work), *RUNS], env=env, check=True)


def lines_mismatches(a: Path, b: Path) -> int:
    lines_a = a.read_bytes().splitlines()
    lines_b = b.read_bytes().splitlines()
    return (sum(x != y for x, y in zip(lines_a, lines_b))
            + abs(len(lines_a) - len(lines_b)))


def checkpoint_mismatches(a: Path, b: Path) -> int:
    with zipfile.ZipFile(a) as za, zipfile.ZipFile(b) as zb:
        names_a, names_b = set(za.namelist()), set(zb.namelist())
        members = len(names_a ^ names_b) + sum(
            za.read(name) != zb.read(name) for name in names_a & names_b)
    return members or int(a.read_bytes() != b.read_bytes())


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("other_src",
                        help="the src directory of the tree to compare with")
    args = parser.parse_args(argv)
    other = Path(args.other_src).resolve()
    if not (other / "semtagger").is_dir():
        parser.error(f"{other} holds no semtagger package")

    total = 0
    with tempfile.TemporaryDirectory() as tmp:
        here, there = Path(tmp, "here"), Path(tmp, "there")
        for src, work in ((ROOT / "src", here), (other, there)):
            work.mkdir()
            run_tree(src, work)
        for name in RUNS:
            for file, compare in (("curves.csv", lines_mismatches),
                                  ("checkpoint.npz", checkpoint_mismatches),
                                  ("eval.txt", lines_mismatches)):
                count = compare(here / name / "run" / file,
                                there / name / "run" / file)
                total += count
                print(f"{name:<20} {file:<15} {count} mismatches")
    return 1 if total else 0


if __name__ == "__main__":
    sys.exit(main())
