"""Command line front end: train, eval, tag, replicate.

Exit codes: 0 on success, 1 for data or model errors (parse failures, unknown
tags, bad checkpoints, I/O problems, running out of memory), 2 for bad
invocations (argparse usage errors).
"""

import argparse
import logging
import os
import sys
from contextlib import ExitStack
from dataclasses import replace

from .errors import DivergenceError, ParseError, SemtaggerError
from .model import (MODE_EXTERNAL, MODE_INTERNAL, load_checkpoint, tag_tokens,
                    tag_vectors)
from .trainer import (OPTIMIZERS, SETTINGS, ExperimentConfig, encode_for,
                      evaluate, load_experiment_configs, run_experiment,
                      experiment_grid)
from .data import (Sentence, read_context_embeddings, read_corpus,
                   serialize_corpus)

logger = logging.getLogger("semtagger")


def _add_data_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--corpus", help="training corpus, two-column TSV")
    p.add_argument("--val-corpus",
                   help="held-out TSV; when absent a seeded split is used")
    p.add_argument("--val-fraction", type=float, default=0.1,
                   help="fraction split off for validation (default 0.1)")
    p.add_argument("--embeddings",
                   help="precomputed contextual-embedding file (external mode)")
    p.add_argument("--min-freq", type=int, default=1,
                   help="tokens rarer than this map to <unk> (default 1)")
    p.add_argument("--meta-tags",
                   help="optional 'semtag<TAB>meta-tag' map for coarse accuracy")


def _add_hyper_flags(p: argparse.ArgumentParser) -> None:
    # default None so explicit flags can be told apart from defaults and
    # override a config selected via --config/--experiment
    p.add_argument("--optimizer", choices=OPTIMIZERS)
    p.add_argument("--lr", dest="base_lr", metavar="LR", type=float,
                   help="base learning rate")
    p.add_argument("--batch-size", type=int)
    p.add_argument("--epochs", type=int)
    p.add_argument("--emb-dim", type=int)
    p.add_argument("--hidden-dim", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--clip-norm", type=float,
                   help="global gradient-norm clip (off when omitted)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="semtagger",
        description="LSTM-CRF semantic tagger: train, evaluate, tag, replicate.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("-q", "--quiet", action="store_true",
                        help="suppress per-epoch progress logging")
    sub = parser.add_subparsers(dest="command", required=True)

    train = sub.add_parser("train", parents=[common],
                           help="train a tagger and write artifacts")
    _add_data_flags(train)
    _add_hyper_flags(train)
    train.add_argument("--config", help="INI file with [experiment N] sections")
    train.add_argument("--experiment", type=int,
                       help="pick a row from --config or the built-in grid")
    train.add_argument("--out", default=".",
                       help="directory for curves.csv and checkpoint.npz")
    train.set_defaults(func=cmd_train, parser=train)

    ev = sub.add_parser("eval", parents=[common],
                        help="score a checkpoint against a gold file")
    ev.add_argument("--checkpoint", required=True)
    ev.add_argument("--corpus", help="gold TSV (token-input models)")
    ev.add_argument("--embeddings", help="gold embedding file (vector models)")
    ev.set_defaults(func=cmd_eval, parser=ev)

    tag = sub.add_parser("tag", parents=[common],
                         help="tag raw text (or embedded sentences)")
    tag.add_argument("--checkpoint", required=True)
    tag.add_argument("--input",
                     help="file of sentences, one per line (default stdin)")
    tag.add_argument("--output", help="where to write TSV (default stdout)")
    tag.add_argument("--embeddings",
                     help="embedding file to tag (vector models)")
    tag.set_defaults(func=cmd_tag, parser=tag)

    rep = sub.add_parser("replicate", parents=[common],
                         help="run the built-in experiment grid end to end")
    _add_data_flags(rep)
    rep.add_argument("--config", help="INI file replacing the built-in grid")
    rep.add_argument("--experiments", default="all",
                     help="comma-separated ids, e.g. '1,3,7' (default all)")
    rep.add_argument("--seed", type=int, help="override every row's seed")
    rep.add_argument("--out", default="replication",
                     help="directory; one subdirectory per experiment")
    rep.set_defaults(func=cmd_replicate, parser=rep)

    return parser


def _grid(args) -> dict[int, ExperimentConfig]:
    return (load_experiment_configs(args.config) if args.config
            else experiment_grid())


def _overrides(args) -> dict:
    return {n: getattr(args, n) for n in SETTINGS
            if getattr(args, n, None) is not None}


def _resolve_train_config(args) -> ExperimentConfig:
    if args.experiment is None:
        if args.config:
            args.parser.error("--config requires --experiment to pick a section")
        base = ExperimentConfig()
    else:
        grid = _grid(args)
        if args.experiment not in grid:
            args.parser.error(f"--experiment must be one of {sorted(grid)}")
        base = grid[args.experiment]

    overrides = _overrides(args)
    if args.embeddings and base.embedding_mode == MODE_INTERNAL:
        overrides["embedding_mode"] = MODE_EXTERNAL
    return replace(base, **overrides) if overrides else base


def cmd_train(args) -> int:
    config = _resolve_train_config(args)
    if config.embedding_mode == MODE_INTERNAL and not args.corpus:
        args.parser.error("--corpus is required in internal embedding mode")
    if config.embedding_mode == MODE_EXTERNAL and not args.embeddings:
        args.parser.error("--embeddings is required in external embedding mode")

    history = run_experiment(
        config, corpus=args.corpus, val_corpus=args.val_corpus,
        embeddings=args.embeddings, val_fraction=args.val_fraction,
        min_freq=args.min_freq, meta_tags_path=args.meta_tags,
        out_dir=args.out,
    )
    last = history[-1]
    print(f"final epoch {last.epoch}: train_acc={last.train_acc:.6g} "
          f"val_acc={last.val_acc:.6g} val_loss={last.val_loss:.6g}")
    print(f"wrote {os.path.join(args.out, 'curves.csv')} and "
          f"{os.path.join(args.out, 'checkpoint.npz')}")
    return 0


def cmd_eval(args) -> int:
    model = load_checkpoint(args.checkpoint)
    if model.mode == MODE_INTERNAL:
        if not args.corpus:
            args.parser.error("this checkpoint takes token input; pass --corpus")
        sentences = read_corpus(args.corpus)
    else:
        if not args.embeddings:
            args.parser.error(
                "this checkpoint takes vector input; pass --embeddings")
        sentences = read_context_embeddings(args.embeddings)
    data = encode_for(model, sentences)
    loss, acc, meta_acc = evaluate(model, data, meta=True)
    print(f"loss={loss:.6g}")
    print(f"accuracy={acc:.6g}")
    if meta_acc is not None:
        print(f"meta_accuracy={meta_acc:.6g}")
    return 0


def cmd_tag(args) -> int:
    model = load_checkpoint(args.checkpoint)
    if model.mode == MODE_EXTERNAL and not args.embeddings:
        args.parser.error("this checkpoint takes vector input; pass --embeddings")
    with ExitStack() as files:
        out = (files.enter_context(open(args.output, "w", encoding="utf-8"))
               if args.output else sys.stdout)
        if model.mode == MODE_EXTERNAL:
            blocks = ((s.tokens, tag_vectors(model, s.vectors))
                      for s in read_context_embeddings(args.embeddings))
        else:
            stream = (files.enter_context(open(args.input, encoding="utf-8"))
                      if args.input else sys.stdin)
            blocks = ((tokens, tag_tokens(model, tokens))
                      for tokens in (line.split() for line in stream) if tokens)
        try:
            for i, (tokens, tags) in enumerate(blocks):
                out.write(("\n" if i else "")
                          + serialize_corpus([Sentence(tokens, tags)]))
        except UnicodeDecodeError as exc:
            raise ParseError(
                f"{args.input or 'stdin'} is not UTF-8 text ({exc.reason})") from None
    return 0


def cmd_replicate(args) -> int:
    grid = _grid(args)
    if args.experiments.strip().lower() == "all":
        ids = sorted(grid)
        explicit = False
    else:
        try:
            ids = [int(x) for x in args.experiments.split(",") if x.strip()]
        except ValueError:
            args.parser.error(f"bad --experiments value {args.experiments!r}")
        if not ids or len(set(ids)) != len(ids):
            args.parser.error("--experiments must list at least one id, each "
                              f"once; got {args.experiments!r}")
        missing = [n for n in ids if n not in grid]
        if missing:
            args.parser.error(f"unknown experiment ids {missing}; "
                              f"available: {sorted(grid)}")
        explicit = True

    needs_corpus = [n for n in ids
                    if grid[n].embedding_mode == MODE_INTERNAL]
    if needs_corpus and not args.corpus:
        args.parser.error(f"experiments {needs_corpus} need --corpus")

    overrides = _overrides(args)
    ran, diverged = False, []
    for n in ids:
        config = replace(grid[n], **overrides)
        if config.embedding_mode == MODE_EXTERNAL and not args.embeddings:
            if explicit:
                args.parser.error(f"experiment {n} needs --embeddings")
            logger.warning("skipping experiment %d: no --embeddings given", n)
            continue
        out_dir = os.path.join(args.out, f"experiment{n}")
        # an external row splits its embedding file; it takes no val corpus
        val_corpus = (args.val_corpus
                      if config.embedding_mode == MODE_INTERNAL else None)
        ran = True
        # a diverged row is a result of the grid: the other rows still run
        try:
            history = run_experiment(
                config, corpus=args.corpus, embeddings=args.embeddings,
                val_corpus=val_corpus, val_fraction=args.val_fraction,
                min_freq=args.min_freq, meta_tags_path=args.meta_tags,
                out_dir=out_dir,
            )
        except DivergenceError as exc:
            diverged.append(str(exc))
            continue
        c, m = grid[n], history[-1]
        print(f"experiment {n}: optimizer={c.optimizer} batch={c.batch_size} "
              f"emb_dim={c.emb_dim} hidden_dim={c.hidden_dim} "
              f"val_acc={m.val_acc:.6g} val_loss={m.val_loss:.6g}", flush=True)
    if diverged:
        raise DivergenceError("; ".join(diverged))
    if not ran:
        print("no experiments were run")
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    logging.basicConfig(
        level=logging.WARNING if args.quiet else logging.INFO,
        format="%(message)s",
    )
    try:
        return args.func(args)
    except (SemtaggerError, OSError, MemoryError) as exc:
        message = str(exc)
        if isinstance(exc, MemoryError):  # numpy's message names the array
            message = f"out of memory ({message})" if message else "out of memory"
        print(f"error: {message}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
