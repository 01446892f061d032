"""Training loop, evaluation, the built-in experiment grid, and curve export.

A batch of size B is B consecutive sentences whose gradients are averaged
before a single optimizer step; a trailing partial batch still steps,
averaged over its own size. The batch runs as one packed pass (no padding,
see ``batch_loss_and_grads``) that adds each sentence's gradients straight
into the trainer's sums, in batch order, so the sums are bit for bit those
of one sentence at a time; the two ``(4H, .)`` LSTM weight sums are added
block by block of ``encoder.ROWS_PER_BLOCK`` gate rows, and no sentence's
dense gradient is made. The step then writes its update into the model's
own tensors and the optimizer state (``optim.sgd_update``,
``optim.adam_update``), so training allocates no new parameters or
moments; rebuilding the CRF after each step re-checks the transitions.
Epoch-level shuffling, parameter init and the train/val split are all seeded,
so a rerun with the same inputs reproduces the curves byte for byte.
"""

import configparser
import logging
import math
import os
import re
from dataclasses import dataclass, replace

import numpy as np

# nll_loss is not called here; it stays bound for code that reaches the CRF
# loss through this module, as perfbench's tracer does (pinned by
# perfbench/test_perfbench.py::test_tracer_wraps_defining_and_imported_names)
from .crf import (_check_emissions, _check_path, _forward, _score_path,
                  _viterbi, init_crf_params, nll_and_grads, nll_loss)
from .data import (_read, build_vocab, encode, encode_tags,
                   read_context_embeddings, read_corpus, read_meta_tags, split,
                   write_atomically)
from .encoder import backward_group, forward_taped, init_params
from .errors import ConfigError, DivergenceError, EmptyCorpusError
from .model import MODE_EXTERNAL, MODE_INTERNAL, TaggerModel, save_checkpoint
from .optim import (OPTIMIZERS, OptimState, adam_update, clip_grads,
                    init_optim_state, lr_at, sgd_update)

logger = logging.getLogger("semtagger")

# Sentences that evaluation packs into one loop at most: bounds the packed
# arrays, which hold a group's whole LSTM state.
GROUP_SIZE = 32


@dataclass
class ExperimentConfig:
    id: int = 0
    optimizer: str = "adam"
    epochs: int = 20
    batch_size: int = 5
    emb_dim: int = 50
    hidden_dim: int = 8
    embedding_mode: str = MODE_INTERNAL
    base_lr: float | None = None  # None -> optimizer default
    seed: int = 1
    clip_norm: float | None = None  # off by default

    def __post_init__(self):
        self.optimizer = self.optimizer.lower()
        if self.optimizer not in OPTIMIZERS:
            raise ConfigError(f"optimizer must be one of {tuple(OPTIMIZERS)}, "
                              f"got {self.optimizer!r}")
        if self.embedding_mode not in (MODE_INTERNAL, MODE_EXTERNAL):
            raise ConfigError(f"embedding_mode must be '{MODE_INTERNAL}' or "
                              f"'{MODE_EXTERNAL}', got {self.embedding_mode!r}")
        for name in ("epochs", "batch_size", "emb_dim", "hidden_dim"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be positive, got {getattr(self, name)}")
        if self.seed < 0:
            raise ConfigError(f"seed must be non-negative, got {self.seed}")
        if self.base_lr is not None and not 0 < self.base_lr < math.inf:
            raise ConfigError(f"base_lr must be positive and finite, got {self.base_lr}")
        if self.clip_norm is not None and not 0 < self.clip_norm < math.inf:
            raise ConfigError(
                f"clip_norm must be positive and finite, got {self.clip_norm}")

    @property
    def effective_lr(self) -> float:
        """base_lr, or the optimizer's default when nothing set it."""
        return OPTIMIZERS[self.optimizer] if self.base_lr is None else self.base_lr


@dataclass
class EpochMetrics:
    epoch: int
    train_loss: float
    train_acc: float
    val_loss: float
    val_acc: float
    lr: float


def experiment_grid() -> dict[int, ExperimentConfig]:
    """The seven built-in experiments (optimizer, batch, emb dim, hidden dim)."""
    rows = {
        1: ("adam", 5, 50, 8, MODE_INTERNAL),
        2: ("adam", 5, 100, 20, MODE_INTERNAL),
        3: ("sgd", 5, 100, 20, MODE_INTERNAL),
        4: ("adam", 20, 100, 20, MODE_INTERNAL),
        5: ("adam", 5, 100, 30, MODE_INTERNAL),
        6: ("adam", 5, 100, 50, MODE_INTERNAL),
        7: ("sgd", 5, 768, 600, MODE_EXTERNAL),
    }
    return {
        n: ExperimentConfig(id=n, optimizer=opt, epochs=20, batch_size=batch,
                            emb_dim=emb, hidden_dim=hid, embedding_mode=mode)
        for n, (opt, batch, emb, hid, mode) in rows.items()
    }


# ExperimentConfig's fields but id: INI value types, in provenance order
SETTINGS = {
    "optimizer": str,
    "epochs": int,
    "batch_size": int,
    "emb_dim": int,
    "hidden_dim": int,
    "embedding_mode": str,
    "base_lr": float,
    "clip_norm": float,
    "seed": int,
}


def load_experiment_configs(path) -> dict[int, ExperimentConfig]:
    """Read '[experiment N]' sections from an INI file into configs.

    Keys omitted from a section fall back to the ExperimentConfig defaults;
    unknown keys, malformed values and repeated ids are config errors.
    """
    parser = configparser.ConfigParser()
    try:
        _read(path, parser.read_file)
    except configparser.Error as exc:
        # configparser puts the file, line number and line on lines of their
        # own; the message keeps them on the one error line
        message = " ".join(part.strip() for part in str(exc).splitlines())
        raise ConfigError(f"bad config file {path}: {message}") from None

    configs: dict[int, ExperimentConfig] = {}
    sections: dict[int, str] = {}
    for section in parser.sections():
        match = re.fullmatch(r"experiment\s+(\d+)", section.strip())
        if not match:
            raise ConfigError(f"unexpected section [{section}]; "
                              "sections must be named 'experiment N'")
        exp_id = int(match.group(1))
        if exp_id in sections:
            raise ConfigError(f"sections [{sections[exp_id]}] and [{section}] "
                              f"both name experiment {exp_id}")
        sections[exp_id] = section
        where = f"{path} [{section}]"
        kwargs = {"id": exp_id}
        for key, raw in parser[section].items():
            if key not in SETTINGS:
                raise ConfigError(f"{where}: unknown key {key!r}")
            try:
                kwargs[key] = SETTINGS[key](raw)
            except ValueError:
                raise ConfigError(
                    f"{where}: bad value {raw!r} for {key!r}") from None
        try:
            configs[exp_id] = ExperimentConfig(**kwargs)
        except ConfigError as exc:
            raise ConfigError(f"{where}: {exc}") from None
    if not configs:
        raise ConfigError(f"no [experiment N] sections found in {path}")
    return configs


def encode_corpus(sentences, vocab, tags) -> list[tuple[np.ndarray, np.ndarray]]:
    return [encode(s, vocab, tags) for s in sentences]


def encode_embedded(sentences, tags) -> list[tuple[np.ndarray, np.ndarray]]:
    return [(s.vectors, encode_tags(s.tags, tags)) for s in sentences]


# what each embedding mode reads: the run_experiment argument (and CLI flag)
# that names its file, and the reader that parses that file
MODE_INPUTS = {MODE_INTERNAL: ("corpus", read_corpus),
               MODE_EXTERNAL: ("embeddings", read_context_embeddings)}


def encode_for(model: TaggerModel, sentences) -> list[tuple[np.ndarray, np.ndarray]]:
    """(encoder input, gold tag ids) per sentence, in the model's mode: vocab
    ids for a model with a vocab, the sentences' own vectors otherwise."""
    if model.vocab is not None:
        return encode_corpus(sentences, model.vocab, model.tags)
    expected = model.encoder.input_dim
    # the loader keeps a file's dim uniform, so the first sentence speaks for all
    if sentences and sentences[0].vectors.shape[1] != expected:
        raise ConfigError(f"embedding file has dim {sentences[0].vectors.shape[1]} "
                          f"but the model takes emb_dim {expected}")
    return encode_embedded(sentences, model.tags)


def build_model(config: ExperimentConfig, vocab, tags) -> TaggerModel:
    """Fresh, seeded parameters for the given experiment configuration; vocab
    is None for a configuration in vector mode."""
    encoder = init_params(None if vocab is None else len(vocab), config.emb_dim,
                          config.hidden_dim, len(tags), seed=config.seed)
    # offset so the CRF draws from a stream distinct from the encoder's
    crf = init_crf_params(len(tags), seed=config.seed + 1)
    return TaggerModel(encoder=encoder, crf=crf, tags=tags, vocab=vocab)


def sentence_loss_and_grads(model: TaggerModel, inputs,
                            gold: np.ndarray) -> tuple[float, dict[str, np.ndarray]]:
    """NLL of one sentence plus gradients for every model tensor."""
    grads = {name: np.zeros_like(p) for name, p in model.tensors().items()}
    (loss,) = batch_loss_and_grads(model, [(inputs, gold)], grads)
    return loss, grads


def batch_loss_and_grads(model: TaggerModel, batch,
                         sums: dict[str, np.ndarray]) -> list[float]:
    """Add the gradients of every ``(inputs, gold)`` in ``batch`` into
    ``sums`` (shaped like ``model.tensors()``), sentence by sentence in batch
    order, from one packed pass over the batch sorted longest first (see
    ``encoder.backward_group``); return the losses in batch order."""
    lanes = sorted(range(len(batch)), key=lambda i: -len(batch[i][0]))
    emissions, tape = forward_taped(model.encoder, [batch[i][0] for i in lanes])
    scored = nll_and_grads(model.crf, emissions, [batch[i][1] for i in lanes])
    order = np.argsort(lanes)  # each sentence's lane, in batch order
    backward_group(model.encoder, tape,
                   [crf_grads.d_emissions for _, crf_grads in scored], sums,
                   order)
    for lane in order:
        sums["crf_transitions"] += scored[lane][1].d_transitions
    return [scored[lane][0] for lane in order]


def _step(model, sums, count, config, opt_state, lr):
    """One optimizer step on the mean of the summed gradients, written into
    the model's tensors and ``opt_state``; ``sums`` is the trainer's own and
    is overwritten."""
    for grad in sums.values():
        grad /= count
    if config.clip_norm is not None:
        clip_grads(sums, config.clip_norm)
    params = model.tensors()
    if config.optimizer == "adam":
        adam_update(params, sums, opt_state, lr)
    else:
        sgd_update(params, sums, lr)
    # rebuilding the CRF re-checks the transitions: a step that wrote a
    # non-finite value raises DivergenceError here
    model.set_tensors(params)


def evaluate(model: TaggerModel, data, meta: bool = False):
    """(mean per-sentence NLL, Viterbi token accuracy) without touching
    params; with ``meta``, a third item from the same decode: the token
    accuracy after rolling tags up to their coarse meta-tags, or None when
    the model carries no meta-tag map. Tags absent from the map stand for
    themselves, i.e. they form singleton meta classes.

    Sentences run in packed groups of at most GROUP_SIZE, longest first
    (ties in data order), each through one encoder and Viterbi loop; every
    loss and path is bit-identical to scoring the sentence alone, and the
    losses are summed in data order, so the result does not depend on the
    grouping.
    """
    if not data:
        raise EmptyCorpusError("cannot evaluate on zero sentences")
    mapping = model.tags.meta_tags if meta else None
    rollup = [mapping.get(t, t) for t in model.tags.id_to_tag] if mapping else None
    losses = [0.0] * len(data)
    correct = meta_correct = tokens = 0
    order = sorted(range(len(data)), key=lambda i: -len(data[i][0]))
    for start in range(0, len(order), GROUP_SIZE):
        group = order[start:start + GROUP_SIZE]
        # each emission matrix is checked once, then scored unchecked
        emissions = [_check_emissions(model.crf, e) for e in forward_taped(
            model.encoder, [data[i][0] for i in group])[0]]
        paths = _viterbi(model.crf, emissions)
        for i, e, path, (_, log_z) in zip(group, emissions, paths,
                                          _forward(model.crf, emissions)):
            gold = _check_path(model.crf, e, data[i][1])
            losses[i] = log_z - _score_path(model.crf, e, gold)
            correct += int(np.sum(path == gold))
            if rollup:
                meta_correct += sum(rollup[p] == rollup[g]
                                    for p, g in zip(path, gold))
            tokens += gold.shape[0]
    loss_sum = 0.0
    for loss in losses:  # a running sum: sum() compensates from Python 3.12
        loss_sum += loss
    scores = loss_sum / len(data), correct / tokens
    if not meta:
        return scores
    return scores + (meta_correct / tokens if rollup else None,)


def train_epoch(model: TaggerModel, train_data, val_data,
                config: ExperimentConfig, epoch_index: int,
                opt_state: OptimState) -> tuple[EpochMetrics, OptimState]:
    """One seeded pass over the training data, then full-set metrics.

    Updates the model's tensors and ``opt_state`` in place; the state
    returned is ``opt_state`` itself. Non-finite scores or parameters raise
    ``DivergenceError`` naming the experiment, the epoch and the batch step
    (or the end-of-epoch evaluation).
    """
    lr = lr_at(config.effective_lr, epoch_index)
    order = np.random.default_rng([config.seed, epoch_index]).permutation(
        len(train_data))

    size = config.batch_size
    batches = -(-len(order) // size)
    # Gradients are added into zeros, never copied in: 0.0 + -0.0 is +0.0, so
    # the sums hold no -0.0, and skipping the embedding rows a sentence does
    # not touch (adding 0.0 to them) leaves every bit as it is.
    sums = {k: np.zeros_like(v) for k, v in model.tensors().items()}
    # A diverging run overflows on its way to a non-finite score. The
    # finiteness checks on emissions and transitions turn that into one
    # DivergenceError, so numpy's warnings would only repeat it.
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            for step in range(batches):
                batch = [train_data[i] for i in order[step * size:(step + 1) * size]]
                batch_loss_and_grads(model, batch, sums)
                _step(model, sums, len(batch), config, opt_state, lr)
                for key in sums:
                    sums[key].fill(0.0)
            del sums  # one model's worth of memory, not needed to evaluate
            step = batches  # past the last batch: evaluating
            train_loss, train_acc = evaluate(model, train_data)
            val_loss, val_acc = evaluate(model, val_data)
    except DivergenceError as exc:
        where = (f"batch step {step + 1} of {batches}" if step < batches
                 else "the end-of-epoch evaluation")
        raise DivergenceError(f"experiment {config.id} diverged in epoch "
                              f"{epoch_index}, {where}: {exc}") from exc
    metrics = EpochMetrics(epoch=epoch_index, train_loss=train_loss,
                           train_acc=train_acc, val_loss=val_loss,
                           val_acc=val_acc, lr=lr)
    return metrics, opt_state


def fit(model: TaggerModel, train_data, val_data,
        config: ExperimentConfig) -> list[EpochMetrics]:
    """Run config.epochs epochs, mutating the model; returns per-epoch metrics."""
    if not train_data:
        raise EmptyCorpusError("cannot train on zero sentences")
    opt_state = init_optim_state(config.optimizer, model.tensors())
    train_tokens = sum(gold.shape[0] for _, gold in train_data)
    history: list[EpochMetrics] = []
    for epoch in range(config.epochs):
        metrics, opt_state = train_epoch(model, train_data, val_data, config,
                                         epoch, opt_state)
        history.append(metrics)
        per_token = metrics.train_loss * len(train_data) / train_tokens
        logger.info(
            "experiment %s epoch %d/%d lr %.3g | train loss %.4f "
            "(%.4f/token) acc %.4f | val loss %.4f acc %.4f",
            config.id, epoch, config.epochs - 1, metrics.lr,
            metrics.train_loss, per_token, metrics.train_acc,
            metrics.val_loss, metrics.val_acc,
        )
    return history


def _fmt(x: float) -> str:
    return format(x, ".6g")


def export_curves(history: list[EpochMetrics], path) -> None:
    """CSV with header epoch,train_loss,train_acc,val_loss,val_acc,lr; floats
    at six significant digits; epochs 0-indexed to match the lr schedule.
    Written atomically (``write_atomically``)."""
    lines = ["epoch,train_loss,train_acc,val_loss,val_acc,lr"]
    for m in history:
        lines.append(",".join([
            str(m.epoch), _fmt(m.train_loss), _fmt(m.train_acc),
            _fmt(m.val_loss), _fmt(m.val_acc), _fmt(m.lr),
        ]))
    text = "\n".join(lines) + "\n"
    write_atomically(path, lambda fh: fh.write(text.encode("utf-8")))


def run_experiment(config: ExperimentConfig, corpus=None, val_corpus=None,
                   embeddings=None, *, val_fraction: float = 0.1,
                   min_freq: int = 1, meta_tags_path=None,
                   out_dir=None) -> list[EpochMetrics]:
    """Load data per the config's embedding mode, train, and optionally write
    curves.csv plus checkpoint.npz under out_dir."""
    internal = config.embedding_mode == MODE_INTERNAL
    name, read = MODE_INPUTS[config.embedding_mode]
    path = {"corpus": corpus, "embeddings": embeddings}[name]
    if path is None:
        raise ConfigError(f"{config.embedding_mode} embedding mode needs {name}")
    if val_corpus is not None and not internal:
        raise ConfigError("a validation corpus needs internal embedding mode; "
                          "external mode splits the embedding file")
    train_s, val_s = ((read(path), read(val_corpus)) if val_corpus is not None
                      else split(read(path), val_fraction, config.seed))
    for side, part in (("training", train_s), ("validation", val_s)):
        if not part:  # only a split of a one-sentence file leaves a side empty
            raise EmptyCorpusError(
                f"the {side} split is empty: {path} "
                "holds one sentence, and a split needs at least two")
    vocab = build_vocab(train_s, min_freq=min_freq)[0] if internal else None
    # close the tagset over train plus val so held-out gold tags encode
    _, tags = build_vocab(train_s + val_s)

    if meta_tags_path is not None:
        tags = replace(tags, meta_tags=read_meta_tags(meta_tags_path))

    model = build_model(config, vocab, tags)
    train_data, val_data = encode_for(model, train_s), encode_for(model, val_s)
    if out_dir is not None:  # before training, so a bad --out costs no epoch
        os.makedirs(out_dir, exist_ok=True)
    history = fit(model, train_data, val_data, config)

    if out_dir is not None:
        export_curves(history, os.path.join(out_dir, "curves.csv"))
        provenance = {"experiment": config.id,
                      **{n: getattr(config, n) for n in SETTINGS},
                      "base_lr": config.effective_lr,  # repeated: keeps its slot
                      "min_freq": min_freq, "val_fraction": val_fraction}
        save_checkpoint(model, os.path.join(out_dir, "checkpoint.npz"),
                        provenance=provenance)
    return history
