"""Workloads, output checks and metrics of the semtagger benchmark.

A run generates its inputs from the seed into a scratch directory, then
drives the package only through its public API. It times one setup, then
repeats rounds (see ``Run``) until ``--seconds`` have passed and at least
``min_rounds`` ran. Setup is the data path of ``trainer.run_experiment`` up
to ``build_model`` for train workloads, and ``load_checkpoint`` plus reading
and encoding the input for exp6-tag. The main operation of a round is one
``train_epoch`` (train workloads) or one pass that tags every input sentence
with ``tag_tokens`` and then calls ``evaluate`` on the same sentences
(exp6-tag).

Every operation is checked, and a failed check counts it as failed (see
``Checks``). End-to-end figures are taken over the last ``min_rounds`` rounds
only, so their sample size does not depend on how fast the program is. With
tracing on, untraced and traced rounds alternate, so ``trace.overhead_share``
compares rounds run under the same machine load.
"""

import gc
import json
import math
import os
import platform
import resource
import shutil
import statistics
import time
from contextlib import nullcontext
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path

import numpy as np
import scipy

import semtagger
from semtagger import data, optim, trainer
from semtagger import model as st_model
from tracer import Tracer, analyse

HERE = Path(__file__).resolve().parent
REFERENCE_FILE = HERE / "reference_curves.json"
REFERENCE_EPOCHS = 3
REFERENCE_SEEDS = range(32)   # seeds whose curves reference_curves.json stores

# Generator recipe of the ROADMAP baseline corpus: token "tok<i>" always
# carries tag "t<i mod 70>", ids drawn uniformly from a 3000-type vocabulary.
VOCAB_TYPES = 3000
NUM_TAGS = 70
MIN_LEN, MAX_LEN = 5, 25
VAL_FRACTION = 0.1
# Setups per round and sentences per evaluate call. Both only multiply the
# samples that setup_s and eval_tok_per_s take the median of; evaluate costs
# the same per token on any number of sentences.
SETUPS_PER_ROUND = 3
EVAL_CHUNK = 10


@dataclass(frozen=True)
class Sizes:
    sentences: int            # corpus sentences (train workloads) or input sentences
    min_rounds: int           # rounds run even past the deadline; figures use the last ones
    tag_calls: int = 0        # train workloads: tag samples that min_rounds guarantee
    vocab_sentences: int = 0  # exp6-tag: corpus the checkpoint's vocab comes from


@dataclass(frozen=True)
class Workload:
    name: str
    experiment: int           # row of trainer.experiment_grid()
    kind: str                 # "train" | "tag"
    sizes: Sizes


# Corpus sizes keep a round to a few seconds. min_rounds is the number of
# rounds every end-to-end figure is taken over: eight rounds of ~2.5 s on the
# exp6 workloads, four of ~14 s on exp7-train, whose 73 MB checkpoint round
# trip alone takes ~9 s. Fewer rounds let the host's speed phases show in the
# figures; with these counts a run outlasts --seconds. 1000 tag samples
# leave a hundred beyond the 90th percentile.
WORKLOADS = {w.name: w for w in (
    Workload("exp6-train", 6, "train", Sizes(
        sentences=120, min_rounds=8, tag_calls=1000)),
    Workload("exp7-train", 7, "train", Sizes(
        sentences=20, min_rounds=4, tag_calls=1000)),
    Workload("exp6-tag", 6, "tag", Sizes(
        sentences=200, min_rounds=8, vocab_sentences=500)),
)}

END_TO_END_UNITS = {
    "setup_s": "s", "tok_per_s": "tokens/s", "eval_tok_per_s": "tokens/s",
    "tag_ms_p50": "ms", "tag_ms_p90": "ms", "checkpoint_save_s": "s",
    "checkpoint_load_s": "s", "peak_rss_mb": "MB",
}
PER_LAYER_UNITS = {
    "crf.nll_loss_s": "s/op", "crf.nll_grad_s": "s/op", "crf.viterbi_s": "s/op",
    "crf.forward_calls_per_sentence": "count",
    "encoder.forward_s": "s/op", "encoder.backward_s": "s/op",
    "encoder.forward_calls_per_sentence": "count",
    "optim.step_s": "s/op", "optim.steps": "count",
    "trainer.self_s": "s/op", "trainer.reeval_s": "s/op",
    "data.parse_s": "s", "data.parse_mb_per_s": "MB/s",
    "model.save_s": "s", "model.load_s": "s", "model.checkpoint_mb": "MB",
    "model.tag_self_s": "s", "trace.overhead_share": "ratio",
}


# ---------------------------------------------------------------- inputs

def make_sentences(n: int, rng: np.random.Generator) -> list[tuple[list[str], list[str]]]:
    """Lengths cycle through MIN_LEN..MAX_LEN in a seeded order, so every seed
    has the same length mix and token count; the seed picks the tokens."""
    lengths = np.resize(np.arange(MIN_LEN, MAX_LEN + 1), n)
    rng.shuffle(lengths)
    out = []
    for length in lengths:
        ids = rng.integers(0, VOCAB_TYPES, size=int(length))
        out.append(([f"tok{i}" for i in ids], [f"t{i % NUM_TAGS}" for i in ids]))
    return out


def write_tsv(path: Path, sentences) -> None:
    blocks = ("\n".join(f"{tok}\t{tag}" for tok, tag in zip(*s)) for s in sentences)
    path.write_text("\n\n".join(blocks) + "\n", encoding="utf-8")


def config_for(workload: Workload, seed: int) -> trainer.ExperimentConfig:
    return replace(trainer.experiment_grid()[workload.experiment], seed=seed)


def make_inputs(workload: Workload, seed: int, work: Path) -> Path:
    """Write the workload's input files; returns the file that setup parses."""
    config = config_for(workload, seed)
    sizes = workload.sizes
    sentences = make_sentences(sizes.sentences, np.random.default_rng([seed, 0]))
    if workload.kind == "tag":
        write_tsv(work / "input.tsv", sentences)
        corpus = [data.Sentence(t, g) for t, g in make_sentences(
            sizes.vocab_sentences, np.random.default_rng([seed, 1]))]
        vocab, _ = data.build_vocab(corpus)
        _, tags = data.build_vocab(corpus + [data.Sentence(t, g) for t, g in sentences])
        st_model.save_checkpoint(trainer.build_model(config, vocab, tags),
                                 work / "model.json")
        return work / "input.tsv"
    if config.embedding_mode == st_model.MODE_EXTERNAL:
        vectors = np.random.default_rng([seed, 2]).normal(size=(VOCAB_TYPES, config.emb_dim))
        embedded = [data.EmbeddedSentence(t, g, vectors[[int(tok[3:]) for tok in t]])
                    for t, g in sentences]
        path = work / "embeddings.txt"
        path.write_text(data.serialize_context_embeddings(embedded), encoding="utf-8")
        return path
    write_tsv(work / "corpus.tsv", sentences)
    return work / "corpus.tsv"


# ---------------------------------------------------------------- setup

@dataclass
class TrainState:
    config: trainer.ExperimentConfig
    model: st_model.TaggerModel
    train_s: list
    val_s: list
    train_data: list
    val_data: list
    opt_state: optim.OptimState | None = None
    history: list = field(default_factory=list)


def setup_train(config, path: Path) -> TrainState:
    """The data path of ``trainer.run_experiment``, up to ``build_model``."""
    if config.embedding_mode == st_model.MODE_EXTERNAL:
        sentences = data.read_context_embeddings(path)
        train_s, val_s = data.split(sentences, VAL_FRACTION, config.seed)
        _, tags = data.build_vocab(train_s + val_s)
        model = trainer.build_model(config, None, tags)
        train_data = trainer.encode_embedded(train_s, tags)
        val_data = trainer.encode_embedded(val_s, tags)
    else:
        sentences = data.read_corpus(path)
        train_s, val_s = data.split(sentences, VAL_FRACTION, config.seed)
        vocab, _ = data.build_vocab(train_s)
        _, tags = data.build_vocab(train_s + val_s)
        model = trainer.build_model(config, vocab, tags)
        train_data = trainer.encode_corpus(train_s, model.vocab, tags)
        val_data = trainer.encode_corpus(val_s, model.vocab, tags)
    return TrainState(config, model, train_s, val_s, train_data, val_data)


@dataclass
class TagState:
    model: st_model.TaggerModel
    sentences: list
    encoded: list


def setup_tag(checkpoint: Path, path: Path) -> TagState:
    model = st_model.load_checkpoint(checkpoint)
    sentences = data.read_corpus(path)
    return TagState(model, sentences, trainer.encode_corpus(sentences, model.vocab, model.tags))


def tag_one(model, sentence) -> list[str]:
    if model.mode == st_model.MODE_EXTERNAL:
        return st_model.tag_vectors(model, sentence.vectors)
    return st_model.tag_tokens(model, sentence.tokens)


def count_correct(predicted, sentences) -> int:
    return sum(p == g for pred, s in zip(predicted, sentences) for p, g in zip(pred, s.tags))


def chunks(items: list) -> list[list]:
    return [items[i:i + EVAL_CHUNK] for i in range(0, len(items), EVAL_CHUNK)]


# ---------------------------------------------------------------- checks

class Checks:
    """Counts checked operations and the ones whose outputs were wrong."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def record(self, what: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failures.append(f"{what}: " + "; ".join(problems))


def finite(**values) -> list[str]:
    return [f"{k} is not finite ({v})" for k, v in values.items() if not math.isfinite(v)]


def round_trip_problems(before: st_model.TaggerModel, after: st_model.TaggerModel) -> list[str]:
    problems = []
    if before.mode != after.mode:
        problems.append("mode differs")
    if before.tags.id_to_tag != after.tags.id_to_tag:
        problems.append("tagset differs")
    if (before.vocab is None) != (after.vocab is None) or (
            before.vocab is not None and before.vocab.id_to_token != after.vocab.id_to_token):
        problems.append("vocab differs")
    a, b = before.tensors(), after.tensors()
    if a.keys() != b.keys():
        problems.append(f"tensor names differ: {sorted(a)} vs {sorted(b)}")
    for name in sorted(a.keys() & b.keys()):
        x, y = a[name], b[name]
        if x.shape != y.shape or x.dtype != y.dtype or x.tobytes() != y.tobytes():
            problems.append(f"tensor {name} is not bit-exact")
    return problems


def load_reference(workload: Workload, seed: int) -> list[str] | None:
    """The stored curves.csv lines, or None for a seed or size without them."""
    refs = json.loads(REFERENCE_FILE.read_text(encoding="utf-8"))
    return refs.get(workload.name, {}).get(str(workload.sizes.sentences), {}).get(str(seed))


# ---------------------------------------------------------------- helpers

def median(values) -> float:
    return float(statistics.median(values))


def percentile(values, q: float) -> float:
    return float(np.percentile(np.asarray(values), q))


def until(seconds: float, min_count: int):
    """Yield indices until the deadline has passed and min_count were yielded."""
    deadline = time.perf_counter() + seconds
    i = 0
    while i < min_count or time.perf_counter() < deadline:
        yield i
        i += 1


class Phase:
    """Times operations, optionally inside a ``bench.<kind>`` span."""

    def __init__(self, tracer: Tracer | None):
        self.tracer = tracer

    def run(self, kind: str, fn, *args):
        with self.tracer.op(kind) if self.tracer else nullcontext():
            start = time.perf_counter()
            out = fn(*args)
            return out, time.perf_counter() - start


# ---------------------------------------------------------------- the run

class Run:
    """One workload run: seeded inputs, a timed first setup, then rounds.

    A round runs every kind of operation, so each metric samples the whole
    run rather than one stretch of it: the main operation (an epoch, or a tag
    pass plus evaluate); for train workloads one ``evaluate`` and enough
    tagging passes over train+val that ``min_rounds`` rounds give
    ``tag_calls`` latency samples; SETUPS_PER_ROUND more setups, whose
    results are discarded; and one checkpoint round trip.
    """

    def __init__(self, workload: Workload, seed: int, seconds: float, trace: bool,
                 work: Path):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.work = work
        self.tracer = Tracer() if trace else None
        self.checks = Checks()
        self.samples: dict[str, list[float]] = {}
        self.round_starts: list[dict[str, int]] = []  # sample counts when each round began
        self.reference_checked = False
        self.input_path: Path | None = None
        self.input_mb = 0.0
        self.checkpoint_mb = 0.0
        self.peak_rss_mb = 0.0
        self.sentences: dict[str, int] = {}

    def sample(self, name: str, value: float) -> None:
        self.samples.setdefault(name, []).append(value)

    # ---- operations

    def setup(self, phase: Phase):
        if self.workload.kind == "tag":
            state, secs = phase.run("setup", setup_tag, self.work / "model.json",
                                    self.input_path)
            tokens = sum(len(s) for s in state.sentences)
        else:
            state, secs = phase.run("setup", setup_train,
                                    config_for(self.workload, self.seed), self.input_path)
            tokens = sum(len(s) for s in state.train_s + state.val_s)
        self.sample("setup_s", secs)
        self.checks.record("setup", [] if tokens > 0 else ["no tokens read"])
        return state

    def epoch(self, state: TrainState, phase: Phase, key: str) -> None:
        if state.opt_state is None:
            state.opt_state = optim.init_optim_state(state.config.optimizer,
                                                     state.model.tensors())
        (metrics, state.opt_state), secs = phase.run(
            "epoch", trainer.train_epoch, state.model, state.train_data,
            state.val_data, state.config, len(state.history), state.opt_state)
        state.history.append(metrics)
        self.sample(key, secs)
        self.sample("tok_per_s", sum(g.shape[0] for _, g in state.train_data) / secs)

    def evaluate_chunks(self, model, encoded) -> tuple[list[float], list[str]]:
        """``trainer.evaluate`` on EVAL_CHUNK sentences at a time; returns each
        chunk's accuracy and any non-finite loss."""
        accs, problems = [], []
        for chunk in chunks(encoded):
            start = time.perf_counter()
            loss, acc = trainer.evaluate(model, chunk)
            secs = time.perf_counter() - start
            self.sample("eval_tok_per_s", sum(g.shape[0] for _, g in chunk) / secs)
            accs.append(acc)
            problems += finite(loss=loss)
        return accs, problems

    def evaluate(self, state: TrainState, phase: Phase) -> list[float]:
        """evaluate over train+val, checked against the epoch just run."""
        encoded = state.train_data + state.val_data
        train_tokens = sum(len(s) for s in state.train_s)
        tokens = train_tokens + sum(len(s) for s in state.val_s)
        last = state.history[-1]
        expected = (round(last.train_acc * train_tokens)
                    + round(last.val_acc * (tokens - train_tokens)))
        with phase.tracer.op("eval") if phase.tracer else nullcontext():
            accs, problems = self.evaluate_chunks(state.model, encoded)
        correct = sum(round(acc * sum(g.shape[0] for _, g in chunk))
                      for acc, chunk in zip(accs, chunks(encoded)))
        if correct != expected:
            problems.append(f"evaluate counts {correct}/{tokens} correct tags, the last "
                            f"epoch's train/val accuracy {expected}/{tokens}")
        self.checks.record("evaluate", problems)
        return accs

    def tag_sentences(self, model, sentences) -> list[list[str]]:
        predicted = []
        for sentence in sentences:
            start = time.perf_counter()
            predicted.append(tag_one(model, sentence))
            self.sample("tag_s", time.perf_counter() - start)
        return predicted

    def check_recount(self, predicted, sentences, accs: list[float],
                      problems: list[str]) -> None:
        """The README contract: tagged output recounts to evaluate's accuracy,
        chunk by chunk as ``evaluate_chunks`` called it."""
        for pred, chunk, acc in zip(chunks(predicted), chunks(sentences), accs, strict=True):
            correct = count_correct(pred, chunk)
            tokens = sum(len(s) for s in chunk)
            if correct / tokens != acc:
                problems.append(f"tags recount to {correct}/{tokens} but evaluate "
                                f"reports accuracy {acc!r}")
        self.checks.record("tag pass", problems)

    def tag_pass(self, state: TagState, phase: Phase, key: str) -> None:
        """exp6-tag main operation: tag every sentence, then evaluate them."""
        tokens = sum(len(s) for s in state.sentences)
        with phase.tracer.op("pass") if phase.tracer else nullcontext():
            start = time.perf_counter()
            predicted = self.tag_sentences(state.model, state.sentences)
            tagged = time.perf_counter()
            accs, problems = self.evaluate_chunks(state.model, state.encoded)
            done = time.perf_counter()
        self.sample(key, done - start)
        self.sample("tok_per_s", tokens / (tagged - start))
        self.check_recount(predicted, state.sentences, accs, problems)

    def checkpoint_round_trip(self, model, phase: Phase) -> None:
        path = self.work / "round_trip.json"
        _, save_s = phase.run("checkpoint", st_model.save_checkpoint, model, path)
        self.checkpoint_mb = path.stat().st_size / 1e6
        loaded, load_s = phase.run("checkpoint", st_model.load_checkpoint, path)
        path.unlink()
        self.sample("checkpoint_save_s", save_s)
        self.sample("checkpoint_load_s", load_s)
        self.checks.record("checkpoint round trip", round_trip_problems(model, loaded))

    # ---- rounds

    def rounds(self, state, min_rounds: int) -> None:
        """Rounds until the deadline; when tracing, every other round is traced."""
        sizes = self.workload.sizes
        train = self.workload.kind == "train"
        if train:
            sentences = state.train_s + state.val_s
            passes = math.ceil(sizes.tag_calls / (sizes.min_rounds * len(sentences)))
        for i in until(self.seconds, min_rounds):
            traced = self.trace and i % 2 == 1
            phase = Phase(self.tracer if traced else None)
            key = "op_s" if not self.trace else "traced_op_s" if traced else "untraced_op_s"
            gc.collect()
            self.round_starts.append({k: len(v) for k, v in self.samples.items()})
            with self.tracer.installed() if traced else nullcontext():
                if train:
                    self.epoch(state, phase, key)
                    accs = self.evaluate(state, phase)
                    for _ in range(passes):
                        predicted, _ = phase.run("tag", self.tag_sentences, state.model,
                                                 sentences)
                        self.check_recount(predicted, sentences, accs, [])
                else:
                    self.tag_pass(state, phase, key)
                for _ in range(SETUPS_PER_ROUND):
                    self.setup(phase)
                self.checkpoint_round_trip(state.model, phase)

    def curves_rows(self, state: TrainState) -> list[str]:
        """The epochs run so far as ``curves.csv`` lines, header first."""
        curves = self.work / "curves.csv"
        trainer.export_curves(state.history, curves)
        return curves.read_text(encoding="utf-8").splitlines()

    def check_epochs(self, state: TrainState) -> None:
        rows = self.curves_rows(state)
        reference = load_reference(self.workload, self.seed)
        self.reference_checked = reference is not None
        for i, m in enumerate(state.history):
            problems = finite(train_loss=m.train_loss, val_loss=m.val_loss)
            if reference is not None and i + 1 < len(reference) and (
                    rows[i + 1] != reference[i + 1]):
                problems.append(f"curves row {rows[i + 1]!r} differs from reference "
                                f"{reference[i + 1]!r}")
            self.checks.record(f"epoch {i}", problems)

    def execute(self) -> None:
        self.input_path = make_inputs(self.workload, self.seed, self.work)
        self.input_mb = self.input_path.stat().st_size / 1e6
        gc.collect()
        with self.tracer.installed() if self.trace else nullcontext():
            state = self.setup(Phase(self.tracer))
        # a traced run needs at least two traced and two untraced rounds
        min_rounds = self.workload.sizes.min_rounds
        self.rounds(state, max(min_rounds, 4) if self.trace else min_rounds)
        if self.workload.kind == "train":
            self.check_epochs(state)
            self.sentences = {"update": len(state.train_s),
                              "evaluate": len(state.train_s) + len(state.val_s), "tag": 0}
        else:
            self.sentences = {"update": 0, "evaluate": len(state.sentences),
                              "tag": len(state.sentences)}
        self.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    # ---- metrics: name -> (value, sample count)

    def window(self, name: str) -> list[float]:
        """The samples of the last ``min_rounds`` rounds: a fixed count, however
        many rounds fit before the deadline."""
        start = self.round_starts[-self.workload.sizes.min_rounds].get(name, 0)
        return self.samples[name][start:]

    def end_to_end(self) -> dict[str, tuple[float, int]]:
        """Medians and latency percentiles over the samples of the last
        ``min_rounds`` rounds (see run.py)."""

        def typical(name):
            values = self.window(name)
            return median(values), len(values)

        tag_s = self.window("tag_s")
        return {
            "setup_s": typical("setup_s"),
            "tok_per_s": typical("tok_per_s"),
            "eval_tok_per_s": typical("eval_tok_per_s"),
            "tag_ms_p50": (percentile(tag_s, 50) * 1e3, len(tag_s)),
            "tag_ms_p90": (percentile(tag_s, 90) * 1e3, len(tag_s)),
            "checkpoint_save_s": typical("checkpoint_save_s"),
            "checkpoint_load_s": typical("checkpoint_load_s"),
            "peak_rss_mb": (self.peak_rss_mb, 1),
        }

    def main_ops(self, ops):
        kind = "epoch" if self.workload.kind == "train" else "pass"
        return [op for op in ops if op.kind == kind]

    def per_layer(self) -> dict[str, tuple[float, int]]:
        ops = analyse(self.tracer.spans)
        main = self.main_ops(ops)

        def per_op(values):
            return median(values), len(main)

        def inclusive(*names):
            return per_op([sum(op.inclusive_s.get(n, 0.0) for n in names) for op in main])

        def calls(*names):
            return per_op([sum(op.calls[n] for n in names) for op in main])

        def calls_per_sentence(*names):
            return per_op([sum(sum(op.calls_by_context[ctx][n] for n in names) / count
                               for ctx, count in self.sentences.items() if count)
                           for op in main])

        def phase_median(kind, *names):
            values = [sum(op.inclusive_s.get(n, 0.0) for n in names)
                      for op in ops if op.kind == kind and any(n in op.calls for n in names)]
            return (median(values), len(values)) if values else (0.0, 0)

        parse_s, n_parse = phase_median("setup", "data.read_corpus",
                                        "data.read_context_embeddings")
        tag_self = [x for op in ops for n in ("model.tag_tokens", "model.tag_vectors")
                    for x in op.self_samples.get(n, [])]
        untraced = self.samples["untraced_op_s"]
        traced = self.samples["traced_op_s"]
        return {
            "crf.nll_loss_s": inclusive("crf.nll_loss"),
            "crf.nll_grad_s": inclusive("crf.nll_grad"),
            "crf.viterbi_s": inclusive("crf.viterbi_decode"),
            "crf.forward_calls_per_sentence": calls_per_sentence("crf.log_partition",
                                                                 "crf.marginals"),
            "encoder.forward_s": inclusive("encoder.forward"),
            "encoder.backward_s": inclusive("encoder.backward"),
            "encoder.forward_calls_per_sentence": calls_per_sentence("encoder.forward"),
            "optim.step_s": inclusive("optim.adam_step", "optim.sgd_step"),
            "optim.steps": calls("optim.adam_step", "optim.sgd_step"),
            "trainer.self_s": per_op([sum(v for n, v in op.self_s.items()
                                          if n.startswith("trainer.")) for op in main]),
            "trainer.reeval_s": inclusive("trainer.evaluate"),
            "data.parse_s": (parse_s, n_parse),
            "data.parse_mb_per_s": (self.input_mb / parse_s, n_parse),
            "model.save_s": phase_median("checkpoint", "model.save_checkpoint"),
            "model.load_s": phase_median("checkpoint", "model.load_checkpoint"),
            "model.checkpoint_mb": (self.checkpoint_mb, 1),
            "model.tag_self_s": (median(tag_self), len(tag_self)),
            "trace.overhead_share": ((median(traced) - median(untraced)) / median(untraced),
                                     len(traced) + len(untraced)),
        }

    def layer_self_s(self) -> dict[str, float]:
        """Mean self time per main operation, summed by layer module."""
        main = self.main_ops(analyse(self.tracer.spans))
        totals: dict[str, float] = {}
        for op in main:
            for layer, secs in op.layer_self_s().items():
                totals[layer] = totals.get(layer, 0.0) + secs / len(main)
        return dict(sorted(totals.items(), key=lambda kv: -kv[1]))


def environment(seed: int) -> dict:
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "semtagger": semtagger.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "threads": {k: v for k, v in sorted(os.environ.items()) if "THREADS" in k},
        "seed": seed,
    }


def run(workload_name: str, seed: int, seconds: float, trace: bool,
        root: Path) -> tuple[dict, dict]:
    """Run one workload; returns (result line, report)."""
    workload = WORKLOADS[workload_name]
    work = root / ".bench_work" / f"{workload_name}-{os.getpid()}"
    out_dir = root / ".bench_out"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    out_dir.mkdir(exist_ok=True)
    r = Run(workload, seed, seconds, trace, work)
    try:
        r.execute()
    finally:
        shutil.rmtree(work, ignore_errors=True)

    if trace:
        metrics, units = r.per_layer(), PER_LAYER_UNITS
    else:
        metrics, units = r.end_to_end(), END_TO_END_UNITS
    failed = len(r.checks.failures)
    result = {
        "correct": failed == 0,
        "attempted": r.checks.attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, (v, _) in metrics.items()},
    }
    report = {
        "workload": workload_name,
        "trace": int(trace),
        "seconds": seconds,
        "sizes": asdict(workload.sizes),
        "environment": environment(seed),
        "sample_counts": {k: n for k, (_, n) in metrics.items()},
        "fail_ratio": failed / r.checks.attempted,
        "reference_checked": r.reference_checked,
        "failures": r.checks.failures,
    }
    if trace:
        report["layer_self_s_per_op"] = r.layer_self_s()
    stem = f"{workload_name}-seed{seed}-trace{int(trace)}"
    record = {"result": result, "report": report, "samples": r.samples}
    (out_dir / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n",
                                          encoding="utf-8")
    if trace:
        with open(out_dir / f"{stem}-spans.jsonl", "w", encoding="utf-8") as fh:
            for span in r.tracer.spans:
                fh.write(json.dumps(span) + "\n")
    return result, report
