"""Command line behavior: workflows, outputs, and exit codes."""

import io
import json
import logging
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import semtagger
from helpers import make_toy_corpus, type_vectors
from semtagger import (
    encode_corpus,
    evaluate,
    load_checkpoint,
    read_corpus,
    serialize_context_embeddings,
    serialize_corpus,
)
from semtagger.cli import main
from semtagger import trainer as trainer_module
from semtagger.data import EmbeddedSentence
from semtagger.trainer import SETTINGS


@pytest.fixture()
def corpus_file(tmp_path):
    path = tmp_path / "corpus.tsv"
    path.write_text(serialize_corpus(
        make_toy_corpus(30, vocab_size=8, num_tags=3, seed=11)))
    return path


def train_args(corpus, out, extra=()):
    return ["train", "--corpus", str(corpus), "--out", str(out),
            "--epochs", "2", "--emb-dim", "6", "--hidden-dim", "4",
            "--seed", "5", *extra]


def test_train_eval_tag_round_trip(tmp_path, corpus_file, capsys):
    out = tmp_path / "run"
    assert main(train_args(corpus_file, out)) == 0
    stdout = capsys.readouterr().out
    assert "final epoch 1" in stdout
    assert (out / "curves.csv").exists()
    assert (out / "checkpoint.npz").exists()

    assert main(["eval", "--checkpoint", str(out / "checkpoint.npz"),
                 "--corpus", str(corpus_file)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("loss=")
    assert lines[1].startswith("accuracy=")
    acc = float(lines[1].split("=")[1])
    assert 0.0 <= acc <= 1.0

    raw = tmp_path / "raw.txt"
    raw.write_text("tok1 tok2 tok3\n\ntok4 tok5\n")
    tagged = tmp_path / "tagged.tsv"
    assert main(["tag", "--checkpoint", str(out / "checkpoint.npz"),
                 "--input", str(raw), "--output", str(tagged)]) == 0
    blocks = tagged.read_text().strip().split("\n\n")
    assert len(blocks) == 2
    first = [line.split("\t") for line in blocks[0].splitlines()]
    assert [tok for tok, _ in first] == ["tok1", "tok2", "tok3"]
    assert all(tag.startswith("t") for _, tag in first)


def test_tag_reads_stdin_writes_stdout(tmp_path, corpus_file, capsys,
                                       monkeypatch):
    out = tmp_path / "run"
    main(train_args(corpus_file, out))
    capsys.readouterr()
    monkeypatch.setattr("sys.stdin", io.StringIO("tok1 tok9000\n"))
    assert main(["tag", "--checkpoint", str(out / "checkpoint.npz")]) == 0
    got = capsys.readouterr().out
    rows = [line.split("\t") for line in got.strip().splitlines()]
    assert [tok for tok, _ in rows] == ["tok1", "tok9000"]  # unknown word ok


def test_tag_empty_input_gives_empty_output(tmp_path, corpus_file, capsys,
                                            monkeypatch):
    out = tmp_path / "run"
    main(train_args(corpus_file, out))
    capsys.readouterr()
    monkeypatch.setattr("sys.stdin", io.StringIO(""))
    assert main(["tag", "--checkpoint", str(out / "checkpoint.npz")]) == 0
    assert capsys.readouterr().out == ""


def test_tag_output_recount_matches_evaluate(tmp_path, corpus_file, capsys):
    # Independent recount: accuracy from diffing the tag command's output
    # against gold must equal what evaluate() reports.
    out = tmp_path / "run"
    main(train_args(corpus_file, out))

    gold = read_corpus(corpus_file)
    raw = tmp_path / "raw.txt"
    raw.write_text("".join(" ".join(s.tokens) + "\n" for s in gold))
    tagged = tmp_path / "tagged.tsv"
    assert main(["tag", "--checkpoint", str(out / "checkpoint.npz"),
                 "--input", str(raw), "--output", str(tagged)]) == 0

    predicted = read_corpus(tagged)
    matches = total = 0
    for gold_sent, pred_sent in zip(gold, predicted, strict=True):
        assert pred_sent.tokens == gold_sent.tokens
        matches += sum(p == g for p, g in zip(pred_sent.tags, gold_sent.tags))
        total += len(gold_sent.tags)

    model = load_checkpoint(out / "checkpoint.npz")
    data = encode_corpus(gold, model.vocab, model.tags)
    _, accuracy = evaluate(model, data)
    assert matches / total == accuracy
    capsys.readouterr()


def test_train_is_deterministic_across_runs(tmp_path, corpus_file):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(train_args(corpus_file, out_a)) == 0
    assert main(train_args(corpus_file, out_b)) == 0
    assert (out_a / "curves.csv").read_bytes() == \
        (out_b / "curves.csv").read_bytes()


def test_missing_corpus_is_usage_error(tmp_path):
    with pytest.raises(SystemExit) as err:
        main(["train", "--out", str(tmp_path)])
    assert err.value.code == 2


def test_config_without_experiment_is_usage_error(tmp_path, corpus_file):
    ini = tmp_path / "grid.ini"
    ini.write_text("[experiment 1]\nepochs = 1\n")
    with pytest.raises(SystemExit) as err:
        main(["train", "--corpus", str(corpus_file), "--config", str(ini)])
    assert err.value.code == 2


@pytest.mark.parametrize("with_config", [False, True], ids=["grid", "config"])
def test_unknown_grid_experiment_is_usage_error(corpus_file, tmp_path,
                                                with_config):
    extra = ["--experiment", "9"]
    if with_config:
        ini = tmp_path / "grid.ini"
        ini.write_text("[experiment 1]\nepochs = 1\n")
        extra += ["--config", str(ini)]
    with pytest.raises(SystemExit) as err:
        main(train_args(corpus_file, tmp_path / "run", extra=extra))
    assert err.value.code == 2
    assert not (tmp_path / "run").exists()


def test_bad_corpus_exits_one(tmp_path, capsys):
    bad = tmp_path / "bad.tsv"
    bad.write_text("no tab here\n")
    code = main(["train", "--corpus", str(bad), "--out", str(tmp_path / "o"),
                 "--epochs", "1"])
    assert code == 1
    assert "error: line 1" in capsys.readouterr().err


def test_one_sentence_file_is_rejected_before_training(tmp_path, capsys):
    corpus = tmp_path / "one.tsv"
    corpus.write_text("a\tX\nb\tY\n")
    vectors = tmp_path / "one.txt"
    vectors.write_text("2 3\na\tX\t1 2 3\nb\tY\t0 0 1\n")
    for source in (["--corpus", str(corpus)],
                   ["--embeddings", str(vectors), "--emb-dim", "3"]):
        out = tmp_path / source[0].lstrip("-")
        code = main(["train", *source, "--out", str(out), "--epochs", "2",
                     "--hidden-dim", "2"])
        assert code == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert err == [f"error: the validation split is empty: {source[1]} "
                       "holds one sentence, and a split needs at least two"]
        assert not (out / "curves.csv").exists()


def test_missing_file_exits_one(tmp_path, capsys):
    code = main(["train", "--corpus", str(tmp_path / "nope.tsv"),
                 "--out", str(tmp_path / "o"), "--epochs", "1"])
    assert code == 1
    assert "error:" in capsys.readouterr().err


def test_eval_with_unseen_tag_exits_one(tmp_path, corpus_file, capsys):
    out = tmp_path / "run"
    main(train_args(corpus_file, out))
    gold = tmp_path / "gold.tsv"
    gold.write_text("tok1\tBRAND-NEW\n")
    code = main(["eval", "--checkpoint", str(out / "checkpoint.npz"),
                 "--corpus", str(gold)])
    assert code == 1
    assert "BRAND-NEW" in capsys.readouterr().err


def test_eval_input_kind_mismatch_is_usage_error(tmp_path, corpus_file):
    out = tmp_path / "run"
    main(train_args(corpus_file, out))
    with pytest.raises(SystemExit) as err:
        main(["eval", "--checkpoint", str(out / "checkpoint.npz")])
    assert err.value.code == 2


def test_config_file_selects_experiment(tmp_path, corpus_file, capsys):
    ini = tmp_path / "grid.ini"
    ini.write_text(
        "[experiment 2]\n"
        "optimizer = sgd\nepochs = 1\nemb_dim = 5\nhidden_dim = 3\n")
    out = tmp_path / "cfg_run"
    code = main(["train", "--corpus", str(corpus_file), "--config", str(ini),
                 "--experiment", "2", "--out", str(out)])
    assert code == 0
    assert "final epoch 0" in capsys.readouterr().out


def test_flags_override_selected_config(tmp_path, corpus_file):
    ini = tmp_path / "grid.ini"
    ini.write_text("[experiment 1]\nepochs = 9\nemb_dim = 5\nhidden_dim = 3\n")
    out = tmp_path / "o"
    code = main(["train", "--corpus", str(corpus_file), "--config", str(ini),
                 "--experiment", "1", "--epochs", "1", "--out", str(out)])
    assert code == 0
    curves = (out / "curves.csv").read_text().splitlines()
    assert len(curves) == 2  # header + the single overridden epoch


def provenance(checkpoint) -> dict:
    with np.load(checkpoint) as archive:
        return json.loads(archive["manifest"].tobytes())["provenance"]


def test_every_setting_flag_overrides_a_config_row(tmp_path, corpus_file):
    ini = tmp_path / "grid.ini"
    ini.write_text(
        "[experiment 1]\noptimizer = sgd\nepochs = 3\nbatch_size = 2\n"
        "emb_dim = 5\nhidden_dim = 3\nbase_lr = 0.05\nclip_norm = 2.0\n"
        "seed = 4\n")
    flags = {"optimizer": "adam", "epochs": 1, "batch_size": 3, "emb_dim": 4,
             "hidden_dim": 2, "base_lr": 0.002, "clip_norm": 0.5, "seed": 6}
    # embedding_mode follows from --embeddings; every other setting has a flag
    assert set(flags) == set(SETTINGS) - {"embedding_mode"}
    argv = ["train", "--corpus", str(corpus_file), "--config", str(ini),
            "--experiment", "1", "--out", str(tmp_path / "run")]
    for name, value in flags.items():
        flag = "--lr" if name == "base_lr" else "--" + name.replace("_", "-")
        argv += [flag, str(value)]
    assert main(argv) == 0
    got = provenance(tmp_path / "run" / "checkpoint.npz")
    assert {name: got[name] for name in flags} == flags


@pytest.mark.parametrize("extra, lr", [
    (["--optimizer", "sgd"], 0.01),
    (["--experiment", "3", "--optimizer", "adam"], 0.001),
], ids=["sgd", "experiment3-adam"])
def test_optimizer_flag_runs_that_optimizers_default_lr(tmp_path, corpus_file,
                                                        extra, lr):
    out = tmp_path / "run"
    assert main(train_args(corpus_file, out, extra=extra)) == 0
    assert provenance(out / "checkpoint.npz")["base_lr"] == lr
    rows = (out / "curves.csv").read_text().splitlines()[1:]
    assert [float(row.split(",")[5]) for row in rows] == [lr, lr]


def test_a_set_lr_survives_an_optimizer_override(tmp_path, corpus_file):
    ini = tmp_path / "grid.ini"
    ini.write_text("[experiment 1]\noptimizer = sgd\nbase_lr = 0.05\n")
    out = tmp_path / "run"
    assert main(train_args(corpus_file, out, extra=[
        "--config", str(ini), "--experiment", "1", "--optimizer", "adam"])) == 0
    got = provenance(out / "checkpoint.npz")
    assert (got["optimizer"], got["base_lr"]) == ("adam", 0.05)


def test_replicate_seed_overrides_every_row(tmp_path, corpus_file):
    ini = tmp_path / "grid.ini"
    ini.write_text("[experiment 1]\nepochs = 1\nemb_dim = 4\nhidden_dim = 3\n"
                   "seed = 2\n")
    out = tmp_path / "rep"
    assert main(["replicate", "--corpus", str(corpus_file), "--config",
                 str(ini), "--experiments", "1", "--seed", "7",
                 "--out", str(out)]) == 0
    assert provenance(out / "experiment1" / "checkpoint.npz")["seed"] == 7


@pytest.mark.parametrize("command", ["train", "replicate", "config"])
def test_negative_seed_exits_one(tmp_path, corpus_file, capsys, command):
    ini = tmp_path / "grid.ini"
    ini.write_text("[experiment 1]\nepochs = 1\nemb_dim = 4\nhidden_dim = 3\n"
                   + ("seed = -5\n" if command == "config" else ""))
    out = tmp_path / "run"
    argv, seed = {
        "train": (train_args(corpus_file, out, extra=["--seed", "-1"]), -1),
        "replicate": (["replicate", "--corpus", str(corpus_file), "--config",
                       str(ini), "--seed", "-2", "--out", str(out)], -2),
        "config": (["train", "--corpus", str(corpus_file), "--config",
                    str(ini), "--experiment", "1", "--out", str(out)], -5),
    }[command]
    assert main(argv) == 1
    err = capsys.readouterr().err.strip().splitlines()
    # a value read from the INI file names the file and its section
    where = f"{ini} [experiment 1]: " if command == "config" else ""
    assert err == [f"error: {where}seed must be non-negative, got {seed}"]
    assert not out.exists()


@pytest.mark.parametrize("line, message", [
    ("epochs = 0", "epochs must be positive, got 0"),
    ("epoch = 3", "unknown key 'epoch'"),
    ("epochs = two", "bad value 'two' for 'epochs'"),
], ids=["out-of-range", "unknown-key", "unparsed"])
def test_a_bad_row_names_its_file_and_section(tmp_path, corpus_file, capsys,
                                              line, message):
    # every section is built, so a bad row stops a run that selects another
    ini = tmp_path / "g.ini"
    ini.write_text(f"[experiment 1]\nepochs = 1\n\n[experiment 2]\n{line}\n")
    out = tmp_path / "run"
    assert main(["train", "--corpus", str(corpus_file), "--config", str(ini),
                 "--experiment", "1", "--out", str(out)]) == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert err == [f"error: {ini} [experiment 2]: {message}"]
    assert not out.exists()


@pytest.mark.parametrize("text, where", [
    ("tok3\tt0\n", "line: 1"),
    ("[experiment 1]\n  continues nothing\n", "[line  2]"),
    ("[experiment 1]\nepochs = 1\nepochs = 2\n", "[line  3]"),
], ids=["no-section-header", "bad-continuation", "repeated-option"])
def test_a_malformed_ini_is_one_error_line(tmp_path, corpus_file, capsys,
                                           text, where):
    ini = tmp_path / "g.ini"
    ini.write_text(text)
    out = tmp_path / "run"
    assert main(["train", "--corpus", str(corpus_file), "--config", str(ini),
                 "--experiment", "1", "--out", str(out)]) == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1
    assert err[0].startswith(f"error: bad config file {ini}: ")
    assert where in err[0] and f"'{ini}'" in err[0]
    assert not out.exists()


def external_fixture(tmp_path, dim=6):
    base = make_toy_corpus(20, vocab_size=7, num_tags=3, seed=12,
                           min_len=2, max_len=4)
    table = type_vectors(7, dim, seed=13)
    embedded = [EmbeddedSentence(
        s.tokens, s.tags,
        np.vstack([table[int(tok[3:])] for tok in s.tokens])) for s in base]
    path = tmp_path / "vectors.txt"
    path.write_text(serialize_context_embeddings(embedded))
    return path


def test_external_train_eval_tag(tmp_path, capsys):
    emb = external_fixture(tmp_path)
    out = tmp_path / "ext"
    code = main(["train", "--embeddings", str(emb), "--out", str(out),
                 "--epochs", "1", "--emb-dim", "6", "--hidden-dim", "4",
                 "--optimizer", "sgd", "--seed", "2"])
    assert code == 0
    capsys.readouterr()

    assert main(["eval", "--checkpoint", str(out / "checkpoint.npz"),
                 "--embeddings", str(emb)]) == 0
    assert "accuracy=" in capsys.readouterr().out

    assert main(["tag", "--checkpoint", str(out / "checkpoint.npz"),
                 "--embeddings", str(emb)]) == 0
    tagged = capsys.readouterr().out
    assert tagged.count("\t") > 0

    other = tmp_path / "dim5"
    other.mkdir()
    assert main(["eval", "--checkpoint", str(out / "checkpoint.npz"),
                 "--embeddings", str(external_fixture(other, dim=5))]) == 1
    err = capsys.readouterr().err
    errors = [line for line in err.splitlines() if line.startswith("error:")]
    assert len(errors) == 1, err
    assert "embedding file has dim 5" in errors[0] and "emb_dim 6" in errors[0]


EXTERNAL_ROW = ("[experiment 7]\noptimizer = sgd\nepochs = 1\nemb_dim = 6\n"
                "hidden_dim = 3\nembedding_mode = external\n")


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    """A token-input and a vector-input checkpoint, the files they read, and
    a two-row INI (an internal row 1, an external row 7)."""
    root = tmp_path_factory.mktemp("trained")
    files = {"corpus": root / "corpus.tsv", "vectors": external_fixture(root),
             "ini": root / "grid.ini", "token": root / "token" / "checkpoint.npz",
             "vector": root / "vector" / "checkpoint.npz"}
    files["corpus"].write_text(serialize_corpus(
        make_toy_corpus(30, vocab_size=8, num_tags=3, seed=11)))
    files["ini"].write_text(
        "[experiment 1]\nepochs = 1\nemb_dim = 4\nhidden_dim = 3\n" + EXTERNAL_ROW)
    assert main(train_args(files["corpus"], root / "token")) == 0
    assert main(["train", "--embeddings", str(files["vectors"]), "--out",
                 str(root / "vector"), "--epochs", "1", "--emb-dim", "6",
                 "--hidden-dim", "4", "--optimizer", "sgd", "--seed", "2"]) == 0
    return files


@pytest.mark.parametrize("argv, flag", [
    ("train --corpus {corpus} --config {ini} --experiment 7 --out {out}",
     "--embeddings"),
    ("eval --checkpoint {vector} --corpus {corpus}", "--embeddings"),
    ("tag --checkpoint {vector} --input {corpus}", "--embeddings"),
    ("tag --checkpoint {token} --embeddings {vectors}", "--input"),
    ("replicate --corpus {corpus} --experiments 1,x --out {out}",
     "--experiments"),
    ("replicate --config {ini} --embeddings {vectors} --out {out}", "--corpus"),
], ids=["train-external-row", "eval-vector-model", "tag-vector-model",
        "tag-token-model", "replicate-bad-id", "replicate-no-corpus"])
def test_a_wrong_input_flag_is_a_usage_error_naming_the_flag(
        trained, tmp_path, capsys, argv, flag):
    files = {**trained, "out": tmp_path / "out"}
    with pytest.raises(SystemExit) as err:
        main([arg.format(**files) for arg in argv.split()])
    assert err.value.code == 2
    captured = capsys.readouterr()
    assert flag in captured.err.splitlines()[-1], captured.err
    assert captured.out == ""
    assert not files["out"].exists()


@pytest.mark.parametrize("case", ["missing-input", "comment-token",
                                  "wrong-dim-vectors"])
def test_a_failed_tag_leaves_the_previous_output_file(trained, tmp_path,
                                                      capsys, case):
    source = tmp_path / "raw.txt"
    if case == "comment-token":
        source.write_text("tok1 tok2\n#x tok3\n")
    flags = ["--checkpoint", str(trained["token"]), "--input", str(source)]
    if case == "wrong-dim-vectors":
        flags = ["--checkpoint", str(trained["vector"]), "--embeddings",
                 str(external_fixture(tmp_path, dim=5))]
    output = tmp_path / "keep.tsv"
    output.write_text("tok1\tt0\n\ntok2\tt1\n")
    before = output.read_bytes()
    assert main(["tag", *flags, "--output", str(output)]) == 1
    assert capsys.readouterr().err.startswith("error: ")
    assert output.read_bytes() == before
    assert not list(tmp_path.glob("*.tmp"))


def test_replicate_val_corpus_goes_to_internal_rows_only(tmp_path, corpus_file,
                                                          capsys):
    ini = tmp_path / "grid.ini"
    ini.write_text(
        "[experiment 1]\nepochs = 1\nemb_dim = 4\nhidden_dim = 3\n"
        "[experiment 7]\noptimizer = sgd\nepochs = 1\nemb_dim = 6\n"
        "hidden_dim = 3\nembedding_mode = external\n")
    code = main(["replicate", "--corpus", str(corpus_file),
                 "--val-corpus", str(corpus_file), "--embeddings",
                 str(external_fixture(tmp_path)), "--config", str(ini),
                 "--out", str(tmp_path / "rep")])
    assert code == 0
    stdout = capsys.readouterr().out
    assert "experiment 1:" in stdout and "experiment 7:" in stdout


def test_replicate_with_custom_config(tmp_path, corpus_file, capsys):
    ini = tmp_path / "grid.ini"
    ini.write_text(
        "[experiment 1]\nepochs = 1\nemb_dim = 5\nhidden_dim = 3\n"
        "[experiment 2]\noptimizer = sgd\nepochs = 1\nemb_dim = 5\n"
        "hidden_dim = 3\n")
    out = tmp_path / "rep"
    code = main(["replicate", "--corpus", str(corpus_file), "--config",
                 str(ini), "--out", str(out)])
    assert code == 0
    stdout = capsys.readouterr().out
    assert "experiment 1:" in stdout and "experiment 2:" in stdout
    assert (out / "experiment1" / "curves.csv").exists()
    assert (out / "experiment2" / "checkpoint.npz").exists()


def test_replicate_runs_every_row_when_one_diverges(tmp_path, corpus_file,
                                                    capsys):
    row = "optimizer = sgd\nepochs = 1\nemb_dim = 4\nhidden_dim = 3\n"
    ini = tmp_path / "grid.ini"
    ini.write_text(f"[experiment 1]\n{row}[experiment 2]\n{row}base_lr = 1e300\n"
                   f"[experiment 3]\n{row}")
    out = tmp_path / "rep"
    code = main(["replicate", "--corpus", str(corpus_file), "--config",
                 str(ini), "--out", str(out)])
    captured = capsys.readouterr()
    assert code == 1
    assert [line.split(":")[0] for line in captured.out.splitlines()] == [
        "experiment 1", "experiment 3"]
    errors = [line for line in captured.err.splitlines()
              if line.startswith("error:")]
    assert len(errors) == 1, captured.err
    assert errors[0].startswith(
        "error: experiment 2 diverged in epoch 0, batch step ")
    assert "Traceback" not in captured.err
    for n in (1, 3):
        assert (out / f"experiment{n}" / "curves.csv").exists()
        assert (out / f"experiment{n}" / "checkpoint.npz").exists()
    assert not (out / "experiment2" / "curves.csv").exists()
    assert not (out / "experiment2" / "checkpoint.npz").exists()


def test_replicate_subset_selection(tmp_path, corpus_file, capsys):
    ini = tmp_path / "grid.ini"
    ini.write_text(
        "[experiment 1]\nepochs = 1\nemb_dim = 4\nhidden_dim = 3\n"
        "[experiment 2]\nepochs = 1\nemb_dim = 4\nhidden_dim = 3\n")
    out = tmp_path / "rep"
    code = main(["replicate", "--corpus", str(corpus_file), "--config",
                 str(ini), "--experiments", "2", "--out", str(out)])
    assert code == 0
    assert "experiment 2:" in capsys.readouterr().out
    assert not (out / "experiment1").exists()


def test_replicate_explicit_external_without_embeddings_errors(
        tmp_path, corpus_file):
    with pytest.raises(SystemExit) as err:
        main(["replicate", "--corpus", str(corpus_file), "--experiments", "7",
              "--out", str(tmp_path / "rep")])
    assert err.value.code == 2


@pytest.mark.parametrize("experiments", ["1,42", "", " , ", "1,1", "2,02"],
                         ids=["unknown", "empty", "blank", "repeated",
                              "repeated-padded"])
def test_replicate_unknown_id_is_usage_error(tmp_path, corpus_file,
                                             experiments):
    with pytest.raises(SystemExit) as err:
        main(["replicate", "--corpus", str(corpus_file),
              "--experiments", experiments, "--out", str(tmp_path / "rep")])
    assert err.value.code == 2
    assert not (tmp_path / "rep").exists()


def test_replicate_checks_every_row_before_the_first_runs(tmp_path,
                                                         corpus_file, capsys):
    out = tmp_path / "rep"
    with pytest.raises(SystemExit) as err:
        main(["replicate", "--corpus", str(corpus_file), "--experiments", "1,7",
              "--out", str(out)])
    assert err.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--embeddings" in captured.err.splitlines()[-1]
    assert not out.exists()


def test_replicate_skips_external_rows_without_embeddings(tmp_path, capsys,
                                                          caplog):
    ini = tmp_path / "grid.ini"
    ini.write_text(EXTERNAL_ROW)
    out = tmp_path / "rep"
    assert main(["replicate", "--config", str(ini), "--out", str(out)]) == 0
    assert capsys.readouterr().out == "no experiments were run\n"
    assert [r.getMessage() for r in caplog.records] == [
        "skipping experiment 7: no --embeddings given"]
    assert not out.exists()


def test_meta_tags_flow_through_training(tmp_path, corpus_file, capsys):
    meta = tmp_path / "meta.tsv"
    meta.write_text("t0\tEVEN\nt1\tODD\nt2\tEVEN\n")
    out = tmp_path / "run"
    code = main(train_args(corpus_file, out, extra=["--meta-tags", str(meta)]))
    assert code == 0
    capsys.readouterr()
    main(["eval", "--checkpoint", str(out / "checkpoint.npz"),
          "--corpus", str(corpus_file)])
    stdout = capsys.readouterr().out
    assert "meta_accuracy=" in stdout
    fine = float([l for l in stdout.splitlines()
                  if l.startswith("accuracy=")][0].split("=")[1])
    coarse = float([l for l in stdout.splitlines()
                    if l.startswith("meta_accuracy=")][0].split("=")[1])
    assert coarse >= fine  # rollup can only merge classes


def test_eval_decodes_the_file_once(tmp_path, monkeypatch, capsys):
    # the loss, the accuracy and the meta rollup come from one decode: 40
    # sentences in groups of at most 32 are 2 packed encoder calls, not 4
    corpus = tmp_path / "corpus.tsv"
    corpus.write_text(serialize_corpus(
        make_toy_corpus(40, vocab_size=8, num_tags=3, seed=12)))
    meta = tmp_path / "meta.tsv"
    meta.write_text("t0\tEVEN\nt1\tODD\nt2\tEVEN\n")
    out = tmp_path / "run"
    assert main(train_args(corpus, out, extra=["--meta-tags", str(meta)])) == 0
    calls = []
    real = trainer_module.forward_taped
    monkeypatch.setattr(trainer_module, "forward_taped", lambda params, inputs:
                        calls.append(len(inputs)) or real(params, inputs))
    capsys.readouterr()
    assert main(["eval", "--checkpoint", str(out / "checkpoint.npz"),
                 "--corpus", str(corpus)]) == 0
    assert "meta_accuracy=" in capsys.readouterr().out
    assert calls == [32, 8]


def package_env() -> dict[str, str]:
    """Environment for a child process that imports this copy of the package."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(Path(semtagger.__file__).parents[1]),
                    env.get("PYTHONPATH")) if p)
    return env


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_divergence_exits_one_naming_the_epoch(tmp_path, corpus_file, capsys):
    out = tmp_path / "run"
    assert main(train_args(corpus_file, out, extra=["--lr", "1e300"])) == 1
    err = capsys.readouterr().err
    errors = [line for line in err.splitlines() if line.startswith("error:")]
    assert len(errors) == 1, err
    assert "diverged in epoch 0" in errors[0] and "batch step" in errors[0]
    assert "Traceback" not in err
    assert not (out / "curves.csv").exists()


def test_unusable_out_directory_fails_before_training(tmp_path, corpus_file,
                                                      capsys, caplog):
    caplog.set_level(logging.INFO, logger="semtagger")
    blocker = tmp_path / "a-file"
    blocker.write_text("")
    assert main(train_args(corpus_file, blocker / "sub")) == 1
    err = capsys.readouterr().err
    errors = [line for line in err.splitlines() if line.startswith("error:")]
    assert len(errors) == 1, err
    assert "Traceback" not in err
    assert not [r for r in caplog.records if " epoch " in r.getMessage()]


@pytest.mark.parametrize("message", [
    "Unable to allocate 21.6 GiB for an array with shape (100000000, 29) "
    "and data type float64", ""], ids=["numpy", "bare"])
def test_out_of_memory_exits_one(tmp_path, corpus_file, capsys, monkeypatch,
                                 message):
    def no_memory(*args, **kwargs):
        raise MemoryError(message)

    monkeypatch.setattr("semtagger.trainer.init_params", no_memory)
    assert main(train_args(corpus_file, tmp_path / "run")) == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert err == [f"error: out of memory ({message})" if message
                   else "error: out of memory"]


@pytest.mark.parametrize("min_freq", ["0", "-3"])
def test_min_freq_below_one_exits_one_before_training(tmp_path, corpus_file,
                                                      capsys, caplog, min_freq):
    caplog.set_level(logging.INFO, logger="semtagger")
    out = tmp_path / "run"
    assert main(train_args(corpus_file, out,
                           extra=["--min-freq", min_freq])) == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert err == [f"error: min_freq must be at least 1, got {min_freq}"]
    assert not [r for r in caplog.records if " epoch " in r.getMessage()]
    assert not out.exists()


def test_cli_import_does_not_load_scipy():
    script = ("import sys, semtagger.cli; "
              "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    done = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, env=package_env())
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


def test_console_script_usage_paths():
    """Run the `semtagger` script declared in pyproject.toml as a process.

    The command is built the way pip's generated wrapper calls the entry
    point, so no install is needed, and the child imports the same copy of
    the package as this test.
    """
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    target = tomllib.loads(pyproject.read_text())["project"]["scripts"][
        "semtagger"]
    module, func = target.split(":")
    script = f"import sys; from {module} import {func}; sys.exit({func}())"

    def run(*args):
        return subprocess.run([sys.executable, "-c", script, *args],
                              capture_output=True, text=True,
                              env=package_env())

    ok = run("--help")
    assert ok.returncode == 0, ok.stderr
    assert "train" in ok.stdout and "replicate" in ok.stdout
    bad = run("train")
    assert bad.returncode == 2


def test_one_sentence_file_with_a_large_val_fraction_is_rejected(tmp_path,
                                                                  capsys):
    corpus = tmp_path / "one.tsv"
    corpus.write_text("a\tX\nb\tY\n")
    vectors = tmp_path / "one.txt"
    vectors.write_text("2 3\na\tX\t1 2 3\nb\tY\t0 0 1\n")
    for source in (["--corpus", str(corpus)],
                   ["--embeddings", str(vectors), "--emb-dim", "3"]):
        out = tmp_path / source[0].lstrip("-")
        code = main(["train", *source, "--out", str(out), "--epochs", "2",
                     "--hidden-dim", "2", "--val-fraction", "0.9"])
        assert code == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert err == [f"error: the training split is empty: {source[1]} "
                       "holds one sentence, and a split needs at least two"]
        assert not (out / "curves.csv").exists()


@pytest.mark.parametrize("flag, value", [("--lr", "nan"), ("--lr", "inf"),
                                         ("--clip-norm", "nan")])
def test_non_finite_rates_exit_one(tmp_path, corpus_file, capsys, flag, value):
    out = tmp_path / "run"
    assert main(train_args(corpus_file, out, extra=[flag, value])) == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and "must be positive and finite" in err[0], err
    assert not (out / "curves.csv").exists()


def test_non_utf8_input_files_exit_one_naming_the_file(tmp_path, corpus_file,
                                                       capsys):
    out = tmp_path / "run"
    assert main(train_args(corpus_file, out)) == 0
    checkpoint = out / "checkpoint.npz"
    capsys.readouterr()

    def bad(name, good_text):
        path = tmp_path / name
        path.write_bytes(good_text.encode() + b"tok\xff\tt0\n")
        return path

    corpus = bad("bad.tsv", "tok1\tt0\n\n")
    meta = bad("meta.tsv", "t0\tEVEN\n")
    raw = bad("raw.txt", "tok1 tok2\n")
    vectors = bad("vectors.txt", "1 2\na\tX\t1 2\n\n")
    ini = bad("bad.ini", "[experiment 1]\nepochs = 1\n")
    broken_checkpoint = bad("checkpoint.npz", "")
    not_utf8 = "is not UTF-8 text (invalid start byte)"
    for path, argv, problem in (
            (corpus, train_args(corpus, tmp_path / "o1"), not_utf8),
            (meta, train_args(corpus_file, tmp_path / "o2",
                              extra=["--meta-tags", str(meta)]), not_utf8),
            (vectors, ["train", "--embeddings", str(vectors), "--emb-dim", "2",
                       "--out", str(tmp_path / "o3")], not_utf8),
            (raw, ["tag", "--checkpoint", str(checkpoint), "--input", str(raw)],
             not_utf8),
            (ini, train_args(corpus_file, tmp_path / "o4",
                             extra=["--config", str(ini), "--experiment", "1"]),
             not_utf8),
            # a checkpoint is binary: the same bytes are not an archive
            (broken_checkpoint, ["eval", "--checkpoint", str(broken_checkpoint),
                                 "--corpus", str(corpus_file)],
             "is not a checkpoint archive (no zip header)")):
        assert main(argv) == 1, path
        err = capsys.readouterr().err.strip().splitlines()
        assert err == [f"error: {path} {problem}"]


def test_tag_refuses_a_token_its_output_would_read_as_a_comment(
        tmp_path, corpus_file, capsys):
    out = tmp_path / "run"
    main(train_args(corpus_file, out))
    raw = tmp_path / "raw.txt"
    raw.write_text("tok1 #tok2\n")
    capsys.readouterr()
    assert main(["tag", "--checkpoint", str(out / "checkpoint.npz"),
                 "--input", str(raw)]) == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error: cannot write token or "
                                               "tag '#tok2'"), err


def test_tag_closes_its_input_and_output_files(tmp_path, corpus_file, capsys):
    out = tmp_path / "run"
    assert main(train_args(corpus_file, out)) == 0
    raw = tmp_path / "raw.txt"
    raw.write_text("tok1 tok2\ntok3\n")
    tagged = tmp_path / "tagged.tsv"
    done = subprocess.run(
        [sys.executable, "-X", "dev", "-W", "error::ResourceWarning", "-m",
         "semtagger.cli", "tag", "--checkpoint", str(out / "checkpoint.npz"),
         "--input", str(raw), "--output", str(tagged)],
        capture_output=True, text=True, env=package_env())
    assert done.returncode == 0, done.stderr
    assert done.stderr == ""
    assert len(read_corpus(tagged)) == 2
