"""Tests of the benchmark itself: python3 -m pytest perfbench -q"""

import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import bench  # noqa: E402
import run  # noqa: E402
from semtagger import model as st_model  # noqa: E402
from tracer import Tracer, analyse  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

TINY = {
    "exp6-train": bench.Sizes(sentences=12, min_rounds=2, tag_calls=20),
    "exp7-train": bench.Sizes(sentences=5, min_rounds=1, tag_calls=5),
    "exp6-tag": bench.Sizes(sentences=25, min_rounds=2, vocab_sentences=40),
}


@pytest.fixture()
def tiny(monkeypatch, tmp_path):
    """Shrink every workload and send scratch and output files to tmp_path."""
    for name, sizes in TINY.items():
        monkeypatch.setitem(bench.WORKLOADS, name, replace(bench.WORKLOADS[name], sizes=sizes))
    monkeypatch.setattr(run, "ROOT", tmp_path)
    for var in run.THREAD_VARS:
        monkeypatch.setenv(var, "1")


def run_cli(capsys, workload, trace, seconds=0.01):
    assert run.main(["--workload", workload, "--seed", "3", "--seconds", str(seconds),
                     "--trace", str(trace)]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    return json.loads(lines[-2])["report"], json.loads(lines[-1])


def test_workloads_and_layer_map_match_spec():
    assert [w["name"] for w in SPEC["workloads"]] == list(bench.WORKLOADS)
    layers = json.loads((HERE / "layers.json").read_text())["layers"]
    assert sorted(layers) == sorted(m["name"] for m in SPEC["per_layer"])
    end_to_end = {m["name"] for m in SPEC["end_to_end"]}
    for entry in layers.values():
        for target in entry["moves"] + entry["flat"]:
            metric, workload = target.split("@")
            assert metric in end_to_end and workload in bench.WORKLOADS, target


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(TINY))
def test_every_metric_printed_with_unit(tiny, capsys, workload, trace):
    report, result = run_cli(capsys, workload, trace)
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["metrics"] == {
        m["name"]: {"value": result["metrics"][m["name"]]["value"], "unit": m["unit"]}
        for m in spec}
    for metric in result["metrics"].values():
        assert np.isfinite(metric["value"])
    assert result["failed"] == 0, report["failures"]
    assert result["correct"] and result["attempted"] >= 1
    assert report["fail_ratio"] == 0
    assert report["environment"]["threads"]["OPENBLAS_NUM_THREADS"] == "1"
    # tiny sizes have no stored curves, and the report says so
    assert report["reference_checked"] is False


def test_end_to_end_sample_count_does_not_grow_with_rounds(tiny, capsys):
    sizes = TINY["exp6-tag"]
    report, _ = run_cli(capsys, "exp6-tag", 0, seconds=5.0)
    with open(run.ROOT / ".bench_out" / "exp6-tag-seed3-trace0.json") as fh:
        samples = json.load(fh)["samples"]
    assert len(samples["tok_per_s"]) > sizes.min_rounds  # more rounds than are scored
    counts = report["sample_counts"]
    for name in ("tok_per_s", "checkpoint_save_s"):
        assert counts[name] == sizes.min_rounds
    chunks = -(-sizes.sentences // bench.EVAL_CHUNK)
    assert counts["eval_tok_per_s"] == sizes.min_rounds * chunks
    assert counts["setup_s"] == sizes.min_rounds * bench.SETUPS_PER_ROUND
    assert counts["tag_ms_p50"] == sizes.min_rounds * sizes.sentences


def flip_first_tag(monkeypatch):
    original = st_model.tag_tokens
    calls = []

    def flipped(model, tokens):
        tags = original(model, tokens)
        if not calls:
            # the generator tags "tok<i>" as "t<i mod 70>": move the first tag
            # onto or off the gold tag, so the correct count changes by one
            gold = f"t{int(tokens[0][3:]) % bench.NUM_TAGS}"
            tags[0] = gold if tags[0] != gold else next(
                t for t in model.tags.id_to_tag if t != gold)
        calls.append(1)
        return tags

    monkeypatch.setattr(st_model, "tag_tokens", flipped)


def perturb_loaded_checkpoint(monkeypatch):
    original = st_model.load_checkpoint

    def perturbed(path):
        model = original(path)
        model.encoder.out_bias[0] = np.nextafter(model.encoder.out_bias[0], np.inf)
        return model

    monkeypatch.setattr(st_model, "load_checkpoint", perturbed)


@pytest.mark.parametrize("workload", ["exp6-tag", "exp6-train"])
@pytest.mark.parametrize("corrupt,expect", [
    (flip_first_tag, "recount"),
    (perturb_loaded_checkpoint, "bit-exact"),
])
def test_corrupted_output_raises_fail_ratio(tiny, capsys, monkeypatch, workload,
                                           corrupt, expect):
    corrupt(monkeypatch)
    report, result = run_cli(capsys, workload, 0)
    assert result["failed"] > 0 and not result["correct"]
    assert report["fail_ratio"] > 0
    assert any(expect in f for f in report["failures"])


def test_curves_differing_from_reference_fail(tiny, capsys, monkeypatch):
    def shifted(workload, seed):
        rows = ["epoch,train_loss,train_acc,val_loss,val_acc,lr"]
        return rows + [f"{i},1,0,1,0,0.001" for i in range(bench.REFERENCE_EPOCHS)]

    monkeypatch.setattr(bench, "load_reference", shifted)
    report, result = run_cli(capsys, "exp6-train", 0)
    assert report["reference_checked"] is True
    assert result["failed"] >= TINY["exp6-train"].min_rounds
    assert any("differs from reference" in f for f in report["failures"])


def test_reference_curves_cover_the_full_size_train_workloads():
    refs = json.loads(bench.REFERENCE_FILE.read_text())
    for name, workload in bench.WORKLOADS.items():
        if workload.kind == "train":
            by_seed = refs[name][str(workload.sizes.sentences)]
            assert sorted(map(int, by_seed)) == list(bench.REFERENCE_SEEDS)
            assert all(len(rows) == bench.REFERENCE_EPOCHS + 1 for rows in by_seed.values())


def test_tracer_wraps_defining_and_imported_names():
    import semtagger.crf as crf
    import semtagger.trainer as trainer

    originals = (crf.log_partition, trainer.nll_loss, st_model.viterbi_decode)
    tracer = Tracer()
    with tracer.installed():
        assert crf.log_partition is not originals[0]
        assert trainer.nll_loss is not originals[1]
        assert st_model.viterbi_decode is not originals[2]
        params = crf.init_crf_params(3, seed=0)
        with tracer.op("epoch"):
            trainer.nll_loss(params, np.zeros((4, 3)), [0, 1, 2, 0])
    assert (crf.log_partition, trainer.nll_loss, st_model.viterbi_decode) == originals

    names = [span[0] for span in tracer.spans]
    assert names == ["crf.init_crf_params", "bench.epoch", "crf.nll_loss",
                     "crf.log_partition", "crf.score_path"]
    (op,) = analyse(tracer.spans)
    loss = tracer.spans[2]
    children = sum(s[2] - s[1] for s in tracer.spans[3:])
    assert op.self_s["crf.nll_loss"] == pytest.approx((loss[2] - loss[1] - children) / 1e9)
    assert op.calls["crf.log_partition"] == 1


def test_exits_nonzero_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "exp6-train", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert "{" not in proc.stdout
