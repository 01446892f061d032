"""Run one workload of the semtagger benchmark and print its result.

    python3 perfbench/run.py --workload exp6-train --seed 1 --seconds 15 --trace 0

Run from the root of a source checkout; the package is imported from its
``src/`` directory. BLAS and OpenMP are pinned to one thread for this
process. The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it is
a report with the environment, sample counts, ``fail_ratio`` and any failed
checks. With ``--trace 0`` the metrics are the end-to-end metrics of
BENCHMARK.json, with ``--trace 1`` its per-layer metrics (defined in
``layers.json``). Both lines, the raw samples and, in trace mode, every span
are also written under ``.bench_out/``.

End-to-end metrics. A run repeats rounds of every operation (see
``bench.Run``) until ``--seconds`` have passed and the workload's
``min_rounds`` ran. Each figure is the median (or, for latency, a
percentile) of the samples that the last ``min_rounds`` rounds took. The
count is fixed, so a faster program that fits more rounds into the run is
scored on the same sample size. On a shared host the CPU speed changes from
one second to the next by up to 1.5x; medians over many samples spread
least across seeds, extremes such as the slowest round most.

setup_s
    One setup: the corpus or embedding-file parse, split, vocab, encode and
    ``build_model`` (train workloads); ``load_checkpoint`` plus reading and
    encoding the input (exp6-tag). A round runs ``bench.SETUPS_PER_ROUND``.
tok_per_s
    Train tokens / wall time of one ``train_epoch``, which includes the
    train+val re-evaluation behind ``curves.csv`` (train workloads); input
    tokens / time to tag every input sentence (exp6-tag).
eval_tok_per_s
    Tokens / time of one ``trainer.evaluate`` call. Each round evaluates
    train+val or the input, ``bench.EVAL_CHUNK`` sentences per call.
tag_ms_p50, tag_ms_p90
    Median and 90th percentile of the latency of one ``tag_tokens``
    (``tag_vectors`` on exp7-train) call, over the calls of those rounds.
    Higher percentiles follow the host's load, not the program: over ten
    seeds the 99th spread 0.20-0.27, and on exp7-train the 95th spread up
    to 0.36 where the 90th spread 0.16.
checkpoint_save_s, checkpoint_load_s
    One ``save_checkpoint`` / ``load_checkpoint`` of the current model.
peak_rss_mb
    Peak resident set size of this process.

``failed / attempted`` is the fail ratio: an operation fails when a loss is
not finite, a checkpoint round trip is not bit-exact, tags do not recount to
the accuracy ``evaluate`` reports, or a ``curves.csv`` row differs from
``reference_curves.json``. Seeds in ``bench.REFERENCE_SEEDS`` have a
reference at the workload sizes; the report's ``reference_checked`` says
whether this run's curves were compared with one.
"""

import argparse
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "semtagger" / "__init__.py").is_file():
        print(f"error: no semtagger package under {SRC}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    for var in THREAD_VARS:  # before numpy is first imported
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    import bench

    if args.workload not in bench.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(bench.WORKLOADS)}", file=sys.stderr)
        return 2
    result, report = bench.run(args.workload, args.seed, args.seconds,
                               bool(args.trace), ROOT)
    for failure in report["failures"]:
        print(f"check failed: {failure}", file=sys.stderr)
    print(json.dumps({"report": report}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
