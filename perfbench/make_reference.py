"""Regenerate reference_curves.json, the golden curves the benchmark checks.

    python3 perfbench/make_reference.py

For each train workload and every seed in REFERENCE_SEEDS, runs the
benchmark's own input generator, setup and first REFERENCE_EPOCHS epochs, and
stores the resulting ``curves.csv`` lines. The file is rewritten whole. Run it
only when a change is meant to alter training.
"""

import json
import os
import shutil
import sys

from run import ROOT, SRC, THREAD_VARS


def main() -> int:
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    import bench

    refs: dict = {}
    for workload in bench.WORKLOADS.values():
        if workload.kind != "train":
            continue
        by_seed = refs.setdefault(workload.name, {}).setdefault(
            str(workload.sizes.sentences), {})
        for seed in bench.REFERENCE_SEEDS:
            work = ROOT / ".bench_work" / f"reference-{os.getpid()}"
            shutil.rmtree(work, ignore_errors=True)
            work.mkdir(parents=True)
            try:
                run = bench.Run(workload, seed, 0.0, False, work)
                run.input_path = bench.make_inputs(workload, seed, work)
                state = run.setup(bench.Phase(None))
                for _ in range(bench.REFERENCE_EPOCHS):
                    run.epoch(state, bench.Phase(None), "op_s")
                by_seed[str(seed)] = run.curves_rows(state)
            finally:
                shutil.rmtree(work, ignore_errors=True)
            print(workload.name, seed, by_seed[str(seed)][-1], flush=True)
    bench.REFERENCE_FILE.write_text(json.dumps(refs, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
