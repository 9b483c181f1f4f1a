"""Record the outputs the benchmark checks against, per workload, seed and size.

    python3 bench/record_reference.py --seeds 0-19 [--scale full] [--workload NAME]

Run from the root of a source checkout, on the commit whose outputs are the
reference. Entries are merged into bench/reference.json (or ``--out``). A
seed without an entry is still checked, but only in-run: pipeline against
the staged commands, and every operation against the first of its kind.
"""

import argparse
import json
import os
import shutil
import sys
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

from workloads import WORKLOADS  # noqa: E402


def _seeds(spec: str) -> list[int]:
    lo, _, hi = spec.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", required=True, help="one seed or an inclusive range, e.g. 0-19")
    parser.add_argument("--scale", default="full", choices=("full", "tiny"))
    parser.add_argument("--workload", action="append", choices=sorted(WORKLOADS))
    parser.add_argument("--out", type=Path, default=BENCH / "reference.json")
    args = parser.parse_args(argv)

    recorded = {}
    for name in args.workload or WORKLOADS:
        for seed in _seeds(args.seeds):
            workdir = BENCH.parent / ".bench_work" / f"record-{name}-{seed}-{os.getpid()}"
            try:
                wl = WORKLOADS[name](seed, args.scale)
                wl.prepare(workdir)
                recorded.setdefault(name, {})[str(seed)] = json.loads(json.dumps(wl.reference()))
            finally:
                shutil.rmtree(workdir, ignore_errors=True)
            print(f"recorded {args.scale} {name} seed {seed}", flush=True)

    doc = json.loads(args.out.read_text(encoding="utf-8")) if args.out.is_file() else {}
    for name, by_seed in recorded.items():
        doc.setdefault(args.scale, {}).setdefault(name, {}).update(by_seed)
    args.out.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
