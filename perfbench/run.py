"""Run one benchmark workload from the root of a cf-forge checkout.

    python3 perfbench/run.py --workload train-desk --seed 1 --seconds 20 --trace 0

The library is imported from the checkout's own ``src/`` directory; without
it the run fails before printing a result.  Generated inputs are written
under ``.perfbench_work/`` in the checkout and removed at the end.  The last
line of standard output is the result object: correctness, attempted and
failed op counts, and the end-to-end metrics (``--trace 0``) or the
per-layer metrics (``--trace 1``).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "cf_forge" / "__init__.py").is_file():
        print(f"error: no cf_forge sources under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(ROOT)]
    import cf_forge

    if Path(cf_forge.__file__).resolve().parent != SRC / "cf_forge":
        print(f"error: imported cf_forge from {cf_forge.__file__}, not {SRC}", file=sys.stderr)
        return 2
    from perfbench import bench, workloads

    names = workloads.load_spec()["workloads"]
    if args.workload not in names:
        print(f"error: unknown workload {args.workload!r}; one of {', '.join(names)}", file=sys.stderr)
        return 2
    result = bench.run(args.workload, args.seed, args.seconds, bool(args.trace), ROOT / ".perfbench_work")
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
