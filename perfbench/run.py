"""Benchmark of the hybridcache simulator.

Run from the root of a checkout:

    python3 perfbench/run.py --workload paper-sweep --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --self-test
    python3 perfbench/run.py --pin     # re-pin golden.json after an intended output change

The workloads are defined in workloads.py and listed, with the metrics,
in BENCHMARK.json. The program is imported from src/ of the checkout;
there is nothing to build. The last line of standard output is one JSON
object with the keys correct, attempted, failed and metrics. The full
record (provenance, per-pass samples, failed-run share) and, for a
traced run, the spans of the last traced pass are written to
perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1000)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true", dest="self_test")
    parser.add_argument("--pin", action="store_true")
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    if not (SRC / "hybridcache" / "__init__.py").is_file():
        print(f"perfbench: no hybridcache sources under {SRC}", file=sys.stderr)
        return 2
    # the program must see only the benchmark's inputs, not the caller's
    for key in [k for k in os.environ if k.startswith("HYBRIDCACHE_")]:
        del os.environ[key]
    sys.path.insert(0, str(SRC))

    import measure
    from workloads import WORKLOADS

    if args.pin:
        return measure.pin()
    if args.self_test:
        import selftest

        return selftest.main(ROOT / "BENCHMARK.json")
    if args.workload not in WORKLOADS:
        print(f"perfbench: --workload must be one of {sorted(WORKLOADS)}", file=sys.stderr)
        return 2

    line, record, spans = measure.measure(
        WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace)
    )
    path = measure.write_outputs(record, spans, args.seed, bool(args.trace))
    for message in record["messages"]:
        print(message, file=sys.stderr)
    print(json.dumps({"provenance": record["provenance"], "record": str(path.relative_to(ROOT))}))
    print(f"failed_runs={record['failed_runs']} ({line['failed']} of {line['attempted']} runs)")
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
