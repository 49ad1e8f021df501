"""Run one `projconst` command with spans recorded, for the traced cli_mix run.

Usage: python3 -X importtime perfbench/cli_child.py SUMMARY.json ARGS...

Behaves like `python3 -m projconst ARGS...` (same stdout, stderr and exit
code) and writes the layer summary and the CLI's work time to SUMMARY.json.
"""

import json
import sys
import time
from pathlib import Path

import spans


def main() -> int:
    summary_path, argv = Path(sys.argv[1]), sys.argv[2:]
    import projconst.cli

    tracer = spans.Tracer()
    spans.install(tracer)
    tracer.begin_op(0)
    start = time.perf_counter()
    try:
        code = projconst.cli.main(argv)
    finally:
        work_s = time.perf_counter() - start
        record = tracer.summary()
        record.update(work_s=work_s, covered_s=tracer.op_covered_s, spans=len(tracer.spans))
        summary_path.write_text(json.dumps(record))
        tracer.dump(summary_path.with_name(summary_path.stem + "-spans.json.gz"))
    return code


if __name__ == "__main__":
    sys.exit(main())
