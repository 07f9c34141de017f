"""One set-up measurement in a fresh process.

Times ``from pacok import cli`` and then a zero-step ``pacok run`` of the
given config (config parse, seed rasterization, perturbation, mass rescale,
the step-0 trace row and checkpoints). Prints one JSON line with both times.

Usage: python3 perfbench/setup_probe.py SRC_DIR CONFIG OUTPUT_DIR
"""

import json
import sys
import time
from pathlib import Path


def main(argv) -> int:
    src, config, output = argv
    sys.path.insert(0, src)
    start = time.perf_counter()
    from pacok import cli

    imported = time.perf_counter()
    if not Path(cli.__file__).resolve().is_relative_to(Path(src).resolve()):
        raise ImportError(f"pacok was imported from {cli.__file__}, not from {src}")
    code = cli.main(["run", "--config", config, "--output", output])
    done = time.perf_counter()
    print(json.dumps({"import_s": imported - start, "run_s": done - imported}))
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
