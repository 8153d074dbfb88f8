"""Fresh-interpreter probe for the benchmark's set-up and memory metrics.

    python3 perfbench/probe.py setup CONFIG
    python3 perfbench/probe.py rss CONFIG OUT_DIR

``setup`` times ``import milnesea`` plus ``load_config`` of CONFIG from
interpreter start-up on. ``rss`` also runs ``simulate`` on CONFIG once
and reports the process's high-water resident set size. Both print one
JSON object.
"""

import time

_START = time.perf_counter()

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402


def main(argv):
    mode, config = argv[0], Path(argv[1])
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    import milnesea.cli
    milnesea.scenario.load_config(config.read_text())
    out = {"setup_s": time.perf_counter() - _START}
    if mode == "rss":
        with contextlib.redirect_stdout(io.StringIO()):
            out["exit_code"] = milnesea.cli.main(
                ["simulate", str(config), "--out-dir", argv[2]])
        # ru_maxrss is in KiB on Linux
        out["peak_rss_mb"] = resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(out))


if __name__ == "__main__":
    main(sys.argv[1:])
