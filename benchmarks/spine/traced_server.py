"""Server entry point of the traced run.

Same arguments as ``python -m repro.net.server`` plus ``--trace-out``:
installs the benchmark's wrappers (:mod:`tracing`), then calls the
program's public ``repro.net.server.serve``.  Spans stay in memory and
are written when ``serve`` returns on SIGTERM, which is how
``ClusterLauncher.stop`` ends a member.
"""

from __future__ import annotations

import argparse
import asyncio
import sys

from common import require_source

require_source()

from repro.net.config import ClusterSpec  # noqa: E402
from repro.net.server import serve  # noqa: E402

from tracing import Recorder, install_net  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--config", required=True)
    parser.add_argument("--pid", type=int, required=True)
    parser.add_argument("--trace-out", required=True)
    args = parser.parse_args()
    recorder = Recorder()
    install_net(recorder)
    try:
        asyncio.run(serve(ClusterSpec.load(args.config), args.pid))
    finally:
        recorder.dump(args.trace_out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
