"""Start ``runner serve`` with span wrappers installed (traced run only).

    python3 perfbench/serve_launcher.py DUMP_PATH serve --links 4 ...

Wraps, inside the server process, ``json.loads``/``json.dumps`` as
``repro.service.frontend`` calls them (decode/encode; each decode
starts a request, so the spans of one line share an id) and
``AdmissionFrontend.admit``/``.release``, then runs the unchanged
``runner serve`` entry point with the remaining arguments.

Signals drive the measurement window: SIGUSR1 clears the totals,
SIGUSR2 writes them to DUMP_PATH (atomically, via a temporary file).
"""

from __future__ import annotations

import json
import os
import signal
import sys
import types
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from tracer import Tracer  # noqa: E402


def main() -> int:
    dump_path = sys.argv[1]
    serve_argv = sys.argv[2:]

    import repro.service.frontend as frontend_module
    from repro.experiments.runner import main as runner_main
    from repro.service.frontend import AdmissionFrontend

    tracer = Tracer()
    frontend_module.json = types.SimpleNamespace(
        loads=tracer.wrap("service.frontend.decode", json.loads, starts_request=True),
        dumps=tracer.wrap("service.frontend.encode", json.dumps),
    )
    tracer.patch(AdmissionFrontend, "admit", "service.frontend.admit")
    tracer.patch(AdmissionFrontend, "release", "service.frontend.release")

    def reset(signum, frame):
        tracer.reset()

    def dump(signum, frame):
        partial = dump_path + ".tmp"
        tracer.dump(partial, workload="serve_mix", pid=os.getpid())
        os.replace(partial, dump_path)

    signal.signal(signal.SIGUSR1, reset)
    signal.signal(signal.SIGUSR2, dump)
    return runner_main(serve_argv)


if __name__ == "__main__":
    sys.exit(main())
