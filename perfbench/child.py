"""One benchmark child process: a fresh interpreter running the program.

    python3 perfbench/child.py cli [--trace SPANS.json] -- <feeder-nilm arguments>
    python3 perfbench/child.py setup <config>

``cli`` runs ``feeder_nilm.cli.main`` exactly as the ``feeder-nilm``
console script does; with ``--trace`` it first wraps the package's
functions in spans and writes them to SPANS.json when main returns.
``setup`` pays only the fixed cost every invocation pays before its first
stage: the import, ``load_run_config`` and ``load_library_for``.
The program is imported from the ``src`` directory of the checkout that
holds this file.
"""

import json
import os
import sys

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def _cli(argv: list[str]) -> int:
    trace_path = None
    if argv[:1] == ["--trace"]:
        trace_path, argv = argv[1], argv[2:]
    if argv[:1] == ["--"]:
        argv = argv[1:]
    if trace_path is None:
        from feeder_nilm.cli import main

        return main(argv)

    from instrument import Tracer, install

    tracer = Tracer()
    install(tracer)
    import feeder_nilm.cli

    try:
        return feeder_nilm.cli.main(argv)
    finally:
        with open(trace_path, "w", encoding="utf-8") as fh:
            json.dump(tracer.spans, fh)


def _setup(config_path: str) -> int:
    import feeder_nilm.cli  # noqa: F401
    from feeder_nilm.config import load_library_for, load_run_config

    load_library_for(load_run_config(config_path))
    return 0


if __name__ == "__main__":
    sys.path.insert(0, SRC)
    mode, rest = sys.argv[1], sys.argv[2:]
    sys.exit(_cli(rest) if mode == "cli" else _setup(*rest))
