"""Run ``repro serve`` in this process, optionally with layer wrappers.

Usage::

    python3 bench/serve_launcher.py [--layers] -- serve --port 0 ...

Everything after ``--`` is handed to ``repro.cli.main`` unchanged.  With
``--layers`` the wrappers of :mod:`layers` are installed first, and a
control thread reads one command per line from standard input:

* ``reset PATH`` -- zero the layer totals, then write ``{"ok": true}``,
* ``dump PATH``  -- write the totals (:meth:`layers.Collector.snapshot`).

Each answer is written to a temporary name and renamed onto ``PATH``,
so a client polling for ``PATH`` never reads a partial file.
"""

from __future__ import annotations

import json
import os
import sys
import threading


def _answer(path: str, payload: dict) -> None:
    tmp = f"{path}.tmp"
    with open(tmp, "w", encoding="utf-8") as handle:
        json.dump(payload, handle)
    os.replace(tmp, path)


def _control(collector) -> None:
    for line in sys.stdin:
        command, _, path = line.strip().partition(" ")
        if command == "reset":
            collector.reset()
            _answer(path, {"ok": True})
        elif command == "dump":
            _answer(path, collector.snapshot())


def main(argv: list[str]) -> int:
    layered = argv[:1] == ["--layers"]
    if layered:
        argv = argv[1:]
    if argv[:1] == ["--"]:
        argv = argv[1:]
    if layered:
        from layers import Collector, install

        collector = Collector()
        install(collector)
        threading.Thread(
            target=_control, args=(collector,), name="bench-control", daemon=True
        ).start()
    from repro.cli import main as cli_main

    return cli_main(argv)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
