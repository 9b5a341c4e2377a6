"""Benchmark server process: set up a warehouse and serve it over HTTP.

Run by ``run.py`` as its own process::

    python3 perfbench/launcher.py --npz DATA --store DIR --seed N [--trace]

Set-up is the part ``setup_s`` times: load the generated table, keep
its first rows as the base table, build the CVOPT sample into an
``mmap`` store, and start the HTTP server. When the server listens, one JSON line
``{"port": ..., "pid": ...}`` goes to stdout.

After that the process takes one JSON command per stdin line and
answers each with one JSON line on stdout:

``{"cmd": "trace", "on": true|false}``
    install / remove the per-layer instrumentation (``--trace`` only);
    turning it on starts a fresh segment.
``{"cmd": "dump"}``
    per-layer metrics and ``query_with_contract`` times of the segment.
``{"cmd": "ingest", "rows": N}``
    fold the next ``N`` held-out rows into the sample through the
    public refresh path, batch after batch; answers with the rows and
    the wall time of each refresh call.
``{"cmd": "stop"}``
    drain and stop the server, and exit.

End of stdin also stops the process.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import sys
import time

import numpy as np

from repro.engine.table import Table
from repro.serve import AsyncWarehouseService, WarehouseHTTPServer
from repro.warehouse import WarehouseService

from workloads import (
    BASE_ROWS,
    BATCH_ROWS,
    SAMPLE_BUDGET,
    SAMPLE_COLUMNS,
    SAMPLE_KEYS,
    SAMPLE_NAME,
)


def _reply(payload) -> None:
    sys.stdout.write(json.dumps(payload) + "\n")
    sys.stdout.flush()


class Launcher:
    def __init__(self, args) -> None:
        self.args = args
        self.recorder = self.instrumentation = None
        if args.trace:
            from instrument import Instrumentation, Recorder

            self.recorder = Recorder()
            self.instrumentation = Instrumentation(self.recorder)
            self.instrumentation.install()
        table = Table.load(args.npz)
        self.base = table.head(BASE_ROWS)
        self.held = table.take(np.arange(BASE_ROWS, table.num_rows))
        self.ingested = 0
        self.service = WarehouseService(
            args.store, {"OpenAQ": self.base}, backend="mmap"
        )
        self.service.build(
            SAMPLE_NAME, "OpenAQ", SAMPLE_KEYS, SAMPLE_COLUMNS,
            SAMPLE_BUDGET, seed=args.seed,
        )
        self.setup_calls = None
        if self.recorder is not None:
            self.setup_calls, _ = self.recorder.take()

    async def serve(self) -> None:
        front = AsyncWarehouseService(self.service)
        server = await WarehouseHTTPServer(front).start()
        _reply({"port": server.port, "pid": os.getpid()})
        loop = asyncio.get_running_loop()
        reader = asyncio.StreamReader()
        await loop.connect_read_pipe(
            lambda: asyncio.StreamReaderProtocol(reader), sys.stdin
        )
        try:
            while True:
                line = await reader.readline()
                if not line:
                    break
                command = json.loads(line)
                if command["cmd"] == "stop":
                    break
                _reply(await self.handle(front, command))
        finally:
            await server.stop()
        _reply({"stopped": True})

    async def handle(self, front, command):
        cmd = command["cmd"]
        if cmd == "trace":
            if command["on"]:
                self.recorder.take()
                self.instrumentation.install()
            else:
                self.instrumentation.uninstall()
            return {"ok": True}
        if cmd == "dump":
            from instrument import layer_summary, query_times

            calls, traces = self.recorder.take()
            layers = layer_summary(calls, traces)
            build = [s for s, _ in self.setup_calls.get("core.build", ())]
            layers["core.build_ms"] = 1e3 * sum(build)
            return {"layers": layers, "query_times": query_times(calls)}
        if cmd == "ingest":
            return await self.ingest(front, int(command["rows"]))
        raise ValueError(f"unknown command {cmd!r}")

    async def ingest(self, front, rows: int):
        start = self.ingested
        stop = min(start + rows, self.held.num_rows)
        batches = []
        seconds = []
        while self.ingested < stop:
            end = min(self.ingested + BATCH_ROWS, stop)
            batch = self.held.take(np.arange(self.ingested, end))
            t0 = time.perf_counter()
            report = await front.refresh(
                SAMPLE_NAME, batch, seed=self.args.seed + len(batches)
            )
            seconds.append(time.perf_counter() - t0)
            batches.append(report.action)
            self.ingested = end
        return {
            "rows": self.ingested - start,
            "batch_rows": BATCH_ROWS,
            "batch_seconds": seconds,
            "actions": batches,
        }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--npz", required=True)
    parser.add_argument("--store", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)
    launcher = Launcher(args)
    asyncio.run(launcher.serve())
    return 0


if __name__ == "__main__":
    sys.exit(main())
