"""The repository benchmark: group-by serving over HTTP, end to end.

Usage, from the repository root::

    python3 perfbench/run.py --workload dashboard --seed 1 --seconds 10 \
        --trace 0

One run generates the seeded OpenAQ table, starts the warehouse server
(``launcher.py``) in its own process, drives it from this process with
a single-threaded asyncio load generator over at most two keep-alive
connections, checks every answer, and prints one line per metric
followed by the result as one JSON object on the last line. With
``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1``
the server runs the per-layer instrumentation of ``instrument.py`` and
the metrics are the per-layer ones. The exit code is 0 only when every
answer was correct. ``README.md`` describes the workloads and metrics.
"""

from __future__ import annotations

import argparse
import asyncio
import gc
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

import numpy as np

from oracle import (
    Reference,
    exact_mismatches,
    payload_answer,
    relative_errors,
)
from workloads import (
    BASE_ROWS,
    NUM_COUNTRIES,
    QUIET_REFRESH_ROWS,
    TABLE_ROWS,
    WORKLOADS,
    probe_set,
    request_stream,
)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: Launches per run whose set-up time is measured; the last one serves.
SETUP_LAUNCHES = 3
WARMUP_SECONDS = 1.0
#: Traced runs: untraced / traced segment pairs that estimate the
#: instrumentation overhead, before the traced workload phase. The
#: order flips every pair so a steady drift in machine speed cancels.
CALIBRATION_PAIRS = 4
CALIBRATION_SECONDS = 1.0
PROCESS_TIMEOUT = 60.0
CONTRACT_KEYS = (
    "executed", "sample_name", "sample_version", "predicted_cv",
    "max_group_cv", "staleness", "fallback_exact", "reason",
    "constraints", "satisfied",
)
#: Round-trip percentiles reported as metrics. Each needs 10 samples
#: beyond it on every workload; ``adhoc_exact`` completes ~140 queries
#: a run, so p99 is reported only in the validity block, where supported.
PERCENTILES = {50: "query_p50_ms", 90: "query_p90_ms"}
TAIL_PERCENTILE = 99


class Conn:
    """Minimal keep-alive HTTP/1.1 JSON client (one request at a time).

    The benchmark's own client rather than ``repro.serve.HTTPConnection``,
    so that a change to the program's client cannot move the numbers."""

    def __init__(self, reader, writer) -> None:
        self.reader, self.writer = reader, writer

    @classmethod
    async def open(cls, port: int) -> "Conn":
        return cls(*await asyncio.open_connection("127.0.0.1", port))

    async def request(self, method: str, path: str, body=None):
        data = json.dumps(body).encode() if body is not None else b""
        self.writer.write(
            f"{method} {path} HTTP/1.1\r\nHost: localhost\r\n"
            f"Content-Type: application/json\r\n"
            f"Content-Length: {len(data)}\r\n\r\n".encode() + data
        )
        await self.writer.drain()
        head = await self.reader.readuntil(b"\r\n\r\n")
        lines = head.decode("latin-1").split("\r\n")
        status = int(lines[0].split()[1])
        length = 0
        for line in lines[1:]:
            name, _, value = line.partition(":")
            if name.strip().lower() == "content-length":
                length = int(value)
        raw = await self.reader.readexactly(length)
        try:
            return status, json.loads(raw) if raw else {}
        except ValueError:
            return status, {}

    async def close(self) -> None:
        self.writer.close()
        try:
            await self.writer.wait_closed()
        except ConnectionError:
            pass


class Server:
    """One launcher process and its stdin/stdout command channel."""

    def __init__(self, proc, port: int) -> None:
        self.proc, self.port = proc, port

    @classmethod
    async def launch(cls, work: Path, npz: Path, store: Path, seed: int,
                     trace: bool):
        """Start a server; returns it with the set-up time in seconds
        (launch to the first ``/healthz`` 200)."""
        env = dict(os.environ, PYTHONPATH=str(SRC), MALLOC_ARENA_MAX="1")
        args = [sys.executable, str(HERE / "launcher.py"), "--npz", str(npz),
                "--store", str(store), "--seed", str(seed)] + (["--trace"] if trace else [])
        t0 = time.perf_counter()
        proc = await asyncio.create_subprocess_exec(
            *args, cwd=str(work), env=env, stdin=subprocess.PIPE,
            stdout=subprocess.PIPE, limit=64 << 20,
        )
        try:
            line = await asyncio.wait_for(
                proc.stdout.readline(), PROCESS_TIMEOUT
            )
            if not line:
                raise RuntimeError("server exited during set-up")
            ready = json.loads(line)
            server = cls(proc, ready["port"])
            conn = await Conn.open(server.port)
            try:
                status, _ = await conn.request("GET", "/healthz")
            finally:
                await conn.close()
            if status != 200:
                raise RuntimeError(f"/healthz answered {status}")
            return server, time.perf_counter() - t0
        except BaseException:
            await cls(proc, 0).stop(kill=True)
            raise

    async def command(self, cmd: str, **payload):
        self.proc.stdin.write((json.dumps(dict(payload, cmd=cmd)) + "\n")
                              .encode())
        await self.proc.stdin.drain()
        line = await asyncio.wait_for(
            self.proc.stdout.readline(), PROCESS_TIMEOUT
        )
        if not line:
            raise RuntimeError(f"server exited during {cmd!r}")
        return json.loads(line)

    def peak_rss_mb(self) -> float:
        """The server process's ``VmHWM``."""
        with open(f"/proc/{self.proc.pid}/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM in the server's /proc status")

    async def stop(self, kill: bool = False) -> None:
        """Stop the server and wait until it has ended."""
        try:
            if not kill and self.proc.returncode is None:
                self.proc.stdin.write(b'{"cmd": "stop"}\n')
                await self.proc.stdin.drain()
                self.proc.stdin.close()
                await asyncio.wait_for(self.proc.wait(), PROCESS_TIMEOUT)
        except (asyncio.TimeoutError, ConnectionError):
            pass
        if self.proc.returncode is None:
            self.proc.kill()
            await self.proc.wait()


class Tally:
    """Every ``/query`` attempted in a run and why any failed."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: List[str] = []
        self.to_verify: List = []

    def check(self, query, status: int, payload) -> bool:
        self.attempted += 1
        problem = _problem(query, status, payload)
        if problem is None and query.verify:
            self.to_verify.append((query, payload))
        if problem is not None:
            self.failures.append(f"{query.tag}: {problem}")
        return problem is None


def _problem(query, status: int, payload) -> Optional[str]:
    if status != 200:
        return f"status {status}: {payload.get('error', '')}"
    contract = payload.get("contract")
    if not isinstance(contract, dict):
        return "no contract"
    missing = [k for k in CONTRACT_KEYS if k not in contract]
    if missing or not {"columns", "rows", "row_count"} <= payload.keys():
        return f"missing keys {missing}"
    if contract["executed"] != query.expect:
        return f"executed {contract['executed']!r}, expected {query.expect!r}"
    if query.max_cv is not None and not contract["fallback_exact"]:
        return "max_cv unmet but no exact fallback"
    return None


class Segment:
    """Round trips of one load phase."""

    def __init__(self) -> None:
        self.latencies: List[float] = []  # seconds, successful requests
        self.per_connection: List[int] = []
        self.pairs: List = []  # (sql, round trip seconds)
        self.ok = 0
        self.wall = 0.0


def _no_gc(phase):
    """Run a load phase with this process's cyclic collector paused, so
    its pauses do not land in the measured round trips."""

    async def wrapper(*args, **kwargs):
        gc.disable()
        try:
            return await phase(*args, **kwargs)
        finally:
            gc.enable()

    return wrapper


@_no_gc
async def closed_loop(port, stream, connections, seconds, tally) -> Segment:
    seg = Segment()
    seg.per_connection = [0] * connections
    deadline = time.perf_counter() + seconds

    async def client(index: int) -> None:
        conn = await Conn.open(port)
        try:
            while time.perf_counter() < deadline:
                query = next(stream)
                t0 = time.perf_counter()
                status, payload = await conn.request(
                    "POST", "/query", query.body()
                )
                rtt = time.perf_counter() - t0
                seg.per_connection[index] += 1
                if tally.check(query, status, payload):
                    seg.ok += 1
                    seg.latencies.append(rtt)
                    seg.pairs.append((query.sql, rtt))
        finally:
            await conn.close()

    start = time.perf_counter()
    await asyncio.gather(*(client(i) for i in range(connections)))
    seg.wall = time.perf_counter() - start
    return seg


def _percentile(values: List[float], pct: float) -> float:
    """``pct``-th percentile; 0.0 when no request succeeded (such a run
    is already incorrect)."""
    return float(np.percentile(np.asarray(values), pct)) if values else 0.0


# ----------------------------------------------------------------------
# data
# ----------------------------------------------------------------------
def generate(seed: int, npz: Path):
    """Generate the seeded table, write it to ``npz`` in the engine's
    table layout and return it as plain numpy columns.

    Written uncompressed: ``Table.save`` compresses, which adds about
    3 s to every run and is not what the benchmark measures."""
    from repro import generate_openaq

    table = generate_openaq(
        num_rows=TABLE_ROWS, num_countries=NUM_COUNTRIES, seed=seed
    )
    columns, categories = {}, {}
    payload = {"__name__": np.asarray(["OpenAQ"])}
    for name in table.column_names:
        col = table.column(name)
        columns[name] = col.data
        payload[f"data::{name}"] = col.data
        payload[f"type::{name}"] = np.asarray([col.dtype.value])
        if col.categories is not None:
            categories[name] = np.asarray(col.categories, dtype=object)
            payload[f"cats::{name}"] = categories[name]
    np.savez(npz, **payload)
    return Reference(columns, categories)


# ----------------------------------------------------------------------
# phases
# ----------------------------------------------------------------------
async def probe(server, reference, tally):
    """The paper probe set against the numpy reference: per-probe mean
    and max relative error over (group, aggregate) cells."""
    means, maxes = [], []
    conn = await Conn.open(server.port)
    try:
        for name, query in probe_set():
            status, payload = await conn.request(
                "POST", "/query", query.body()
            )
            if not tally.check(query, status, payload):
                means.append(1.0)  # as if every group were missing
                maxes.append(1.0)
                continue
            errors, extra = relative_errors(
                reference.answer(query), payload_answer(query, payload)
            )
            if extra:
                tally.failures.append(f"{name}: {extra} groups not in data")
            means.append(statistics.fmean(errors))
            maxes.append(max(errors))
    finally:
        await conn.close()
    return means, maxes


def verify_exact(tally, reference) -> int:
    """Check the seeded subset of exact answers; returns how many."""
    for query, payload in tally.to_verify:
        problems = exact_mismatches(
            reference.answer(query), payload_answer(query, payload)
        )
        if problems:
            tally.failures.append(f"{query.tag}: {problems[0]}")
    return len(tally.to_verify)


async def get_stats(port: int) -> Dict:
    conn = await Conn.open(port)
    try:
        return (await conn.request("GET", "/stats"))[1]
    finally:
        await conn.close()


# ----------------------------------------------------------------------
# runs
# ----------------------------------------------------------------------
async def end_to_end(args, workload, work, npz, reference, tally):
    setups, server = [], None
    try:
        for i in range(SETUP_LAUNCHES):
            if server is not None:
                await server.stop()
            server, seconds = await Server.launch(
                work, npz, work / f"store{i}", args.seed, trace=False
            )
            setups.append(seconds)
            if i == 0:
                # Refresh on a freshly set-up server: after the load
                # phase the allocator state left by the workload swung
                # the batch times (spread 0.32 on adhoc_exact).
                refresh = await server.command("ingest",
                                               rows=QUIET_REFRESH_ROWS)
        stream = request_stream(workload.name, args.seed)
        await closed_loop(server.port, stream, workload.connections,
                          WARMUP_SECONDS, tally)
        seg = await closed_loop(server.port, stream, workload.connections,
                                args.seconds, tally)
        rss = server.peak_rss_mb()
        means, maxes = await probe(server, reference.head(BASE_ROWS),
                                   tally)
    finally:
        if server is not None:
            await server.stop()
    verified = verify_exact(tally, reference.head(BASE_ROWS))
    metrics = {
        "setup_s": (statistics.median(setups), "s", len(setups)),
        "query_qps": (seg.ok / seg.wall, "1/s", seg.ok),
    }
    for pct, name in PERCENTILES.items():
        metrics[name] = (1e3 * _percentile(seg.latencies, pct), "ms",
                         len(seg.latencies))
    metrics["answer_rel_err_mean"] = (statistics.fmean(means), "ratio",
                                      len(means))
    metrics["answer_rel_err_max"] = (statistics.fmean(maxes), "ratio",
                                     len(maxes))
    metrics["server_peak_rss_mb"] = (rss, "MB", 1)
    validity = _validity(seg)
    # Refresh throughput is reported here, not as a metric: across ten
    # seeds it spread by 0.23-0.32 of its median, too close to the
    # largest bound a metric may have.
    validity.update(
        setup_s=setups,
        verified_exact_answers=verified,
        refresh_rows_per_s=refresh["batch_rows"]
        / statistics.median(refresh["batch_seconds"]),
        refresh_batches=len(refresh["batch_seconds"]),
        refresh_actions=refresh["actions"],
    )
    return metrics, validity


async def traced(args, workload, work, npz, reference, tally):
    server, _ = await Server.launch(work, npz, work / "store", args.seed,
                                    trace=True)
    try:
        stream = request_stream(workload.name, args.seed)
        await closed_loop(server.port, stream, workload.connections,
                          WARMUP_SECONDS, tally)
        p50 = {False: [], True: []}
        for i in range(CALIBRATION_PAIRS):
            for on in ((False, True) if i % 2 == 0 else (True, False)):
                await server.command("trace", on=on)
                seg = await closed_loop(server.port, stream,
                                        workload.connections,
                                        CALIBRATION_SECONDS, tally)
                p50[on].append(_percentile(seg.latencies, 50))
        await server.command("trace", on=True)
        before = await get_stats(server.port)
        seg = await closed_loop(server.port, stream, workload.connections,
                                args.seconds, tally)
        after = await get_stats(server.port)
        await server.command("ingest", rows=QUIET_REFRESH_ROWS)
        dump = await server.command("dump")
    finally:
        await server.stop()
    verify_exact(tally, reference.head(BASE_ROWS))
    layers = dump["layers"]
    layers["obs.trace_overhead_frac"] = (
        statistics.median(p50[True]) / statistics.median(p50[False]) - 1.0
    )
    layers.update(_stats_deltas(before, after, layers["traced_queries"]))
    layers["serve.self_ms"] = 1e3 * _serve_self(seg.pairs,
                                                dump["query_times"])
    validity = _validity(seg)
    validity["traced_queries"] = layers.pop("traced_queries")
    return layers, validity


def _ratio(before: Dict, after: Dict) -> float:
    hits = after.get("hits", 0) - before.get("hits", 0)
    misses = after.get("misses", 0) - before.get("misses", 0)
    return hits / (hits + misses) if hits + misses else 0.0


def _stats_deltas(before: Dict, after: Dict, queries: int) -> Dict:
    """Counter deltas of ``/stats`` across the traced phase."""

    def groupcode(stats):
        block = stats.get("groupcode_cache", {})
        return {k: block.get(k, 0) for k in ("hits", "misses")}

    lookups = sum(groupcode(after).values()) - sum(groupcode(before).values())
    serving_before = before.get("serving", {})
    serving = after.get("serving", {})
    return {
        "engine.groupcode_cache_lookups_per_query": lookups / max(queries, 1),
        "warehouse.answer_cache_hit_ratio": _ratio(
            before.get("answer_cache", {}), after.get("answer_cache", {})
        ),
        "aqp.plan_cache_hit_ratio": _ratio(
            before.get("plan_cache", {}), after.get("plan_cache", {})
        ),
        "engine.groupcode_cache_hit_ratio": _ratio(
            groupcode(before), groupcode(after)
        ),
        "serve.peak_inflight": serving.get("peak_inflight", 0),
        "serve.rejected_overload": serving.get("rejected_overload", 0)
        - serving_before.get("rejected_overload", 0),
    }


def _serve_self(pairs, query_times) -> float:
    """Median over requests of the round trip minus the server's
    ``query_with_contract`` time for the same request, paired by SQL
    text in arrival order."""
    server: Dict[str, List[float]] = {}
    for sql, seconds in query_times:
        server.setdefault(sql, []).append(seconds)
    diffs = []
    for sql, rtt in pairs:
        times = server.get(sql)
        if times:
            diffs.append(rtt - times.pop(0))
    return statistics.median(diffs) if diffs else 0.0


def _validity(seg: Segment) -> Dict:
    n = len(seg.latencies)
    support = {
        pct: {"samples": n, "beyond": int(n * (100 - pct) / 100),
              "supported": n * (100 - pct) / 100 >= 10}
        for pct in list(PERCENTILES) + [TAIL_PERCENTILE]
    }
    tail = support[TAIL_PERCENTILE]
    if tail["supported"]:
        tail["ms"] = 1e3 * _percentile(seg.latencies, TAIL_PERCENTILE)
    out = {
        "requests_per_connection": seg.per_connection,
        "successful": seg.ok,
        "phase_wall_s": seg.wall,
        "percentiles": {f"p{pct}": v for pct, v in support.items()},
    }
    return out


def fingerprint() -> Dict:
    commit = "unknown"  # a checkout without .git has no commit to name
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=10,
            ).stdout.strip() or commit
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "git_commit": commit,
    }


async def main_async(args) -> int:
    workload = WORKLOADS[args.workload]
    work = ROOT / ".perfbench_work" / f"run-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    tally = Tally()
    try:
        npz = work / "openaq.npz"
        reference = generate(args.seed, npz)
        body = end_to_end if not args.trace else traced
        metrics, validity = await body(args, workload, work, npz,
                                       reference, tally)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    failed = len(tally.failures)
    validity.update(
        workload=workload.name, seed=args.seed, seconds=args.seconds,
        trace=args.trace, attempted=tally.attempted, failed=failed,
        failed_frac=failed / max(tally.attempted, 1),
        failures=tally.failures[:20], machine=fingerprint(),
    )
    result = {}
    if args.trace:
        for name, value in sorted(metrics.items()):
            print(f"{name:40s} {value:14.6g}")
            result[name] = {"value": value, "unit": _layer_unit(name)}
    else:
        for name, (value, unit, samples) in metrics.items():
            print(f"{name:24s} {value:14.6g} {unit:6s} samples={samples}")
            result[name] = {"value": value, "unit": unit}
    print("validity " + json.dumps(validity))
    correct = failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": max(tally.attempted, 1),
        "failed": failed,
        "metrics": result,
    }))
    return 0 if correct else 1


def _layer_unit(name: str) -> str:
    if name.endswith("_ms"):
        return "ms"
    if name.endswith(("_ratio", "_frac")):
        return "ratio"
    return "count"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS),
                        required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"no program source at {SRC / 'repro'}; run from a full "
              "checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    return asyncio.run(main_async(args))


if __name__ == "__main__":
    sys.exit(main())
