"""Self-test of the benchmark itself (not of the program).

Usage, from the repository root::

    python3 perfbench/selftest.py

Checks, exiting non-zero on the first failure:

1. the same seed writes a byte-identical input table and the same
   request streams; another seed changes both;
2. the numpy reference agrees to 1e-9 with the program's exact engine
   on every probe and every ``adhoc_exact`` template, so a mismatch
   reported by a run is the program's fault, not the reference's;
3. two short runs with one seed report identical ``answer_rel_err_*``,
   and a run with another seed reports different ones.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

from oracle import exact_mismatches, payload_answer  # noqa: E402
from run import generate  # noqa: E402
from workloads import (  # noqa: E402
    BASE_ROWS,
    WORKLOADS,
    adhoc_stream,
    probe_set,
    request_stream,
)


def _check(ok: bool, what: str) -> None:
    print(("ok   " if ok else "FAIL ") + what, flush=True)
    if not ok:
        sys.exit(1)


def _digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _stream(workload: str, seed: int, n: int = 200):
    return [q.sql for q in itertools.islice(request_stream(workload, seed), n)]


def check_inputs(tmp: Path):
    a, b, c = tmp / "a.npz", tmp / "b.npz", tmp / "c.npz"
    reference = generate(3, a)
    generate(3, b)
    generate(4, c)
    _check(_digest(a) == _digest(b), "same seed -> byte-identical table")
    _check(_digest(a) != _digest(c), "other seed -> different table")
    for name in WORKLOADS:
        _check(_stream(name, 3) == _stream(name, 3),
               f"same seed -> same {name} stream")
        _check(_stream(name, 3) != _stream(name, 4),
               f"other seed -> different {name} stream")
    return a, reference


def check_oracle(npz: Path, reference, tmp: Path) -> None:
    from repro.engine.table import Table
    from repro.warehouse import WarehouseService

    base = Table.load(npz).head(BASE_ROWS)
    service = WarehouseService(tmp / "store", {"OpenAQ": base})
    reference = reference.head(BASE_ROWS)
    queries = [q for _name, q in probe_set()]
    queries += list(itertools.islice(adhoc_stream(3), 6))
    for query in queries:
        table = service.query_with_contract(query.sql, mode="exact").table
        names = list(table.column_names)
        columns = [table.column(n).decode() for n in names]
        payload = {"columns": names, "rows": list(zip(*columns))}
        problems = exact_mismatches(
            reference.answer(query), payload_answer(query, payload)
        )
        _check(not problems, f"reference == exact engine: {query.sql}")


def _errors(seed: int):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "dashboard",
         "--seed", str(seed), "--seconds", "1", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    _check(proc.returncode == 0, f"run with seed {seed} exits 0")
    metrics = json.loads(proc.stdout.strip().splitlines()[-1])["metrics"]
    return (metrics["answer_rel_err_mean"]["value"],
            metrics["answer_rel_err_max"]["value"])


def check_errors() -> None:
    first, again, other = _errors(3), _errors(3), _errors(4)
    _check(first == again, f"same seed -> identical answer errors {first}")
    _check(first != other, f"other seed -> different answer errors {other}")


def main() -> int:
    work = ROOT / ".perfbench_work"
    work.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=work) as tmp:
        npz, reference = check_inputs(Path(tmp))
        check_oracle(npz, reference, Path(tmp))
    check_errors()
    return 0


if __name__ == "__main__":
    sys.exit(main())
