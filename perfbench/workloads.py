"""The benchmark's workloads: seeded request streams and the probe set.

Every stream is a pure function of the workload seed, so one seed gives
one request sequence. See ``README.md`` for why each workload exists.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from typing import Iterator, List, Tuple

from oracle import Query

#: CVOPT sample every workload serves: stratified on the key below,
#: tracking two value columns, 20 000 rows.
SAMPLE_NAME = "aq"
SAMPLE_KEYS = ("country", "parameter", "unit")
SAMPLE_COLUMNS = ("value", "latitude")
SAMPLE_BUDGET = 20_000

TABLE_ROWS = 1_000_000
NUM_COUNTRIES = 40
BASE_ROWS = 800_000  # the rest is held out for refreshes
BATCH_ROWS = 10_000  # rows per refresh call

#: A ``max_cv`` no 20 000-row sample meets, so the contract falls back
#: to exact execution after the approximate attempt.
UNREACHABLE_CV = 1e-6


#: Rows folded through the refresh path with no reads running
#: (``refresh_rows_per_s``): every held-out row, 20 batches.
QUIET_REFRESH_ROWS = TABLE_ROWS - BASE_ROWS


@dataclass(frozen=True)
class Workload:
    """A closed loop of ``connections`` clients."""

    name: str
    connections: int


WORKLOADS = {
    w.name: w
    for w in (
        Workload("dashboard", 2),
        Workload("adhoc_exact", 1),
    )
}

_AGG_MENU = (
    ("avg_value", "AVG", "value"),
    ("sum_value", "SUM", "value"),
    ("n", "COUNT", "*"),
    ("avg_lat", "AVG", "latitude"),
    ("sum_lat", "SUM", "latitude"),
)

_GROUPINGS = (
    ("country", "parameter", "unit"),
    ("country", "parameter"),
    ("country",),
    ("parameter", "unit"),
)

#: Dashboard panels re-issued verbatim (answer-cache hits).
_REPEATS = (
    Query(("country", "parameter", "unit"),
          (("avg_value", "AVG", "value"),), tag="repeat"),
    Query(("country",), (("sum_value", "SUM", "value"),
                         ("n", "COUNT", "*")), tag="repeat"),
    Query(("parameter", "unit"), (("avg_lat", "AVG", "latitude"),),
          where=(("latitude", ">", 0.0),), tag="repeat"),
)

#: Share of dashboard requests that are exact repeats of a panel.
REPEAT_SHARE = 0.05
#: Share that are unfiltered with a random aggregate list.
UNFILTERED_SHARE = 0.25


def _lat(rng: random.Random) -> float:
    return round(rng.uniform(-30.0, 50.0), 4)


def _fresh_filtered(rng: random.Random) -> Query:
    """A paper SASG / MASG / SAMG / MAMG shape with a fresh literal."""
    kind = rng.randrange(5)
    if kind == 0:  # SASG, as AQ5
        return Query(SAMPLE_KEYS, (("avg_value", "AVG", "value"),),
                     where=(("latitude", ">", _lat(rng)),), tag="sasg")
    if kind == 1:  # MASG, as AQ2
        return Query(SAMPLE_KEYS, (("total", "SUM", "value"),
                                   ("n", "COUNT", "*")),
                     where=(("value", "<", round(rng.uniform(1, 60), 4)),),
                     tag="masg")
    if kind == 2:  # SASG over a latitude band
        lo = _lat(rng)
        return Query(("country",), (("avg_value", "AVG", "value"),),
                     where=(("latitude", "BETWEEN",
                             (lo, round(lo + rng.uniform(5, 40), 4))),),
                     tag="sasg_band")
    if kind == 3:  # SAMG, one panel per grouping set of AQ7
        keys = rng.choice((("country", "parameter"), ("parameter",),
                           ("country",)))
        return Query(keys, (("total", "SUM", "value"),),
                     where=(("latitude", ">", _lat(rng)),), tag="samg")
    return Query(("country", "parameter"),  # MAMG, as AQ8
                 (("total_value", "SUM", "value"),
                  ("total_lat", "SUM", "latitude")),
                 where=(("value", ">", round(rng.uniform(0.01, 5), 4)),),
                 tag="mamg")


def _unfiltered(rng: random.Random) -> Query:
    keys = rng.choice(_GROUPINGS)
    picks = sorted(rng.sample(range(len(_AGG_MENU)), rng.randint(1, 3)))
    return Query(keys, tuple(_AGG_MENU[i] for i in picks), tag="unfiltered")


def dashboard_stream(seed: int) -> Iterator[Query]:
    """Endless dashboard traffic: fresh literals, varying aggregate
    lists and a few exact repeats, all answerable from the sample."""
    rng = random.Random(f"dashboard:{seed}")
    while True:
        u = rng.random()
        if u < REPEAT_SHARE:
            yield rng.choice(_REPEATS)
        elif u < REPEAT_SHARE + UNFILTERED_SHARE:
            yield _unfiltered(rng)
        else:
            yield _fresh_filtered(rng)


#: Share of ``adhoc_exact`` responses checked against the reference.
ADHOC_VERIFY_SHARE = 0.2


def adhoc_stream(seed: int) -> Iterator[Query]:
    """Endless queries no sample can answer: ``GROUP BY location``, or a
    covered shape whose ``max_cv`` forces the exact fallback."""
    rng = random.Random(f"adhoc_exact:{seed}")
    while True:
        verify = rng.random() < ADHOC_VERIFY_SHARE
        if rng.random() < 0.5:
            yield Query(("location",), (("avg_value", "AVG", "value"),
                                        ("n", "COUNT", "*")),
                        where=(("latitude", ">", _lat(rng)),),
                        expect="exact", verify=verify, limit=-1,
                        tag="location")
        else:
            yield Query(SAMPLE_KEYS, (("avg_value", "AVG", "value"),),
                        where=(("latitude", ">", _lat(rng)),),
                        max_cv=UNREACHABLE_CV, expect="exact",
                        verify=verify, limit=-1, tag="fallback")


def request_stream(workload: str, seed: int) -> Iterator[Query]:
    if workload == "adhoc_exact":
        return adhoc_stream(seed)
    return dashboard_stream(seed)


_AQ3_AGG = (("average", "AVG", "value"),)


def probe_set() -> List[Tuple[str, Query]]:
    """The paper's OpenAQ shapes that route to the sample.

    Besides AQ3.a-c (hours 0-5, 0-11, 0-17) the AQ3 selectivity axis is
    probed at every other hour, and AQ5 (``latitude > 0``) at six more
    thresholds: each filter averages a different subset of sample rows,
    so the per-probe maxima are less correlated and their mean is
    steadier across seeds than eight probes would give.
    """
    def hours(h):
        return Query(SAMPLE_KEYS, _AQ3_AGG,
                     where=(("HOUR(local_time)", "BETWEEN", (0, h)),))

    probes = [
        ("AQ2", Query(SAMPLE_KEYS, (("agg1", "SUM", "value"),
                                    ("agg2", "COUNT", "*")))),
        ("AQ3", hours(24)),
        ("AQ3.a", hours(5)),
        ("AQ3.b", hours(11)),
        ("AQ3.c", hours(17)),
    ]
    probes += [(f"AQ3.h{h}", hours(h)) for h in (1, 3, 7, 9, 13, 15, 19, 21)]
    probes += [
        (f"AQ5.lat{t:g}", Query(SAMPLE_KEYS, _AQ3_AGG,
                                where=(("latitude", ">", t),)))
        for t in (0, -30, -20, -10, 10, 20, 30)
    ]
    probes += [
        ("AQ7", Query(("country", "parameter"), (("total", "SUM", "value"),),
                      cube=True)),
        ("AQ8", Query(("country", "parameter"),
                      (("total_value", "SUM", "value"),
                       ("total_lat", "SUM", "latitude")),
                      cube=True)),
    ]
    return [(name, replace(q, tag=name, limit=-1)) for name, q in probes]
