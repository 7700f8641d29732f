"""Reference figures: where later work can move the benchmark's numbers.

Usage, from the repository root (about a minute; prints one line each):

    python3 perfbench/findings.py

Each figure is one targeted measurement of a path the workloads cross:
fleet enrolment cost at two fleet sizes, a count whose plan was cached
before the first observation, figure queries that miss the columnar
mirror, the view rebuilds one erasure forces, and the same queries on a
two-worker sharded server.
"""

from __future__ import annotations

import gc
import statistics
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
#: observations in the corpus the figures are measured over
DOCS = 100_000


def timed(call, repeat: int = 3) -> float:
    """Median milliseconds of ``repeat`` calls."""
    times = []
    for _ in range(repeat):
        start = perf_counter()
        call()
        times.append(perf_counter() - start)
    return statistics.median(times) * 1e3


def enrolment(people) -> float:
    from repro.core.server import GoFlowServer

    server = GoFlowServer()
    server.register_app("SC")
    start = perf_counter()
    for person in people:
        server.enroll_user("SC", person.user_id, "pw")
    return perf_counter() - start


def main() -> int:
    sys.path[:0] = [str(HERE), str(Path.cwd() / "src")]
    from inputs import Generator
    from repro.core.accounts import Role
    from repro.core.api import Request
    from repro.core.datamgmt import DataQuery
    from repro.core.server import GoFlowServer

    gen = Generator(7)
    people = gen.contributors(2091)
    corpus = gen.observations([people[i % len(people)] for i in range(DOCS)], app_version="1.3")
    gen.stamp_ids(corpus, "findings")
    gc.collect()
    gc.freeze()

    small, full = enrolment(people[:300]), enrolment(people)
    print(f"fleet enrolment: {small:.2f} s for 300 contributors, {full:.2f} s for {len(people)}")
    server = GoFlowServer()
    server.register_app("SC")
    server.enroll_user("SC", "analyst", "pw")
    plan = server.store.collection("accounts").explain({"key": "SC/analyst"})
    print(f"  plan of an account key lookup: {plan['strategy']}")

    model = corpus[0]["model"]
    early = GoFlowServer()
    early.register_app("SC")
    early.data.count(DataQuery(app_id="SC", model=model))  # before any observation
    for target in (early, server):
        target.data.ingest_many("SC", corpus)
    cold = timed(lambda: early.data.count(DataQuery(app_id="SC", model=model)))
    warm = timed(lambda: server.data.count(DataQuery(app_id="SC", model=model)))
    print(f"count by model at {DOCS} docs: {cold:.1f} ms when first asked before any "
          f"observation, {warm:.1f} ms otherwise")

    analytics = server.analytics
    for name, call in (
        ("hourly_distribution", analytics.hourly_distribution),
        ("accuracy_values", analytics.accuracy_values),
        ("activity_distribution", analytics.activity_distribution),
        ("per_model_table", analytics.per_model_table),
    ):
        print(f"unsharded {name}: {timed(call):.1f} ms")
    server.accounts.set_role("SC", "analyst", Role.MANAGER)
    token = server.login_client("SC", "analyst", "pw")["token"]
    victim = people[5].user_id
    server.accounts.create_account("SC", victim, "pw")
    analytics.per_model_table()
    server.data.collection.aggregate([{"$group": {"_id": "$model", "n": {"$sum": 1}}}])
    server.handle(Request("DELETE", f"/apps/SC/users/{victim}", token=token))
    rebuild_view = timed(analytics.per_model_table, repeat=1)
    rebuild_mirror = timed(
        lambda: server.data.collection.aggregate([{"$group": {"_id": "$model", "n": {"$sum": 1}}}]),
        repeat=1,
    )
    print(f"after one erasure: per_model_table {rebuild_view:.1f} ms (materialized rebuild), "
          f"first columnar $group {rebuild_mirror:.1f} ms (mirror rebuild)")

    sharded = GoFlowServer(sharding=2, backend="process")
    try:
        sharded.register_app("SC")
        sharded.data.ingest_many("SC", corpus)
        pipeline = [{"$group": {"_id": "$model", "n": {"$sum": 1}}}]
        explain = sharded.data.collection.aggregate(pipeline).explain
        print(f"sharded $group at {DOCS} docs: {timed(lambda: sharded.data.collection.aggregate(pipeline)):.1f} ms "
              f"(pushdown {explain['pushdown']}, merge {explain.get('merge')}), unsharded "
              f"{timed(lambda: server.data.collection.aggregate(pipeline)):.1f} ms")
        print(f"sharded per_model_table: {timed(sharded.analytics.per_model_table):.1f} ms, "
              f"unsharded {timed(analytics.per_model_table):.2f} ms")
    finally:
        sharded.router.close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
