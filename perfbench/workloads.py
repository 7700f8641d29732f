"""The four closed-loop workloads.

Each workload builds its seeded inputs in ``__init__`` (never timed),
then the runner calls ``prepare`` (untimed) and ``setup`` (timed) a few
times, and ``run`` once on the first set-up. ``run`` drives the program
from this one thread — every call waits for the previous one — and
checks its outputs against the benchmark's own computations.

Timed phase: a workload works in whole rounds of the same operations and
stops at the first round boundary after ``seconds`` of operation time
(the sum of the timed calls, scaled to the reference host speed; the
benchmark's own bookkeeping and checks between calls are excluded).
Rates divide by that operation time.

Memory: ``rss_mb`` is read once per run, at the end of round
``MEMORY_ROUND`` (every run goes on at least that far), so it counts the
set-up and the same amount of timed work whatever the host's speed.
"""

from __future__ import annotations

import ctypes
import gc
import math
import os
import shutil
import statistics
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional, Tuple

import oracle
from hostspeed import REFERENCE_NOMINAL_S, reference_seconds
from inputs import APP_ID, Generator, cell_of, model_shares, to_observation

PASSWORD = "pw"
OPERATOR = "operator"
ANALYST = "analyst"
VIEWER = "viewer"


def _clock() -> float:
    return 0.0


def percentile(values: List[float], q: float) -> float:
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def rss_bytes() -> int:
    with open("/proc/self/status", encoding="utf-8") as handle:
        for line in handle:
            if line.startswith("VmRSS:"):
                return int(line.split()[1]) * 1024
    return 0


def settle_heap() -> None:
    """Collect garbage and hand free heap pages back to the OS (glibc), so
    a memory reading holds live data and no reusable slack."""
    gc.collect()
    try:
        ctypes.CDLL(None).malloc_trim(0)
    except (OSError, AttributeError):
        pass


#: operation time between two host-speed readings
REFERENCE_EVERY_S = 0.05
#: readings on either side of an operation that set its scaling
SMOOTHING = 4


class Phase:
    """What one timed phase (or one set-up) measured.

    Every timed call goes through :meth:`op`, which interleaves a
    host-speed reading after each ``REFERENCE_EVERY_S`` of operation time.
    An operation is scaled by the median of the readings around it (see
    :mod:`hostspeed`); raw figures are kept alongside.
    """

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.metrics: Dict[str, float] = {}
        #: reference figures with no bound (tails, counts, raw values)
        self.info: Dict[str, Any] = {}
        self.errors: List[str] = []
        self.op_seconds = 0.0
        #: (seconds, reading index just before the op)
        self._ops: List[Tuple[float, int]] = []
        self._round_ends: List[int] = []
        # a few readings on each edge, so that a phase or set-up made of
        # a handful of long calls still has a window of them per call
        self._readings: List[float] = [reference_seconds() for _ in range(SMOOTHING)]
        self._factor_cache: List[float] = []
        self._since_reading = 0.0
        self._scaled_before_reading = 0.0
        #: perf_counter() at :meth:`finish`: the end of the timed work
        self.finished_at = float("inf")

    def op(self, seconds: float) -> int:
        """Account one timed call; returns its index for :meth:`scaled`."""
        self._ops.append((seconds, len(self._readings) - 1))
        self.op_seconds += seconds
        self._since_reading += seconds
        if self._since_reading >= REFERENCE_EVERY_S:
            self._readings.append(reference_seconds())
            self._scaled_before_reading += self._since_reading / self._recent_factor()
            self._since_reading = 0.0
        return len(self._ops) - 1

    def _recent_factor(self) -> float:
        return statistics.median(self._readings[-2 * SMOOTHING - 1:]) / REFERENCE_NOMINAL_S

    def elapsed(self) -> float:
        """Scaled operation time so far, from the readings taken so far:
        what the phases' stopping rules go by, so that a run stops after
        the same amount of work whatever the host's speed just then."""
        return self._scaled_before_reading + self._since_reading / self._recent_factor()

    def call(self, fn: Callable[..., Any], *args: Any, **kwargs: Any) -> Any:
        """Run and account ``fn(*args, **kwargs)``; returns its result."""
        return self.timed(lambda: fn(*args, **kwargs))[0]

    def timed(self, call: Callable[[], Any]) -> Tuple[Any, int]:
        """Run and account one call; returns (its result, its op index)."""
        start = perf_counter()
        result = call()
        return result, self.op(perf_counter() - start)

    def end_round(self) -> None:
        self._round_ends.append(len(self._ops))

    def finish(self) -> None:
        """The closing readings, so the last operations have two sides."""
        self.finished_at = perf_counter()
        self._readings.extend(reference_seconds() for _ in range(SMOOTHING))

    def factor(self, reading: int) -> float:
        """Host slowness around reading ``reading`` vs the nominal: the
        median of the readings within ``SMOOTHING`` of it on either side
        (the drift moves over seconds; single readings jitter)."""
        window = self._readings[max(0, reading - SMOOTHING):reading + SMOOTHING + 2]
        return statistics.median(window) / REFERENCE_NOMINAL_S

    def _factors(self) -> List[float]:
        if len(self._factor_cache) != len(self._readings):
            self._factor_cache = [self.factor(r) for r in range(len(self._readings))]
        return self._factor_cache

    def scaled(self, indices: List[int]) -> List[float]:
        factors = self._factors()
        return [self._ops[i][0] / factors[self._ops[i][1]] for i in indices]

    def scaled_spans(self, spans: List[Tuple[int, int]], scaled: bool = True) -> List[float]:
        """Scaled (or raw) operation time from the start of op ``first`` to
        the end of op ``last`` (inclusive) for each pair: the system's time
        on a path, without the benchmark's own work between calls."""
        factors = self._factors() if scaled else [1.0] * len(self._readings)
        prefix = [0.0]
        for seconds, reading in self._ops:
            prefix.append(prefix[-1] + seconds / factors[reading])
        return [prefix[last + 1] - prefix[first] for first, last in spans]

    def scaled_total(self) -> float:
        factors = self._factors()
        return sum(seconds / factors[reading] for seconds, reading in self._ops)

    def round_seconds(self) -> List[float]:
        """Scaled operation time of each completed round."""
        out, start = [], 0
        for end in self._round_ends:
            out.append(sum(self.scaled(list(range(start, end)))))
            start = end
        return out

    def expect(self, ok: bool, message: str) -> None:
        if not ok and len(self.errors) < 20:
            self.errors.append(message)

    def timing(self, name: str, indices: List[int], scale: float = 1e3) -> None:
        """Median of the given ops as a metric; p99, the sample count and
        the unscaled median for reference."""
        if indices:
            samples = self.scaled(indices)
            self.metrics[name] = statistics.median(samples) * scale
            self.info[name.replace("_p50", "_p99")] = percentile(samples, 0.99) * scale
            self.info[name + "_samples"] = len(samples)
            self.info[name + "_raw"] = statistics.median(self._ops[i][0] for i in indices) * scale

    def kinds_timing(self, name: str, kinds: Dict[str, List[int]], scale: float = 1e3) -> None:
        """The geometric mean over operation kinds of each kind's median:
        a mix of kinds whose times differ by orders of magnitude has no
        steady overall median (it falls in the gap between a fast and a
        slow group), while each kind's median is steady and every kind
        weighs the same. One kind gives its plain median. The overall
        median and p99 are kept for reference."""
        medians = [statistics.median(self.scaled(indices)) for indices in kinds.values() if indices]
        self.metrics[name] = math.exp(statistics.fmean(math.log(m) for m in medians)) * scale
        every = [i for indices in kinds.values() for i in indices]
        samples = self.scaled(every)
        self.info[name + "_overall_median"] = statistics.median(samples) * scale
        self.info[name.replace("_p50", "_p99")] = percentile(samples, 0.99) * scale
        self.info[name + "_samples"] = len(samples)
        self.info[name + "_kinds"] = {kind: statistics.median(self.scaled(indices)) * scale
                                      for kind, indices in kinds.items()}

    def rate(self, name: str, count: float, indices: Optional[List[int]] = None) -> None:
        """``count`` per scaled second of the given ops (all ops if None)."""
        if indices is None:
            scaled, raw = self.scaled_total(), self.op_seconds
        else:
            scaled, raw = sum(self.scaled(indices)), sum(self._ops[i][0] for i in indices)
        self.metrics[name] = count / scaled
        self.info[name + "_raw"] = count / raw


@dataclass
class _State:
    """What a set-up built: the server and the clients that drive it."""

    server: Any
    clients: List[Any] = field(default_factory=list)
    uplinks: List[Any] = field(default_factory=list)
    extra: Dict[str, Any] = field(default_factory=dict)


class Workload:
    name = ""
    #: timed set-ups per run; the median is reported
    setups = 3
    #: rounds after which ``rss_mb`` is read
    MEMORY_ROUND = 8
    #: per-layer metrics of the set-up's work: taken over the traced
    #: set-up and phase together, all others over the phase alone
    SETUP_LAYER_METRICS: Tuple[str, ...] = ()
    #: :meth:`probe` values that are levels rather than counters
    PROBE_LEVELS = ("max_shard_share",)

    def __init__(self, seed: int, work: Path) -> None:
        self.seed = seed
        self.work = work
        self._rss_base: Optional[int] = None

    def mark_memory(self) -> None:
        """The baseline of ``rss_mb``, taken just before a set-up; the next
        phase reads memory against it once."""
        settle_heap()
        self._rss_base = rss_bytes()

    def read_memory(self, phase: Phase, state: Any, rounds: int) -> None:
        """After round ``MEMORY_ROUND``: the resident memory the set-up and
        the phase so far added to the process, plus the workers' own."""
        if rounds == self.MEMORY_ROUND and self._rss_base is not None:
            settle_heap()
            phase.metrics["rss_mb"] = (rss_bytes() - self._rss_base + self.worker_rss(state)) / 2**20
            self._rss_base = None

    def prepare(self) -> None:
        """Untimed work before each set-up (e.g. copying a data dir)."""

    def setup(self, clock: Phase) -> Any:
        """Build the server; every program call goes through ``clock``."""
        raise NotImplementedError

    def teardown(self, state: Any) -> None:
        """Release what ``setup`` built (workers, WAL handles)."""

    def worker_rss(self, state: Any) -> int:
        """Resident bytes of worker processes (0 without workers)."""
        return 0

    def run(self, state: Any, seconds: float) -> Phase:
        raise NotImplementedError

    def probe_delta(self, before: Dict[str, Any], after: Dict[str, Any]) -> Dict[str, Any]:
        """What the counters of :meth:`probe` gained between two readings."""
        return {name: value if name in self.PROBE_LEVELS else value - before.get(name, 0)
                for name, value in after.items()}

    def probe(self, state: Any) -> Dict[str, Any]:
        """The program's own counters, read around a traced phase."""
        server = state.server
        out: Dict[str, Any] = {"dedup_hits": server.deduped}
        streaming = server.streaming.stats()
        out["fanned_out"] = streaming["fanned_out"]
        # a sharded server's own store holds accounts and jobs only; its
        # observations live in the workers, whose mirrors report per shard
        store = server.store
        out["full_scans"] = sum(
            store.collection(name).stats_snapshot().full_scans
            for name in store.collection_names()
        )
        columnar = server.data.collection.columnar_info()
        mirrors = columnar["shards"].values() if columnar.get("sharded") else [columnar]
        out["kernel_hits"] = sum(info.get("kernel_hits", 0) for info in mirrors)
        out["fallbacks"] = sum(info.get("fallbacks", 0) for info in mirrors)
        return out


# -- fleet_amqp ----------------------------------------------------------------------


class FleetAmqp(Workload):
    """The deployed uplink: the whole Figure 9 fleet over AMQP."""

    name = "fleet_amqp"
    #: each set-up enrols 2,091 contributors (~10 s here), so two
    #: set-ups already average over ~20 s of host drift
    setups = 2
    ROUNDS = 60
    #: the v1.3 release's buffer: its phones send every BUFFER rounds
    BUFFER = 10
    RESENDS = 4
    MEMORY_ROUND = 20
    #: the store reads of enrolment (account lookups) are set-up work
    SETUP_LAYER_METRICS = ("collection.find_ms", "collection.examined_per_returned",
                           "collection.full_scans")

    def __init__(self, seed: int, work: Path) -> None:
        super().__init__(seed, work)
        from repro.client.client import obs_token
        from repro.devices.models import TOTAL_DEVICES

        gen = Generator(seed)
        self.people = gen.contributors(TOTAL_DEVICES)
        fleet = len(self.people)
        #: release mix: v1.3 buffers 10 observations, v1.2.9 sends each
        self.buffered = [bool(b) for b in gen.rng.random(fleet) < 0.5]
        self.order = [int(i) for i in gen.rng.permutation(fleet)]
        docs = gen.observations(
            [self.people[j] for _ in range(self.ROUNDS) for j in self.order]
        )
        self.rounds = [docs[r * fleet:(r + 1) * fleet] for r in range(self.ROUNDS)]
        self.observations = [[to_observation(d) for d in rnd] for rnd in self.rounds]
        # a few single-observation buffers are sent twice per round, as a
        # phone does after a publish the broker did not confirm
        position = {client: p for p, client in enumerate(self.order)}
        unbuffered = [j for j in range(fleet) if not self.buffered[j]]
        self.resends: List[List[Tuple[int, dict]]] = []
        for r in range(self.ROUNDS):
            picks = gen.rng.choice(len(unbuffered), size=self.RESENDS, replace=False)
            batch = []
            for pick in picks:
                client = unbuffered[int(pick)]
                doc = dict(self.rounds[r][position[client]])
                doc["obs_id"] = f"{obs_token(doc['user_id'])}:{doc['observation_id']}"
                doc["app_version"] = "1.2.9"
                batch.append((client, doc))
            self.resends.append(batch)

    def setup(self, clock: Phase) -> Any:
        from repro.client.client import GoFlowClient
        from repro.client.uplink import BrokerUplink
        from repro.client.versions import AppVersion
        from repro.core.server import GoFlowServer

        server = clock.call(GoFlowServer)
        clock.call(server.register_app, APP_ID)
        operator = clock.call(server.enroll_user, APP_ID, OPERATOR, PASSWORD)["token"]
        clients, uplinks = [], []

        def enrol(index: int, person: Any) -> None:
            login = server.enroll_user(APP_ID, person.user_id, PASSWORD)
            uplink = BrokerUplink(server.broker, login["exchange"], app_id=APP_ID)
            version = AppVersion.V1_3 if self.buffered[index] else AppVersion.V1_2_9
            clients.append(GoFlowClient(person.user_id, version, uplink, clock=_clock))
            uplinks.append(uplink)

        for index, person in enumerate(self.people):
            clock.call(enrol, index, person)
        state = _State(server=server, clients=clients, uplinks=uplinks)
        state.extra["operator"] = operator
        return state

    def run(self, state: Any, seconds: float) -> Phase:
        from repro.core.api import Request

        phase = Phase()
        server, clients = state.server, state.clients
        stored_before = server.ingested
        #: every uplink call, and those of them that transmitted
        uplink_ops: List[int] = []
        sends: List[int] = []
        reads: Dict[str, List[int]] = {"totals": [], "models": []}
        resent = 0
        rounds = 0
        # stop only after whole cycles of BUFFER rounds: every v1.3 phone
        # flushes its buffer once per cycle, so a cycle is the repeating unit
        while rounds < self.ROUNDS and (
            rounds % self.BUFFER or rounds < self.MEMORY_ROUND or phase.elapsed() < seconds
        ):
            for position, observation in enumerate(self.observations[rounds]):
                client = clients[self.order[position]]
                before = client.stats.transmissions
                start = perf_counter()
                client.on_observation(observation)
                index = phase.op(perf_counter() - start)
                uplink_ops.append(index)
                if client.stats.transmissions != before:
                    sends.append(index)
            for client, doc in self.resends[rounds]:
                batch = [dict(doc)]
                result, index = phase.timed(lambda: state.uplinks[client].send(batch))
                uplink_ops.append(index)
                sends.append(index)
                phase.expect(result.confirmed, f"resend by client {client} not confirmed")
                resent += 1
            phase.attempted += len(self.observations[rounds]) + len(self.resends[rounds])
            # the operators' dashboard follows the campaign (Figs. 8, 9)
            answers = {}
            for path in ("totals", "models"):
                response, index = phase.timed(lambda: server.handle(Request(
                    "GET", f"/apps/{APP_ID}/analytics/{path}", token=state.extra["operator"])))
                reads[path].append(index)
                phase.attempted += 1
                phase.expect(response.ok, f"GET analytics/{path}: {response.status} {response.body}")
                answers[path] = response.body
            if rounds % self.BUFFER == self.BUFFER - 1:
                # every v1.3 phone has just flushed: all sent is stored
                stored = [doc for rnd in self.rounds[:rounds + 1] for doc in rnd]
                phase.expect(answers["totals"] == oracle.totals(stored),
                             f"round {rounds}: totals differ from the oracle")
                phase.expect(oracle.check_per_model(answers["models"], stored),
                             f"round {rounds}: per-model table differs from the oracle")
            phase.end_round()
            rounds += 1
            self.read_memory(phase, state, rounds)
        phase.finish()
        phase.rate("ingest_obs_per_s", server.ingested - stored_before, uplink_ops)
        phase.timing("uplink_p50_ms", sends)
        every = reads["totals"] + reads["models"]
        phase.rate("queries_per_s", len(every), every)
        phase.kinds_timing("query_p50_ms", reads)
        phase.info["rounds"] = rounds
        self._check(phase, state, rounds, resent)
        return phase

    def _check(self, phase: Phase, state: Any, rounds: int, resent: int) -> None:
        """Every observation stored exactly once; models match the tally."""
        for client in state.clients:
            client.flush(force=True)
            phase.expect(client.pending == 0, f"client {client.user_id} kept a backlog")
        sent = [doc for rnd in self.rounds[:rounds] for doc in rnd]
        stored = state.server.data.collection.iter_documents()
        obs_ids = {doc.get("obs_id") for doc in stored}
        phase.expect(len(stored) == len(sent), f"stored {len(stored)} of {len(sent)} observations")
        phase.expect(len(obs_ids) == len(stored), "an obs_id is stored more than once")
        phase.expect(
            {doc["taken_at"] for doc in stored} == {doc["taken_at"] for doc in sent},
            "stored observations differ from the ones sent",
        )
        tally: Dict[str, int] = {}
        for doc in sent:
            tally[doc["model"]] = tally.get(doc["model"], 0) + 1
        got: Dict[str, int] = {}
        for doc in stored:
            got[doc["model"]] = got.get(doc["model"], 0) + 1
        phase.expect(got == tally, "per-model counts differ from the generator's tally")
        phase.expect(state.server.deduped == resent, f"{state.server.deduped} dedup hits for {resent} resends")


# -- live_map_durable ------------------------------------------------------------------


class LiveMapDurable(Workload):
    """Push path on a durable server recovered over a standing corpus."""

    name = "live_map_durable"
    setups = 3
    CORPUS = 40_000
    CORPUS_PEOPLE = 1_000
    POOL = 800
    BATCH = 100
    PER_ROUND = 4
    CELLS = 256
    MEMORY_ROUND = 40
    SETUP_LAYER_METRICS = ("wal.recover_s",)

    def __init__(self, seed: int, work: Path) -> None:
        super().__init__(seed, work)
        gen = Generator(seed)
        residents = gen.contributors(self.CORPUS_PEOPLE, prefix="c")
        self.corpus = gen.observations(
            [residents[i % len(residents)] for i in range(self.CORPUS)], app_version="1.3"
        )
        gen.stamp_ids(self.corpus, "corpus")
        self.pool = gen.contributors(self.POOL, prefix="p")
        self.batches = [gen.observations([person] * self.BATCH) for person in self.pool]
        self.batch_observations = [[to_observation(d) for d in b] for b in self.batches]
        # the cells with the most standing data: the hot city centre
        load: Dict[Tuple[int, int], int] = {}
        for doc in self.corpus:
            if "location" in doc:
                key = cell_of(doc["location"]["x_m"], doc["location"]["y_m"])
                load[key] = load.get(key, 0) + 1
        self.cells = sorted(load, key=lambda c: (-load[c], c))[: self.CELLS]
        self.batch_of = {d["taken_at"]: b for b, docs in enumerate(self.batches) for d in docs}
        self.base = work / "live-base"
        self.data_dir = work / "live-run"
        self._build_base()

    def _build_base(self) -> None:
        """The standing corpus, journaled by a durable server (untimed)."""
        from repro.core.accounts import Role
        from repro.core.server import GoFlowServer

        shutil.rmtree(self.base, ignore_errors=True)
        server = GoFlowServer(durable=True, data_dir=str(self.base))
        server.register_app(APP_ID)
        server.accounts.create_account(APP_ID, OPERATOR, PASSWORD, role=Role.MANAGER)
        server.accounts.create_account(APP_ID, VIEWER, PASSWORD)
        for person in self.pool:
            server.accounts.create_account(APP_ID, person.user_id, PASSWORD)
        for start in range(0, len(self.corpus), 1000):
            server.data.ingest_many(APP_ID, self.corpus[start:start + 1000])
        server.store.journal.close()

    def prepare(self) -> None:
        shutil.rmtree(self.data_dir, ignore_errors=True)
        shutil.copytree(self.base, self.data_dir)

    def setup(self, clock: Phase) -> Any:
        from repro.client.client import GoFlowClient
        from repro.client.subscriber import StreamConsumer
        from repro.client.uplink import RestBatchUplink
        from repro.client.versions import AppVersion
        from repro.core.server import GoFlowServer
        from repro.webapp.server import SoundCityApp

        server = clock.call(GoFlowServer, durable=True, data_dir=str(self.data_dir))
        clock.call(SoundCityApp, server, app_id=APP_ID)
        viewer = clock.call(server.login_client, APP_ID, VIEWER, PASSWORD)["token"]
        consumers = [
            clock.call(StreamConsumer, server, APP_ID, viewer,
                       filter_spec={"regions": [f"g{x}:{y}"]}, tiles=True)
            for x, y in self.cells
        ]
        consumers.append(clock.call(StreamConsumer, server, APP_ID, viewer))
        clients, uplinks = [], []

        def connect(person: Any) -> None:
            token = server.login_client(APP_ID, person.user_id, PASSWORD)["token"]
            uplink = RestBatchUplink(server, APP_ID, token)
            clients.append(
                GoFlowClient(person.user_id, AppVersion.V1_3, uplink, clock=_clock, uplink_batch=self.BATCH)
            )
            uplinks.append(uplink)

        for person in self.pool:
            clock.call(connect, person)
        state = _State(server=server, clients=clients, uplinks=uplinks)
        state.extra.update(
            consumers=consumers,
            viewer=viewer,
            operator=clock.call(server.login_client, APP_ID, OPERATOR, PASSWORD)["token"],
        )
        return state

    def teardown(self, state: Any) -> None:
        journal = state.server.store.journal
        if journal is not None:
            journal.close()

    def run(self, state: Any, seconds: float) -> Phase:
        from repro.client.client import obs_token
        from repro.core.api import Request

        phase = Phase()
        server, consumers = state.server, state.extra["consumers"]
        stored_before = server.ingested
        sends: List[int] = []
        polls: List[int] = []
        #: (op index of the send, op index of the poll that returned it)
        deliveries: List[Tuple[int, int]] = []
        send_op: Dict[int, int] = {}
        received: List[List[float]] = [[] for _ in consumers]
        tile_events = [0] * len(consumers)
        last_cursor = [0] * len(consumers)
        map_reads = map_failures = 0
        # expected live map: tiles folded from the stored documents, in
        # insertion order, with per-region document lists for erasures
        region_docs: Dict[str, List[dict]] = {}
        for doc in self.corpus:
            region_docs.setdefault(oracle.region_key(doc), []).append(doc)
        expected_tiles = oracle.tiles(self.corpus)
        stored_docs = len(self.corpus)

        def poll_all() -> None:
            for index, consumer in enumerate(consumers):
                events, polled = phase.timed(lambda: consumer.poll(limit=1000))
                polls.append(polled)
                for event in events:
                    cursor = event.get("cursor")
                    phase.expect(cursor == last_cursor[index] + 1,
                                 f"consumer {index}: cursor {cursor} after {last_cursor[index]}")
                    last_cursor[index] = cursor if cursor is not None else last_cursor[index]
                    if event["kind"] == "observation":
                        received[index].append(event["taken_at"])
                        deliveries.append((send_op[self.batch_of[event["taken_at"]]], polled))
                    elif event["kind"] == "tile":
                        tile_events[index] += 1
                    else:
                        phase.expect(False, f"consumer {index}: unexpected {event['kind']} event")
            phase.attempted += len(consumers)

        rounds = 0
        max_rounds = len(self.batches) // self.PER_ROUND
        while rounds < max_rounds and (rounds < self.MEMORY_ROUND or phase.elapsed() < seconds):
            first = rounds * self.PER_ROUND
            for b in range(first, first + self.PER_ROUND):
                client = state.clients[b]
                for observation in self.batch_observations[b][:-1]:
                    client.on_observation(observation)
                last = self.batch_observations[b][-1]
                _, send_op[b] = phase.timed(lambda: client.on_observation(last))
                sends.append(send_op[b])
                phase.expect(client.pending == 0, f"batch {b} was not sent")
                phase.attempted += 1
                for doc in self.batches[b]:
                    region = oracle.region_key(doc)
                    region_docs.setdefault(region, []).append(doc)
                    tile = expected_tiles.get(region)
                    expected_tiles[region] = _fold(tile, doc) if tile else oracle.tiles([doc])[region]
                stored_docs += len(self.batches[b])
                poll_all()
            # a retransmitted batch: every observation must dedup
            person = self.pool[first]
            retry = [
                dict(doc, obs_id=f"{obs_token(person.user_id)}:{doc['observation_id']}", app_version="1.3")
                for doc in self.batches[first]
            ]
            _, index = phase.timed(lambda: state.uplinks[first].send(retry))
            sends.append(index)
            phase.attempted += 1
            poll_all()
            # one contributor of this round is erased (CNIL right to erasure)
            victim = self.pool[first + self.PER_ROUND - 1].user_id
            response, _ = phase.timed(lambda: server.handle(Request(
                "DELETE", f"/apps/{APP_ID}/users/{victim}", token=state.extra["operator"])))
            phase.attempted += 1
            phase.expect(response.ok and response.body["deleted_observations"] == self.BATCH,
                         f"erasure of {victim}: {response.status} {response.body}")
            stored_docs -= self.BATCH
            for region in {oracle.region_key(d) for d in self.batches[first + self.PER_ROUND - 1]}:
                region_docs[region] = [d for d in region_docs[region] if d["user_id"] != victim]
                if region_docs[region]:
                    expected_tiles[region] = oracle.tiles(region_docs[region])[region]
                else:
                    del expected_tiles[region]
            # the live map, checked against tiles of what is stored
            response, _ = phase.timed(lambda: server.handle(
                Request("GET", "/map/live", token=state.extra["viewer"])))
            phase.attempted += 1
            map_reads += 1
            served = response.body.get("tiles") if response.ok else None
            if served is None or not oracle.close(_plain(served), expected_tiles):
                phase.failed += 1
                map_failures += 1
            phase.end_round()
            rounds += 1
            self.read_memory(phase, state, rounds)
        phase.finish()
        phase.rate("ingest_obs_per_s", server.ingested - stored_before)
        phase.timing("uplink_p50_ms", sends)
        phase.rate("queries_per_s", len(polls), polls)
        phase.kinds_timing("query_p50_ms", {"poll": polls})
        delays = phase.scaled_spans(deliveries)
        phase.info["push_delay_p50_ms"] = statistics.median(delays) * 1e3
        phase.info["push_delay_p50_ms_raw"] = statistics.median(phase.scaled_spans(deliveries, scaled=False)) * 1e3
        phase.info["push_delay_p99_ms"] = percentile(delays, 0.99) * 1e3
        phase.info["push_delay_p50_ms_samples"] = len(delays)
        phase.info.update(rounds=rounds, map_reads=map_reads, map_read_failures=map_failures)
        self._check(phase, state, rounds, received, tile_events, stored_docs)
        return phase

    def _check(self, phase, state, rounds, received, tile_events, stored_docs) -> None:
        sent = [doc for b in range(rounds * self.PER_ROUND) for doc in self.batches[b]]
        for index, (x, y) in enumerate(self.cells):
            mine = sorted(
                d["taken_at"] for d in sent
                if "location" in d and cell_of(d["location"]["x_m"], d["location"]["y_m"]) == (x, y)
            )
            phase.expect(sorted(received[index]) == mine,
                         f"cell g{x}:{y}: {len(received[index])} events for {len(mine)} observations")
            phase.expect(tile_events[index] == len(mine), f"cell g{x}:{y}: {tile_events[index]} tile events")
        whole = received[-1]
        phase.expect(sorted(whole) == sorted(d["taken_at"] for d in sent),
                     f"app consumer got {len(whole)} events for {len(sent)} observations")
        for index, consumer in enumerate(state.extra["consumers"]):
            phase.expect(consumer.missed == 0 and consumer.state == "live",
                         f"consumer {index} lagged or was evicted")
        phase.expect(len(state.server.data.collection) == stored_docs,
                     f"{len(state.server.data.collection)} stored, expected {stored_docs}")

    def probe(self, state: Any) -> Dict[str, Any]:
        out = super().probe(state)
        out["wal_syncs"] = state.server.store.journal.syncs
        base = sum(p.stat().st_size for p in self.base.rglob("*") if p.is_file())
        now = sum(p.stat().st_size for p in self.data_dir.rglob("*") if p.is_file())
        out["wal_bytes"] = now - base
        return out


def _fold(tile: dict, doc: dict) -> dict:
    """One observation folded into an expected tile (the map's left fold)."""
    value = float(doc["noise_dba"])
    return {
        "count": tile["count"] + 1,
        "samples": tile["samples"] + 1,
        "sum_dba": tile["sum_dba"] + value,
        "min_dba": min(tile["min_dba"], value),
        "max_dba": max(tile["max_dba"], value),
    }


def _plain(tiles: Dict[str, dict]) -> Dict[str, dict]:
    keys = ("count", "samples", "sum_dba", "min_dba", "max_dba")
    return {region: {k: tile.get(k) for k in keys} for region, tile in tiles.items()}


# -- shared analyst queries --------------------------------------------------------------


class _Queries:
    """The analyst operations of one round and their oracle answers.

    ``ops`` yields ``(label, call, expected)`` where ``expected`` takes
    the live document copy and returns True when the answer is right.
    """

    def __init__(self, server: Any, token: str, gen: Generator, rounds: int) -> None:
        from repro.core.api import Request

        self.server = server
        self.analytics = server.analytics
        self.token = token
        self.request = Request
        self.pseudonym = server.privacy.pseudonym
        self.models = sorted(model_shares())
        days = gen.rng.integers(0, 290, size=rounds)
        self.windows = [(float(d) * 86400.0, float(d + 10) * 86400.0) for d in days]

    def rest(self, path: str, params: Dict[str, str]) -> Any:
        response = self.server.handle(
            self.request("GET", f"/apps/{APP_ID}/{path}", params=params, token=self.token)
        )
        if not response.ok:
            raise RuntimeError(f"GET {path} {params}: {response.status} {response.body}")
        return response.body

    def figures(self, r: int) -> List[Tuple[str, Callable, Callable]]:
        a, model = self.analytics, self.models[r % len(self.models)]
        mode = ("opportunistic", "manual", "journey")[r % 3]
        provider = ("network", "gps", "fused")[r % 3]
        return [
            ("fig8.cumulative_by_day", a.cumulative_by_day, lambda d, x: x == oracle.cumulative_by_day(d)),
            ("fig9.per_model_table", a.per_model_table, lambda d, x: oracle.check_per_model(x, d)),
            ("fig9.totals", a.totals, lambda d, x: x == oracle.totals(d)),
            ("fig10.accuracy_buckets", a.accuracy_buckets,
             lambda d, x: oracle.close({row["_id"]: {"count": row["count"], "mean": row["mean"]} for row in x},
                                       oracle.accuracy_buckets(d))),
            ("fig11-13.accuracy_values", lambda: a.accuracy_values(provider),
             lambda d, x: sorted(x) == oracle.accuracy_values(d, provider)),
            ("fig14.spl_values", lambda: a.spl_values(model=model),
             lambda d, x: sorted(x) == oracle.spl_values(d, model)),
            ("fig15.top_contributors", lambda: a.top_contributors(model),
             lambda d, x: oracle.check_top_contributors(x, d, model, 20, self.pseudonym)),
            ("fig18.hourly_distribution", a.hourly_distribution,
             lambda d, x: x == oracle.hourly_distribution(d)),
            ("fig18.hourly_distribution_model", lambda: a.hourly_distribution(model),
             lambda d, x: x == oracle.hourly_distribution(d, model)),
            ("fig19.hourly_by_contributor", lambda: a.hourly_distribution_by_contributor(model),
             lambda d, x: x == oracle.hourly_by_contributor(d, model, self.pseudonym)),
            ("fig20.provider_shares", a.provider_shares, lambda d, x: oracle.close(x, oracle.provider_shares(d))),
            ("fig20.provider_shares_mode", lambda: a.provider_shares(mode),
             lambda d, x: oracle.close(x, oracle.provider_shares(d, mode))),
            ("fig21.activity_distribution", a.activity_distribution,
             lambda d, x: oracle.close(x, oracle.activity_distribution(d))),
        ]

    def reads(self, r: int) -> List[Tuple[str, Callable, Callable]]:
        model = self.models[(r * 7) % len(self.models)]
        since, until = self.windows[r]
        window = {"since": repr(since), "until": repr(until)}
        by_model = dict(window, model=model)
        by_provider = dict(window, provider="gps")
        return [
            ("rest.data_window_model", lambda: self.rest("data", dict(by_model, limit="50")),
             lambda d, x: [doc["taken_at"] for doc in x] == oracle.newest_taken(d, by_model, 50)),
            ("rest.data_window_provider", lambda: self.rest("data", dict(by_provider, limit="50")),
             lambda d, x: [doc["taken_at"] for doc in x] == oracle.newest_taken(d, by_provider, 50)),
            ("rest.count_window", lambda: self.rest("data/count", window),
             lambda d, x: x["count"] == oracle.count(d, window)),
            ("rest.count_model", lambda: self.rest("data/count", {"model": model}),
             lambda d, x: x["count"] == oracle.count(d, {"model": model})),
            ("rest.count_window_provider", lambda: self.rest("data/count", by_provider),
             lambda d, x: x["count"] == oracle.count(d, by_provider)),
        ]

    def pipelines(self, r: int, collection: Any) -> List[Tuple[str, Callable, Callable]]:
        model = self.models[(r * 3) % len(self.models)]
        mode = ("journey", "manual", "opportunistic")[r % 3]
        since, until = self.windows[r]
        return [
            ("pipeline.group_model", lambda: collection.aggregate([
                {"$match": {"mode": mode}},
                {"$group": {"_id": "$model", "n": {"$sum": 1}, "avg": {"$avg": "$noise_dba"}}},
                {"$sort": {"n": -1, "_id": 1}},
                {"$limit": 5},
            ]), lambda d, x: oracle.close(list(x), oracle.group_by_model(d, mode, 5))),
            ("pipeline.group_provider", lambda: collection.aggregate([
                {"$match": {"location": {"$exists": True}, "taken_at": {"$gte": since, "$lt": until}}},
                {"$group": {"_id": "$location.provider", "n": {"$sum": 1}}},
                {"$sort": {"_id": 1}},
            ]), lambda d, x: list(x) == oracle.group_by_provider(d, since, until)),
            ("pipeline.group_activity", lambda: collection.aggregate([
                {"$match": {"model": model}},
                {"$group": {"_id": "$activity.label", "n": {"$sum": 1}, "max": {"$max": "$noise_dba"}}},
                {"$sort": {"_id": 1}},
            ]), lambda d, x: list(x) == oracle.group_by_activity(d, model)),
        ]


def _query(phase: Phase, label: str, call: Callable, check: Optional[Callable],
           live: List[dict], samples: Dict[str, List[int]]) -> None:
    """One timed query; its answer is checked when ``check`` is given."""
    answer, index = phase.timed(call)
    samples.setdefault(label, []).append(index)
    phase.attempted += 1
    if check is not None:
        phase.expect(check(live, answer), f"{label}: answer differs from the oracle")


# -- analyst_mix -------------------------------------------------------------------------


class AnalystMix(Workload):
    """The paper's analyses over a standing corpus, with writes and erasures."""

    name = "analyst_mix"
    setups = 5
    CORPUS = 30_000
    WRITE = 50
    MAX_ROUNDS = 120
    ERASE_EVERY = 4
    CHECK_EVERY = 5

    def __init__(self, seed: int, work: Path) -> None:
        super().__init__(seed, work)
        from repro.devices.models import TOTAL_DEVICES

        self.gen = Generator(seed)
        people = self.gen.contributors(TOTAL_DEVICES)
        self.corpus = self.gen.observations(
            [people[i % len(people)] for i in range(self.CORPUS)], app_version="1.3"
        )
        self.gen.stamp_ids(self.corpus, "corpus")
        picks = self.gen.rng.integers(0, len(people), size=(self.MAX_ROUNDS, self.WRITE))
        self.writes = [self.gen.observations([people[int(i)] for i in row]) for row in picks]
        for r, batch in enumerate(self.writes):
            self.gen.stamp_ids(batch, f"write{r}")
        victims = self.gen.rng.choice(len(people), size=self.MAX_ROUNDS // self.ERASE_EVERY, replace=False)
        self.victims = [people[int(i)].user_id for i in victims]

    def setup(self, clock: Phase) -> Any:
        from repro.client.uplink import RestBatchUplink
        from repro.core.accounts import Role
        from repro.core.server import GoFlowServer

        server = clock.call(GoFlowServer)
        clock.call(server.register_app, APP_ID)
        clock.call(server.accounts.create_account, APP_ID, ANALYST, PASSWORD, role=Role.MANAGER)
        for victim in self.victims:
            clock.call(server.accounts.create_account, APP_ID, victim, PASSWORD)
        clock.call(server.data.ingest_many, APP_ID, self.corpus)
        token = clock.call(server.login_client, APP_ID, ANALYST, PASSWORD)["token"]
        state = _State(server=server, uplinks=[RestBatchUplink(server, APP_ID, token)])
        state.extra["token"] = token
        return state

    def run(self, state: Any, seconds: float) -> Phase:
        from repro.core.api import Request

        phase = Phase()
        server = state.server
        queries = _Queries(server, state.extra["token"], Generator(self.seed + 1), self.MAX_ROUNDS)
        live = list(self.corpus)
        samples: Dict[str, List[int]] = {}
        writes: List[int] = []
        stored_before = server.ingested
        written = 0
        rounds = 0
        # stop only after whole cycles of ERASE_EVERY rounds, so every run
        # pays the same share of erasure-driven view rebuilds
        while rounds < self.MAX_ROUNDS and (
            rounds % self.ERASE_EVERY or rounds < self.MEMORY_ROUND or phase.elapsed() < seconds
        ):
            checked = rounds % self.CHECK_EVERY == 0
            ops = (queries.figures(rounds) + queries.reads(rounds)
                   + queries.reads((rounds + self.MAX_ROUNDS // 2) % self.MAX_ROUNDS)
                   + queries.pipelines(rounds, server.data.collection))
            for label, call, check in ops:
                _query(phase, label, call, check if checked else None, live, samples)
            batch = self.writes[rounds]
            result, index = phase.timed(lambda: state.uplinks[0].send(batch))
            writes.append(index)
            phase.attempted += 1
            phase.expect(result.accepted == len(batch), f"write {rounds} not accepted")
            live.extend(batch)
            written += len(batch)
            if rounds % self.ERASE_EVERY == self.ERASE_EVERY - 1:
                victim = self.victims[rounds // self.ERASE_EVERY]
                response, _ = phase.timed(lambda: server.handle(Request(
                    "DELETE", f"/apps/{APP_ID}/users/{victim}", token=state.extra["token"])))
                phase.attempted += 1
                mine = sum(1 for d in live if d["user_id"] == victim)
                phase.expect(response.ok and response.body["deleted_observations"] == mine,
                             f"erasure of {victim}: {response.status} {response.body} (expected {mine})")
                live = [d for d in live if d["user_id"] != victim]
            phase.end_round()
            rounds += 1
            self.read_memory(phase, state, rounds)
        phase.finish()
        every = [i for indices in samples.values() for i in indices]
        phase.rate("queries_per_s", len(every), every)
        phase.kinds_timing("query_p50_ms", samples)
        phase.rate("ingest_obs_per_s", server.ingested - stored_before, writes)
        phase.timing("uplink_p50_ms", writes)
        phase.info.update(rounds=rounds, written=written)
        # the final state, every answer checked once more
        for label, call, check in (queries.figures(rounds) + queries.reads(rounds % self.MAX_ROUNDS)):
            phase.expect(check(live, call()), f"final {label}: answer differs from the oracle")
        return phase


# -- sharded_process ----------------------------------------------------------------------


class ShardedProcess(Workload):
    """The scale-out plane: two worker processes behind the shard router."""

    name = "sharded_process"
    setups = 5
    SHARDS = 2
    CORPUS = 40_000
    BATCH = 1000
    MAX_ROUNDS = 120
    CHECK_EVERY = 5

    def __init__(self, seed: int, work: Path) -> None:
        super().__init__(seed, work)
        from repro.devices.models import TOTAL_DEVICES

        # the coordinator and the workers it forks share one CPU: with three
        # processes spread over a few CPUs, every IPC round trip waits on a
        # cross-CPU wake-up whose cost drifts with the host's load, and runs
        # of the same inputs differed by 25 %; on one CPU only one process
        # runs at a time, and the host-speed reference is read on it
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
        self.gen = Generator(seed)
        people = self.gen.contributors(TOTAL_DEVICES)
        self.corpus = self.gen.observations(
            [people[i % len(people)] for i in range(self.CORPUS)], app_version="1.3"
        )
        self.gen.stamp_ids(self.corpus, "corpus")
        # relay batches mix many contributors, so each spans both shards
        picks = self.gen.rng.integers(0, len(people), size=(self.MAX_ROUNDS, self.BATCH))
        self.batches = [self.gen.observations([people[int(i)] for i in row], app_version="1.3")
                        for row in picks]
        for r, batch in enumerate(self.batches):
            self.gen.stamp_ids(batch, f"batch{r}")

    def setup(self, clock: Phase) -> Any:
        from repro.client.uplink import RestBatchUplink
        from repro.core.server import GoFlowServer

        server = clock.call(GoFlowServer, sharding=self.SHARDS, backend="process")
        try:
            clock.call(server.register_app, APP_ID)
            clock.call(server.accounts.create_account, APP_ID, ANALYST, PASSWORD)
            clock.call(server.data.ingest_many, APP_ID, self.corpus)
            token = clock.call(server.login_client, APP_ID, ANALYST, PASSWORD)["token"]
        except BaseException:
            server.router.close()
            raise
        state = _State(server=server, uplinks=[RestBatchUplink(server, APP_ID, token)])
        state.extra["token"] = token
        return state

    def teardown(self, state: Any) -> None:
        state.server.router.close()

    def worker_rss(self, state: Any) -> int:
        """Memory private to each worker (pages still shared with the
        coordinator it forked from are not the worker's)."""
        total = 0
        for shard in state.server.router.shards.values():
            with open(f"/proc/{shard.handle.pid}/smaps_rollup", encoding="utf-8") as handle:
                for line in handle:
                    if line.startswith(("Private_Clean:", "Private_Dirty:")):
                        total += int(line.split()[1]) * 1024
        return total

    def run(self, state: Any, seconds: float) -> Phase:
        phase = Phase()
        server = state.server
        queries = _Queries(server, state.extra["token"], Generator(self.seed + 1), self.MAX_ROUNDS)
        live = list(self.corpus)
        samples: Dict[str, List[int]] = {}
        sends: List[int] = []
        stored_before = server.ingested
        rounds = 0
        while rounds < self.MAX_ROUNDS and (rounds < self.MEMORY_ROUND or phase.elapsed() < seconds):
            batch = self.batches[rounds]
            result, index = phase.timed(lambda: state.uplinks[0].send(batch))
            sends.append(index)
            phase.attempted += 1
            phase.expect(result.accepted == len(batch), f"batch {rounds} not accepted")
            live.extend(batch)
            checked = rounds % self.CHECK_EVERY == 0
            figures = {label: (call, check) for label, call, check in queries.figures(rounds)}
            reads = queries.reads(rounds)
            ops = [(label, *figures[label]) for label in (
                "fig9.per_model_table", "fig8.cumulative_by_day", "fig15.top_contributors",
                "fig18.hourly_distribution_model", "fig20.provider_shares_mode")]
            ops += [reads[0], reads[3]]
            ops += queries.pipelines(rounds, server.data.collection)[1:]
            for label, call, check in ops:
                _query(phase, label, call, check if checked else None, live, samples)
            phase.end_round()
            rounds += 1
            self.read_memory(phase, state, rounds)
        phase.finish()
        phase.rate("ingest_obs_per_s", server.ingested - stored_before, sends)
        phase.timing("uplink_p50_ms", sends)
        every = [i for indices in samples.values() for i in indices]
        phase.rate("queries_per_s", len(every), every)
        phase.kinds_timing("query_p50_ms", samples)
        phase.info.update(rounds=rounds)
        self._check(phase, state, live)
        return phase

    def _check(self, phase: Phase, state: Any, live: List[dict]) -> None:
        stored = state.server.data.collection.iter_documents()
        obs_ids = {doc.get("obs_id") for doc in stored}
        phase.expect(len(stored) == len(live), f"stored {len(stored)} of {len(live)} observations")
        phase.expect(len(obs_ids) == len(stored), "an obs_id is stored more than once")
        tally: Dict[str, int] = {}
        for doc in live:
            tally[doc["model"]] = tally.get(doc["model"], 0) + 1
        got: Dict[str, int] = {}
        for doc in stored:
            got[doc["model"]] = got.get(doc["model"], 0) + 1
        phase.expect(got == tally, "per-model counts differ from the generator's tally")

    def probe(self, state: Any) -> Dict[str, Any]:
        out = super().probe(state)
        shards = state.server.router.sharding_stats()["shards"]
        total = sum(info["documents"] for info in shards.values())
        out["max_shard_share"] = max(info["documents"] for info in shards.values()) / total
        return out


WORKLOADS = {cls.name: cls for cls in (FleetAmqp, LiveMapDurable, AnalystMix, ShardedProcess)}
