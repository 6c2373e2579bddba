"""One metaserver exchange per brokered call (DESIGN.md §3.5).

MS_LOOKUP is paid once per function, and the achieved-bandwidth
observation of call *k-1* rides the MS_PICK of call *k* -- folded into
the directory before that placement is made, so the scheduler sees what
it saw when every observation was its own MS_REPORT.
"""

import sys
import threading
from collections import deque

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.client.core import CallRecord
from repro.idl import IdlError, Signature
from repro.metaserver import (
    BandwidthAwareScheduler,
    BrokeredClient,
    MetaClient,
    Metaserver,
)
from repro.obs import names
from repro.protocol.errors import ProtocolError, RemoteError
from repro.protocol.messages import (
    MAX_PICK_ITEMS,
    JobTimestamps,
    MessageType,
    PickRequest,
    ServerInfo,
    pack,
    unpack,
)
from repro.transport import connect
from repro.transport.faults import DROP_PRE, FaultPlan
from repro.xdr import XdrEncoder
from tests.chaos.test_failover import dmmul_args, fleet  # noqa: F401

SITE = "lab"
ECHO = Signature.from_idl(
    'Define echo(mode_in int n, mode_in double A[n], mode_out double B[n]) '
    '"B = A" Calls "C" echo(n, A, B);')
NEAR = ServerInfo("near", "10.0.0.1", 7001, 1, ("echo",))
FAR = ServerInfo("far", "10.0.0.2", 7002, 1, ("echo",))


@pytest.fixture
def directory_only():
    """A bandwidth-aware metaserver that knows NEAR and FAR; no server
    behind either -- the calls are scripted (``ScriptedClient``)."""
    meta = Metaserver(poll_interval=3600.0,
                      scheduler=BandwidthAwareScheduler()).start()
    meta_client = MetaClient(*meta.address)
    meta_client.register(NEAR)
    meta_client.register(FAR)
    yield meta, meta_client
    meta_client.close()
    meta.stop()


@pytest.fixture
def picks_seen(monkeypatch):
    """Every PickRequest a metaserver in this process decodes."""
    seen = []

    def spy(op, payload):
        values = unpack(op, payload)
        if op == MessageType.MS_PICK:
            seen.extend(values)
        return values

    monkeypatch.setattr("repro.metaserver.metaserver.unpack", spy)
    return seen


def frames_received(meta):
    counter = meta.metrics.get(names.TRANSPORT_FRAMES_RECEIVED)
    return 0 if counter is None else counter.value()


def bandwidths(meta):
    return {entry.info.name: dict(entry.bandwidth_by_site)
            for entry in meta.directory.entries()}


class ScriptedClient:
    """Stands in for the NinfClient of one server: every call "takes"
    the next scripted number of seconds."""

    def __init__(self, elapsed, fail_first=None):
        self.elapsed = deque(elapsed)
        self.fail_first = fail_first

    def get_signature(self, function):
        return ECHO

    def call_with_record(self, function, n, array, _out):
        if self.fail_first is not None:
            hook, self.fail_first = self.fail_first, None
            hook()
            raise ConnectionResetError("scripted transient failure")
        record = CallRecord(function, 0, 0.0, self.elapsed.popleft(),
                            JobTimestamps(0.0, 0.0, 0.0),
                            input_bytes=4 + 8 * n, output_bytes=8 * n)
        return [array], record

    def close(self):
        pass


def scripted_broker(meta_client, clients, **options):
    broker = BrokeredClient(meta_client, site=SITE, **options)
    broker._client_for = lambda info: clients[info.name]
    return broker


# The estimate is 16,004 B for every call and an unobserved link counts
# as 1 MB/s.  Each server's successive calls achieve these rates (B/s),
# which move the better-connected server back and forth: the bandwidth
# scheduler places the ten calls N F N F N N F N F N.
N = 1000
COMM_BYTES = 4 + 16 * N
CALLS = 10
SCRIPT = {
    "near": [COMM_BYTES / rate for rate in
             (5e5, 5e4, 5e5, 1e4, 1e4, 8e6, 5e4, 1e4, 5e5, 2e5)],
    "far": [COMM_BYTES / rate for rate in
            (5e5, 5e4, 5e4, 1e4, 2e6, 5e4, 1e4, 2e6, 2e6, 8e6)],
}


# -- (a) exchanges per call -------------------------------------------------

def test_steady_state_call_costs_one_metaserver_frame(fleet):
    _, meta, meta_client = fleet
    rng = np.random.default_rng(0)
    broker = BrokeredClient(meta_client)
    broker.call("dmmul", *dmmul_args(rng)[0])
    before = frames_received(meta)
    assert before == 4                  # two registrations, lookup, pick
    for _ in range(5):
        broker.call("dmmul", *dmmul_args(rng)[0])
    assert frames_received(meta) == before + 5
    broker.close()                              # flushes the last observation
    assert frames_received(meta) == before + 6
    assert len(broker.records) == 6
    assert broker.records[0][1].function == broker.records[-1][1].function
    assert broker.records.maxlen is not None


def test_wrong_arguments_raise_before_any_pick(fleet, picks_seen):
    _, meta, meta_client = fleet
    with BrokeredClient(meta_client) as broker:
        with pytest.raises(IdlError):
            broker.call("dmmul", 4)             # first use: lookup only
        assert picks_seen == []
        before = frames_received(meta)
        with pytest.raises(IdlError):
            broker.call("dmmul", 4, np.eye(3), np.eye(4), None)
        assert frames_received(meta) == before  # signature already held


# -- (b) placement equivalence ----------------------------------------------

def run_brokered(meta_client):
    clients = {name: ScriptedClient(SCRIPT[name]) for name in SCRIPT}
    with scripted_broker(meta_client, clients) as broker:
        for _ in range(CALLS):
            broker.call("echo", N, np.zeros(N), None)
        return [info.name for info, _record in broker.records]


def run_explicit(meta_client):
    """The same script as report-then-pick, one exchange each."""
    elapsed = {name: deque(SCRIPT[name]) for name in SCRIPT}
    chosen = []
    for _ in range(CALLS):
        info = meta_client.pick("echo", comm_bytes=float(COMM_BYTES),
                                flops=None, site=SITE)
        chosen.append(info.name)
        meta_client.report(info.host, info.port, SITE,
                           COMM_BYTES / elapsed[info.name].popleft())
    return chosen


def test_piggybacked_observations_place_like_explicit_reports(
        directory_only):
    meta, meta_client = directory_only
    brokered = run_brokered(meta_client)
    assert "".join(name[0] for name in brokered) == "nfnfnnfnfn"
    piggybacked = bandwidths(meta)
    reference = Metaserver(poll_interval=3600.0,
                           scheduler=BandwidthAwareScheduler()).start()
    try:
        with MetaClient(*reference.address) as reference_client:
            reference_client.register(NEAR)
            reference_client.register(FAR)
            assert run_explicit(reference_client) == brokered
        assert bandwidths(reference) == piggybacked
    finally:
        reference.stop()


# -- (c) older peers ----------------------------------------------------------

def old_pick_payload(exclude=None):
    enc = XdrEncoder()
    enc.pack_string("echo")
    enc.pack_double(8.0)
    enc.pack_bool(False)
    enc.pack_string(SITE)
    if exclude is not None:
        enc.pack_uint(len(exclude))
        for host, port in exclude:
            enc.pack_string(host)
            enc.pack_uint(port)
    return enc.getvalue()


def test_older_pick_payloads_and_standalone_report_still_served(
        directory_only):
    meta, meta_client = directory_only
    with connect(*meta.address, timeout=5.0) as channel:
        for payload, allowed in (
                (old_pick_payload(), {"near", "far"}),
                (old_pick_payload([(NEAR.host, NEAR.port)]), {"far"})):
            _type, reply = channel.request(
                MessageType.MS_PICK, payload,
                expect=MessageType.MS_PICK_REPLY)
            assert unpack(MessageType.MS_PICK_REPLY,
                          reply)[0].name in allowed
    meta_client.report(FAR.host, FAR.port, SITE, 3e6)
    assert bandwidths(meta)["far"] == {SITE: 3e6}


@pytest.mark.parametrize("trailer", [
    # An exclude count past the cap with nothing behind it: refused for
    # the count, not for the missing elements.
    lambda enc: enc.pack_uint(MAX_PICK_ITEMS + 1),
    lambda enc: (enc.pack_uint(0), enc.pack_uint(1 << 31)),
])
def test_oversized_pick_lists_are_refused_undecoded(directory_only, trailer):
    meta, _ = directory_only
    enc = XdrEncoder()
    enc.pack_string("echo")
    enc.pack_double(8.0)
    enc.pack_bool(False)
    enc.pack_string(SITE)
    trailer(enc)
    with connect(*meta.address, timeout=5.0) as channel:
        with pytest.raises(RemoteError) as excinfo:
            channel.request(MessageType.MS_PICK, enc.getvalue())
        assert excinfo.value.code == "bad-request"
        assert f"at most {MAX_PICK_ITEMS}" in str(excinfo.value)
        channel.request(MessageType.PING, expect=MessageType.PONG)


def test_bad_bandwidth_is_refused_before_it_reaches_the_directory(
        directory_only):
    """A bandwidth that is not finite and > 0 never decodes, so it is
    answered ``bad-request`` and never noted: one ``0.0`` used to make
    every later MS_PICK for the site die dividing by it
    (``BandwidthAwareScheduler.predict``), one ``nan`` to set the
    site's EWMA to ``nan`` for good."""
    meta, meta_client = directory_only
    for bandwidth in (0.0, float("nan"), float("inf"), -1.0):
        with pytest.raises(RemoteError) as excinfo:
            meta_client.report(FAR.host, FAR.port, SITE, bandwidth)
        assert excinfo.value.code == "bad-request"
        # Riding an MS_PICK it refuses that pick whole, and is dropped.
        meta_client.observe(NEAR.host, NEAR.port, SITE, bandwidth)
        with pytest.raises(RemoteError) as excinfo:
            meta_client.pick("echo", comm_bytes=8e6, site=SITE)
        assert excinfo.value.code == "bad-request"
    assert bandwidths(meta) == {"near": {}, "far": {}}
    assert meta_client.pick("echo", comm_bytes=8e6,
                            site=SITE).name in {"near", "far"}
    meta_client.report(FAR.host, FAR.port, SITE, 3e6)
    assert bandwidths(meta)["far"] == {SITE: 3e6}
    assert meta_client.pick("echo", comm_bytes=8e6, site=SITE).name == "far"


# -- (d) failover and failure -------------------------------------------------

def test_failover_repick_carries_exclude_and_pending_observations(
        directory_only, picks_seen):
    meta, meta_client = directory_only
    meta.directory.report_bandwidth(FAR.host, FAR.port, SITE, 1.0)  # bait NEAR
    late = (FAR.host, FAR.port, "elsewhere", 7e6)
    clients = {
        # NEAR fails once; meanwhile another user of the MetaClient
        # queues an observation.
        "near": ScriptedClient([], fail_first=lambda: meta_client.observe(
            *late)),
        "far": ScriptedClient([0.5]),
    }
    with scripted_broker(meta_client, clients, max_failover=1) as broker:
        broker.call("echo", N, np.zeros(N), None)
        assert broker.failovers == 1
        assert broker.records[-1][0].name == "far"
    first, second = picks_seen
    assert (first.exclude, first.observations) == ((), ())
    assert second.exclude == ((NEAR.host, NEAR.port),)
    assert second.observations == (late,)
    assert bandwidths(meta)["far"]["elsewhere"] == 7e6
    # close() flushed the successful call's own observation.
    assert bandwidths(meta)["far"][SITE] != 1.0


def test_failed_pick_keeps_observations_within_the_bound(directory_only,
                                                         picks_seen):
    meta, _ = directory_only
    plan = FaultPlan(seed=3, rate=1.0, kinds=(DROP_PRE,), max_faults=1)
    with MetaClient(*meta.address, fault_plan=plan) as flaky:
        queued = [(NEAR.host, NEAR.port, SITE, float(k)) for k in (1, 2, 3)]
        for observation in queued:
            flaky.observe(*observation)
        with pytest.raises((OSError, ProtocolError)):
            flaky.pick("echo", site=SITE)
        assert picks_seen == []                 # never reached a replica
        newer = (FAR.host, FAR.port, SITE, 4.0)
        flaky.observe(*newer)
        flaky.pick("echo", site=SITE)
        assert [r.observations for r in picks_seen] == [(*queued, newer)]
        flaky.pick("echo", site=SITE)
        assert picks_seen[-1].observations == ()    # sent once, not twice
    with MetaClient("127.0.0.1", 1) as unreachable:
        for k in range(MAX_PICK_ITEMS + 5):
            unreachable.observe(NEAR.host, NEAR.port, SITE, float(k))
            if k % 16 == 0:
                with pytest.raises(OSError):
                    unreachable.pick("echo", site=SITE)
        kept = [obs[3] for obs in unreachable._observations]
        assert kept == [float(k) for k in range(5, MAX_PICK_ITEMS + 5)]


def test_no_provider_surfaces_from_pick_once_signature_is_cached(fleet):
    servers, _, meta_client = fleet
    rng = np.random.default_rng(1)
    with BrokeredClient(meta_client) as broker:
        broker.call("dmmul", *dmmul_args(rng)[0])
        for server in servers:
            meta_client.unregister(*server.address)
        with pytest.raises(RemoteError) as excinfo:
            broker.call("dmmul", *dmmul_args(rng)[0])
        assert excinfo.value.code == "no-provider"


# -- (e) PickRequest on the wire ----------------------------------------------

text = st.text(max_size=12)
ports = st.integers(min_value=0, max_value=65535)
rates = st.floats(allow_nan=False)
bandwidths_seen = st.floats(min_value=0.0, exclude_min=True,
                            allow_infinity=False)
pick_requests = st.builds(
    PickRequest,
    function=text,
    comm_bytes=rates,
    flops=st.none() | rates,
    site=text,
    exclude=st.lists(st.tuples(text, ports), max_size=4).map(tuple),
    observations=st.lists(st.tuples(text, ports, text, bandwidths_seen),
                          max_size=4).map(tuple))


@settings(max_examples=200, deadline=None)
@given(pick_requests)
def test_pick_request_round_trips(pick):
    wire = pack(MessageType.MS_PICK, pick)
    assert unpack(MessageType.MS_PICK, wire) == (pick,)
    # An older picker stops after the exclude list, or before it.
    if not pick.observations:
        assert unpack(MessageType.MS_PICK, wire[:-4]) == (pick,)
        if not pick.exclude:
            assert unpack(MessageType.MS_PICK, wire[:-8]) == (pick,)


# -- (f) one MetaClient, many threads -----------------------------------------

def test_threads_sharing_a_meta_client_lose_no_observation(directory_only):
    meta, meta_client = directory_only
    workers, rounds = 4, 40
    errors = []

    def worker(ident):
        try:
            for k in range(rounds):
                meta_client.observe(NEAR.host, NEAR.port, f"w{ident}-{k}",
                                    1e6)
                meta_client.pick("echo", site=SITE)
        except Exception as exc:  # reported below, on the main thread
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=worker, args=(i,))
                   for i in range(workers)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60.0)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
    meta_client.flush()
    assert set(bandwidths(meta)["near"]) == {
        f"w{i}-{k}" for i in range(workers) for k in range(rounds)}
