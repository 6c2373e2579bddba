"""The canonical registry of exported metric names.

Every metric any repro component registers is declared here as a
constant and listed in :data:`METRIC_NAMES`.  Two things key off this
module:

- instrumented components import the constants instead of retyping
  strings, so a renamed metric is renamed everywhere;
- the docs-consistency check (``tests/test_docs_consistency.py``)
  asserts every name in :data:`METRIC_NAMES` is documented in
  OBSERVABILITY.md, and fails CI when a metric is added without docs.

Naming convention (OBSERVABILITY.md §"Metric naming"):
``ninf_<subsystem>_<quantity>[_<unit>][_total]`` -- ``_total`` marks
counters, ``_seconds``/``_bytes`` mark units, gauges carry neither.
"""

from __future__ import annotations

__all__ = ["METRIC_NAMES"]

# -- transport: Channel framed I/O (per pool/endpoint registry) ----------
TRANSPORT_BYTES_SENT = "ninf_transport_bytes_sent_total"
TRANSPORT_BYTES_RECEIVED = "ninf_transport_bytes_received_total"
TRANSPORT_FRAMES_SENT = "ninf_transport_frames_sent_total"
TRANSPORT_FRAMES_RECEIVED = "ninf_transport_frames_received_total"

# -- transport: ConnectionPool ------------------------------------------
POOL_CONNECTIONS_CREATED = "ninf_pool_connections_created_total"
POOL_CONNECTIONS_REUSED = "ninf_pool_connections_reused_total"
POOL_IDLE_CONNECTIONS = "ninf_pool_idle_connections"
POOL_DIALS_REFUSED = "ninf_pool_dials_refused_total"

# -- transport: shared-memory upgrade (server-side Endpoint) ------------
SHM_UPGRADES = "ninf_shm_upgrades_total"
SHM_FALLBACKS = "ninf_shm_fallbacks_total"            # label: reason

# -- transport: fault injection and retry -------------------------------
FAULTS_INJECTED = "ninf_faults_injected_total"        # label: kind
FAULTS_PARTITION_DROPS = "ninf_faults_partition_drops_total"
RETRY_ATTEMPTS = "ninf_retry_attempts_total"
RETRY_RETRIES = "ninf_retry_retries_total"
BREAKER_TRIPS = "ninf_breaker_trips_total"

# -- client -------------------------------------------------------------
CLIENT_ATTEMPTS = "ninf_client_attempts_total"
CLIENT_RETRIES = "ninf_client_retries_total"
CLIENT_FAULTS_SEEN = "ninf_client_faults_seen_total"
CLIENT_CALL_SECONDS = "ninf_client_call_seconds"      # label: function
CLIENT_FAILOVERS = "ninf_client_failovers_total"
CLIENT_PICK_CACHE = "ninf_client_pick_cache_total"    # label: result
CLIENT_DEGRADED = "ninf_client_degraded_mode"

# -- endpoint / server --------------------------------------------------
ENDPOINT_CONNECTIONS_ACCEPTED = "ninf_endpoint_connections_accepted_total"
SERVER_DISPATCH_SECONDS = "ninf_server_dispatch_seconds"
SERVER_EXECUTE_SECONDS = "ninf_server_execute_seconds"  # label: function
SERVER_QUEUE_DEPTH = "ninf_server_queue_depth"
SERVER_CALLS = "ninf_server_calls_total"        # labels: function, status
SERVER_JOBS_EXPIRED = "ninf_server_jobs_expired_total"
SERVER_JOBS_CANCELLED = "ninf_server_jobs_cancelled_total"
SERVER_JOBS_SHED = "ninf_server_jobs_shed_total"      # label: reason
SERVER_COMPLETION_ERRORS = "ninf_server_completion_errors_total"
SERVER_PE_WORKER_DEATHS = "ninf_server_pe_worker_deaths_total"
SERVER_DEDUP_HITS = "ninf_server_dedup_hits_total"
SERVER_DEDUP_ENTRIES = "ninf_server_dedup_entries"
SERVER_CONNECTIONS_OPEN = "ninf_server_connections_open"
SERVER_DETACHED_EVICTED = "ninf_server_detached_evicted_total"
SERVER_HEARTBEATS_SENT = "ninf_server_heartbeats_sent_total"  # label: outcome

# -- metaserver ---------------------------------------------------------
METASERVER_PROBES = "ninf_metaserver_probes_total"    # label: outcome
METASERVER_SERVERS_ALIVE = "ninf_metaserver_servers_alive"
METASERVER_HEARTBEATS = "ninf_metaserver_heartbeats_total"  # label: outcome
METASERVER_SERVERS_SUSPECT = "ninf_metaserver_servers_suspect"
METASERVER_GOSSIP = "ninf_metaserver_gossip_total"    # label: outcome
METASERVER_GOSSIP_APPLIED = "ninf_metaserver_gossip_deltas_applied_total"

# -- bench harness (ninf-bench rpc worker processes) --------------------
BENCH_CALLS = "ninf_bench_calls_total"                # label: outcome
BENCH_CALL_SECONDS = "ninf_bench_call_seconds"
BENCH_STAGE_CLIENTS = "ninf_bench_stage_clients"

METRIC_NAMES = (
    TRANSPORT_BYTES_SENT,
    TRANSPORT_BYTES_RECEIVED,
    TRANSPORT_FRAMES_SENT,
    TRANSPORT_FRAMES_RECEIVED,
    POOL_CONNECTIONS_CREATED,
    POOL_CONNECTIONS_REUSED,
    POOL_IDLE_CONNECTIONS,
    POOL_DIALS_REFUSED,
    SHM_UPGRADES,
    SHM_FALLBACKS,
    FAULTS_INJECTED,
    FAULTS_PARTITION_DROPS,
    RETRY_ATTEMPTS,
    RETRY_RETRIES,
    BREAKER_TRIPS,
    CLIENT_ATTEMPTS,
    CLIENT_RETRIES,
    CLIENT_FAULTS_SEEN,
    CLIENT_CALL_SECONDS,
    CLIENT_FAILOVERS,
    CLIENT_PICK_CACHE,
    CLIENT_DEGRADED,
    ENDPOINT_CONNECTIONS_ACCEPTED,
    SERVER_DISPATCH_SECONDS,
    SERVER_EXECUTE_SECONDS,
    SERVER_QUEUE_DEPTH,
    SERVER_CALLS,
    SERVER_JOBS_EXPIRED,
    SERVER_JOBS_CANCELLED,
    SERVER_JOBS_SHED,
    SERVER_COMPLETION_ERRORS,
    SERVER_PE_WORKER_DEATHS,
    SERVER_DEDUP_HITS,
    SERVER_DEDUP_ENTRIES,
    SERVER_CONNECTIONS_OPEN,
    SERVER_DETACHED_EVICTED,
    SERVER_HEARTBEATS_SENT,
    METASERVER_PROBES,
    METASERVER_SERVERS_ALIVE,
    METASERVER_HEARTBEATS,
    METASERVER_SERVERS_SUSPECT,
    METASERVER_GOSSIP,
    METASERVER_GOSSIP_APPLIED,
    BENCH_CALLS,
    BENCH_CALL_SECONDS,
    BENCH_STAGE_CLIENTS,
)
