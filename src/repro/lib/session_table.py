"""A reusable session table, written in HILTI.

The canonical higher-level component of the paper's vision (§1, §7): a
keyed table of per-session state with built-in inactivity expiration —
the structure every stateful network application reinvents (the paper's
§2 found iptables, Snort, and XORP each carrying their own).  Host
applications link the module, create instances, and get:

* access-refreshed inactivity timeouts driven by the context's global
  timer manager (network time);
* a ``lookup_or_create``-style API so per-session state appears on first
  touch (the factory is a HILTI callable the application provides);
* an optional eviction callback receiving the expired key, for
  final-flush logic (Bro's connection_state_remove pattern).

``SessionTable`` wraps the compiled module for Python hosts, but the
component is equally usable from pure HILTI code — see
``tests/apps/test_session_table.py`` for a cross-module HILTI consumer.
"""

from __future__ import annotations

from typing import Optional

from ..core.stubs import Stub
from ..host.flowtable import FlowTable

SESSION_TABLE = """module SessionTable

import Hilti

# Create a session table whose entries expire after `timeout` of
# inactivity (every read refreshes the clock).
ref<map<any, any>> create(interval timeout) {
    local ref<map<any, any>> table
    table = new map<any, any>
    map.timeout table ExpireStrategy::Access timeout
    return table
}

# Create a table whose entries expire `timeout` after insertion,
# regardless of access (hard session caps).
ref<map<any, any>> create_fixed_lifetime(interval timeout) {
    local ref<map<any, any>> table
    table = new map<any, any>
    map.timeout table ExpireStrategy::Create timeout
    return table
}

# Attach an eviction callback: on expiration, `on_evict` runs with the
# evicted key appended to its bound arguments.
void on_evict(ref<map<any, any>> table, ref<callable<any>> callback) {
    map.on_expire table callback
}

bool contains(ref<map<any, any>> table, any key) {
    local bool present
    present = map.exists table key
    return present
}

any lookup(ref<map<any, any>> table, any key) {
    local any value
    value = map.get table key
    return value
}

# The workhorse: return the session state for `key`, creating it via the
# `factory` callable on first touch.
any lookup_or_create(ref<map<any, any>> table, any key,
                     ref<callable<any>> factory) {
    local bool present
    present = map.exists table key
    if.else present hit miss
hit:
    local any value
    value = map.get table key
    return value
miss:
    local any fresh
    fresh = callable.call factory
    map.insert table key fresh
    return fresh
}

void insert(ref<map<any, any>> table, any key, any value) {
    map.insert table key value
}

void remove(ref<map<any, any>> table, any key) {
    map.remove table key
}

int<64> size(ref<map<any, any>> table) {
    local int<64> n
    n = map.size table
    return n
}

# Advance the session clock (host applications call this per packet,
# like the firewall's match_packet does).
void advance(time now) {
    timer_mgr.advance_global now
}
"""


class SessionTable:
    """Python-host convenience wrapper over the HILTI component.

    One instance owns one table inside one execution context.  The
    *factory* creating per-session state and the optional *on_evict*
    callback are host Python functions, registered as natives — the same
    integration path a C++ host application would use.  Per-record calls
    enter the driver module through host stubs, so raw ``bytes`` keys
    and values arrive as HILTI bytes.
    """

    def __init__(self, timeout_seconds: float, factory=None, on_evict=None,
                 access_refreshes: bool = True,
                 max_entries: Optional[int] = None):
        from ..core.toolchain import hiltic
        from ..core.values import Interval

        # Occupancy/eviction accounting for the telemetry exporter
        # (docs/OBSERVABILITY.md): evictions counted by wrapping the
        # eviction native, lookups/mutations by the wrapper methods.
        self.evictions = 0
        self.capacity_evictions = 0
        self.lookups = 0
        self.mutations = 0
        # Host-side LRU entry cap (docs/SERVICE.md): the HILTI timer
        # manager owns timeout expiry; the hard occupancy bound lives in
        # the wrapper — the shared FlowTable in bare-key mode (recency +
        # capacity loop only, no ledger entries), evicting
        # least-recently-touched keys through the same on_evict
        # final-flush callback.
        self.max_entries = max_entries
        self._on_evict_cb = on_evict
        self._tick = 0
        self._recency = FlowTable(max_sessions=max_entries,
                                  on_evict=self._capacity_evicted)

        def _evicted(ctx, key):
            self.evictions += 1
            self._recency.close(key)
            if on_evict is not None:
                on_evict(key)

        natives = {"Host::evicted": _evicted}
        if factory is not None:
            natives["Host::factory"] = lambda ctx: factory()

        driver = """module Driver

import Hilti

global ref<map<any, any>> table

void init(interval timeout, bool access_refreshes) {
    if.else access_refreshes by_access by_create
by_access:
    table = call SessionTable::create(timeout)
    jump wire
by_create:
    table = call SessionTable::create_fixed_lifetime(timeout)
wire:
    local ref<callable<any>> cb
    cb = callable.bind Host::evicted ()
    call SessionTable::on_evict(table, cb)
}

any get_or_create(any key) {
    local ref<callable<any>> factory
    factory = callable.bind Host::factory ()
    local any value
    value = call SessionTable::lookup_or_create(table, key, factory)
    return value
}

bool contains(any key) {
    local bool b
    b = call SessionTable::contains(table, key)
    return b
}

void put(any key, any value) {
    call SessionTable::insert(table, key, value)
}

void drop(any key) {
    call SessionTable::remove(table, key)
}

int<64> size() {
    local int<64> n
    n = call SessionTable::size(table)
    return n
}

void advance(time now) {
    call SessionTable::advance(now)
}
"""
        natives.setdefault("Host::factory", lambda ctx: None)
        natives.setdefault("Host::evicted", lambda ctx, key: None)
        self.program = hiltic([SESSION_TABLE, driver], natives=natives)
        self.ctx = self.program.make_context()
        self.program.call(
            self.ctx, "Driver::init",
            [Interval(timeout_seconds), access_refreshes],
        )
        # The per-record entries: host stubs, each resolved once.
        def stub(name):
            return Stub(self.program, f"Driver::{name}").call

        self._get_or_create = stub("get_or_create")
        self._contains = stub("contains")
        self._put = stub("put")
        self._drop = stub("drop")
        self._size = stub("size")
        self._advance = stub("advance")

    def _capacity_evicted(self, victim, reason: str) -> bool:
        """FlowTable's capacity loop found a victim: drop it from the
        HILTI map and run the owner's final flush."""
        self._drop(self.ctx, victim)
        self.capacity_evictions += 1
        if self._on_evict_cb is not None:
            self._on_evict_cb(victim)
        return True

    def _touch(self, key) -> None:
        if self.max_entries is None:
            return
        self._tick += 1
        self._recency.touch(key, self._tick)
        self._recency.run_eviction(None)

    def get_or_create(self, key):
        self.lookups += 1
        value = self._get_or_create(self.ctx, key)
        self._touch(key)
        return value

    def __contains__(self, key) -> bool:
        self.lookups += 1
        return self._contains(self.ctx, key)

    def put(self, key, value) -> None:
        self.mutations += 1
        self._put(self.ctx, key, value)
        self._touch(key)

    def drop(self, key) -> None:
        self.mutations += 1
        self._recency.close(key)
        self._drop(self.ctx, key)

    def __len__(self) -> int:
        return self._size(self.ctx)

    def advance(self, now) -> None:
        from ..core.values import Time

        if not isinstance(now, Time):
            now = Time(float(now))
        self._advance(self.ctx, now)

    # -- telemetry ---------------------------------------------------------

    def stats(self) -> dict:
        """Occupancy and activity snapshot (telemetry export)."""
        return {
            "occupancy": len(self),
            "evictions": self.evictions,
            "capacity_evictions": self.capacity_evictions,
            "lookups": self.lookups,
            "mutations": self.mutations,
            "instructions": self.ctx.instr_count,
        }

    def export_metrics(self, registry, table: str = "sessions") -> None:
        """Publish the snapshot into a telemetry MetricsRegistry."""
        stats = self.stats()
        registry.gauge("session_table.occupancy",
                       table=table).set(stats["occupancy"])
        for key in ("evictions", "capacity_evictions", "lookups",
                    "mutations"):
            counter = registry.counter(f"session_table.{key}", table=table)
            counter.value = 0
            counter.inc(stats[key])
