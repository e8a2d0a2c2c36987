"""The serve layer's protocol and content-addressed store.

Covers the query schema (validation, content addressing), the store's
concurrency contract (N threads hammering one cold key compute exactly
once), the LRU byte budget, the durable tier, and the
``repro sweep --checkpoint-dir`` → ``repro serve`` schema round trip.
"""

import json
import threading
import time
from dataclasses import asdict

import pytest

from repro.codesign import codesign_sweep
from repro.codesign.executor import CHECKPOINT_VERSION
from repro.errors import ConfigError
from repro.model.layer_model import NetworkResult
from repro.nets import vgg16_layers
from repro.obs import METRICS
from repro.serve import Query, ResultStore, network_hash, point_key
from repro.serve.store import (
    SOURCE_COALESCED,
    SOURCE_COMPUTED,
    SOURCE_STORE,
)
from repro.sim import SystemConfig
from tests.metrics_delta import counter_delta

pytestmark = pytest.mark.serve


#: A two-layer Darknet cfg for queries that ship their topology.
CFG_TEXT = """
[net]
height=8
width=8
channels=3
[convolutional]
filters=4
size=3
stride=1
pad=1
[convolutional]
filters=4
size=1
stride=1
pad=1
"""


def _query(**overrides):
    payload = {"network": "vgg16", "max_layers": 2,
               "vlens": [512, 1024], "l2_mbs": [1, 16], "mode": "fast"}
    payload.update(overrides)
    return Query.from_payload(payload)


def _payload(vlen=512, l2_mb=1, filler=""):
    return {
        "version": CHECKPOINT_VERSION,
        "backend": "fast",
        "vlen": vlen,
        "l2_mb": l2_mb,
        "result": {"filler": filler},
    }


class TestQueryProtocol:
    def test_named_network_resolves_and_truncates(self):
        q = _query()
        assert q.network == "vgg16"
        assert len(q.layers) == 2
        assert q.points == ((512, 1), (512, 16), (1024, 1), (1024, 16))

    def test_grids_sort_and_dedup(self):
        q = _query(vlens=[1024, 512, 512], l2_mbs=[16, 1, 16])
        assert q.vlens == (512, 1024)
        assert q.l2_mbs == (1, 16)

    @pytest.mark.parametrize("payload, match", [
        ({"vlens": []}, "non-empty"),
        ({"l2_mbs": ["x"]}, "integers"),
        ({"mode": "psychic"}, "unknown query mode"),
        ({"network": "alexnet"}, "unknown network"),
        ({"bogus": 1}, "unknown query field"),
        ({"config": {"l2_mb": 64}}, "grid axes"),
        ({"config": {"warp_drive": 1}}, "unknown config field"),
        ({"height": 64}, "only apply to 'cfg'"),
        # Axis values are validated, never truncated or coerced.
        ({"vlens": [512.9, "1024"]}, "vlens"),
        ({"vlens": [True]}, "vlens"),
        ({"l2_mbs": [1.5]}, "l2_mbs"),
        ({"l2_mbs": [2.0]}, "l2_mbs"),
        ({"l2_mbs": [1, True]}, "l2_mbs"),
        ({"l2_mbs": "16"}, "l2_mbs"),
        ({"l2_mbs": [0]}, "l2_mbs"),
        ({"l2_mbs": [-4]}, "l2_mbs"),
    ])
    def test_malformed_payloads_raise_config_error(self, payload, match):
        base = {"network": "vgg16", "vlens": [512], "l2_mbs": [1]}
        base.update(payload)
        with pytest.raises(ConfigError, match=match):
            Query.from_payload(base)

    @pytest.mark.parametrize("value", [2.7, True, "3", 0, -1])
    @pytest.mark.parametrize("field",
                             ["max_layers", "height", "width", "channels"])
    def test_bad_integer_fields_raise_config_error(self, field, value):
        """Counts are read as positive integers, never truncated or
        coerced (2.7 is not 2 layers, ``true`` is not 1)."""
        base = {"cfg": CFG_TEXT, "vlens": [512], "l2_mbs": [1], field: value}
        with pytest.raises(ConfigError, match=field):
            Query.from_payload(base)
        if field == "max_layers":
            with pytest.raises(ConfigError, match=field):
                Query.from_payload({"network": "vgg16", "vlens": [512],
                                    "l2_mbs": [1], field: value})

    def test_integer_fields_accept_positive_integers(self):
        q = Query.from_payload({"cfg": CFG_TEXT, "vlens": [512],
                                "l2_mbs": [1], "max_layers": 1,
                                "height": 16, "width": 16, "channels": 4})
        assert len(q.layers) == 1
        assert q.layers[0].c_in == 4

    def test_must_name_exactly_one_topology_source(self):
        with pytest.raises(ConfigError, match="exactly one"):
            Query.from_payload({"vlens": [512], "l2_mbs": [1]})
        with pytest.raises(ConfigError, match="exactly one"):
            Query.from_payload({"network": "vgg16", "cfg": "[net]",
                                "vlens": [512], "l2_mbs": [1]})

    def test_hash_ignores_labels_and_grid_extents(self):
        """Content address = what the answer depends on, nothing else:
        the label and the grid extents must not perturb it, the
        resolved topology and the policy must."""
        a = _query()
        assert network_hash(a) == network_hash(_query(vlens=[2048],
                                                      l2_mbs=[64]))
        assert network_hash(a) != network_hash(_query(max_layers=3))
        assert network_hash(a) != network_hash(_query(hybrid=False))
        # The backend mode lives in the point key, not the network hash,
        # so exact and fast results can never answer each other.
        key_fast = point_key(a, 512, 1)
        key_exact = point_key(_query(mode="exact"), 512, 1)
        assert key_fast != key_exact
        assert key_fast.endswith(":fast:v512:l2mb1")


class TestConfigIdentity:
    """Pins what every store entry and checkpoint manifest is keyed by.

    A change to a ``SystemConfig`` field re-keys every durable store
    entry (older entries then miss and are recomputed) and fails every
    older checkpoint directory with "manifest mismatch".  Such a change
    must update these pins, so it shows up as a reviewed diff.
    """

    def test_config_fields(self):
        assert sorted(asdict(SystemConfig())) == [
            "datapath_bits", "dram_gbs", "dram_latency", "freq_ghz",
            "gather_per_elem", "gather_setup", "l1_assoc", "l1_kb",
            "l2_assoc", "l2_hit_latency", "l2_mb", "latency_mode",
            "line_bytes", "mlp_dram", "mlp_l2", "strided_per_elem",
            "vec_occupancy", "vlen_bits",
        ]

    def test_network_hash_of_a_named_query(self):
        query = Query.from_payload({"network": "vgg16", "max_layers": 2,
                                    "vlens": [512], "l2_mbs": [1]})
        assert network_hash(query) == "f9f5e03588cc12f6373de6009bd17b72"


class TestStoreBasics:
    def test_get_put_roundtrip_and_counting(self):
        store = ResultStore(max_bytes=1 << 20)
        key = "k:fast:v512:l2mb1"
        with METRICS.capture() as cap:
            assert store.get(key) is None
            store.put(key, _payload())
            assert store.get(key) == _payload()
        assert key in store
        assert len(store) == 1
        assert counter_delta(cap) == {"store.misses": 1, "store.hits": 1}

    def test_put_validates_schema(self):
        store = ResultStore(max_bytes=1 << 20)
        with pytest.raises(ConfigError, match="schema"):
            store.put("k", {"version": 99, "result": {}})
        with pytest.raises(ConfigError, match="missing"):
            store.put("k", {"version": CHECKPOINT_VERSION})

    def test_lru_eviction_respects_byte_budget(self):
        filler = "x" * 200
        size = len(json.dumps(_payload(filler=filler)).encode())
        store = ResultStore(max_bytes=3 * size)
        with METRICS.capture() as cap:
            for i in range(5):
                store.put(f"k{i}", _payload(l2_mb=i, filler=filler))
                assert store.snapshot()["bytes"] <= store.max_bytes
        assert len(store) == 3
        assert counter_delta(cap) == {"store.evictions": 2}
        # LRU: the two oldest are gone, the three newest remain.
        assert store.get("k0") is None and store.get("k1") is None
        for i in (2, 3, 4):
            assert store.get(f"k{i}") is not None

    def test_get_refreshes_lru_order(self):
        filler = "x" * 200
        size = len(json.dumps(_payload(filler=filler)).encode())
        store = ResultStore(max_bytes=2 * size)
        store.put("a", _payload(filler=filler))
        store.put("b", _payload(filler=filler))
        assert store.get("a") is not None  # a is now most-recent
        store.put("c", _payload(filler=filler))  # evicts b, not a
        assert store.get("b") is None
        assert store.get("a") is not None

    def test_oversized_entry_passes_through_unstored(self):
        store = ResultStore(max_bytes=64)
        store.put("big", _payload(filler="x" * 500))
        assert len(store) == 0
        assert store.snapshot()["bytes"] == 0


class TestExactlyOnce:
    def test_n_threads_compute_exactly_once(self):
        store = ResultStore(max_bytes=1 << 20)
        computes = []
        barrier = threading.Barrier(8)
        sources = []
        lock = threading.Lock()

        def compute():
            computes.append(1)
            time.sleep(0.05)  # hold the window open for the coalescers
            return _payload()

        def worker():
            barrier.wait()
            payload, source = store.get_or_compute("cold", compute)
            with lock:
                sources.append((payload, source))

        threads = [threading.Thread(target=worker) for _ in range(8)]
        with METRICS.capture() as cap:
            for t in threads:
                t.start()
            for t in threads:
                t.join()
        assert len(computes) == 1
        assert all(p == _payload() for p, _ in sources)
        counts = {s: sum(1 for _, src in sources if src == s)
                  for s in (SOURCE_COMPUTED, SOURCE_COALESCED, SOURCE_STORE)}
        assert counts[SOURCE_COMPUTED] == 1
        assert counts[SOURCE_COALESCED] + counts[SOURCE_STORE] == 7
        assert counter_delta(cap).get("store.coalesced", 0) == (
            counts[SOURCE_COALESCED])

    def test_failed_compute_propagates_and_leaves_key_absent(self):
        store = ResultStore(max_bytes=1 << 20)

        def boom():
            raise RuntimeError("simulator exploded")

        with pytest.raises(RuntimeError, match="exploded"):
            store.get_or_compute("cold", boom)
        # The key was not poisoned: the next caller retries and wins.
        payload, source = store.get_or_compute("cold", _payload)
        assert source == SOURCE_COMPUTED
        assert payload == _payload()

    def test_hot_key_needs_no_compute(self):
        store = ResultStore(max_bytes=1 << 20)
        store.put("hot", _payload())

        def fail():
            raise AssertionError("must not compute a hot key")

        payload, source = store.get_or_compute("hot", fail)
        assert source == SOURCE_STORE
        assert payload == _payload()


class TestDurableTier:
    def test_survives_restart_via_disk(self, tmp_path):
        store = ResultStore(max_bytes=1 << 20, directory=tmp_path)
        store.put("k", _payload())
        reborn = ResultStore(max_bytes=1 << 20, directory=tmp_path)
        with METRICS.capture() as cap:
            assert reborn.get("k") == _payload()
        assert counter_delta(cap) == {"store.hits": 1, "store.disk_hits": 1}

    def test_eviction_keeps_disk_copy(self, tmp_path):
        filler = "x" * 200
        size = len(json.dumps(_payload(filler=filler)).encode())
        store = ResultStore(max_bytes=size, directory=tmp_path)
        with METRICS.capture() as cap:
            store.put("a", _payload(l2_mb=1, filler=filler))
            store.put("b", _payload(l2_mb=2, filler=filler))  # evicts a
        assert counter_delta(cap) == {"store.evictions": 1}
        with METRICS.capture() as cap:
            assert store.get("a") == _payload(l2_mb=1, filler=filler)
        # Re-admitting "a" from disk evicts "b" from memory.
        assert counter_delta(cap) == {
            "store.hits": 1, "store.disk_hits": 1, "store.evictions": 1}

    def test_torn_disk_entry_is_never_trusted(self, tmp_path):
        store = ResultStore(max_bytes=1 << 20, directory=tmp_path)
        store.put("k", _payload())
        entry, = tmp_path.glob("entry_*.json")
        entry.write_text(entry.read_text()[:25])
        reborn = ResultStore(max_bytes=1 << 20, directory=tmp_path)
        assert reborn.get("k") is None

    def test_key_mismatch_on_disk_is_rejected(self, tmp_path):
        """A hash collision (or hand-renamed file) must not serve the
        wrong point: the wrapper pins the full key."""
        store = ResultStore(max_bytes=1 << 20, directory=tmp_path)
        store.put("k", _payload())
        entry, = tmp_path.glob("entry_*.json")
        wrapped = json.loads(entry.read_text())
        wrapped["key"] = "some-other-key"
        entry.write_text(json.dumps(wrapped))
        reborn = ResultStore(max_bytes=1 << 20, directory=tmp_path)
        assert reborn.get("k") is None


class TestCheckpointRoundTrip:
    @pytest.fixture(scope="class")
    def layers(self):
        return vgg16_layers()[:2]

    def test_sweep_checkpoint_ingests_and_serves_bit_exact(
        self, tmp_path, layers
    ):
        """``repro sweep --checkpoint-dir`` output is directly readable
        as a warm store: same schema, same identity checks, bit-exact
        results."""
        sweep = codesign_sweep(
            "vgg16", layers, vlens=(512, 1024), l2_mbs=(1, 16),
            mode="fast", checkpoint_dir=tmp_path)
        query = _query()
        store = ResultStore(max_bytes=1 << 20)
        assert store.ingest_checkpoint_dir(tmp_path, query) == 4
        for vlen, l2_mb in query.points:
            payload = store.get(point_key(query, vlen, l2_mb))
            assert payload is not None
            served = NetworkResult.from_dict(payload["result"])
            assert served == sweep.at(vlen, l2_mb)

    def test_ingest_rejects_mismatched_identity(self, tmp_path, layers):
        codesign_sweep("vgg16", layers, vlens=(512,), l2_mbs=(1,),
                       mode="fast", checkpoint_dir=tmp_path)
        with pytest.raises(ConfigError, match="does not match"):
            ResultStore(max_bytes=1 << 20).ingest_checkpoint_dir(
                tmp_path, _query(mode="exact"))

    def test_ingest_requires_a_manifest(self, tmp_path):
        with pytest.raises(ConfigError, match="manifest"):
            ResultStore(max_bytes=1 << 20).ingest_checkpoint_dir(
                tmp_path, _query())
