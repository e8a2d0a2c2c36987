"""The serve layer's protocol and content-addressed store.

Covers the query schema (validation, content addressing), the store's
concurrency contract (N threads hammering one cold key compute exactly
once), the LRU byte budget, the durable tier, and the
``repro sweep --checkpoint-dir`` → ``repro serve`` schema round trip.
"""

import copy
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
from repro.obs import METRICS, MemorySink
from repro.serve import Query, ResultStore, network_hash, point_key
from repro.codesign.codec import canonical_point, encode_point, read_point
from repro.serve.store import (
    SOURCE_COALESCED,
    SOURCE_COMPUTED,
    SOURCE_STORE,
)
from repro.sim import SimStats, SystemConfig
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


def _point(vlen=512, l2_mb=1, name="net"):
    """A real one-layer point payload: what the durable tier accepts
    back (a result that is not a point is refused on read)."""
    layer = SimStats(issue_cycles=100.0, flops=64, label="conv1[im2col]")
    total = SimStats(issue_cycles=100.0, flops=64, label=f"{name} total")
    result = NetworkResult(name=name, per_layer=(layer,), total=total)
    return {**_payload(vlen, l2_mb), "result": result.to_dict()}


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

    @pytest.mark.parametrize("overrides, field", [
        ({"l1_kb": "64"}, "l1_kb"),
        ({"l1_kb": True}, "l1_kb"),
        ({"l1_kb": 1.5}, "l1_kb"),
        ({"l1_kb": 64.0}, "l1_kb"),
        ({"l2_assoc": 0}, "l2_assoc"),
        ({"freq_ghz": "2"}, "freq_ghz"),
        ({"freq_ghz": True}, "freq_ghz"),
        ({"freq_ghz": 0}, "freq_ghz"),
        ({"freq_ghz": -1.0}, "freq_ghz"),
        ({"freq_ghz": float("nan")}, "freq_ghz"),
        ({"gather_per_elem": -0.5}, "gather_per_elem"),
        ({"latency_mode": 1}, "latency_mode"),
        ({"latency_mode": "psychic"}, "latency_mode"),
    ])
    def test_config_overrides_are_type_checked(self, overrides, field):
        """A mistyped override is a ConfigError naming the field (a 400),
        never a TypeError inside SystemConfig or a silent coercion."""
        with pytest.raises(ConfigError, match=field):
            _query(config=overrides)

    def test_config_overrides_are_canonical(self):
        query = _query(config={"dram_gbs": 26, "gather_per_elem": 0,
                               "l1_kb": 32, "latency_mode": "throughput"})
        assert query.config.dram_gbs == 26.0
        assert type(query.config.dram_gbs) is float
        assert type(query.config.gather_per_elem) is float
        assert query.config.l1_kb == 32
        assert query.config.latency_mode == "throughput"

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

    @pytest.mark.parametrize("payload, expected", [
        ({"network": "yolov3"}, "120736e3e2820872489baff45e88be16"),
        ({"cfg": CFG_TEXT, "name": "tiny"},
         "be16e58a214675623962ffa5068b35b0"),
        ({"network": "vgg16", "max_layers": 2,
          "config": {"l1_kb": 32, "dram_gbs": 25.6}},
         "e3d20bdbee93ab6b5d44fa1eeec0ce7c"),
        ({"network": "vgg16", "hybrid": False, "variant": "indexed"},
         "efd7a8899214653ecc1f9d55fdad1638"),
    ])
    def test_network_hash_pins(self, payload, expected):
        """The content address of a named, a cfg and a config-override
        query: moving any of these re-keys store entries and durable
        entry names."""
        query = Query.from_payload({**payload, "vlens": [512],
                                    "l2_mbs": [1]})
        assert network_hash(query) == expected
        assert point_key(query, 512, 1) == f"{expected}:exact:v512:l2mb1"

    def test_equal_configs_share_one_address(self):
        """An override is held in its field's type: 2 GHz and 2.0 GHz
        (the default) are one configuration, so one address."""
        base = {"network": "vgg16", "max_layers": 2, "vlens": [512],
                "l2_mbs": [1]}
        default = network_hash(Query.from_payload(base))
        for freq in (2, 2.0):
            query = Query.from_payload({**base, "config": {"freq_ghz": freq}})
            assert query.config.freq_ghz == 2.0
            assert type(query.config.freq_ghz) is float
            assert network_hash(query) == default

    def test_identity_is_built_once_per_query(self, monkeypatch):
        """The content address is computed once per distinct network,
        policy and configuration, however many points a query has."""
        from repro.serve import protocol

        calls = []
        real = protocol._layer_dict
        monkeypatch.setattr(protocol, "_layer_dict",
                            lambda layer: calls.append(layer) or real(layer))
        protocol._content_address.cache_clear()
        query = _query(max_layers=3, vlens=[512, 1024, 2048],
                       l2_mbs=[1, 4, 16])
        keys = {point_key(query, v, l) for v, l in query.points}
        assert len(keys) == 9
        assert len(calls) == 3
        network_hash(_query(max_layers=3))  # same identity: no rebuild
        assert len(calls) == 3


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
        store.put("k", _point())
        reborn = ResultStore(max_bytes=1 << 20, directory=tmp_path)
        with METRICS.capture() as cap:
            assert reborn.get("k") == _point()
        assert counter_delta(cap) == {"store.hits": 1, "store.disk_hits": 1}

    def test_eviction_keeps_disk_copy(self, tmp_path):
        filler = "x" * 200
        size = len(json.dumps(_point(name=filler)).encode())
        store = ResultStore(max_bytes=size, directory=tmp_path)
        with METRICS.capture() as cap:
            store.put("a", _point(l2_mb=1, name=filler))
            store.put("b", _point(l2_mb=2, name=filler))  # evicts a
        assert counter_delta(cap) == {"store.evictions": 1}
        with METRICS.capture() as cap:
            assert store.get("a") == _point(l2_mb=1, name=filler)
        # Re-admitting "a" from disk evicts "b" from memory.
        assert counter_delta(cap) == {
            "store.hits": 1, "store.disk_hits": 1, "store.evictions": 1}

    def test_torn_disk_entry_is_never_trusted(self, tmp_path):
        store = ResultStore(max_bytes=1 << 20, directory=tmp_path)
        store.put("k", _point())
        entry, = tmp_path.glob("entry_*.json")
        entry.write_text(entry.read_text()[:25])
        reborn = ResultStore(max_bytes=1 << 20, directory=tmp_path)
        assert reborn.get("k") is None

    def test_key_mismatch_on_disk_is_rejected(self, tmp_path):
        """A hash collision (or hand-renamed file) must not serve the
        wrong point: the wrapper pins the full key."""
        store = ResultStore(max_bytes=1 << 20, directory=tmp_path)
        store.put("k", _point())
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


# ----------------------------------------------------------------------
# Strict reading of stored points.
# ----------------------------------------------------------------------
#: The ROADMAP's loose-reader example: it decodes as a zero-cycle point.
LOOSE_RESULT = {"name": "x", "total": {"freq_ghz": 2}}


def _leaves(obj, path=()):
    if isinstance(obj, dict):
        for k, v in obj.items():
            yield from _leaves(v, path + (k,))
    elif isinstance(obj, list):
        for i, v in enumerate(obj):
            yield from _leaves(v, path + (i,))
    else:
        yield path, obj


def _retyped(value):
    if isinstance(value, bool):
        return int(value)
    if isinstance(value, int):
        return float(value)
    if isinstance(value, float):
        return str(value)
    if isinstance(value, str):
        return 1
    return 0  # None


def _mutants(payload):
    """Every field of ``payload`` dropped, retyped and, where that
    changes it, negated: ``(what, mutated payload)`` pairs."""
    for path, value in _leaves(payload):
        changes = [("drop", None), ("retype", _retyped(value))]
        if (isinstance(value, (int, float)) and not isinstance(value, bool)
                and (value != 0 or isinstance(value, float))):
            changes.append(("negate", -value))
        for what, new in changes:
            mutant = copy.deepcopy(payload)
            parent = mutant
            for step in path[:-1]:
                parent = parent[step]
            if what == "drop":
                del parent[path[-1]]
            else:
                parent[path[-1]] = new
            yield f"{what} {'.'.join(map(str, path))}", mutant


@pytest.fixture(scope="module")
def checkpoint_dir(tmp_path_factory):
    """A real ``repro sweep --checkpoint-dir`` of the two-layer query."""
    directory = tmp_path_factory.mktemp("ckpt")
    codesign_sweep("vgg16", vgg16_layers()[:2], vlens=(512, 1024),
                   l2_mbs=(1, 16), mode="fast", checkpoint_dir=directory)
    return directory


def _point_text(checkpoint_dir, vlen=512, l2_mb=1):
    return (checkpoint_dir / f"point_v{vlen}_l2mb{l2_mb}.json").read_text()


class TestStrictRead:
    """A point read from outside the process is served byte for byte,
    so it is accepted only as the canonical encoding of the point it
    decodes to."""

    def test_checkpoint_points_are_canonical(self, checkpoint_dir):
        for path in checkpoint_dir.glob("point_v*.json"):
            text = path.read_text()
            point = read_point(text)
            assert point.payload_json() == text
            assert point == json.loads(text)

    def test_every_dropped_retyped_or_negated_field_is_rejected(
        self, checkpoint_dir
    ):
        payload = json.loads(_point_text(checkpoint_dir))
        assert len(payload["result"]["per_layer"]) == 2
        count = 0
        for what, mutant in _mutants(payload):
            with pytest.raises(ConfigError, match="point"):
                canonical_point(mutant)
            with pytest.raises(ConfigError):
                read_point(json.dumps(mutant))
            count += 1
        assert count > 150, count

    @pytest.mark.parametrize("mutate, match", [
        (lambda r: LOOSE_RESULT, "per_layer"),
        (lambda r: {**r, "per_layer": r["per_layer"][:1]}, "sum of its"),
        (lambda r: {**r, "per_layer": []}, "per_layer"),
        (lambda r: {**r, "per_layer": r["per_layer"] * 2}, "sum of its"),
        (lambda r: {**r, "total": {**r["total"], "flops": float("inf")}},
         "malformed"),
    ])
    def test_loose_and_inconsistent_results_are_rejected(
        self, checkpoint_dir, mutate, match
    ):
        payload = json.loads(_point_text(checkpoint_dir))
        payload["result"] = mutate(payload["result"])
        with pytest.raises(ConfigError, match=match):
            canonical_point(payload)

    def test_formatting_other_than_canonical_is_rejected(self, checkpoint_dir):
        text = _point_text(checkpoint_dir)
        read_point(text)
        for variant in (json.dumps(json.loads(text), indent=1),
                        json.dumps(json.loads(text), separators=(",", ":")),
                        text.replace('"freq_ghz": 2.0', '"freq_ghz": 2.00')):
            assert variant != text
            with pytest.raises(ConfigError, match="canonical"):
                read_point(variant)

    @pytest.mark.parametrize("what", ["drop", "retype", "negate", "loose"])
    def test_durable_entry_that_is_not_canonical_is_recomputed(
        self, tmp_path, what
    ):
        """A tampered entry file is a miss: the service recomputes the
        point, serves the same answer as a clean store, and rewrites
        the entry canonically."""
        import asyncio

        from repro.serve import CodesignService

        query = _query(vlens=[512], l2_mbs=[1])
        clean = CodesignService(ResultStore(directory=tmp_path))
        expected = asyncio.run(clean.handle_query(query, MemorySink()))
        entry, = tmp_path.glob("entry_*.json")
        good = entry.read_text()
        wrapped = json.loads(good)
        stats = wrapped["point"]["result"]["per_layer"][0]
        if what == "drop":
            del stats["flops"]
        elif what == "retype":
            stats["flops"] = float(stats["flops"])
        elif what == "negate":
            stats["hierarchy"]["l2"]["misses"] *= -1
        else:
            wrapped["point"]["result"] = LOOSE_RESULT
        entry.write_text(json.dumps(wrapped))

        service = CodesignService(ResultStore(directory=tmp_path))
        with METRICS.capture() as cap:
            answer = asyncio.run(service.handle_query(query, MemorySink()))
        delta = counter_delta(cap)
        assert delta["store.rejected"] == 1
        assert delta["serve.points.computed"] == 1
        assert "store.disk_hits" not in delta
        assert answer.to_dict() == expected.to_dict()
        assert entry.read_text() == good

    def test_ingest_skips_points_that_are_not_canonical(
        self, checkpoint_dir, tmp_path
    ):
        for path in checkpoint_dir.iterdir():
            (tmp_path / path.name).write_text(path.read_text())
        bad = {
            "point_v512_l2mb1.json": lambda p: p["result"].update(
                LOOSE_RESULT),
            "point_v512_l2mb16.json": lambda p: p["result"]["total"].update(
                flops=-p["result"]["total"]["flops"]),
            "point_v1024_l2mb1.json": lambda p: p.update(vlen=512),
        }
        for name, mutate in bad.items():
            payload = json.loads((tmp_path / name).read_text())
            mutate(payload)
            (tmp_path / name).write_text(json.dumps(payload))
        store = ResultStore(max_bytes=1 << 20)
        sink = MemorySink()
        with METRICS.capture() as cap:
            assert store.ingest_checkpoint_dir(tmp_path, _query(), sink) == 1
        assert counter_delta(cap)["store.rejected"] == 3
        warned = sink.of_kind("checkpoint_corrupt")
        assert sorted(e["file"].rsplit("/", 1)[-1] for e in warned) == sorted(
            bad)
        assert all(e["level"] == "warning" and e["reason"] for e in warned)
        assert store.get(point_key(_query(), 1024, 16)) is not None

    def test_ingest_skips_a_point_of_another_network(self, tmp_path):
        """Right manifest, wrong layer count: a stored point must fill
        exactly the query's label slots."""
        codesign_sweep("vgg16", vgg16_layers()[:3], vlens=(512,),
                       l2_mbs=(1,), mode="fast", checkpoint_dir=tmp_path)
        sink = MemorySink()
        store = ResultStore(max_bytes=1 << 20)
        assert store.ingest_checkpoint_dir(tmp_path, _query(), sink) == 0
        warned, = sink.of_kind("checkpoint_corrupt")
        assert "layers" in warned["reason"]


class TestStoredBytes:
    def test_the_store_holds_each_point_encoded_once(self, checkpoint_dir):
        text = _point_text(checkpoint_dir)
        store = ResultStore(max_bytes=1 << 20)
        store.put("k", json.loads(text))
        stored = store.get("k")
        assert stored.payload_json() == text
        assert stored.nbytes == len(text)
        assert store.snapshot()["bytes"] == len(text)
        assert all(isinstance(p, str) for p in stored.parts + stored.labels)

    def test_splice_puts_the_querys_labels_around_the_stored_bytes(
        self, checkpoint_dir
    ):
        payload = json.loads(_point_text(checkpoint_dir))
        stored = encode_point(payload)
        query = _query()
        result = NetworkResult.from_dict(payload["result"])
        result.total.label = 'n\u00e9t "2" total'
        for stats, layer in zip(result.per_layer, ("c\u00f61", "c[2]")):
            stats.label = layer + stats.label[stats.label.rindex("["):]
        renamed = {**result.to_dict(), "name": 'n\u00e9t "2"'}
        labels = (json.dumps('n\u00e9t "2"')[1:-1],
                  *(json.dumps(n)[1:-1] for n in ("c\u00f61", "c[2]")),
                  json.dumps('n\u00e9t "2" total')[1:-1])
        assert stored.result_json(labels) == json.dumps(renamed)
        assert stored.result_json() == json.dumps(payload["result"])
        with pytest.raises(ConfigError, match="label slots"):
            stored.result_json(labels[:-1])
        assert query.json_labels == (
            "vgg16", *(layer.name for layer in query.layers), "vgg16 total")
