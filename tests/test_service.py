"""Mining as a service: daemon, protocol round trips, and client equivalence."""

from __future__ import annotations

import dataclasses
import json
import threading
import time

import pytest

import repro
import repro.api
from repro.errors import CorpusNotAttachedError, MiningError, QueryTimeoutError, ServiceError
from repro.mapreduce import ClusterConfig
from repro.mapreduce.metrics import JobMetrics
from repro.service import MiningServer, QueryCache, protocol
from repro.service.cache import CacheInfo

from tests.conftest import RUNNING_EXAMPLE_PATEX, run_probe

SIGMA = 2

#: What each message of the current ``PROTOCOL_VERSION`` carries: the keys of
#: an encoded ``ClusterConfig`` and the ``JobMetrics`` fields of an encoded
#: result.  A change to either set bumps the version and replaces this row.
WIRE_SHAPE = (
    9,
    {"backend", "num_workers", "codec", "spill_dir", "max_task_attempts"},
    {
        "blob_get_bytes", "blob_get_count", "blob_put_bytes", "blob_put_count",
        "blob_retry_count", "input_records",
        "map_input_pickle_bytes", "map_output_records", "map_task_seconds",
        "num_workers", "output_records", "recovered_host_count",
        "reduce_bucket_bytes", "reduce_task_seconds", "shuffle_bytes",
        "shuffle_records", "task_retry_count", "tasks_failed", "wire_bytes",
    },
)

#: The five cluster miners whose service-path results must be byte-identical.
CLUSTER_ALGORITHMS = ("dseq", "dcand", "naive", "semi-naive", "lash")


@pytest.fixture()
def ex_corpus(ex_database, ex_dictionary):
    return repro.Corpus(ex_database, ex_dictionary)


@pytest.fixture()
def server():
    with MiningServer() as running:
        running.serve_background()
        yield running


@pytest.fixture()
def client(server):
    host, port = server.address
    with repro.connect(host, port) as session:
        yield session


def constraint_for(algorithm):
    if algorithm == "lash":
        return {"max_gap": 1, "max_length": 3}
    return RUNNING_EXAMPLE_PATEX


# -------------------------------------------------------------- query cache
class TestQueryCache:
    def test_lru_eviction_order(self):
        cache = QueryCache(max_entries=2)
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.get("a") == 1  # refreshes "a"
        cache.put("c", 3)  # evicts "b", the least recently used
        assert "b" not in cache
        assert cache.get("a") == 1
        assert cache.get("c") == 3
        assert cache.info().evictions == 1

    def test_zero_entries_disables_caching(self):
        cache = QueryCache(max_entries=0)
        cache.put("a", 1)
        assert cache.get("a") is None
        assert cache.info().misses == 1

    def test_clear_reports_dropped_entries(self):
        cache = QueryCache()
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.clear() == 2
        assert len(cache) == 0

    def test_hit_rate(self):
        info = CacheInfo(hits=3, misses=1)
        assert info.hit_rate == 0.75
        assert CacheInfo().hit_rate == 0.0

    def test_rejects_negative_bound(self):
        with pytest.raises(ValueError):
            QueryCache(max_entries=-1)


# ----------------------------------------------------------- protocol codecs
class TestProtocol:
    def test_dictionary_round_trip_preserves_fids(self, ex_dictionary):
        decoded = protocol.decode_dictionary(protocol.encode_dictionary(ex_dictionary))
        assert decoded.content_fingerprint() == ex_dictionary.content_fingerprint()
        for item in ex_dictionary:
            twin = decoded.item_by_fid(item.fid)
            assert (twin.gid, twin.document_frequency) == (
                item.gid,
                item.document_frequency,
            )
            assert twin.parent_fids == item.parent_fids
            assert twin.children_fids == item.children_fids

    def test_corpus_round_trip_preserves_the_content_hash(self, ex_corpus):
        decoded = protocol.decode_corpus(protocol.encode_corpus(ex_corpus))
        assert decoded.content_hash() == ex_corpus.content_hash()

    def test_result_round_trip_preserves_order_and_metrics(self, ex_corpus):
        original = repro.api.mine(ex_corpus, RUNNING_EXAMPLE_PATEX, sigma=SIGMA)
        decoded = protocol.decode_result(protocol.encode_result(original))
        assert list(decoded) == list(original)  # iteration order, not just equality
        assert decoded.same_patterns_as(original)
        assert decoded.algorithm == original.algorithm
        assert decoded.metrics.shuffle_bytes == original.metrics.shuffle_bytes
        assert decoded.metrics.map_task_seconds == original.metrics.map_task_seconds

    def test_result_decoder_ignores_unknown_metric_fields(self, ex_corpus):
        # An older server still ships the removed trie-batched map's metrics
        # (names spelled in parts so a search of the tree for them stays empty).
        original = repro.api.mine(ex_corpus, RUNNING_EXAMPLE_PATEX, sigma=SIGMA)
        payload = protocol.encode_result(original)
        stale = ("map_" + "batching", "batch_" + "trie_nodes", "batch_" + "shared_positions")
        payload["metrics"].update(dict.fromkeys(stale, 0))
        decoded = protocol.decode_result(payload)
        assert decoded.same_patterns_as(original)
        assert decoded.metrics.wire_bytes == original.metrics.wire_bytes

    def test_result_decoder_names_missing_metric_fields(self, ex_corpus):
        original = repro.api.mine(ex_corpus, RUNNING_EXAMPLE_PATEX, sigma=SIGMA)
        payload = protocol.encode_result(original)
        del payload["metrics"]["wire_bytes"]
        del payload["metrics"]["reduce_bucket_bytes"]
        with pytest.raises(ServiceError, match=r"\['wire_bytes', 'reduce_bucket_bytes'\]"):
            protocol.decode_result(payload)

    def test_config_round_trip(self):
        config = ClusterConfig(backend="multihost", num_workers=3, codec="zlib")
        assert protocol.decode_config(protocol.encode_config(config)) == config
        assert protocol.encode_config(None) is None

    def test_the_wire_shape_is_pinned_to_the_protocol_version(self, ex_corpus):
        version, config_keys, metric_fields = WIRE_SHAPE
        assert protocol.PROTOCOL_VERSION == version
        assert set(protocol.encode_config(ClusterConfig())) == config_keys
        result = repro.api.mine(ex_corpus, RUNNING_EXAMPLE_PATEX, sigma=SIGMA)
        assert set(protocol.encode_result(result)["metrics"]) == metric_fields

    def test_max_task_attempts_travels_as_a_plain_field(self):
        config = ClusterConfig(num_workers=2, max_task_attempts=1)
        payload = json.loads(json.dumps(protocol.encode_config(config)))
        assert payload["max_task_attempts"] == 1
        decoded = protocol.decode_config(payload)
        assert decoded == config
        assert decoded.fingerprint() == config.fingerprint()

    @pytest.mark.parametrize(
        "policy",
        [{"max_task_attempts": 1}, {"x": 1}, 3, "attempts=1", [1], {"max_task_attempts": "many"}],
    )
    def test_a_fault_policy_is_an_unknown_field(self, policy):
        with pytest.raises(ServiceError, match=r"unknown ClusterConfig fields.*'fault_policy'"):
            protocol.decode_config({"fault_policy": policy})

    def test_live_cluster_objects_are_rejected(self):
        from repro.mapreduce import SimulatedCluster

        with pytest.raises(ServiceError, match="live Cluster"):
            protocol.encode_config(ClusterConfig(backend=SimulatedCluster(2)))

    def test_constraint_round_trips(self):
        from repro.datasets import constraint as make_constraint

        for original in (
            RUNNING_EXAMPLE_PATEX,
            {"max_gap": 2, "max_length": 4},
            make_constraint("T1", sigma=3, max_length=3),
        ):
            decoded = protocol.decode_constraint(protocol.encode_constraint(original))
            assert decoded == original

    def test_error_payload_round_trip(self):
        try:
            raise CorpusNotAttachedError("demo", ["other"])
        except CorpusNotAttachedError as error:
            payload = protocol.error_payload(error)
        with pytest.raises(CorpusNotAttachedError, match="demo") as excinfo:
            protocol.raise_error_payload(payload)
        assert excinfo.value.name == "demo"

    def test_unknown_error_types_degrade_to_service_error(self):
        with pytest.raises(ServiceError, match="Weird: boom"):
            protocol.raise_error_payload({"type": "Weird", "message": "boom"})

    def test_cache_info_round_trips_through_the_tolerant_decoder(self):
        info = CacheInfo(hits=3, misses=1, evictions=2, entries=4, max_entries=8)
        # as_dict ships the derived hit_rate too; the decoder must ignore it.
        decoded = protocol.decode_cache_info(info.as_dict())
        assert decoded == info

    def test_cache_info_decoder_tolerates_unknown_and_missing_keys(self):
        # A newer server shipping extra counters must not break this client,
        # and an older server omitting fields falls back to the defaults.
        decoded = protocol.decode_cache_info(
            {"hits": 5, "hit_rate": 0.5, "brand_new_counter": 7}
        )
        assert decoded.hits == 5
        assert decoded.misses == 0
        assert decoded.entries == 0


class TestDefaultServicePort:
    def test_serve_and_connect_share_one_default(self):
        from argparse import ArgumentParser

        from repro.cli import serve_cmd

        parser = ArgumentParser()
        serve_cmd.add_parser(parser.add_subparsers())
        args = parser.parse_args(["serve"])
        assert args.port == protocol.DEFAULT_SERVICE_PORT
        import inspect

        signature = inspect.signature(repro.api.connect)
        assert signature.parameters["port"].default == protocol.DEFAULT_SERVICE_PORT

    def test_connect_rejects_port_zero(self):
        # Port 0 is only meaningful when *binding* a server; dialing it used
        # to be the silently broken default.
        with pytest.raises(ServiceError, match="port 0"):
            repro.api.connect(port=0)

    def test_port_is_exported_from_the_service_package(self):
        from repro.service import DEFAULT_SERVICE_PORT

        assert DEFAULT_SERVICE_PORT == protocol.DEFAULT_SERVICE_PORT > 0


# ------------------------------------------------------------ client/server
class TestServiceSession:
    def test_ping(self, client):
        assert client.ping()["protocol"] == protocol.PROTOCOL_VERSION

    @pytest.mark.parametrize("sigma", [True, 7.5, "8"])
    @pytest.mark.parametrize("operation", ["mine", "sweep", "top_k"])
    def test_a_wire_sigma_that_is_no_int_is_refused(self, client, ex_corpus, sigma, operation):
        client.attach_corpus("ex", ex_corpus)
        encoded = protocol.encode_constraint(RUNNING_EXAMPLE_PATEX)
        request = {"corpus": "ex", "sigma": sigma, "algorithm": "dcand", "options": {}}
        if operation == "sweep":
            request["constraints"] = [encoded]
        else:
            request["constraint"] = encoded
        if operation == "top_k":
            request["k"] = 1
        with pytest.raises(ServiceError, match="bad sigma on the wire"):
            client._call(operation, **request)
        # The daemon keeps serving, and nothing was mined or cached.
        assert client.ping()["protocol"] == protocol.PROTOCOL_VERSION
        assert client.cache_info().misses == 0
        served = client.mine("ex", RUNNING_EXAMPLE_PATEX, sigma=SIGMA, algorithm="dcand")
        assert served.patterns()

    @pytest.mark.parametrize("algorithm", CLUSTER_ALGORITHMS)
    def test_results_byte_identical_to_direct_path(self, client, ex_corpus, algorithm):
        spec = constraint_for(algorithm)
        direct = repro.api.mine(ex_corpus, spec, sigma=SIGMA, algorithm=algorithm)
        client.attach_corpus("ex", ex_corpus)
        served = client.mine("ex", spec, sigma=SIGMA, algorithm=algorithm)
        # byte-identical pattern payload: same patterns, same counts, same order
        import json

        assert json.dumps(protocol.encode_result(served)["patterns"]) == json.dumps(
            protocol.encode_result(direct)["patterns"]
        )
        assert served.algorithm == direct.algorithm
        # deterministic metrics agree too (timings are wall-clock, so excluded)
        for field in ("shuffle_bytes", "shuffle_records", "wire_bytes", "num_workers"):
            assert getattr(served.metrics, field) == getattr(direct.metrics, field), field

    @pytest.mark.parametrize("algorithm", CLUSTER_ALGORITHMS)
    def test_served_metrics_are_the_library_metrics(
        self, server, client, ex_corpus, algorithm
    ):
        spec = constraint_for(algorithm)
        client.attach_corpus("ex", ex_corpus)
        served = client.mine("ex", spec, sigma=SIGMA, algorithm=algorithm)
        # The daemon's session answers the same query from its cache: the
        # very result the daemon encoded.
        local = server.session.mine("ex", spec, sigma=SIGMA, algorithm=algorithm)
        assert server.session.last_query_cached
        for field in dataclasses.fields(JobMetrics):
            name = field.name
            assert getattr(served.metrics, name) == getattr(local.metrics, name), name
        assert served.metrics.as_dict() == local.metrics.as_dict()

    @pytest.mark.parametrize("facade", ["local", "service"])
    def test_both_facades_refuse_an_attachment_that_is_no_database(
        self, request, ex_dictionary, facade
    ):
        session = repro.LocalSession() if facade == "local" else request.getfixturevalue("client")
        with pytest.raises(MiningError, match="expected a Corpus"):
            session.attach_corpus("x", [[1, 2]], ex_dictionary)
        assert session.corpora() == {}

    def test_hot_query_is_served_from_cache(self, client, ex_corpus):
        client.attach_corpus("ex", ex_corpus)
        client.mine("ex", RUNNING_EXAMPLE_PATEX, sigma=SIGMA)
        assert client.last_query_cached is False
        client.mine("ex", RUNNING_EXAMPLE_PATEX, sigma=SIGMA)
        assert client.last_query_cached is True
        info = client.cache_info()
        assert (info.hits, info.misses) == (1, 1)

    def test_reattach_after_append_cold_starts(self, client, ex_corpus, ex_dictionary):
        from repro.sequences import SequenceDatabase

        client.attach_corpus("ex", ex_corpus)
        client.mine("ex", RUNNING_EXAMPLE_PATEX, sigma=SIGMA)
        grown = SequenceDatabase(list(ex_corpus.database))
        grown.append(ex_dictionary.encode(["a1", "b"]))
        client.attach_corpus("ex", repro.Corpus(grown, ex_dictionary))
        client.mine("ex", RUNNING_EXAMPLE_PATEX, sigma=SIGMA)
        assert client.last_query_cached is False

    def test_sweep_one_round_trip(self, client, ex_corpus):
        client.attach_corpus("ex", ex_corpus)
        results = client.sweep(
            "ex", [RUNNING_EXAMPLE_PATEX, ".*(b).*", RUNNING_EXAMPLE_PATEX], sigma=SIGMA
        )
        assert len(results) == 3
        assert results[0].same_patterns_as(results[2])
        assert client.last_query_cached is True  # the repeated expression hit

    @pytest.mark.parametrize("k", [2.5, True, "3", None])
    def test_a_wire_k_that_is_no_int_is_refused(self, client, ex_corpus, k):
        client.attach_corpus("ex", ex_corpus)
        with pytest.raises(ServiceError, match="bad k on the wire: k must be >= 1 and an int"):
            client.top_k("ex", RUNNING_EXAMPLE_PATEX, k=k)
        # The daemon keeps serving, and nothing was mined or cached.
        assert client.ping()["protocol"] == protocol.PROTOCOL_VERSION
        assert client.cache_info().misses == 0
        assert client.top_k("ex", RUNNING_EXAMPLE_PATEX, k=1)

    def test_top_k_matches_local_session(self, client, ex_corpus):
        with repro.LocalSession() as local:
            local.attach_corpus("ex", ex_corpus)
            expected = local.top_k("ex", RUNNING_EXAMPLE_PATEX, k=3)
        client.attach_corpus("ex", ex_corpus)
        assert client.top_k("ex", RUNNING_EXAMPLE_PATEX, k=3) == expected

    def test_corpora_and_detach(self, client, ex_corpus):
        info = client.attach_corpus("ex", ex_corpus)
        assert info.content_hash == ex_corpus.content_hash()
        listed = client.corpora()
        assert listed["ex"].sequences == len(ex_corpus.database)
        client.detach_corpus("ex")
        assert client.corpora() == {}

    def test_errors_re_raise_client_side(self, client, ex_corpus):
        with pytest.raises(CorpusNotAttachedError, match="ghost"):
            client.mine("ghost", "(b)", sigma=1)
        client.attach_corpus("ex", ex_corpus)
        with pytest.raises(MiningError, match="unknown algorithm"):
            client.mine("ex", "(b)", sigma=1, algorithm="quantum")
        # the connection survives server-side errors
        assert len(client.mine("ex", RUNNING_EXAMPLE_PATEX, sigma=SIGMA)) > 0

    def test_a_removed_config_field_is_refused_and_the_daemon_keeps_serving(
        self, client, ex_corpus
    ):
        client.attach_corpus("ex", ex_corpus)
        with pytest.raises(ServiceError, match=r"unknown ClusterConfig fields.*'kernel'"):
            client._call(
                "mine",
                corpus="ex",
                constraint=protocol.encode_constraint(RUNNING_EXAMPLE_PATEX),
                sigma=SIGMA,
                algorithm="dseq",
                config={"kernel": "interpreted"},
                options={},
            )
        assert len(client.mine("ex", RUNNING_EXAMPLE_PATEX, sigma=SIGMA)) > 0

    def test_an_attempt_budget_crosses_the_wire_and_hostile_configs_are_refused(
        self, client, ex_corpus
    ):
        client.attach_corpus("ex", ex_corpus)
        config = ClusterConfig(num_workers=2, max_task_attempts=1)
        served = client.mine("ex", RUNNING_EXAMPLE_PATEX, sigma=SIGMA, config=config)
        direct = repro.api.mine(ex_corpus, RUNNING_EXAMPLE_PATEX, sigma=SIGMA, config=config)
        assert served.patterns() == direct.patterns()
        assert client.mine("ex", RUNNING_EXAMPLE_PATEX, sigma=SIGMA, config=config)
        assert client.last_query_cached is True

        def refused(wire_config, message):
            with pytest.raises(ServiceError, match=message):
                client._call(
                    "mine",
                    corpus="ex",
                    constraint=protocol.encode_constraint(RUNNING_EXAMPLE_PATEX),
                    sigma=SIGMA,
                    algorithm="dseq",
                    config=wire_config,
                    options={},
                )

        # A protocol-5 client's nested policy and a bare timeout are
        # unknown fields.
        refused({"fault_policy": {"max_task_attempts": 1}}, "unknown.*'fault_policy'")
        refused({"task_timeout_s": 30.0}, "unknown.*'task_timeout_s'")
        # A protocol-6 client's grid engine, whichever it names.
        for grid in ("flat", "legacy"):
            refused({"grid": grid}, "unknown ClusterConfig fields.*'grid'")
        # None of these may bend the attempt check.
        for hostile in (0, 2.5, True, "2"):
            refused(
                {"max_task_attempts": hostile},
                "bad ClusterConfig.*max_task_attempts must be",
            )
        # A protocol-1 client's ten-field policy.
        old_policy = {
            "max_task_attempts": 2, "task_backoff_base_s": 0.05, "task_backoff_cap_s": 2.0,
            "task_timeout_s": None, "blob_get_attempts": 4, "blob_put_attempts": 3,
            "blob_backoff_base_s": 0.01, "blob_backoff_cap_s": 0.25,
            "blob_namespace_ttl_s": 86400.0, "jitter_seed": 0,
        }
        refused({"fault_policy": old_policy}, "unknown.*'fault_policy'")
        # Sizes are ints in range: a float would die mid-run and ``true``
        # would run as one worker.
        for name, value in (("num_workers", 2.5), ("num_workers", True)):
            refused({name: value}, f"bad ClusterConfig.*{name} must be")
        # A protocol-7 client's spill budget is an unknown field, and a codec
        # is one of the names.
        refused({"spill_budget_bytes": 0}, "unknown ClusterConfig fields.*'spill_budget_bytes'")
        for codec in ("pickle", 5, None):
            refused({"codec": codec}, "bad ClusterConfig.*unknown shuffle codec")
        # A pool size is the daemon's memory and process table: bounded before
        # any cluster is built (simulated: nothing would fork at any size).
        bound = protocol.MAX_WIRE_WORKERS
        refused(
            {"backend": "simulated", "num_workers": 10**6},
            f"num_workers on the wire must be at most {bound}, got 1000000",
        )
        for backend in ("persistent-processes", "multihost"):
            with pytest.raises(ServiceError, match=f"at most {bound}, got {bound + 1}"):
                protocol.decode_config({"backend": backend, "num_workers": bound + 1})
            assert protocol.decode_config({"backend": backend, "num_workers": bound})
        # The planner's sampling fraction is spelled in parts, so a search of
        # the tree for the removed name finds nothing but its absence.
        removed_fields = (
            "measure_shuffle", "fault_injector", "partitioner", "plan" + "_sample",
            "num_reduce_tasks",
        )
        for removed in removed_fields:
            refused({removed: None}, rf"unknown ClusterConfig fields.*'{removed}'")
        # Where the daemon writes and sweeps is its operator's choice.
        refused({"blob_dir": "/tmp/blobs"}, r"unknown ClusterConfig fields.*'blob_dir'")
        refused({"spill_dir": "/tmp/elsewhere"}, "spill_dir cannot be set on the wire")
        assert client.ping()["protocol"] == protocol.PROTOCOL_VERSION

    def test_clear_cache(self, client, ex_corpus):
        client.attach_corpus("ex", ex_corpus)
        client.mine("ex", RUNNING_EXAMPLE_PATEX, sigma=SIGMA)
        assert client.clear_cache() == 1
        client.mine("ex", RUNNING_EXAMPLE_PATEX, sigma=SIGMA)
        assert client.last_query_cached is False

    def test_query_timeout(self):
        class SlowPingServer(MiningServer):
            def _op_ping(self, request):
                time.sleep(5.0)
                return super()._op_ping(request)

        with SlowPingServer() as server:
            host, port = server.serve_background()
            with repro.connect(host, port, timeout=0.2) as slow:
                with pytest.raises(QueryTimeoutError) as excinfo:
                    slow.ping()
                assert excinfo.value.operation == "ping"
                # timeouts poison the connection: the stranded reply must never
                # be read as the answer to a later request
                with pytest.raises(ServiceError, match="closed"):
                    slow.ping()

    def test_ping_takes_no_client_delay(self, server):
        # ``ping`` used to sleep its handler thread for any ``sleep_s`` asked.
        host, port = server.address
        with repro.connect(host, port, timeout=0.2) as session:
            assert session._call("ping", sleep_s=5)["protocol"] == protocol.PROTOCOL_VERSION

    def test_connect_refused(self):
        with pytest.raises(ServiceError, match="cannot reach"):
            repro.api.connect("127.0.0.1", 1, connect_timeout=0.5)

    def test_concurrent_clients_share_the_cache(self, server, ex_corpus):
        host, port = server.address
        with repro.connect(host, port) as warmup:
            warmup.attach_corpus("ex", ex_corpus)
            warmup.mine("ex", RUNNING_EXAMPLE_PATEX, sigma=SIGMA)
        results, errors = [], []

        def worker():
            try:
                with repro.connect(host, port) as session:
                    results.append(session.mine("ex", RUNNING_EXAMPLE_PATEX, sigma=SIGMA))
            except Exception as error:  # pragma: no cover - failure reporting
                errors.append(error)

        threads = [threading.Thread(target=worker) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
        assert not errors
        assert len(results) == 4
        first = results[0]
        assert all(r.same_patterns_as(first) for r in results)
        info = server.session.cache_info()
        assert info.hits >= 4  # every concurrent query was served warm

    def test_shutdown_op_stops_the_server(self, ex_corpus):
        with MiningServer() as running:
            host, port = running.serve_background()
            session = repro.connect(host, port)
            session.shutdown_server()
            # the accept loop winds down; new connections eventually fail
            running._thread.join(timeout=10)
            assert not running._thread.is_alive()


# ------------------------------------------------ a daemon imports up front
#: Starts a daemon in a fresh interpreter and reports the ``repro.*`` modules
#: loaded once it listens and those its first cold requests added.
_DAEMON_PROBE = """
import json, sys

import repro
from repro.api.client import connect
from repro.service import MiningServer

def loaded():
    return {name for name in sys.modules if name.startswith("repro")}

corpus = repro.Corpus.from_gid_sequences([["a", "b"], ["a", "c", "b"], ["b", "a"]])
with MiningServer() as server:
    host, port = server.serve_background()
    listening = loaded()
    with connect(host, port) as session:
        session.attach_corpus("demo", corpus)
        patterns = [
            len(session.mine("demo", "(a).*(b)", sigma=2, algorithm=algorithm))
            for algorithm in ("dseq", "dcand", "naive", "desq-dfs")
        ]
        patterns.append(len(session.mine("demo", {"max_gap": 1}, sigma=2, algorithm="lash")))
        session.top_k("demo", "(a).*(b)", k=1)
print(json.dumps({
    "listening": sorted(listening),
    "imported_by_requests": sorted(loaded() - listening),
    "patterns": patterns,
}))
"""


class TestDaemonPreload:
    def test_every_algorithm_is_loaded_before_the_first_request(self):
        report = run_probe(_DAEMON_PROBE)
        assert report["patterns"] == [1, 1, 1, 1, 1]
        assert {
            "repro.core.dseq",
            "repro.core.dcand",
            "repro.core.naive",
            "repro.sequential.lash",
            "repro.sequential.desq_dfs",
            "repro.sequential.desq_count",
            "repro.mapreduce.base",
            "repro.mapreduce.parallel",
        } <= set(report["listening"])
        assert report["imported_by_requests"] == []

    def test_preload_is_one_call_for_any_long_lived_process(self):
        loaded = run_probe(
            "import json, sys, repro.api; repro.api.preload_miners(); "
            "print(json.dumps(sorted(n for n in sys.modules if n.startswith('repro.'))))"
        )
        assert {"repro.core.dseq", "repro.core.dcand", "repro.core.balance"} <= set(loaded)
        assert not any(name.startswith(("repro.cli", "repro.experiments")) for name in loaded)


# ------------------------------------------------------------------- the CLI
class TestServeCommand:
    def test_serve_and_query_over_the_cli(self, tmp_path, ex_corpus):
        from repro.cli.main import main

        sequences = tmp_path / "demo.txt"
        sequences.write_text("a b\na c b\na b c\nc a b\n", encoding="utf-8")
        out = tmp_path / "serve.log"
        errors = []

        def serve():
            try:
                with out.open("w") as stream:
                    main(
                        ["serve", "--port", "0", "--attach", f"demo={sequences}"],
                        stream=stream,
                    )
            except Exception as error:  # pragma: no cover - failure reporting
                errors.append(error)

        # daemon: a failed assertion must not leave the interpreter hanging
        thread = threading.Thread(target=serve, daemon=True)
        thread.start()
        # wait for the daemon to announce its ephemeral port
        import time

        port = None
        for _ in range(200):
            text = out.read_text(encoding="utf-8") if out.exists() else ""
            for line in text.splitlines():
                if line.startswith("mining service listening on "):
                    port = int(line.rsplit(":", 1)[1])
            if port is not None:
                break
            time.sleep(0.05)
        assert port is not None, "daemon never announced its address"
        session = repro.connect("127.0.0.1", port)
        assert "demo" in session.corpora()
        result = session.mine("demo", "(a).*(b)", sigma=2)
        assert len(result) > 0
        session.shutdown_server()
        thread.join(timeout=10)
        assert not thread.is_alive()
        assert not errors

    def test_attach_spec_validation(self, tmp_path):
        from repro.cli.main import main

        code = main(["serve", "--port", "0", "--attach", "junk", "--max-requests", "0"])
        assert code == 2
