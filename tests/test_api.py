"""The redesigned public API: unified mine(), sessions, cache, deprecations."""

from __future__ import annotations

import dataclasses
import importlib
import inspect
import json
import warnings

import pytest

import repro
import repro.api
from repro.api.session import canonical_algorithm, constraint_token, resolve_constraint
from repro.core import DCandMiner, DSeqMiner, NaiveMiner, SemiNaiveMiner
from repro.datasets import constraint as make_constraint
from repro.errors import CorpusNotAttachedError, MiningError
from repro.experiments.harness import RunRecord, run_algorithm
from repro.mapreduce import (
    BACKENDS,
    ClusterConfig,
    ScriptedInjector,
    SimulatedCluster,
    make_cluster,
)
from repro.sequential import GapConstrainedMiner, SequentialDesqCount, SequentialDesqDfs

from tests.conftest import RUNNING_EXAMPLE_PATEX, run_probe

SIGMA = 2

#: The five cluster miners of the unified entry point (lash covers mg-fsm).
CLUSTER_ALGORITHMS = ("dseq", "dcand", "naive", "semi-naive", "lash")


@pytest.fixture()
def ex_corpus(ex_database, ex_dictionary):
    return repro.Corpus(ex_database, ex_dictionary)


# ------------------------------------------------------------------ Corpus
class TestCorpus:
    def test_from_gid_sequences_runs_preprocessing(self):
        corpus = repro.Corpus.from_gid_sequences([["a", "b"], ["a", "c", "b"]])
        assert len(corpus) == 2
        assert len(corpus.dictionary) == 3

    def test_content_hash_changes_with_data(self, ex_dictionary):
        first = repro.Corpus.from_gid_sequences([["a", "b"]])
        second = repro.Corpus.from_gid_sequences([["a", "b"], ["b", "a"]])
        assert first.content_hash() != second.content_hash()

    def test_content_hash_covers_the_dictionary(self, ex_database, ex_dictionary):
        other = repro.Corpus.from_gid_sequences([["x", "y"]])
        ours = repro.Corpus(ex_database, ex_dictionary)
        assert ours.content_hash() != other.content_hash()

    def test_as_corpus_accepts_pairs_in_either_order(self, ex_database, ex_dictionary):
        from repro.api import as_corpus

        a = as_corpus((ex_database, ex_dictionary))
        b = as_corpus((ex_dictionary, ex_database))
        assert a.database is b.database is ex_database
        assert a.dictionary is b.dictionary is ex_dictionary

    def test_as_corpus_rejects_junk(self):
        from repro.api import as_corpus

        with pytest.raises(MiningError):
            as_corpus("not a corpus")


# -------------------------------------------------------------- unified mine
class TestUnifiedMine:
    def test_matches_direct_miner_for_every_fst_algorithm(self, ex_corpus):
        classes = {
            "dseq": DSeqMiner,
            "dcand": DCandMiner,
            "naive": NaiveMiner,
            "semi-naive": SemiNaiveMiner,
        }
        for name, miner_class in classes.items():
            unified = repro.api.mine(
                ex_corpus, RUNNING_EXAMPLE_PATEX, sigma=SIGMA, algorithm=name
            )
            direct = miner_class(
                RUNNING_EXAMPLE_PATEX, SIGMA, ex_corpus.dictionary
            ).mine(ex_corpus.database)
            assert unified.same_patterns_as(direct), name

    def test_matches_direct_gap_miner(self, ex_corpus):
        unified = repro.api.mine(
            ex_corpus,
            {"max_gap": 1, "max_length": 3},
            sigma=SIGMA,
            algorithm="lash",
        )
        direct = GapConstrainedMiner(
            SIGMA, ex_corpus.dictionary, max_gap=1, max_length=3
        ).mine(ex_corpus.database)
        assert unified.same_patterns_as(direct)

    def test_sequential_algorithms(self, ex_corpus):
        dfs = repro.api.mine(
            ex_corpus, RUNNING_EXAMPLE_PATEX, sigma=SIGMA, algorithm="desq-dfs"
        )
        count = repro.api.mine(
            ex_corpus, RUNNING_EXAMPLE_PATEX, sigma=SIGMA, algorithm="desq-count"
        )
        assert dfs.same_patterns_as(count)
        assert len(dfs) > 0

    def test_accepts_catalogue_constraints_with_their_sigma(self, ex_corpus):
        spec = make_constraint("T1", sigma=SIGMA, max_length=3)
        result = repro.api.mine(ex_corpus, spec, algorithm="lash")
        assert len(result) > 0

    def test_accepts_database_dictionary_pair(self, ex_database, ex_dictionary):
        result = repro.api.mine(
            (ex_dictionary, ex_database), RUNNING_EXAMPLE_PATEX, sigma=SIGMA
        )
        assert len(result) > 0

    def test_config_selects_the_substrate(self, ex_corpus):
        result = repro.api.mine(
            ex_corpus,
            RUNNING_EXAMPLE_PATEX,
            sigma=SIGMA,
            config=ClusterConfig(num_workers=2),
        )
        assert result.metrics.num_workers == 2

    def test_rejects_unknown_algorithm(self, ex_corpus):
        with pytest.raises(MiningError, match="unknown algorithm"):
            repro.api.mine(ex_corpus, "(b)", sigma=1, algorithm="quantum")

    def test_requires_sigma(self, ex_corpus):
        with pytest.raises(MiningError, match="sigma is required"):
            repro.api.mine(ex_corpus, "(b)")

    def test_fst_algorithms_reject_gap_constraints(self, ex_corpus):
        with pytest.raises(MiningError, match="pattern-expression"):
            repro.api.mine(ex_corpus, {"max_gap": 1}, sigma=1, algorithm="dseq")

    def test_canonical_algorithm_spellings(self):
        assert canonical_algorithm("D-SEQ") == "dseq"
        assert canonical_algorithm("SemiNaive") == "semi-naive"
        assert canonical_algorithm("mgfsm") == "mg-fsm"

    def test_constraint_resolution_prefers_explicit_sigma(self):
        spec = make_constraint("N1", sigma=100)
        _, _, sigma = resolve_constraint(spec, 7)
        assert sigma == 7
        _, _, sigma = resolve_constraint(spec, None)
        assert sigma == 100

    def test_constraint_token_is_order_insensitive_for_gap_dicts(self):
        a = constraint_token(None, {"max_gap": 2, "max_length": 4})
        b = constraint_token(None, {"max_length": 4, "max_gap": 2})
        assert a == b


# ---------------------------------------------------------------- sessions
class TestLocalSession:
    def test_mine_requires_an_attached_corpus(self, ex_corpus):
        with repro.LocalSession() as session:
            session.attach_corpus("ex", ex_corpus)
            with pytest.raises(CorpusNotAttachedError) as excinfo:
                session.mine("other", "(b)", sigma=1)
            assert "ex" in str(excinfo.value)

    def test_cold_then_hot(self, ex_corpus):
        with repro.LocalSession() as session:
            session.attach_corpus("ex", ex_corpus)
            cold = session.mine("ex", RUNNING_EXAMPLE_PATEX, sigma=SIGMA)
            assert session.last_query_cached is False
            hot = session.mine("ex", RUNNING_EXAMPLE_PATEX, sigma=SIGMA)
            assert session.last_query_cached is True
            assert hot is cold  # the very same object, not a recomputation
            info = session.cache_info()
            assert (info.hits, info.misses, info.entries) == (1, 1, 1)

    def test_cache_distinguishes_every_key_component(self, ex_corpus):
        with repro.LocalSession() as session:
            session.attach_corpus("ex", ex_corpus)
            session.mine("ex", RUNNING_EXAMPLE_PATEX, sigma=SIGMA)
            # different σ, algorithm, and config all miss
            session.mine("ex", RUNNING_EXAMPLE_PATEX, sigma=SIGMA + 1)
            session.mine("ex", RUNNING_EXAMPLE_PATEX, sigma=SIGMA, algorithm="dcand")
            session.mine(
                "ex",
                RUNNING_EXAMPLE_PATEX,
                sigma=SIGMA,
                config=ClusterConfig(num_workers=2),
            )
            info = session.cache_info()
            assert info.misses == 4
            assert info.hits == 0

    def test_reattach_after_append_cold_starts(self, ex_corpus, ex_dictionary):
        from repro.sequences import SequenceDatabase

        with repro.LocalSession() as session:
            session.attach_corpus("ex", ex_corpus)
            before = session.mine("ex", RUNNING_EXAMPLE_PATEX, sigma=SIGMA)
            grown = SequenceDatabase(list(ex_corpus.database))
            grown.append(ex_dictionary.encode(["a1", "b"]))
            session.attach_corpus("ex", repro.Corpus(grown, ex_dictionary))
            after = session.mine("ex", RUNNING_EXAMPLE_PATEX, sigma=SIGMA)
            assert session.last_query_cached is False  # content hash changed
            assert not after.same_patterns_as(before)

    def test_sweep_shares_compiled_patexes(self, ex_corpus):
        with repro.LocalSession() as session:
            session.attach_corpus("ex", ex_corpus)
            expressions = [RUNNING_EXAMPLE_PATEX, ".*(b).*", RUNNING_EXAMPLE_PATEX]
            results = session.sweep("ex", expressions, sigma=SIGMA)
            assert len(results) == 3
            assert results[0].same_patterns_as(results[2])
            assert session.cache_info().hits == 1  # the repeated expression

    def test_a_reattached_corpus_is_mined_with_its_own_dictionary(self, monkeypatch):
        """A new dictionary may get a freed dictionary's id: make every id
        collide, and the re-attached corpus must still be mined with an FST
        compiled against its own dictionary."""
        import repro.patex.patex

        monkeypatch.setattr(repro.patex.patex, "id", lambda _: 0, raising=False)
        first = repro.Corpus.from_gid_sequences([["a", "b"]] * 3 + [["b", "c"]] * 5)
        second = repro.Corpus.from_gid_sequences([["c", "a", "b"]] * 4 + [["a"]] * 6)
        expression = ".*(a).*(b).*"
        with repro.LocalSession() as session:
            session.attach_corpus("x", first)
            session.mine("x", expression, sigma=1)
            session.attach_corpus("x", second)
            served = session.mine("x", expression, sigma=1).decoded(second.dictionary)
        direct = repro.api.mine(second, expression, sigma=1).decoded(second.dictionary)
        assert served == direct == {("a", "b"): 4}

    def test_detach_and_corpora_listing(self, ex_corpus):
        with repro.LocalSession() as session:
            info = session.attach_corpus("ex", ex_corpus)
            assert info.sequences == len(ex_corpus.database)
            assert info.content_hash == ex_corpus.content_hash()
            assert set(session.corpora()) == {"ex"}
            session.detach_corpus("ex")
            assert session.corpora() == {}
            with pytest.raises(CorpusNotAttachedError):
                session.detach_corpus("ex")

    def test_clear_cache(self, ex_corpus):
        with repro.LocalSession() as session:
            session.attach_corpus("ex", ex_corpus)
            session.mine("ex", RUNNING_EXAMPLE_PATEX, sigma=SIGMA)
            assert session.clear_cache() == 1
            session.mine("ex", RUNNING_EXAMPLE_PATEX, sigma=SIGMA)
            assert session.last_query_cached is False


class TestTopK:
    def test_matches_full_mine(self, ex_corpus):
        with repro.LocalSession() as session:
            session.attach_corpus("ex", ex_corpus)
            full = session.mine("ex", RUNNING_EXAMPLE_PATEX, sigma=1)
            for k in (1, 2, len(full), len(full) + 10):
                ranked = session.top_k("ex", RUNNING_EXAMPLE_PATEX, k=k)
                assert ranked == full.sorted_patterns()[:k], k

    def test_early_termination_skips_low_sigma_mines(self, ex_corpus):
        with repro.LocalSession() as session:
            session.attach_corpus("ex", ex_corpus)
            session.top_k("ex", ".*(b).*", k=1)
            # (b) has support 5 = |database|, so the very first probe (σ=5)
            # already yields one pattern: exactly one query ran.
            info = session.cache_info()
            assert info.misses == 1

    def test_respects_the_sigma_floor(self, ex_corpus):
        with repro.LocalSession() as session:
            session.attach_corpus("ex", ex_corpus)
            ranked = session.top_k("ex", RUNNING_EXAMPLE_PATEX, k=100, sigma=3)
            assert ranked  # something frequent exists
            assert all(frequency >= 3 for _, frequency in ranked)

    def test_rejects_bad_arguments(self, ex_corpus):
        with repro.LocalSession() as session:
            session.attach_corpus("ex", ex_corpus)
            with pytest.raises(MiningError):
                session.top_k("ex", "(b)", k=0)
            with pytest.raises(MiningError):
                session.top_k("ex", "(b)", k=1, sigma=0)

    @pytest.mark.parametrize("k", [2.5, True, "3", None])
    def test_a_k_that_is_no_int_is_refused_before_any_mine(self, ex_corpus, k):
        """2.5 used to run the whole σ descent and then die in an untyped
        ``TypeError``, and ``True`` ran as k = 1."""
        with repro.LocalSession() as session:
            session.attach_corpus("ex", ex_corpus)
            with pytest.raises(MiningError, match="k must be >= 1 and an int"):
                session.top_k("ex", RUNNING_EXAMPLE_PATEX, k=k)
            assert session.cache_info().misses == 0


# ------------------------------------------------------------- sigma values
#: Not a minimum support: ``True`` used to mine at σ = 1 (and hit σ = 1's
#: cache entry), 7.5 was accepted, "8" died in an untyped ``TypeError``.
NOT_A_SIGMA = (True, 7.5, "8", 0)


class TestSigmaIsRefusedBeforeAnyWork:
    @pytest.mark.parametrize("sigma", NOT_A_SIGMA)
    @pytest.mark.parametrize("algorithm", ["dseq", "dcand", "desq-dfs"])
    def test_unified_mine(self, ex_corpus, sigma, algorithm):
        with pytest.raises(MiningError, match="sigma must be >= 1 and an int"):
            repro.api.mine(ex_corpus, RUNNING_EXAMPLE_PATEX, sigma=sigma, algorithm=algorithm)

    @pytest.mark.parametrize("sigma", NOT_A_SIGMA)
    def test_session_query_and_top_k(self, ex_corpus, sigma):
        with repro.LocalSession() as session:
            session.attach_corpus("ex", ex_corpus)
            session.mine("ex", RUNNING_EXAMPLE_PATEX, sigma=1)
            with pytest.raises(MiningError, match="sigma must be >= 1 and an int"):
                session.query("ex", RUNNING_EXAMPLE_PATEX, sigma=sigma)
            with pytest.raises(MiningError, match="sigma must be >= 1 and an int"):
                session.top_k("ex", RUNNING_EXAMPLE_PATEX, k=1, sigma=sigma)
            assert session.cache_info().hits == 0

    @pytest.mark.parametrize("sigma", NOT_A_SIGMA)
    def test_cluster_miners_refuse_it_when_built(self, ex_dictionary, sigma, monkeypatch):
        from repro.core.dcand import DCandJob

        def no_map(*_args):
            raise AssertionError("the map ran")

        monkeypatch.setattr(DCandJob, "map", no_map)
        for miner_class in (DSeqMiner, DCandMiner, NaiveMiner, SemiNaiveMiner):
            with pytest.raises(MiningError, match="sigma must be >= 1 and an int"):
                miner_class(RUNNING_EXAMPLE_PATEX, sigma, ex_dictionary)
        with pytest.raises(MiningError, match="sigma must be >= 1 and an int"):
            GapConstrainedMiner(sigma, ex_dictionary, max_gap=1, max_length=3)

    def test_a_plain_int_still_mines(self, ex_corpus):
        assert repro.api.mine(ex_corpus, RUNNING_EXAMPLE_PATEX, sigma=2, algorithm="dcand")


# ---------------------------------------------------- legacy kwarg removal
class TestLegacyKwargRemoval:
    """The deprecated ``backend=``/``codec=``/``spill_budget_bytes=`` miner
    keywords completed their deprecation cycle and are gone: passing them is
    now a plain TypeError, and the ``cluster=ClusterConfig(...)`` path never
    warns."""

    def test_miners_reject_backend_kwarg(self, ex_dictionary):
        for miner_class in (DSeqMiner, DCandMiner, NaiveMiner, SemiNaiveMiner):
            with pytest.raises(TypeError, match="backend"):
                miner_class(
                    RUNNING_EXAMPLE_PATEX, SIGMA, ex_dictionary, backend="simulated"
                )

    def test_gap_miner_rejects_backend_kwarg(self, ex_dictionary):
        with pytest.raises(TypeError, match="backend"):
            GapConstrainedMiner(
                SIGMA, ex_dictionary, max_gap=1, max_length=3, backend="simulated"
            )

    def test_miners_reject_codec_and_spill_kwargs(self, ex_dictionary):
        with pytest.raises(TypeError, match="codec"):
            DSeqMiner(RUNNING_EXAMPLE_PATEX, SIGMA, ex_dictionary, codec="pickle")
        with pytest.raises(TypeError, match="spill_budget_bytes"):
            DSeqMiner(
                RUNNING_EXAMPLE_PATEX, SIGMA, ex_dictionary, spill_budget_bytes=1 << 20
            )

    def test_harness_rejects_legacy_kwargs(self, ex_database, ex_dictionary):
        spec = make_constraint("N5", sigma=SIGMA)
        with pytest.raises(TypeError, match="backend"):
            run_algorithm("dseq", spec, ex_dictionary, ex_database, backend="simulated")

    def test_cluster_config_path_is_warning_free(self, ex_database, ex_dictionary):
        spec = make_constraint("N5", sigma=SIGMA)
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            DSeqMiner(
                RUNNING_EXAMPLE_PATEX, SIGMA, ex_dictionary,
                cluster=ClusterConfig(backend="simulated"),
            )
            run_algorithm(
                "dseq", spec, ex_dictionary, ex_database,
                cluster=ClusterConfig(num_workers=2),
            )

    def test_unset_sentinel_is_gone(self):
        import repro.mapreduce as mapreduce

        assert not hasattr(mapreduce, "UNSET")
        assert not hasattr(mapreduce, "resolve_legacy_substrate")


class TestConfigFingerprint:
    def test_equal_configs_share_a_fingerprint(self):
        assert ClusterConfig().fingerprint() == ClusterConfig().fingerprint()

    #: One non-default value per :class:`ClusterConfig` field.
    NON_DEFAULT = {
        "backend": "multihost",
        "num_workers": 3,
        "codec": "zlib",
        "max_task_attempts": 1,
    }

    #: A scratch location changes neither patterns nor metrics.
    NOT_FINGERPRINTED = {"spill_dir"}

    def test_each_field_changes_the_fingerprint(self):
        fields = {field.name for field in dataclasses.fields(ClusterConfig)}
        assert set(self.NON_DEFAULT) | self.NOT_FINGERPRINTED == fields
        assert not set(self.NON_DEFAULT) & self.NOT_FINGERPRINTED
        base = ClusterConfig().fingerprint()
        for name, value in self.NON_DEFAULT.items():
            assert ClusterConfig(**{name: value}).fingerprint() != base, name
        assert ClusterConfig(spill_dir="/tmp/spill").fingerprint() == base

    #: One non-default setting per substrate knob a ready-made cluster carries.
    INSTANCE_SETTINGS = {
        "num_workers": 8,
        "codec": "zlib",
        "max_task_attempts": 1,
        "fault_injector": ScriptedInjector(kill_map_task=0),
    }

    def test_a_cluster_instance_fingerprints_by_its_own_settings(self):
        """A ready-made cluster runs on its own settings, so two instances
        that differ in any of them must not share a service-cache entry."""

        def fingerprint(num_workers=2, **settings):
            instance = SimulatedCluster(num_workers=num_workers, **settings)
            return ClusterConfig(backend=instance).fingerprint()

        base = fingerprint()
        assert fingerprint() == base
        for name, value in self.INSTANCE_SETTINGS.items():
            assert fingerprint(**{name: value}) != base, name
        assert fingerprint(spill_dir="/tmp/spill") == base
        # The config's own substrate fields never reach an instance.
        instance = SimulatedCluster(num_workers=2)
        assert ClusterConfig(backend=instance, num_workers=8).fingerprint() == base


class TestFingerprintSpellings:
    """The fingerprint is read off the cluster the config builds, so every
    spelling of one substrate shares one service-cache entry."""

    SPELLINGS = {
        "backend-alias": ({"backend": "processes"}, {"backend": "persistent-processes"}),
        "codec-case": ({"codec": "ZLIB"}, {"codec": "zlib"}),
        "default-workers": ({"num_workers": None}, {"num_workers": 4}),
        "backend-case": ({"backend": "Simulated "}, {"backend": "simulated"}),
    }

    @pytest.mark.parametrize("spelling", SPELLINGS)
    def test_one_substrate_has_one_fingerprint(self, spelling):
        written, canonical = self.SPELLINGS[spelling]
        assert ClusterConfig(**written).fingerprint() == ClusterConfig(**canonical).fingerprint()

    @pytest.mark.parametrize("spelling", SPELLINGS)
    def test_a_respelled_config_hits_the_session_cache(self, ex_corpus, spelling):
        written, canonical = self.SPELLINGS[spelling]
        with repro.LocalSession() as session:
            session.attach_corpus("ex", ex_corpus)
            for fields in (canonical, written):
                session.mine("ex", RUNNING_EXAMPLE_PATEX, sigma=SIGMA, config=ClusterConfig(**fields))
            assert session.last_query_cached is True
            assert session.cache_info().hits == 1


#: Knobs of deleted implementation paths, each with a value it once took: the
#: trie-batched map (spelled in parts so that a search of the tree for the
#: removed name finds nothing but its absence), the mining-kernel choice,
#: the switch that turned the modeled shuffle accounting off, the shared
#: blob directory (a run's blobs now live in its run directory), and the
#: skew-aware reduce planner with its sampling fraction (the stable hash is
#: the only partitioner; the fraction is spelled in parts like the first),
#: the fault-policy wrapper with its post-hoc per-task timeout (the
#: attempt budget is ``max_task_attempts``), the grid-engine choice (the
#: legacy engine is reached only through ``DSeqJob(grid=...)``), and the
#: per-map-task spill budget (payloads travel inline, or all go to the
#: fragment store on ``multihost``).
REMOVED_KNOBS = {
    "_".join(("map", "batching")): "trie",
    "kernel": "interpreted",
    "measure_shuffle": False,
    "blob_dir": "/tmp/blobs",
    "partitioner": "planned",
    "_".join(("plan", "sample")): 0.5,
    "dedup": False,
    "num_reduce_tasks": 8,
    "fault_policy": {"max_task_attempts": 1},
    "task_timeout_s": 30.0,
    "grid": "legacy",
    "spill_budget_bytes": 0,
}


#: Every miner constructor, built with extra keyword arguments.
MINERS = {
    "dseq": lambda dictionary, **kw: DSeqMiner(RUNNING_EXAMPLE_PATEX, SIGMA, dictionary, **kw),
    "dcand": lambda dictionary, **kw: DCandMiner(RUNNING_EXAMPLE_PATEX, SIGMA, dictionary, **kw),
    "naive": lambda dictionary, **kw: NaiveMiner(RUNNING_EXAMPLE_PATEX, SIGMA, dictionary, **kw),
    "semi-naive": lambda dictionary, **kw: SemiNaiveMiner(
        RUNNING_EXAMPLE_PATEX, SIGMA, dictionary, **kw
    ),
    "lash": lambda dictionary, **kw: GapConstrainedMiner(SIGMA, dictionary, **kw),
    "desq-dfs": lambda dictionary, **kw: SequentialDesqDfs(
        RUNNING_EXAMPLE_PATEX, SIGMA, dictionary, **kw
    ),
    "desq-count": lambda dictionary, **kw: SequentialDesqCount(
        RUNNING_EXAMPLE_PATEX, SIGMA, dictionary, **kw
    ),
}

#: Every figure function of the evaluation (each took the knobs before).
FIGURE_FUNCTIONS = (
    "figure9a",
    "figure9b",
    "figure9c",
    "figure10a",
    "figure10b",
    "figure11_scalability",
    "figure12_lash_setting",
    "figure13_mllib_setting",
)


class TestRemovedKnobs:
    """Naming a removed knob fails like any unknown keyword, on every surface
    that used to accept it."""

    @pytest.fixture(params=sorted(REMOVED_KNOBS))
    def knob(self, request):
        return request.param, REMOVED_KNOBS[request.param]

    def test_cluster_config_rejects_it(self, knob):
        name, value = knob
        with pytest.raises(TypeError, match=name):
            ClusterConfig(**{name: value})

    def test_make_cluster_rejects_it(self, knob):
        name, value = knob
        with pytest.raises(TypeError, match=name):
            make_cluster("simulated", **{name: value})

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_cluster_classes_reject_it(self, backend, knob):
        name, value = knob
        cluster_class = type(make_cluster(backend))
        with pytest.raises(TypeError, match=name):
            cluster_class(**{name: value})

    @pytest.mark.parametrize("miner_name", sorted(MINERS))
    def test_miners_reject_it(self, miner_name, knob, ex_dictionary):
        name, value = knob
        with pytest.raises(TypeError, match=name):
            MINERS[miner_name](ex_dictionary, **{name: value})

    def test_mine_rejects_it(self, knob, ex_database, ex_dictionary):
        name, value = knob
        with pytest.raises(TypeError, match=name):
            repro.api.mine(
                (ex_database, ex_dictionary), RUNNING_EXAMPLE_PATEX, SIGMA, **{name: value}
            )

    @pytest.mark.parametrize("algorithm", ["dseq", "dcand"])
    def test_harness_rejects_it(self, algorithm, knob, ex_database, ex_dictionary):
        name, value = knob
        spec = make_constraint("N5", sigma=SIGMA)
        with pytest.raises(TypeError, match=name):
            run_algorithm(
                algorithm, spec, ex_dictionary, ex_database,
                cluster=ClusterConfig(num_workers=2), **{name: value},
            )

    def test_run_records_have_no_field_for_it(self, knob):
        name, value = knob
        with pytest.raises(TypeError, match=name):
            RunRecord(algorithm="dseq", constraint="N5", dataset="NYT", **{name: value})
        assert name not in {field.name for field in dataclasses.fields(RunRecord)}

    @pytest.mark.parametrize("name", FIGURE_FUNCTIONS)
    def test_figure_functions_reject_it(self, name, knob):
        from repro.experiments import figures

        knob_name, value = knob
        with pytest.raises(TypeError, match=knob_name):
            getattr(figures, name)(**{knob_name: value})

    def test_table5_rejects_it(self, knob):
        from repro.experiments.tables import table5_speedup

        name, value = knob
        with pytest.raises(TypeError, match=name):
            table5_speedup(**{name: value})

    @pytest.mark.parametrize(
        "command",
        [
            ["mine", "--sequences", "unused.txt", "--pattern", "(a)", "--sigma", "2"],
            ["experiment", "--name", "table5"],
        ],
        ids=["mine", "experiment"],
    )
    def test_cli_flag_is_a_usage_error(self, command, knob, capsys):
        from repro.cli import main

        flag = "--" + knob[0].replace("_", "-")
        with pytest.raises(SystemExit) as excinfo:
            main([*command, flag, str(knob[1])])
        assert excinfo.value.code == 2
        assert f"unrecognized arguments: {flag} {knob[1]}" in capsys.readouterr().err


class TestSubstrateSaidOnce:
    """``ClusterConfig`` is the only place a run's substrate is stated: no
    miner, figure, table or harness function re-takes one of its fields, and
    a built cluster knows only the fields its backend reads."""

    FIELDS = {field.name for field in dataclasses.fields(ClusterConfig)}

    @staticmethod
    def _parameters(callable_) -> set[str]:
        return set(inspect.signature(callable_).parameters)

    def test_no_entry_point_restates_a_field(self):
        import repro.experiments
        from repro.experiments.harness import run_comparison

        functions = [
            getattr(repro.experiments, name)
            for name in repro.experiments.__all__
            if name.startswith(("figure", "table"))
        ]
        assert len(functions) == 11
        miners = [algorithm.miner_class() for algorithm in repro.api.ALGORITHM_TABLE.values()]
        for callable_ in (*miners, *functions, run_algorithm, run_comparison):
            assert not self._parameters(callable_) & self.FIELDS - {"cluster"}, callable_

    def test_a_cluster_takes_only_the_fields_its_backend_reads(self):
        from repro.mapreduce import StageDriverCluster

        parameters = self._parameters(StageDriverCluster) - {"self"}
        # The fault injector is a constructor argument and never a config field.
        assert parameters - {"fault_injector"} < self.FIELDS
        assert "backend" not in parameters
        assert (len(self.FIELDS), len(parameters)) == (5, 5)

    def test_the_fault_injector_is_a_constructor_argument_only(self):
        with pytest.raises(TypeError, match="fault_injector"):
            ClusterConfig(fault_injector=None)
        with pytest.raises(TypeError, match="fault_injector"):
            make_cluster("simulated", fault_injector=None)
        injector = ScriptedInjector(kill_map_task=0)
        assert SimulatedCluster(fault_injector=injector).fault_injector is injector

    def test_removed_restatements_are_type_errors(self, ex_dictionary):
        from repro.experiments import figure9c

        with pytest.raises(TypeError, match="num_workers"):
            DSeqMiner(RUNNING_EXAMPLE_PATEX, SIGMA, ex_dictionary, num_workers=2)
        with pytest.raises(TypeError, match="backend"):
            figure9c(backend="multihost")
        for name in ("resolve", "merged", "grid_name", "partitioner_name"):
            assert not hasattr(ClusterConfig, name), name

    @pytest.mark.parametrize("miner_name", ["dseq", "dcand", "naive", "semi-naive", "lash"])
    @pytest.mark.parametrize("substrate", ["simulated", "instance"])
    def test_miners_take_only_a_config(self, miner_name, substrate, ex_dictionary):
        cluster = "simulated" if substrate == "simulated" else make_cluster("simulated")
        extra = {"max_gap": 1, "max_length": 3} if miner_name == "lash" else {}
        with pytest.raises(TypeError, match="ClusterConfig"):
            MINERS[miner_name](ex_dictionary, cluster=cluster, **extra)

    def test_run_record_reports_the_workers_that_ran(self, ex_database, ex_dictionary):
        spec = make_constraint("N5", sigma=SIGMA)
        record = run_algorithm(
            "dseq", spec, ex_dictionary, ex_database, cluster=ClusterConfig(num_workers=2)
        )
        assert record.status == "ok"
        assert record.metrics.num_workers == 2
        row = record.as_row()
        assert row["wire_bytes"] == record.metrics.wire_bytes > 0
        assert row["input_pickle_bytes"] == record.metrics.map_input_pickle_bytes


class TestOneTable:
    """``repro.api``'s algorithm table is the only one: every surface that
    names an algorithm resolves it there."""

    def test_top_level_mine_is_the_api_mine(self):
        assert repro.mine is repro.api.mine

    def test_every_cli_choice_is_a_table_row(self):
        from repro.cli.mine_cmd import ALGORITHM_CHOICES

        assert ALGORITHM_CHOICES == (
            "dseq", "dcand", "naive", "semi-naive", "desq-dfs", "desq-count",
        )
        for choice in ALGORITHM_CHOICES:
            assert canonical_algorithm(choice) == choice
            assert choice in repro.api.ALGORITHM_TABLE

    def test_every_algorithm_the_figures_run_is_a_table_row(self, monkeypatch):
        from repro.core.results import MiningResult
        from repro.experiments import figures, harness, tables
        from repro.mapreduce import JobMetrics

        seen = []

        def spy(corpus, constraint, sigma=None, algorithm="dseq", config=None, **options):
            seen.append(algorithm)
            return MiningResult({}, JobMetrics())

        monkeypatch.setattr(harness, "mine", spy)
        sizes = {"NYT": 40, "AMZN": 40, "AMZN-F": 40, "CW": 40}
        figures.figure9a(size=40)
        figures.figure12_lash_setting(sizes=sizes)
        figures.figure13_mllib_setting(sigmas=(5,), size=40)
        tables.table5_speedup(sizes=sizes)
        assert set(seen) == {
            "naive", "semi-naive", "dseq", "dcand", "lash", "mg-fsm", "prefixspan", "desq-dfs",
        }
        assert set(seen) <= set(repro.api.ALGORITHM_TABLE)

    @pytest.mark.parametrize("spelling", ["prefixspan", "mllib", "PrefixSpan"])
    def test_prefixspan_is_a_row(self, spelling, ex_corpus):
        from repro.sequential import PrefixSpanMiner

        assert canonical_algorithm(spelling) == "prefixspan"
        result = repro.api.mine(ex_corpus, {"max_length": 2}, sigma=SIGMA, algorithm=spelling)
        direct = PrefixSpanMiner(SIGMA, 2, ex_corpus.dictionary).mine(ex_corpus.database)
        assert result.same_patterns_as(direct) and len(result) > 0

    def test_prefixspan_reads_its_length_from_the_constraint(self, ex_corpus):
        spec = make_constraint("T1", SIGMA, 2)
        assert repro.api.mine(ex_corpus, spec, algorithm="mllib").same_patterns_as(
            repro.api.mine(ex_corpus, {"max_length": 2}, sigma=SIGMA, algorithm="prefixspan")
        )


class TestRemovedNames:
    """Names of the deleted duplicate paths fail like any missing name."""

    @pytest.mark.parametrize("name", ["mine", "ALGORITHMS"])
    def test_core_exports_are_gone(self, name):
        import repro.core

        with pytest.raises(AttributeError, match=name):
            getattr(repro.core, name)

    def test_core_miner_module_is_gone(self):
        with pytest.raises(ModuleNotFoundError):
            importlib.import_module("repro.core.miner")

    def test_resolve_cluster_is_gone(self):
        import repro.mapreduce
        import repro.mapreduce.factory

        assert not hasattr(repro.mapreduce, "resolve_cluster")
        assert not hasattr(repro.mapreduce.factory, "resolve_cluster")

    def test_build_miner_is_gone(self):
        import repro.experiments
        import repro.experiments.harness

        assert not hasattr(repro.experiments, "build_miner")
        assert not hasattr(repro.experiments.harness, "build_miner")

    def test_pickle_codec_is_a_usage_error(self, capsys):
        from repro.cli import main

        with pytest.raises(SystemExit) as excinfo:
            main(["mine", "--sequences", "unused.txt", "--pattern", "(a)", "--sigma", "2",
                  "--codec", "pickle"])
        assert excinfo.value.code == 2
        assert "invalid choice: 'pickle'" in capsys.readouterr().err


#: What a query process imports (``benchmarks/e2e/run_query.py``, the CLI's
#: stand-in), then one query on the substrate ``sys.argv[1]`` describes;
#: prints which modules are loaded after each step.
_STARTUP_PROBE = """
import json, sys

import repro.api
from repro.datasets import constraint
from repro.errors import ReproError
from repro.mapreduce import ClusterConfig
from repro.sequences import SequenceDatabase, load_sequences, read_dictionary

query = json.loads(sys.argv[1])
after_import = sorted(sys.modules)
corpus = repro.api.Corpus.from_gid_sequences([["a", "b"], ["a", "c", "b"], ["b", "a"]])
result = repro.api.mine(
    corpus, "(a).*(b)", sigma=2, algorithm=query.pop("algorithm"),
    config=ClusterConfig(num_workers=2, **query),
)
after_mine = sorted(sys.modules)
from repro import connect
from repro.mapreduce import DirectoryBlobStore, write_lease
print(json.dumps({
    "after_import": after_import,
    "after_mine": after_mine,
    "patterns": len(result),
    "connect": connect.__module__,
    "blob_store": DirectoryBlobStore.__module__,
}))
"""


def _startup_probe(**query) -> dict:
    return run_probe(_STARTUP_PROBE, json.dumps(query))


def _loaded(modules: list[str], *prefixes: str) -> list[str]:
    """The loaded modules that are, or live under, one of ``prefixes``."""
    return [
        name for name in modules
        if any(name == prefix or name.startswith(prefix + ".") for prefix in prefixes)
    ]


#: Every package whose ``__init__`` exports through ``repro._lazy``.
LAZY_PACKAGES = (
    "repro",
    "repro.api",
    "repro.core",
    "repro.datasets",
    "repro.dictionary",
    "repro.experiments",
    "repro.fst",
    "repro.mapreduce",
    "repro.nfa",
    "repro.patex",
    "repro.sequences",
    "repro.sequential",
    "repro.service",
)


class TestStartUp:
    """A query imports what its algorithm runs (counts, never clocks)."""

    DEFERRED = (
        "repro.mapreduce.blobstore",
        "repro.api.client",
        "repro.service.server",
        "repro.service.protocol",
        "socketserver",
    )

    #: What a hash-partitioned D-SEQ query on a process pool never runs.
    NOT_DSEQ = (
        "repro.core.dcand",
        "repro.core.nfa_mining",
        "repro.nfa",
        "repro.core.balance",
        "repro.core.naive",
        "repro.sequential",
        "repro.service",
        "repro.fst.export",
        "repro.experiments",
        "repro.cli",
        "repro.datasets.amzn",
        "repro.datasets.cw",
        "repro.datasets.nyt",
        "repro.datasets.proteins",
        "repro.datasets.synthetic",
    )

    def test_query_process_loads_no_service_or_multihost_module(self):
        report = _startup_probe(algorithm="dseq", backend="persistent-processes")
        assert _loaded(report["after_import"], *self.DEFERRED) == []
        assert _loaded(report["after_mine"], *self.DEFERRED) == []
        assert report["patterns"] == 1
        # The deferred names still import from where they always did.
        assert report["connect"] == "repro.api.client"
        assert report["blob_store"] == "repro.mapreduce.blobstore"

    def test_dseq_query_loads_only_the_dseq_path(self):
        report = _startup_probe(algorithm="dseq", backend="persistent-processes")
        assert report["patterns"] == 1
        assert _loaded(report["after_mine"], *self.NOT_DSEQ) == []
        # 73 before the package __init__s went lazy; 48 when this was written.
        assert len(_loaded(report["after_mine"], "repro")) <= 52

    def test_dcand_query_on_multihost_loads_only_its_path(self):
        report = _startup_probe(algorithm="dcand", backend="multihost")
        assert report["patterns"] == 1
        assert _loaded(
            report["after_mine"],
            "repro.core.dseq", "repro.core.local_mining", "repro.core.grid_engine",
            "repro.core.balance", "repro.core.naive", "repro.sequential",
            "repro.service", "repro.experiments", "repro.cli",
        ) == []
        assert len(_loaded(report["after_mine"], "repro")) <= 60  # 73 before, 51 now

    def test_subpackages_resolve_as_attributes_of_a_bare_import(self):
        # The README's quickstart: ``import repro`` and nothing else.
        report = run_probe(
            "import json, repro; print(json.dumps([repro.api.mine.__module__, "
            "repro.mapreduce.make_cluster.__module__, hasattr(repro, 'nope')]))"
        )
        assert report == ["repro.api.session", "repro.mapreduce.factory", False]

    @pytest.mark.parametrize("package_name", LAZY_PACKAGES)
    def test_lazy_names_stay_in_all_and_resolve(self, package_name):
        package = importlib.import_module(package_name)
        assert len(set(package.__all__)) == len(package.__all__) > 0
        listed = dir(package)
        for name in package.__all__:
            assert getattr(package, name) is not None
            assert name in listed
        namespace: dict = {}
        exec(f"from {package_name} import *", namespace)
        assert set(package.__all__) <= set(namespace)
        with pytest.raises(AttributeError, match="no attribute 'nope'"):
            package.nope
        with pytest.raises(AttributeError, match="no attribute '_nope'"):
            package._nope
