"""Tests for the synthetic dataset generators and the constraint catalogue."""

from __future__ import annotations

import pytest

from repro.datasets import (
    CONSTRAINT_FACTORIES,
    amzn_forest_like,
    amzn_like,
    constraint,
    cw_like,
    nyt_like,
)
from repro.datasets.nyt import ENTITY_TYPES, POS_TAGS
from repro.datasets.synthetic import ZipfSampler, truncated_geometric
from repro.patex import PatEx

from tests.reference import accepts


class TestZipfSampler:
    def test_deterministic_for_seed(self):
        import random

        population = [f"w{i}" for i in range(50)]
        first = ZipfSampler(population, 1.1, random.Random(3)).sample_many(100)
        second = ZipfSampler(population, 1.1, random.Random(3)).sample_many(100)
        assert first == second

    def test_skewed_towards_head(self):
        import random

        population = [f"w{i}" for i in range(100)]
        samples = ZipfSampler(population, 1.2, random.Random(1)).sample_many(2000)
        head = sum(1 for s in samples if s in population[:10])
        tail = sum(1 for s in samples if s in population[-10:])
        assert head > tail

    def test_empty_population_rejected(self):
        import random

        with pytest.raises(ValueError):
            ZipfSampler([], 1.0, random.Random(0))

    def test_truncated_geometric_bounds(self):
        import random

        rng = random.Random(5)
        lengths = [truncated_geometric(rng, 10, 2, 30) for _ in range(500)]
        assert all(2 <= length <= 30 for length in lengths)


class TestNytLikeGenerator:
    def test_deterministic(self):
        a = nyt_like(100, seed=5)
        b = nyt_like(100, seed=5)
        assert a.raw_sequences == b.raw_sequences

    def test_different_seeds_differ(self):
        assert nyt_like(100, seed=1).raw_sequences != nyt_like(100, seed=2).raw_sequences

    def test_size(self):
        assert len(nyt_like(150, seed=0)) == 150

    def test_hierarchy_contains_pos_and_entity_layers(self):
        dataset = nyt_like(100, seed=0)
        for tag in POS_TAGS + ("ENTITY",) + ENTITY_TYPES:
            assert tag in dataset.hierarchy

    def test_words_have_multiple_ancestors(self):
        dataset = nyt_like(200, seed=0)
        dictionary, _database = dataset.preprocess()
        stats = dictionary.hierarchy_stats()
        assert stats["max_ancestors"] >= 3
        assert stats["mean_ancestors"] > 1.5

    def test_relational_sentences_match_n1(self):
        dataset = nyt_like(300, seed=0)
        dictionary, database = dataset.preprocess()
        fst = PatEx(constraint("N1", 2).expression).compile(dictionary)
        matched = sum(1 for sequence in database if accepts(fst, sequence, dictionary))
        assert matched > 0


class TestAmznLikeGenerator:
    def test_deterministic(self):
        assert amzn_like(100, seed=9).raw_sequences == amzn_like(100, seed=9).raw_sequences

    def test_dag_vs_forest(self):
        dag = amzn_like(200, seed=9)
        forest = amzn_forest_like(200, seed=9)
        assert not dag.hierarchy.is_forest()
        assert forest.hierarchy.is_forest()

    def test_departments_present(self):
        dataset = amzn_like(50, seed=0)
        for department in ("Electronics", "Books", "MusicInstr", "Cameras"):
            assert department in dataset.hierarchy

    def test_short_sequences(self):
        dataset = amzn_like(500, seed=0)
        _dictionary, database = dataset.preprocess()
        assert database.statistics().mean_length < 10

    def test_a_constraints_have_matches(self):
        dataset = amzn_like(600, seed=0)
        dictionary, database = dataset.preprocess()
        for key in ("A1", "A2", "A4"):
            fst = PatEx(constraint(key, 2).expression).compile(dictionary)
            matched = sum(1 for sequence in database if accepts(fst, sequence, dictionary))
            assert matched > 0, key


class TestClueWebLikeGenerator:
    def test_no_hierarchy_edges(self):
        dataset = cw_like(100, seed=0)
        dictionary, _database = dataset.preprocess()
        assert dictionary.hierarchy_stats()["max_ancestors"] == 1

    def test_deterministic(self):
        assert cw_like(80, seed=2).raw_sequences == cw_like(80, seed=2).raw_sequences


class TestConstraintCatalogue:
    @pytest.mark.parametrize("key", sorted(CONSTRAINT_FACTORIES))
    def test_all_constraints_parse(self, key):
        if key in ("T1",):
            instance = constraint(key, 100, 5)
        elif key in ("T2", "T3"):
            instance = constraint(key, 100, 1, 5)
        else:
            instance = constraint(key, 100)
        assert instance.key == key
        assert instance.sigma == 100
        PatEx(instance.expression)  # must parse

    def test_constraints_compile_on_their_datasets(self):
        nyt = nyt_like(50, seed=0)
        nyt_dictionary, _ = nyt.preprocess()
        amzn = amzn_like(50, seed=0)
        amzn_dictionary, _ = amzn.preprocess()
        for key in ("N1", "N2", "N3", "N4", "N5"):
            constraint(key, 10).patex().compile(nyt_dictionary)
        for key in ("A1", "A2", "A3", "A4"):
            constraint(key, 10).patex().compile(amzn_dictionary)

    def test_traditional_constraints_expose_specialized_parameters(self):
        t3 = constraint("T3", 100, 2, 6)
        assert t3.specialized == {
            "kind": "lash",
            "max_length": 6,
            "min_length": 2,
            "max_gap": 2,
            "use_hierarchy": True,
        }
        t1 = constraint("T1", 400, 5)
        assert t1.specialized["max_gap"] is None
        assert t1.specialized["use_hierarchy"] is False

    def test_unknown_constraint(self):
        with pytest.raises(KeyError):
            constraint("Z9", 1)

    def test_name_rendering(self):
        assert constraint("N1", 10).name == "N1(10)"
        assert str(constraint("A2", 5)) == "A2(5)"
