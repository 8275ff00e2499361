"""Tests for sequence databases, I/O round trips, and mining results."""

from __future__ import annotations

import json
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.results import MiningResult
from repro.dictionary import Hierarchy
from repro.errors import DictionaryError, ReproError
from repro.mapreduce import JobMetrics
from repro.sequences import (
    SequenceDatabase,
    preprocess,
    read_dictionary,
    read_gid_sequences,
    write_dictionary,
    write_gid_sequences,
)


class TestSequenceDatabase:
    def test_basic_properties(self, ex_database):
        assert len(ex_database) == 5
        assert ex_database[0][0] == 4  # a1
        assert len(list(ex_database)) == 5

    def test_statistics_match_running_example(self, ex_database):
        stats = ex_database.statistics()
        assert stats.sequence_count == 5
        assert stats.total_items == 5 + 7 + 4 + 3 + 3
        assert stats.max_length == 7
        assert stats.unique_items == 6  # A never occurs literally
        assert stats.mean_length == pytest.approx(22 / 5)

    def test_append_and_extend(self):
        database = SequenceDatabase()
        database.append((1, 2))
        database.extend([(3,), (4, 5)])
        assert len(database) == 3

    def test_rejects_non_positive_fids(self):
        with pytest.raises(ReproError):
            SequenceDatabase([(0, 1)])
        with pytest.raises(ReproError, match="non-positive"):
            SequenceDatabase([(3, -2)])

    def test_does_not_coerce_what_the_store_refuses(self):
        """No ``int()``: a float is not truncated, a digit string not parsed.

        The encoded store rejects both so records cannot round-trip as
        different values; the database must not launder them on the way in.
        """
        for bad in ((1.9,), ("37",), (2, None), (1.0,)):
            with pytest.raises(ReproError, match="integers"):
                SequenceDatabase([bad])
        database = SequenceDatabase([(1, 2)])
        with pytest.raises(ReproError, match="integers"):
            database.append([3, 4.5])
        assert database.sequences() == [(1, 2)]  # nothing half-appended

        class Fid:
            def __index__(self):
                return 7

        # bool and any __index__ type still store as their integer value.
        stored = SequenceDatabase([(True, Fid(), 3)]).sequences()
        assert stored == [(1, 7, 3)]
        assert all(type(fid) is int for fid in stored[0])

    def test_decode(self, ex_dictionary, ex_database):
        decoded = ex_database.decode(ex_dictionary)
        assert decoded[4] == ("a1", "a1", "b")

    def test_sample_deterministic(self, ex_database):
        a = ex_database.sample(0.6, seed=1).sequences()
        b = ex_database.sample(0.6, seed=1).sequences()
        assert a == b
        assert len(a) == 3

    def test_sample_full_fraction_returns_copy(self, ex_database):
        sample = ex_database.sample(1.0)
        assert sample.sequences() == ex_database.sequences()

    def test_sample_invalid_fraction(self, ex_database):
        with pytest.raises(ReproError):
            ex_database.sample(0.0)
        with pytest.raises(ReproError):
            ex_database.sample(1.5)

    def test_empty_statistics(self):
        stats = SequenceDatabase().statistics()
        assert stats.sequence_count == 0
        assert stats.mean_length == 0.0
        assert stats.as_dict()["max_length"] == 0


class TestIo:
    def test_gid_sequence_round_trip(self, tmp_path):
        path = tmp_path / "sequences.txt"
        sequences = [("a", "b"), ("c",), ("a", "a", "a")]
        assert write_gid_sequences(path, sequences) == 3
        assert read_gid_sequences(path) == sequences

    def test_dictionary_round_trip(self, tmp_path, ex_dictionary):
        path = tmp_path / "dictionary.json"
        write_dictionary(path, ex_dictionary)
        restored = read_dictionary(path)
        assert len(restored) == len(ex_dictionary)
        for item in ex_dictionary:
            restored_item = restored.item_by_gid(item.gid)
            assert restored_item.document_frequency == item.document_frequency
        # Hierarchy is preserved.
        assert restored.ancestors(restored.fid_of("a1")) == {
            restored.fid_of("a1"),
            restored.fid_of("A"),
        }
        # Every record loads unchanged.
        again = tmp_path / "again.json"
        write_dictionary(again, restored)

        def by_gid(file):
            return {record["gid"]: record for record in json.loads(file.read_text())}

        assert by_gid(again) == by_gid(path)

    def test_dictionary_round_trip_keeps_every_fid(self, tmp_path, ex_dictionary):
        """Tied items keep their fids: the running example's ``d`` (fid 3)
        and ``a1`` (fid 4) share frequency 3 and come back unchanged, not
        re-ranked by gid."""
        path = tmp_path / "dictionary.json"
        write_dictionary(path, ex_dictionary)
        restored = read_dictionary(path)

        def rows(dictionary):
            return [
                (item.gid, item.fid, item.document_frequency, item.parent_fids, item.children_fids)
                for item in dictionary
            ]

        assert rows(restored) == rows(ex_dictionary)
        assert (restored.fid_of("d"), restored.fid_of("a1")) == (3, 4)

    def test_tied_records_are_numbered_in_file_order(self, tmp_path):
        path = tmp_path / "d.json"
        records = [
            {"gid": "z", "document_frequency": 2, "parents": []},
            {"gid": "y", "document_frequency": 5, "parents": []},
            {"gid": "a", "document_frequency": 2, "parents": ["z"]},
        ]
        path.write_text(json.dumps(records), encoding="utf-8")
        restored = read_dictionary(path)
        assert [(item.gid, item.fid) for item in restored] == [("y", 1), ("z", 2), ("a", 3)]
        assert restored.item_by_gid("a").parent_fids == {2}

    #: One good record per gid, edited per case below.
    RECORDS = [
        {"gid": "a", "document_frequency": 1, "parents": ["B"]},
        {"gid": "b", "document_frequency": 1, "parents": ["B"]},
        {"gid": "B", "document_frequency": 2, "parents": []},
    ]

    #: case -> (an edit of RECORDS, the index of the record refused).
    MALFORMED = {
        "a negative frequency": ({0: {"document_frequency": -5}}, 0),
        "a float frequency": ({1: {"document_frequency": 2.7}}, 1),
        "a bool frequency": ({1: {"document_frequency": True}}, 1),
        "a string frequency": ({0: {"document_frequency": "x"}}, 0),
        "a numeric string frequency": ({0: {"document_frequency": "3"}}, 0),
        "a null frequency": ({2: {"document_frequency": None}}, 2),
        "parents as a string": ({0: {"parents": "B"}}, 0),
        "null parents": ({1: {"parents": None}}, 1),
        "an unlisted parent": ({1: {"parents": ["C"]}}, 1),
        "an int parent": ({0: {"parents": [7]}}, 0),
        "a list parent": ({0: {"parents": [["B"]]}}, 0),
        "a self parent": ({2: {"parents": ["B"]}}, 2),
        "a cycle": ({2: {"parents": ["a"]}}, 2),
        "an empty gid": ({1: {"gid": ""}}, 1),
        "an int gid": ({1: {"gid": 5}}, 1),
        "a duplicate gid": ({1: {"gid": "a"}}, 1),
        "a missing key": ({2: {"parents": ...}}, 2),
        "a list record": ({1: ...}, 1),
    }

    @pytest.mark.parametrize("case", sorted(MALFORMED))
    def test_a_malformed_record_is_refused_by_index(self, tmp_path, case):
        edits, index = self.MALFORMED[case]
        records = []
        for position, record in enumerate(self.RECORDS):
            edit = edits.get(position, {})
            if edit is ...:
                records.append(["a", 1, []])
                continue
            record = {**record, **edit}
            records.append({key: value for key, value in record.items() if value is not ...})
        path = tmp_path / "d.json"
        path.write_text(json.dumps(records), encoding="utf-8")
        with pytest.raises(DictionaryError, match=re.escape(f"{path}: record {index}")):
            read_dictionary(path)

    @pytest.mark.parametrize("document", [{"gid": "a"}, "a", None])
    def test_a_file_that_is_no_list_is_refused(self, tmp_path, document):
        path = tmp_path / "d.json"
        path.write_text(json.dumps(document), encoding="utf-8")
        with pytest.raises(DictionaryError, match=re.escape(f"{path}: a dictionary file is")):
            read_dictionary(path)

    def test_preprocess(self):
        hierarchy = Hierarchy()
        hierarchy.add_edge("x1", "X")
        dictionary, database = preprocess([("x1", "y"), ("y",)], hierarchy)
        assert len(database) == 2
        assert dictionary.frequency(dictionary.fid_of("y")) == 2
        assert dictionary.frequency(dictionary.fid_of("X")) == 1

    @given(
        st.lists(
            st.lists(
                st.sampled_from(["alpha", "beta", "gamma", "delta"]), min_size=1, max_size=5
            ).map(tuple),
            min_size=1,
            max_size=15,
        )
    )
    @settings(max_examples=25, deadline=None)
    def test_preprocess_encode_round_trip(self, sequences):
        dictionary, database = preprocess(sequences)
        assert database.decode(dictionary) == list(sequences)


class TestMiningResult:
    def make_result(self):
        return MiningResult({(4, 1): 3, (4, 2, 1): 2}, JobMetrics(), algorithm="TEST")

    def test_mapping_interface(self):
        result = self.make_result()
        assert len(result) == 2
        assert result[(4, 1)] == 3
        assert (4, 2, 1) in result
        assert dict(result) == {(4, 1): 3, (4, 2, 1): 2}

    def test_sorted_patterns(self):
        result = self.make_result()
        assert result.sorted_patterns()[0] == ((4, 1), 3)

    def test_decoded_and_top(self, ex_dictionary):
        result = self.make_result()
        decoded = result.decoded(ex_dictionary)
        assert decoded[("a1", "b")] == 3
        assert result.top(1, ex_dictionary) == [(("a1", "b"), 3)]
        assert result.top(1) == [((4, 1), 3)]

    def test_same_patterns_as(self):
        result = self.make_result()
        assert result.same_patterns_as({(4, 1): 3, (4, 2, 1): 2})
        assert not result.same_patterns_as({(4, 1): 3})

    def test_default_metrics(self):
        result = MiningResult({})
        assert result.metrics.total_seconds == 0.0
        assert len(result) == 0
