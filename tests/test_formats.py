"""Tests for the sequence file formats: text, JSON lines, and their dispatch."""

from __future__ import annotations

import gzip
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ReproError
from repro.sequences.formats import (
    detect_format,
    load_sequences,
    read_jsonl_sequences,
    save_sequences,
    write_jsonl_sequences,
)


RAW = [
    ("a1", "c", "d", "c", "b"),
    ("e", "e", "a1", "e", "a1", "e", "b"),
    ("a2", "d", "b"),
]


# ------------------------------------------------------------------ detection
class TestDetectFormat:
    def test_text_default(self):
        assert detect_format("data.txt") == "text"
        assert detect_format("data") == "text"

    def test_jsonl(self):
        assert detect_format("data.jsonl") == "jsonl"
        assert detect_format("data.JSONL") == "jsonl"

    def test_the_retired_binary_suffixes_are_text(self):
        assert detect_format("data.rsdb") == "text"
        assert detect_format("data.bin") == "text"

    def test_gz_suffix_is_transparent(self):
        assert detect_format("data.jsonl.gz") == "jsonl"
        assert detect_format("data.txt.gz") == "text"


# ----------------------------------------------------------------- JSON lines
class TestJsonlFormat:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "data.jsonl"
        written = write_jsonl_sequences(path, RAW)
        assert written == len(RAW)
        assert read_jsonl_sequences(path) == list(RAW)

    def test_round_trip_gzip(self, tmp_path):
        path = tmp_path / "data.jsonl.gz"
        write_jsonl_sequences(path, RAW)
        with gzip.open(path, "rt", encoding="utf-8") as handle:
            first = json.loads(handle.readline())
        assert first["items"] == list(RAW[0])
        assert read_jsonl_sequences(path) == list(RAW)

    def test_ids_are_sequential(self, tmp_path):
        path = tmp_path / "data.jsonl"
        write_jsonl_sequences(path, RAW, start_id=5)
        with open(path, encoding="utf-8") as handle:
            ids = [json.loads(line)["id"] for line in handle]
        assert ids == [5, 6, 7]

    def test_empty_lines_and_empty_items_are_skipped(self, tmp_path):
        path = tmp_path / "data.jsonl"
        path.write_text('{"id": 0, "items": ["a"]}\n\n{"id": 1, "items": []}\n')
        assert read_jsonl_sequences(path) == [("a",)]

    def test_invalid_json_raises(self, tmp_path):
        path = tmp_path / "data.jsonl"
        path.write_text("{not json}\n")
        with pytest.raises(ReproError, match="invalid JSON"):
            read_jsonl_sequences(path)

    def test_missing_items_field_raises(self, tmp_path):
        path = tmp_path / "data.jsonl"
        path.write_text('{"id": 0}\n')
        with pytest.raises(ReproError, match="missing 'items'"):
            read_jsonl_sequences(path)

    def test_numeric_items_are_stringified(self, tmp_path):
        path = tmp_path / "data.jsonl"
        path.write_text('{"items": [1, 2, 3]}\n')
        assert read_jsonl_sequences(path) == [("1", "2", "3")]

    def test_string_and_int_items_mix_and_intern(self, tmp_path):
        path = tmp_path / "data.jsonl"
        path.write_text('{"items": ["gid10", 77, "gid10"]}\n{"items": [77, "77"]}\n')
        loaded = read_jsonl_sequences(path)
        assert loaded == [("gid10", "77", "gid10"), ("77", "77")]
        assert distinct_objects(loaded) == distinct_gids(loaded) == 2

    #: Lines that are not ``{"items": [gid, ...]}`` with str / int gids.
    MALFORMED = {
        "a list record": "[1, 2]",
        "a string record": '"a b"',
        "a null record": "null",
        "a string of items": '{"items": "abc"}',
        "an int of items": '{"items": 5}',
        "an object of items": '{"items": {"a": 1}}',
        "a null item": '{"items": ["a", null]}',
        "a nested list item": '{"items": ["a", [1]]}',
        "an object item": '{"items": [{"gid": "a"}]}',
        "a bool item": '{"items": [true]}',
        "a float item": '{"items": [2.5]}',
    }

    @pytest.mark.parametrize("case", sorted(MALFORMED))
    def test_a_malformed_record_is_refused_at_its_line(self, tmp_path, case):
        path = tmp_path / "data.jsonl"
        path.write_text('{"items": ["a"]}\n\n' + self.MALFORMED[case] + "\n")
        with pytest.raises(ReproError, match=rf"data\.jsonl:3: "):
            read_jsonl_sequences(path)


# ---------------------------------------------------------- round-trip edges
#: gid alphabet for the text/jsonl properties: the text format splits on
#: whitespace, so gids must be non-empty and whitespace-free.
GIDS = st.text(
    alphabet=st.characters(blacklist_categories=("Z", "C")), min_size=1, max_size=8
)


#: A few multi-character gids that random token lists repeat.
GID_POOL = ("gid1", "gid22", "gid333", "x.y")


class TestRoundTripEdgeCases:
    """Encode→decode identity for every format."""

    @settings(max_examples=25, deadline=None)
    @given(st.lists(st.lists(GIDS, min_size=1, max_size=6), max_size=8))
    def test_text_round_trip_property(self, tmp_path_factory, sequences):
        path = tmp_path_factory.mktemp("text") / "data.txt"
        save_sequences(path, sequences, file_format="text")
        assert load_sequences(path, file_format="text") == [
            tuple(sequence) for sequence in sequences
        ]

    @settings(max_examples=25, deadline=None)
    @given(st.lists(st.lists(GIDS, min_size=1, max_size=6), max_size=8))
    def test_jsonl_round_trip_property(self, tmp_path_factory, sequences):
        path = tmp_path_factory.mktemp("jsonl") / "data.jsonl"
        save_sequences(path, sequences, file_format="jsonl")
        assert load_sequences(path, file_format="jsonl") == [
            tuple(sequence) for sequence in sequences
        ]

    def test_gzip_round_trip_every_format(self, tmp_path):
        for suffix in ("txt.gz", "jsonl.gz"):
            path = tmp_path / f"data.{suffix}"
            save_sequences(path, RAW)
            assert path.read_bytes()[:2] == b"\x1f\x8b", suffix
            assert load_sequences(path) == list(RAW)

    def test_stdlib_gzip_files_load(self, tmp_path):
        text = tmp_path / "data.txt.gz"
        text.write_bytes(gzip.compress(b"a1 c d c b\n\ne e a1 e a1 e b\na2 d b\n"))
        jsonl = tmp_path / "data.jsonl.gz"
        jsonl.write_bytes(
            gzip.compress(
                "".join(json.dumps({"items": list(s)}) + "\n" for s in RAW).encode()
            )
        )
        assert load_sequences(text) == list(RAW)
        assert load_sequences(jsonl) == list(RAW)


# ------------------------------------------------------------ gid interning
def distinct_objects(sequences: list[tuple[str, ...]]) -> int:
    return len({id(token) for sequence in sequences for token in sequence})


def distinct_gids(sequences: list[tuple[str, ...]]) -> int:
    return len({token for sequence in sequences for token in sequence})


class TestReadersInternGids:
    """A reader keeps one ``str`` per distinct gid, so a corpus costs memory
    in proportion to its vocabulary, not to its tokens."""

    #: Multi-character gids: CPython shares one-character strings anyway.
    CORPUS = [("gid10", "gid20", "gid10"), ("gid20", "gid30"), ("gid30", "gid10", "gid20")]

    @pytest.mark.parametrize("name", ("data.txt", "data.txt.gz", "data.jsonl", "data.jsonl.gz"))
    def test_equal_gids_are_one_object(self, tmp_path, name):
        path = tmp_path / name
        save_sequences(path, self.CORPUS)
        loaded = load_sequences(path)
        assert loaded == self.CORPUS
        assert distinct_objects(loaded) == distinct_gids(loaded) == 3

    def test_text_reader_retains_under_16_bytes_per_token(self, tmp_path):
        import random
        import tracemalloc

        rng = random.Random(7)
        vocabulary = [f"gid{index:04d}" for index in range(50)]
        path = tmp_path / "data.txt"
        save_sequences(path, [rng.choices(vocabulary, k=20) for _ in range(2000)])
        tracemalloc.start()
        try:
            before, _ = tracemalloc.get_traced_memory()
            loaded = load_sequences(path)
            after, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert distinct_objects(loaded) == 50
        assert (after - before) / (2000 * 20) < 16

    @settings(max_examples=50, deadline=None)
    @given(
        st.lists(
            st.lists(
                st.tuples(st.sampled_from(("", " ", "\t", "  ")), st.sampled_from(GID_POOL) | GIDS),
                max_size=8,
            ),
            max_size=12,
        )
    )
    def test_text_reader_property(self, tmp_path_factory, rows):
        lines = ["".join(space + gid for space, gid in row) + " " for row in rows]
        path = tmp_path_factory.mktemp("interned") / "data.txt"
        path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
        loaded = load_sequences(path)
        assert loaded == [tuple(line.split()) for line in lines if line.split()]
        assert distinct_objects(loaded) == distinct_gids(loaded)


# ------------------------------------------------------------------- dispatch
class TestDispatch:
    def test_save_and_load_text(self, tmp_path):
        path = tmp_path / "data.txt"
        save_sequences(path, RAW)
        assert load_sequences(path) == list(RAW)

    def test_save_and_load_jsonl(self, tmp_path):
        path = tmp_path / "data.jsonl"
        save_sequences(path, RAW)
        assert load_sequences(path) == list(RAW)

    def test_explicit_format_overrides_suffix(self, tmp_path):
        path = tmp_path / "data.dat"
        save_sequences(path, RAW, file_format="jsonl")
        assert load_sequences(path, file_format="jsonl") == list(RAW)

    def test_binary_is_an_unknown_format(self, tmp_path):
        with pytest.raises(ReproError, match="unknown sequence format 'binary'"):
            save_sequences(tmp_path / "data.rsdb", RAW, file_format="binary")
        with pytest.raises(ReproError, match="unknown sequence format 'binary'"):
            load_sequences(tmp_path / "data.rsdb", file_format="binary")

    @pytest.mark.parametrize("name", ("data.rsdb", "data.txt", "data.jsonl", "data.txt.gz"))
    def test_a_file_that_is_no_text_is_refused(self, tmp_path, name):
        path = tmp_path / name
        payload = b"RSDB\x01\x02\x03\x81\x82\x05\xff\xfe"
        path.write_bytes(gzip.compress(payload) if name.endswith(".gz") else payload)
        with pytest.raises(ReproError, match="not a UTF-8 text file"):
            load_sequences(path)

    def test_unknown_format_rejected(self, tmp_path):
        with pytest.raises(ReproError, match="unknown sequence format"):
            save_sequences(tmp_path / "data.txt", RAW, file_format="parquet")
        with pytest.raises(ReproError, match="unknown sequence format"):
            load_sequences(tmp_path / "data.txt", file_format="parquet")
