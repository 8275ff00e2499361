"""Sequence databases, the zero-copy encoded store, and I/O."""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        "repro.sequences.database": (
            "DatabaseStatistics",
            "SequenceDatabase",
            "as_mining_records",
        ),
        "repro.sequences.store": (
            "EncodedSequenceStore",
            "SequenceStoreError",
            "StoreChunk",
            "StoreHandle",
            "StoreSlice",
            "WeightedSequence",
            "as_encoded_store",
            "attach_store",
            "detach_store",
            "fold_weighted_values",
            "record_parts",
            "resolve_chunk",
            "weighted_value_parts",
        ),
        "repro.sequences.formats": (
            "detect_format",
            "load_sequences",
            "read_jsonl_sequences",
            "save_sequences",
            "write_jsonl_sequences",
        ),
        "repro.sequences.io": (
            "preprocess",
            "read_dictionary",
            "read_gid_sequences",
            "write_dictionary",
            "write_gid_sequences",
        ),
    },
)
