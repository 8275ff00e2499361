"""Output NFAs for candidate representation (Sec. VI)."""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        "repro.nfa.nfa": ("OutputNfa", "TrieBuilder"),
        "repro.nfa.serializer": (
            "decode_tables",
            "deserialize",
            "serialize",
            "serialize_pivot_tries",
            "serialize_trie",
        ),
    },
)
