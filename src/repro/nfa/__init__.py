"""Output NFAs for candidate representation (Sec. VI)."""

from repro.nfa.nfa import OutputNfa, TrieBuilder, minimize_acyclic
from repro.nfa.serializer import deserialize, serialize, serialize_trie, serialized_size

__all__ = [
    "OutputNfa",
    "TrieBuilder",
    "deserialize",
    "minimize_acyclic",
    "serialize",
    "serialize_trie",
    "serialized_size",
]
