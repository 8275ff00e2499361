"""Item dictionaries and hierarchies (Sec. II of the paper)."""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        "repro.dictionary.builder": ("DictionaryBuilder", "build_dictionary"),
        "repro.dictionary.dictionary": ("EPSILON_FID", "Dictionary", "Item"),
        "repro.dictionary.hierarchy": ("Hierarchy",),
        "repro.dictionary.intervals": ("DescendantIndex", "IntervalSet"),
    },
)
