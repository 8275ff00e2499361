"""DESQ pattern expression language (Sec. II and IV)."""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        "repro.patex.ast": (
            "Capture",
            "Concatenation",
            "ItemExpression",
            "PatExNode",
            "Repetition",
            "Union",
            "Wildcard",
            "iter_nodes",
            "referenced_items",
        ),
        "repro.patex.parser": ("parse",),
        "repro.patex.patex": ("PatEx",),
    },
)
