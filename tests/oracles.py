"""Reference implementations the product's fast paths are checked against.

:class:`InterpretedKernel` answers the kernel's two per-item questions — which
transitions match, and what they output — by asking the FST's labels on every
probe, and inherits :class:`~repro.fst.compiled.MiningKernel`'s un-memoised
table passes (``edge_rows``, ``backward_step``, ``finishable_step``,
``last_producing_table``).  It shares no table, memo or matcher with
:class:`~repro.fst.compiled.CompiledFst`, so a job built on it
(``DSeqJob(InterpretedKernel(fst, dictionary), sigma=...)``) is an independent
end-to-end reference for the compiled kernel.
"""

from __future__ import annotations

from repro.fst.compiled import MiningKernel


class InterpretedKernel(MiningKernel):
    """Reference kernel: per-call :class:`~repro.fst.labels.Label` evaluation.

    Every probe goes through the original label methods (and therefore the
    dictionary's closure caches) exactly as the pre-kernel code did; it is
    the executable specification the compiled tables are checked against.
    """

    def matching(self, state: int, item: int) -> tuple[int, ...]:
        dictionary = self.dictionary
        return tuple(
            t.tid for t in self.fst.outgoing(state) if t.label.matches(item, dictionary)
        )

    def outputs(self, tid: int, item: int) -> tuple[int, ...]:
        return self.transitions[tid].label.outputs(item, self.dictionary)
