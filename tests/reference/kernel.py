"""The kernel's reference: per-probe label evaluation, FST acceptance, and
frequency-filtered output sets.

:class:`InterpretedKernel` answers the kernel's two per-item questions — which
transitions match, and what they output — by asking the FST's labels on every
probe, and inherits :class:`~repro.fst.compiled.MiningKernel`'s un-memoised
table passes (``edge_rows``, ``backward_step``, ``finishable_step``,
``last_producing_table``).  It shares no table, memo or matcher with
:class:`~repro.fst.compiled.CompiledFst`, so a job built on it
(``DSeqJob(InterpretedKernel(fst, dictionary), sigma=...)``) is an independent
end-to-end reference for the compiled kernel.  :func:`filtered_outputs` is
``out_δ(item)`` without its infrequent items, as the reference grid and run
walk read it.
"""

from __future__ import annotations

from repro.fst.compiled import MiningKernel, ensure_kernel
from repro.fst.labels import EPSILON_OUTPUT


def accepts(fst, sequence, dictionary=None) -> bool:
    """True iff ``fst`` (an FST with its dictionary, or a kernel) has an
    accepting run for ``sequence``: row 0 of the kernel's reachability table
    holds the initial state."""
    kernel = ensure_kernel(fst, dictionary)
    return bool((kernel.reachability_table(sequence)[0] >> kernel.initial_state) & 1)


def filtered_outputs(
    kernel: MiningKernel, tid: int, item: int, max_frequent_fid: int | None
) -> tuple[int, ...]:
    """``kernel.outputs(tid, item)`` with infrequent items removed (ε sets
    pass unfiltered)."""
    outputs = kernel.outputs(tid, item)
    if max_frequent_fid is not None and outputs != EPSILON_OUTPUT:
        outputs = tuple(fid for fid in outputs if fid <= max_frequent_fid)
    return outputs


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
