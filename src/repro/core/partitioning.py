"""Partitioning of the subsequence space (Sec. III).

Two partitioning schemes are used by the paper's framework:

* **subsequence-based** partitioning (NAÏVE / SEMI-NAÏVE): every candidate
  subsequence is its own partition key;
* **item-based** partitioning (D-SEQ / D-CAND): a subsequence belongs to the
  partition of its *pivot item*, the maximum item under the frequency-based
  total order (i.e. its least frequent item, largest fid).
"""

from __future__ import annotations

from collections.abc import Sequence


def pivot_item(subsequence: Sequence[int]) -> int:
    """The pivot item κ_ip(S): the maximum fid in the subsequence.

    fids are assigned by decreasing document frequency, so the maximum fid is
    the least frequent item of ``S``.
    """
    if not subsequence:
        raise ValueError("the empty subsequence has no pivot item")
    return max(subsequence)
