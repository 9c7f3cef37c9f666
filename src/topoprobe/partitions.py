"""Measured-interval layouts around the central bond of an open chain.

A partition names the contiguous interval I of measured sites together with
its sub-segments. Two layouts are used:

* two segments I1, I2 of ``pairs`` sites each, mirror-symmetric about the
  central bond (reflection / time-reversal invariants),
* three equal contiguous segments I1, I2, I3 centered on the chain
  (internal-symmetry and combined invariants).

Which layout an invariant kind is measured on is decided here once
(``THREE_SEGMENT_KINDS``, ``partition_for``, ``check_layout``), and so is
which segment the exact contraction and the estimators weight with sigma_z
(``PartitionSpec.middle_positions``).
"""
from __future__ import annotations

from dataclasses import dataclass

# kinds measured on three equal segments; every other kind is measured on
# the two mirror segments of a reflection partition
THREE_SEGMENT_KINDS = ("d2", "klein_bottle")


@dataclass(frozen=True)
class PartitionSpec:
    """Sites of the measured interval, split into ordered segments.

    ``segments`` holds half-open site ranges ``(start, stop)``; ranges are
    contiguous, disjoint and ascending, and together form one contiguous
    interval.
    """

    num_sites: int
    pairs: int
    segments: tuple[tuple[int, int], ...]

    def __post_init__(self):
        if self.pairs < 1:
            raise ValueError("pairs must be >= 1")
        prev_stop = None
        for start, stop in self.segments:
            if not (0 <= start < stop <= self.num_sites):
                raise ValueError(f"segment ({start},{stop}) outside chain of {self.num_sites}")
            if prev_stop is not None and start != prev_stop:
                raise ValueError("segments must be contiguous and ascending")
            prev_stop = stop

    @property
    def sites(self) -> list[int]:
        """All interval sites, ascending."""
        return [s for start, stop in self.segments for s in range(start, stop)]

    @property
    def interval_size(self) -> int:
        return sum(stop - start for start, stop in self.segments)

    def segment_sites(self, k: int) -> list[int]:
        start, stop = self.segments[k]
        return list(range(start, stop))

    def segment_positions(self, k: int) -> list[int]:
        """Positions of segment k's sites within the interval (0 = first site)."""
        offset = self.sites[0]
        return [s - offset for s in self.segment_sites(k)]

    @property
    def middle_positions(self) -> list[int]:
        """Positions of the sigma_z-weighted middle segment: segment 1 of a
        three-segment layout, none on two segments."""
        return self.segment_positions(1) if len(self.segments) == 3 else []


def reflection_partition(num_sites: int, pairs: int) -> PartitionSpec:
    """Two ``pairs``-site segments mirror-symmetric about the central bond."""
    if num_sites % 2 != 0:
        raise ValueError("num_sites must be even")
    half = num_sites // 2
    if pairs > half:
        raise ValueError(f"pairs={pairs} does not fit in half the chain ({half})")
    seg1 = (half - pairs, half)
    seg2 = (half, half + pairs)
    return PartitionSpec(num_sites, pairs, (seg1, seg2))


def three_segment_partition(num_sites: int, pairs: int) -> PartitionSpec:
    """Three equal ``pairs``-site segments placed symmetrically about the
    chain center (odd total lengths shift half a site toward the right)."""
    length = 3 * pairs
    if length > num_sites:
        raise ValueError(f"interval of {length} sites does not fit chain of {num_sites}")
    start = num_sites // 2 - length // 2
    segs = tuple((start + k * pairs, start + (k + 1) * pairs) for k in range(3))
    return PartitionSpec(num_sites, pairs, segs)


def partition_for(kind: str, num_sites: int, pairs: int) -> PartitionSpec:
    """The centered partition that ``kind`` is measured on."""
    if kind in THREE_SEGMENT_KINDS:
        return three_segment_partition(num_sites, pairs)
    return reflection_partition(num_sites, pairs)


def check_layout(kind: str, partition: PartitionSpec) -> None:
    """Raise ``ValueError`` unless ``partition`` has the layout of ``kind``:
    three or two segments of ``pairs`` sites each."""
    if kind in THREE_SEGMENT_KINDS:
        count, layout = 3, "a three-segment partition (three equal segments)"
    else:
        count, layout = 2, "a two-segment reflection partition (two equal segments)"
    if len(partition.segments) != count or any(
            stop - start != partition.pairs for start, stop in partition.segments):
        raise ValueError(f"{kind} needs {layout}")
