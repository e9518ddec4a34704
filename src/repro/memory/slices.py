"""Last-level-cache slice hash functions.

Starting with Sandy Bridge, the L3 is divided into slices managed by
C-Boxes; "an undocumented hash function is used for mapping physical
addresses to cache slices" (Section VI-A).  The reverse-engineered
functions (Maurice et al., RAID 2015) XOR selected physical-address bits
per output bit.  We model that exact structure.

Crucially — and this is the artefact behind the Briongos et al.
disagreement discussed in Section VI-D — the hash *does* involve
set-index bits even for power-of-two core counts, so blocks that share a
set index can still land in different slices.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple


@dataclass(frozen=True)
class SliceHash:
    """XOR-of-address-bits slice hash.

    ``bit_masks[i]`` selects the physical-address bits whose parity
    forms output bit *i*; the slice id is the concatenation of output
    bits.  ``n_slices`` must be a power of two for this model (all the
    client CPUs in Table I have 2 or 4 C-Box-visible slices).
    """

    n_slices: int
    bit_masks: Tuple[int, ...]

    def __post_init__(self) -> None:
        if self.n_slices < 1:
            raise ValueError("need at least one slice")
        if self.n_slices & (self.n_slices - 1):
            raise ValueError("slice count must be a power of two")
        expected_bits = max(self.n_slices - 1, 0).bit_length()
        if len(self.bit_masks) != expected_bits:
            raise ValueError(
                "need %d bit masks for %d slices, got %d"
                % (expected_bits, self.n_slices, len(self.bit_masks))
            )

    def slice_of(self, physical_address: int) -> int:
        """Slice id for *physical_address*."""
        slice_id = 0
        bit = 1
        for mask in self.bit_masks:
            # The parity of the selected bits (``int.bit_count`` needs
            # Python 3.10).
            if bin(physical_address & mask).count("1") & 1:
                slice_id |= bit
            bit <<= 1
        return slice_id


#: Published mask for the low hash bit (o0) of the Sandy Bridge /
#: Ivy Bridge / Haswell family: XOR of physical-address bits
#: 6,10,12,14,16,17,18,20,22,24,25,26,27,28,30,32.
_MASK_O0 = sum(1 << b for b in (6, 10, 12, 14, 16, 17, 18, 20, 22, 24, 25,
                                26, 27, 28, 30, 32))
#: Published mask for the second hash bit (o1): bits
#: 7,11,13,15,17,19,20,21,22,23,24,26,28,29,31,32.
_MASK_O1 = sum(1 << b for b in (7, 11, 13, 15, 17, 19, 20, 21, 22, 23, 24,
                                26, 28, 29, 31, 32))


def intel_slice_hash(n_slices: int) -> SliceHash:
    """The reverse-engineered Intel client hash for 1/2/4 slices."""
    if n_slices == 1:
        return SliceHash(1, ())
    if n_slices == 2:
        return SliceHash(2, (_MASK_O0,))
    if n_slices == 4:
        return SliceHash(4, (_MASK_O0, _MASK_O1))
    raise ValueError("no published client hash for %d slices" % (n_slices,))
