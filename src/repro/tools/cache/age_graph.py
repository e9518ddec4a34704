"""Age graphs (Section VI-C2, Figure 1).

"This tool generates a graph showing the 'ages' of all blocks of an
access sequence.  For each block B of an access sequence, we first
execute the access sequence, then we access n fresh blocks, and finally
we measure the number of hits when accessing B again."

Running the probe in many sets (Figure 1 sums over 64 sets, so the
y-axis reaches the set count) makes the graphs meaningful for
*non-deterministic* policies like the Ivy Bridge ``QLRU_H11_MR161_R1_U2``
variant: the long-lived 1/16 fraction of insertions shows up as a
plateau at roughly ``sets/16`` hits.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from .cacheseq import Access, AccessSequence, CacheSeq


@dataclass
class AgeGraph:
    """The measured series: ``hits[block][i]`` for ``n_values[i]``."""

    blocks: Tuple[str, ...]
    n_values: Tuple[int, ...]
    n_sets: int
    hits: Dict[str, List[int]] = field(default_factory=dict)

    def series(self, block: str) -> List[int]:
        return self.hits[block]

    def crossing_point(self, block: str, threshold: float) -> Optional[int]:
        """Smallest n where the block's hit count drops below threshold."""
        for n, value in zip(self.n_values, self.hits[block]):
            if value < threshold:
                return n
        return None

    def plateau_level(self, block: str, tail_points: int = 4) -> float:
        """Mean hit count over the last *tail_points* n-values."""
        series = self.hits[block][-tail_points:]
        return sum(series) / len(series)

    def to_rows(self) -> List[List[object]]:
        """Table rows: one row per n value, one column per block."""
        rows = []
        for i, n in enumerate(self.n_values):
            rows.append([n] + [self.hits[b][i] for b in self.blocks])
        return rows


def compute_age_graph(
    cacheseq: CacheSeq,
    sequence_blocks: Sequence[str],
    *,
    n_values: Sequence[int],
    sets: Sequence[int],
    slice_id: Optional[int] = None,
) -> AgeGraph:
    """Measure the age graph of ``<wbinvd> B0 .. Bk`` over many sets."""
    graph = AgeGraph(
        blocks=tuple(sequence_blocks),
        n_values=tuple(n_values),
        n_sets=len(sets),
    )
    fresh_names = ["F%d" % i for i in range(max(n_values))]
    for block in sequence_blocks:
        series: List[int] = []
        for n in n_values:
            accesses = [Access(b) for b in sequence_blocks]
            accesses += [Access(f) for f in fresh_names[:n]]
            accesses.append(Access(block, measured=True))
            seq = AccessSequence(tuple(accesses), wbinvd=True)
            series.append(
                cacheseq.run(seq, sets=sets, slice_id=slice_id).hits
            )
        graph.hits[block] = series
    return graph


#: Plot area of :func:`render_age_graph`, in characters.
RENDER_WIDTH = 72
RENDER_HEIGHT = 16


def render_age_graph(graph: AgeGraph) -> str:
    """ASCII rendering of an age graph (one symbol per block)."""
    width, height = RENDER_WIDTH, RENDER_HEIGHT
    symbols = "0123456789abcdefghijklmnop"
    top = max((max(s) for s in graph.hits.values()), default=1) or 1
    grid = [[" "] * width for _ in range(height)]
    n_max = max(graph.n_values) or 1
    for bi, block in enumerate(graph.blocks):
        symbol = symbols[bi % len(symbols)]
        for n, value in zip(graph.n_values, graph.hits[block]):
            x = min(width - 1, int(n / n_max * (width - 1)))
            y = min(height - 1, int((1 - value / top) * (height - 1)))
            grid[y][x] = symbol
    lines = ["%3d |%s" % (top, "".join(grid[0]))]
    for row in grid[1:-1]:
        lines.append("    |%s" % "".join(row))
    lines.append("  0 |%s" % "".join(grid[-1]))
    lines.append("     " + "-" * width)
    lines.append("     0%s%d (fresh blocks)" % (" " * (width - 8), n_max))
    lines.append("     curves: " + ", ".join(
        "%s=%s" % (symbols[i % len(symbols)], b)
        for i, b in enumerate(graph.blocks)
    ))
    return "\n".join(lines)
