"""The :class:`repro.stats.Counters` mixin."""

from dataclasses import dataclass, field
from typing import Dict, Tuple

from repro.stats import Counters


@dataclass
class _Stats(Counters):
    hits: int = 0
    seconds: float = 0.0
    by_tier: Dict[str, int] = field(default_factory=dict)
    draining: bool = False
    quarantined: Tuple[str, ...] = ()


def _counted():
    stats = _Stats(hits=3, seconds=1.5, quarantined=("a:x",))
    stats.bump("by_tier", "sim")
    stats.bump("by_tier", "analytic", 2)
    return stats


def test_snapshot_is_unaffected_by_later_increments():
    stats = _counted()
    before = stats.snapshot()
    stats.hits += 1
    stats.bump("by_tier", "sim")
    stats.bump("by_tier", "store")
    assert before == _counted()
    assert before.by_tier is not stats.by_tier


def test_delta_counts_what_happened_since_the_snapshot():
    stats = _counted()
    before = stats.snapshot()
    stats.hits += 2
    stats.seconds += 0.5
    stats.bump("by_tier", "store", 4)
    stats.draining = True
    delta = stats.delta(before)
    assert delta == _Stats(hits=2, seconds=0.5,
                           by_tier={"analytic": 0, "sim": 0, "store": 4},
                           draining=True, quarantined=("a:x",))


def test_add_sums_numbers_and_dicts_and_keeps_state():
    total = _counted()
    total.add(_counted())
    assert total.hits == 6 and total.seconds == 3.0
    assert total.by_tier == {"sim": 2, "analytic": 4}
    assert total.draining is False
    assert total.quarantined == ("a:x",)


def test_bump_defaults_to_one():
    stats = _Stats()
    stats.bump("by_tier", "sim")
    stats.bump("by_tier", "sim")
    assert stats.by_tier == {"sim": 2}


def test_reset_restores_declared_defaults():
    stats = _counted()
    shared = _Stats()
    stats.reset()
    assert stats == shared
    stats.bump("by_tier", "sim")
    assert shared.by_tier == {}


def test_to_dict_is_ordered_and_plain():
    stats = _counted()
    out = stats.to_dict()
    assert list(out) == ["hits", "seconds", "by_tier", "draining",
                         "quarantined"]
    assert list(out["by_tier"]) == ["analytic", "sim"]
    assert out["quarantined"] == ["a:x"]
    out["by_tier"]["sim"] += 1
    assert stats.by_tier["sim"] == 1
