"""Shared test configuration.

The ``no_chaos`` marker excludes tests that assert exact fault-free
accounting (cache hit counts, retry counters, warning-free runs) from
chaos runs — invocations with the ``REPRO_FAULTS`` environment variable
set, where the fault-injection plane deliberately perturbs exactly
those numbers.  Everything else runs under chaos unchanged: results
must stay byte-identical, which is the point of the chaos CI job.
"""

import os

import pytest


def pytest_collection_modifyitems(config, items):
    if not os.environ.get("REPRO_FAULTS"):
        return
    skip = pytest.mark.skip(
        reason="asserts exact fault-free accounting; REPRO_FAULTS is set"
    )
    for item in items:
        if "no_chaos" in item.keywords:
            item.add_marker(skip)
