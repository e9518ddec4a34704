"""Shared test configuration.

The ``no_chaos`` marker excludes tests that assert exact fault-free
accounting (cache hit counts, retry counters, warning-free runs) from
chaos runs — invocations with the ``REPRO_FAULTS`` environment variable
set, where the fault-injection plane deliberately perturbs exactly
those numbers.  Everything else runs under chaos unchanged: results
must stay byte-identical, which is the point of the chaos CI job.

The ``legacy_journal`` fixture hands out a copy of the committed legacy
checkpoint journal, the input of ``nanobench store import``.
"""

import os
import shutil

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


DATA_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data")


class LegacyJournal:
    """A writable copy of ``data/legacy_journal.jsonl`` and the CLI
    batch run whose specs its records answer.

    The journal was written by the single-file checkpoint journal the
    batch runner kept before results moved into the durable store: three
    complete records (16-hex checksums) and a torn fourth line.
    """

    N_RECORDS = 3

    def __init__(self, directory) -> None:
        self.path = os.path.join(str(directory), "legacy_journal.jsonl")
        shutil.copyfile(os.path.join(DATA_DIR, "legacy_journal.jsonl"),
                        self.path)
        self.cli_flags = [
            "-batch", os.path.join(DATA_DIR, "legacy_journal_batch.txt"),
            "-n_measurements", "2", "-unroll_count", "5",
        ]

    def lines(self):
        with open(self.path, "rb") as handle:
            return handle.read().splitlines(True)


@pytest.fixture
def legacy_journal(tmp_path):
    return LegacyJournal(tmp_path)
