"""The VRP journal: serials move on content change, history stays bounded.

The property test drives random publish sequences through journals of
random bounds and checks every ``from_serial`` a reader could ask for:
the RTR replay (per-serial withdrawals, then announcements) and the
query plane's net ``diff`` must both take the set published at that
serial to the current one, and a compacted or future serial must be
refused rather than answered wrongly.
"""

from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import ApiConfig, QueryService, QueryStatus
from repro.rp import VRP, VrpJournal, VrpSet
from repro.simtime import Clock
from repro.telemetry import MetricsRegistry

POOL = [VRP.parse(f"10.{i}.0.0/16-20", 64500 + i) for i in range(10)]


def subset(mask):
    return VrpSet(vrp for i, vrp in enumerate(POOL) if mask >> i & 1)


def reader(journal):
    """A query service over a stand-in RP that only has a journal."""
    rp = SimpleNamespace(vrps=journal.current, journal=journal, clock=Clock())
    service = QueryService(rp, config=ApiConfig(rate_limit=None),
                           metrics=MetricsRegistry())
    return rp, service


@given(
    masks=st.lists(st.integers(0, 2 ** len(POOL) - 1), max_size=12),
    window=st.integers(1, 6),
    max_vrps=st.integers(1, 24),
)
@settings(max_examples=150, deadline=None)
def test_every_from_serial_replays_to_current(masks, window, max_vrps):
    journal = VrpJournal(window=window, max_vrps=max_vrps,
                         metrics=MetricsRegistry())
    rp, service = reader(journal)
    published = {0: frozenset()}
    for mask in masks:
        vrps = subset(mask)
        changed = vrps.as_frozenset() != published[journal.serial]
        before = journal.serial
        serial = journal.publish(vrps)
        assert serial == journal.serial == before + changed
        published[serial] = vrps.as_frozenset()
        rp.vrps = vrps

        retained = journal.entries
        assert len(retained) <= window
        assert journal.retained_vrps == sum(e.size for e in retained)
        assert journal.retained_vrps <= max_vrps
        oldest = retained[0].serial - 1 if retained else serial
        current = journal.current.as_frozenset()
        for from_serial in range(-1, serial + 3):
            entries = journal.deltas(from_serial)
            response = service.diff(from_serial)
            if from_serial < oldest or from_serial > serial:
                assert entries is None
                assert response.status == QueryStatus.UNKNOWN_SERIAL
                continue
            assert [e.serial for e in entries] == list(
                range(from_serial + 1, serial + 1))
            table = set(published[from_serial])
            for entry in entries:
                table.difference_update(entry.removed)
                table.update(entry.added)
                assert entry.vrp_count == len(published[entry.serial])
            assert table == current
            diff = response.payload
            assert diff.added == tuple(sorted(current - published[from_serial]))
            assert diff.removed == tuple(sorted(published[from_serial] - current))


class TestPublish:
    def test_republishing_the_same_object_keeps_the_serial(self):
        journal = VrpJournal(metrics=MetricsRegistry())
        vrps = subset(0b101)
        assert journal.publish(vrps) == 1
        assert journal.publish(vrps) == 1
        assert len(journal.entries) == 1

    def test_equal_new_object_keeps_the_serial(self):
        journal = VrpJournal(metrics=MetricsRegistry())
        journal.publish(subset(0b101))
        equal = subset(0b101)
        assert journal.publish(equal) == 1
        assert journal.current is equal   # next publish of it is one check
        assert len(journal.entries) == 1

    def test_empty_publish_at_genesis_keeps_serial_zero(self):
        journal = VrpJournal(metrics=MetricsRegistry())
        assert journal.publish(VrpSet()) == 0
        assert journal.deltas(0) == []
        assert journal.deltas(-1) is None
        assert journal.deltas(1) is None

    def test_entry_records_the_delta(self):
        journal = VrpJournal(metrics=MetricsRegistry())
        journal.publish(subset(0b011))
        journal.publish(subset(0b110))
        entry = journal.entries[-1]
        assert entry.serial == 2 and entry.vrp_count == 2
        assert entry.added == (POOL[2],)
        assert entry.removed == (POOL[0],)

    @pytest.mark.parametrize("bounds", [{"window": 0}, {"max_vrps": 0}])
    def test_bounds_must_be_positive(self, bounds):
        with pytest.raises(ValueError):
            VrpJournal(**bounds)


class TestCompactionMetrics:
    def test_gauges_and_counter_track_compaction(self):
        registry = MetricsRegistry()
        journal = VrpJournal(window=2, max_vrps=100, metrics=registry)
        for mask in (0b1, 0b11, 0b111, 0b1111):
            journal.publish(subset(mask))
        assert [e.serial for e in journal.entries] == [3, 4]
        assert registry.get("repro_journal_retained_serials").value() == 2
        assert registry.get("repro_journal_retained_vrps").value() == 2
        compactions = registry.get("repro_journal_compactions_total")
        assert compactions.value(reason="window") == 2
        assert compactions.value(reason="size") == 0

    def test_one_oversized_delta_empties_the_window(self):
        registry = MetricsRegistry()
        journal = VrpJournal(window=8, max_vrps=3, metrics=registry)
        journal.publish(subset(0b1111))
        assert journal.entries == ()
        assert journal.deltas(0) is None      # must re-sync from current
        assert journal.deltas(1) == []
        assert registry.get(
            "repro_journal_compactions_total").value(reason="size") == 1
