"""The engine-mode surface of RelyingParty.

One knob, ``mode="serial"|"incremental"``; any other mode, and the
removed ``workers=`` / ``incremental=`` keywords, are rejected loudly.
"""

import pytest

from repro.modelgen import build_figure2
from repro.repository import Fetcher
from repro.rp import ENGINE_MODES, RelyingParty
from repro.telemetry import MetricsRegistry


def make_rp(world, **kwargs):
    registry = kwargs.pop("metrics", None) or MetricsRegistry()
    fetcher = Fetcher(world.registry, world.clock, metrics=registry)
    return RelyingParty(world.trust_anchors, fetcher, world.clock,
                        metrics=registry, **kwargs)


@pytest.fixture
def world():
    return build_figure2()


class TestModeKnob:
    def test_engine_modes_constant(self):
        assert ENGINE_MODES == ("serial", "incremental")

    def test_default_is_serial(self, world):
        rp = make_rp(world)
        assert rp.mode == "serial"
        assert rp.incremental_state is None

    def test_incremental_mode(self, world):
        rp = make_rp(world, mode="incremental")
        assert rp.mode == "incremental"
        assert rp.incremental_state is not None

    def test_unknown_mode_rejected(self, world):
        with pytest.raises(ValueError, match="mode"):
            make_rp(world, mode="turbo")

    def test_parallel_mode_rejected(self, world):
        with pytest.raises(ValueError, match="mode"):
            make_rp(world, mode="parallel")

    @pytest.mark.parametrize("knob", ["workers", "incremental"])
    def test_removed_knobs_rejected(self, world, knob):
        with pytest.raises(TypeError):
            make_rp(world, **{knob: 1})

    def test_incremental_mode_refreshes(self, world):
        # The knob must actually select the engine: a second refresh in
        # incremental mode reuses the memoized validation work.
        rp = make_rp(world, mode="incremental")
        rp.refresh()
        first = len(rp.vrps)
        rp.refresh()
        assert len(rp.vrps) == first
        points = rp.metrics.get("repro_incremental_points_total")
        assert points.value(outcome="reused") > 0
