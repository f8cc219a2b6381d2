"""The engine surface of RelyingParty: one engine, no selection knob.

Every relying party validates with the same engine (point replay plus
the verification memo); ``mode=`` and the older ``workers=`` /
``incremental=`` keywords are rejected loudly instead of being ignored.
"""

import pytest

from repro.modelgen import build_figure2
from repro.repository import Fetcher
from repro.rp import RelyingParty
from repro.telemetry import MetricsRegistry


def make_rp(world, **kwargs):
    registry = MetricsRegistry()
    fetcher = Fetcher(world.registry, world.clock, metrics=registry)
    return RelyingParty(world.trust_anchors, fetcher, world.clock,
                        metrics=registry, **kwargs)


@pytest.fixture
def world():
    return build_figure2()


class TestModeKnob:
    def test_unknown_mode_rejected(self, world):
        with pytest.raises(TypeError, match="mode"):
            make_rp(world, mode="turbo")

    def test_parallel_mode_rejected(self, world):
        with pytest.raises(TypeError, match="mode"):
            make_rp(world, mode="parallel")

    @pytest.mark.parametrize("knob", ["workers", "incremental", "mode"])
    def test_removed_knobs_rejected(self, world, knob):
        with pytest.raises(TypeError):
            make_rp(world, **{knob: 1})
