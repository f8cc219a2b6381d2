"""Tests for the Figure 5 route-validity matrices and SE5/SE6 analyses."""

import pytest

from repro.core import (
    OTHER_ORIGIN,
    matrix_diff,
    missing_roa_impact,
    new_roa_impact,
    safe_issuance_order,
    validity_matrix,
)
from repro.rp import VRP, RouteValidity, VrpSet

FIGURE2 = [
    ("63.161.0.0/16-24", 1239),
    ("63.162.0.0/16-24", 1239),
    ("63.168.93.0/24", 19429),
    ("63.174.16.0/20", 17054),
    ("63.174.16.0/22", 7341),
    ("63.174.20.0/24", 17054),
    ("63.174.28.0/24", 17054),
    ("63.174.30.0/24", 17054),
]


def vrps(extra=()):
    return VrpSet(VRP.parse(t, a) for t, a in list(FIGURE2) + list(extra))


@pytest.fixture(scope="module")
def left():
    """Figure 5, left panel."""
    return validity_matrix(
        vrps(), "63.160.0.0/12",
        lengths=[12, 13, 16, 20, 22, 24],
        origins=[1239, 17054, 7341],
    )


@pytest.fixture(scope="module")
def right():
    """Figure 5, right panel: plus (63.160.0.0/12-13, AS 1239)."""
    return validity_matrix(
        vrps([("63.160.0.0/12-13", 1239)]), "63.160.0.0/12",
        lengths=[12, 13, 16, 20, 22, 24],
        origins=[1239, 17054, 7341],
    )


class TestLeftPanel:
    def test_slash12_unknown_for_everyone(self, left):
        for origin in (1239, 17054, 7341, OTHER_ORIGIN):
            assert left.state("63.160.0.0/12", origin) is RouteValidity.UNKNOWN

    def test_target20_column(self, left):
        assert left.state("63.174.16.0/20", 17054) is RouteValidity.VALID
        assert left.state("63.174.16.0/20", 1239) is RouteValidity.INVALID
        assert left.state("63.174.16.0/20", OTHER_ORIGIN) is RouteValidity.INVALID

    def test_subprefixes_of_roa_invalid(self, left):
        assert left.state("63.174.17.0/24", 17054) is RouteValidity.INVALID
        assert left.state("63.174.17.0/24", OTHER_ORIGIN) is RouteValidity.INVALID

    def test_matching_sub_roas_valid(self, left):
        assert left.state("63.174.16.0/22", 7341) is RouteValidity.VALID
        assert left.state("63.174.20.0/24", 17054) is RouteValidity.VALID

    def test_maxlength_24_roas(self, left):
        assert left.state("63.161.0.0/16", 1239) is RouteValidity.VALID
        assert left.state("63.161.44.0/24", 1239) is RouteValidity.VALID
        assert left.state("63.161.44.0/24", 7341) is RouteValidity.INVALID

    def test_uncovered_space_unknown(self, left):
        assert left.state("63.163.0.0/16", OTHER_ORIGIN) is RouteValidity.UNKNOWN
        assert left.state("63.172.0.0/16", 1239) is RouteValidity.UNKNOWN

    def test_render_contains_states(self, left):
        text = left.render()
        assert "63.160.0.0/12" in text
        assert "unknown" in text and "valid" in text and "invalid" in text
        assert "other" in text.splitlines()[0]

    def test_counts(self, left):
        assert left.count(RouteValidity.VALID) > 0
        total = (
            left.count(RouteValidity.VALID)
            + left.count(RouteValidity.INVALID)
            + left.count(RouteValidity.UNKNOWN)
        )
        assert total == len(left.cells)


class TestRightPanel:
    """Side Effect 5, as Figure 5 (right) shows it."""

    def test_new_roa_validates_sprint_routes(self, right):
        assert right.state("63.160.0.0/12", 1239) is RouteValidity.VALID
        assert right.state("63.160.0.0/13", 1239) is RouteValidity.VALID
        # maxLength 13: a /16 from Sprint under the new ROA alone is invalid
        # (63.163/16 has no other matching ROA).
        assert right.state("63.163.0.0/16", 1239) is RouteValidity.INVALID

    def test_previously_unknown_now_invalid(self, right):
        assert right.state("63.163.0.0/16", OTHER_ORIGIN) is RouteValidity.INVALID
        assert right.state("63.160.0.0/12", 17054) is RouteValidity.INVALID

    def test_existing_roas_unaffected(self, right):
        assert right.state("63.174.16.0/20", 17054) is RouteValidity.VALID
        assert right.state("63.174.16.0/22", 7341) is RouteValidity.VALID

    def test_diff_flips_are_unknown_to_invalid_or_valid(self, left, right):
        flips = matrix_diff(left, right)
        assert flips, "adding the ROA must change something"
        for flip in flips:
            assert flip.before is RouteValidity.UNKNOWN
            assert flip.after in (RouteValidity.INVALID, RouteValidity.VALID)
        # The vast majority of flips are the dangerous kind.
        to_invalid = [f for f in flips if f.after is RouteValidity.INVALID]
        assert len(to_invalid) > len(flips) // 2

    def test_diff_requires_same_shape(self, left):
        other = validity_matrix(vrps(), "63.160.0.0/12", lengths=[12],
                                origins=[1239])
        with pytest.raises(ValueError):
            matrix_diff(left, other)


class TestMissingRoaImpact:
    """Side Effect 6 quantified."""

    def test_covered_roa_removal_is_invalid(self):
        impact = missing_roa_impact(vrps(), VRP.parse("63.174.16.0/22", 7341))
        assert impact.becomes_invalid
        assert impact.resulting_state is RouteValidity.INVALID
        assert any(
            str(v) == "(63.174.16.0/20, AS17054)"
            for v in impact.covering_survivors
        )

    def test_uncovered_roa_removal_is_unknown(self):
        impact = missing_roa_impact(vrps(), VRP.parse("63.168.93.0/24", 19429))
        assert not impact.becomes_invalid
        assert impact.resulting_state is RouteValidity.UNKNOWN
        assert impact.covering_survivors == ()

    def test_all_figure2_roas_classified(self):
        # Of the eight Figure 2 VRPs, exactly four sit under the /20
        # umbrella and become invalid when missing; four become unknown.
        s = vrps()
        invalid = [
            v for v in s if missing_roa_impact(s, v).becomes_invalid
        ]
        assert len(invalid) == 4
        assert all(
            str(v.prefix).startswith("63.174.") and v.prefix.length > 20
            for v in invalid
        )


class TestNewRoaImpact:
    def test_figure5_right_roa_floods_invalid(self):
        impact = new_roa_impact(
            vrps(), VRP.parse("63.160.0.0/12-13", 1239), probe_length=16
        )
        assert impact.probe_count == 16
        # All 16 /16s were unknown for 'other' origins except those already
        # covered (63.161, 63.162 are valid-maxlen... no — covered = not
        # unknown before, so not counted; 63.168.93/24 etc. are longer).
        assert impact.newly_invalid_prefixes >= 12

    def test_roa_over_already_covered_space_changes_little(self):
        impact = new_roa_impact(
            vrps(), VRP.parse("63.174.16.0/20-24", 64999), probe_length=24
        )
        assert impact.newly_invalid_prefixes == 0  # already invalid before


class TestSafeIssuanceOrder:
    def test_most_specific_first(self):
        ordered = safe_issuance_order(
            [VRP.parse(t, a) for t, a in FIGURE2]
            + [VRP.parse("63.160.0.0/12-13", 1239)]
        )
        lengths = [v.prefix.length for v in ordered]
        assert lengths == sorted(lengths, reverse=True)
        assert str(ordered[-1].prefix) == "63.160.0.0/12"

    def test_safe_order_never_floods(self):
        """Issuing in safe order, no step flips an unknown route of a
        *later-issued* ROA to invalid."""
        all_vrps = [VRP.parse(t, a) for t, a in FIGURE2] + [
            VRP.parse("63.160.0.0/12-13", 1239)
        ]
        issued: list[VRP] = []
        for vrp in safe_issuance_order(all_vrps):
            from repro.rp import validate

            current = VrpSet(issued + [vrp])
            for future in all_vrps:
                if future in current:
                    continue
                state = validate(future.prefix, future.asn, current).state
                assert state is not RouteValidity.VALID or True
                # The future ROA's own route must never be INVALID solely
                # because we issued a less-specific ROA too early.
                assert state is not RouteValidity.INVALID, (
                    f"issuing {vrp} too early invalidated {future}"
                )
            issued.append(vrp)
