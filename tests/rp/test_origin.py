"""Unit tests for RFC 6811 origin validation — the paper's Section 4 rules."""

import pytest

from repro.rp import VRP, Route, RouteValidity, VrpSet, validate


def vrps(*specs):
    return VrpSet(VRP.parse(text, asn) for text, asn in specs)


FIGURE2_VRPS = [
    ("63.161.0.0/16-24", 1239),
    ("63.162.0.0/16-24", 1239),
    ("63.168.93.0/24", 19429),
    ("63.174.16.0/20", 17054),
    ("63.174.16.0/22", 7341),
    ("63.174.20.0/24", 17054),
    ("63.174.28.0/24", 17054),
    ("63.174.30.0/24", 17054),
]


class TestVrp:
    def test_parse_with_maxlength(self):
        vrp = VRP.parse("63.160.0.0/12-13", 1239)
        assert vrp.max_length == 13
        assert str(vrp) == "(63.160.0.0/12-13, AS1239)"

    def test_parse_bare_prefix(self):
        vrp = VRP.parse("63.174.16.0/22", 7341)
        assert vrp.max_length == 22
        assert str(vrp) == "(63.174.16.0/22, AS7341)"

    def test_rejects_bad_maxlength(self):
        from repro.resources import ASN, Prefix

        with pytest.raises(ValueError):
            VRP(Prefix.parse("10.0.0.0/16"), 8, ASN(1))

    def test_matches_semantics(self):
        from repro.resources import ASN, Prefix

        vrp = VRP.parse("63.160.0.0/12-13", 1239)
        assert vrp.matches(Prefix.parse("63.160.0.0/12"), ASN(1239))
        assert vrp.matches(Prefix.parse("63.160.0.0/13"), ASN(1239))
        assert not vrp.matches(Prefix.parse("63.160.0.0/14"), ASN(1239))  # too long
        assert not vrp.matches(Prefix.parse("63.160.0.0/12"), ASN(7))    # wrong AS
        assert not vrp.matches(Prefix.parse("64.0.0.0/12"), ASN(1239))   # not covered


class TestVrpSet:
    def test_covering_walk(self):
        s = vrps(*FIGURE2_VRPS)
        from repro.resources import Prefix

        hits = [str(v) for v in s.covering(Prefix.parse("63.174.17.0/24"))]
        # Both the /20 and the /22 cover 63.174.17.0/24, shortest first.
        assert hits == ["(63.174.16.0/20, AS17054)", "(63.174.16.0/22, AS7341)"]

    def test_dedup(self):
        s = VrpSet()
        s.add(VRP.parse("10.0.0.0/8", 1))
        s.add(VRP.parse("10.0.0.0/8", 1))
        assert len(s) == 1

    def test_same_prefix_multiple_asns(self):
        s = vrps(("10.0.0.0/8", 1), ("10.0.0.0/8", 2))
        assert len(s) == 2
        assert validate("10.0.0.0/8", 2, s).state is RouteValidity.VALID

    def test_difference(self):
        a = vrps(("10.0.0.0/8", 1), ("11.0.0.0/8", 2))
        b = vrps(("10.0.0.0/8", 1))
        assert a.difference(b) == [VRP.parse("11.0.0.0/8", 2)]

    def test_equality(self):
        assert vrps(("10.0.0.0/8", 1)) == vrps(("10.0.0.0/8", 1))
        assert vrps(("10.0.0.0/8", 1)) != vrps(("10.0.0.0/8", 2))

    def test_extend_returns_novel_count(self):
        s = VrpSet()
        batch = [VRP.parse(text, asn) for text, asn in FIGURE2_VRPS]
        assert s.extend(batch) == len(FIGURE2_VRPS)
        # Replaying the batch (plus one duplicate) adds nothing.
        assert s.extend(batch + [batch[0]]) == 0
        assert len(s) == len(FIGURE2_VRPS)

    def test_extend_equals_incremental_adds(self):
        batch = [VRP.parse(text, asn) for text, asn in FIGURE2_VRPS]
        bulk = VrpSet()
        bulk.extend(batch)
        one_by_one = VrpSet()
        for vrp in batch:
            one_by_one.add(vrp)
        assert bulk == one_by_one
        assert bulk.content_hash() == one_by_one.content_hash()
        assert bulk.as_frozenset() == one_by_one.as_frozenset()

    def test_extend_invalidates_stale_views(self):
        s = vrps(*FIGURE2_VRPS[:2])
        stale_hash = s.content_hash()
        stale_frozen = s.as_frozenset()
        added = s.extend([VRP.parse("10.0.0.0/8", 1)])
        assert added == 1
        assert s.content_hash() != stale_hash
        assert len(s.as_frozenset()) == len(stale_frozen) + 1

    def test_membership_probe(self):
        s = vrps(*FIGURE2_VRPS)
        assert VRP.parse("63.174.16.0/22", 7341) in s
        assert VRP.parse("63.174.16.0/22", 9999) not in s


class TestValidityOrdering:
    def test_rank_order(self):
        assert RouteValidity.VALID < RouteValidity.UNKNOWN < RouteValidity.INVALID

    def test_min_picks_best(self):
        assert min(RouteValidity.INVALID, RouteValidity.VALID) is RouteValidity.VALID


class TestClassifyFigure2:
    """The paper's worked examples, Figure 5 (left)."""

    S = vrps(*FIGURE2_VRPS)

    def test_slash12_unknown_no_covering_roa(self):
        assert validate("63.160.0.0/12", 1239, self.S).state is (
            RouteValidity.UNKNOWN
        )

    def test_target20_valid(self):
        assert validate("63.174.16.0/20", 17054, self.S).state is (
            RouteValidity.VALID
        )

    def test_subprefix_of_roa_invalid(self):
        # "routes for 63.174.17.0/24 are invalid (because of the ROA for
        # 63.174.16.0/20)" — the subprefix-hijack protection.
        assert validate("63.174.17.0/24", 17054, self.S).state is (
            RouteValidity.INVALID
        )

    def test_subprefix_with_own_roa_valid(self):
        # "...except routes with matching ROAs of their own."
        assert validate("63.174.16.0/22", 7341, self.S).state is (
            RouteValidity.VALID
        )
        assert validate("63.174.20.0/24", 17054, self.S).state is (
            RouteValidity.VALID
        )

    def test_wrong_origin_invalid(self):
        assert validate("63.174.16.0/20", 666, self.S).state is (
            RouteValidity.INVALID
        )

    def test_maxlength_authorizes_subprefixes(self):
        assert validate("63.161.5.0/24", 1239, self.S).state is (
            RouteValidity.VALID
        )
        # /25 exceeds maxLength 24.
        assert validate("63.161.5.0/25", 1239, self.S).state is (
            RouteValidity.INVALID
        )

    def test_unrelated_space_unknown(self):
        assert validate("8.8.8.0/24", 15169, self.S).state is (
            RouteValidity.UNKNOWN
        )


class TestSideEffect5:
    """Figure 5 (right): a new ROA makes previously unknown routes invalid."""

    def test_new_covering_roa_flips_unknown_to_invalid(self):
        before = vrps(*FIGURE2_VRPS)
        after = vrps(*FIGURE2_VRPS, ("63.160.0.0/12-13", 1239))
        probe = Route.parse("63.163.0.0/16", 64512)  # some previously-unknown route
        assert validate(probe.prefix, probe.origin, before).state is (
            RouteValidity.UNKNOWN)
        assert validate(probe.prefix, probe.origin, after).state is (
            RouteValidity.INVALID)

    def test_new_roa_validates_its_own_routes(self):
        after = vrps(*FIGURE2_VRPS, ("63.160.0.0/12-13", 1239))
        assert validate("63.160.0.0/12", 1239, after).state is (
            RouteValidity.VALID
        )
        assert validate("63.160.0.0/13", 1239, after).state is (
            RouteValidity.VALID
        )
        assert validate("63.160.0.0/14", 1239, after).state is (
            RouteValidity.INVALID  # beyond maxLength 13
        )

    def test_existing_valid_routes_unaffected(self):
        after = vrps(*FIGURE2_VRPS, ("63.160.0.0/12-13", 1239))
        assert validate("63.174.16.0/20", 17054, after).state is (
            RouteValidity.VALID
        )


class TestSideEffect6:
    """A missing ROA makes a route invalid, not unknown."""

    def test_missing_covered_roa_is_invalid(self):
        # Remove (63.174.16.0/22, AS 7341): its route falls to INVALID
        # because the /20 ROA still covers it — the paper's key example.
        without = vrps(*(s for s in FIGURE2_VRPS if s != ("63.174.16.0/22", 7341)))
        assert validate("63.174.16.0/22", 7341, without).state is (
            RouteValidity.INVALID
        )

    def test_missing_uncovered_roa_is_merely_unknown(self):
        # Contrast: remove ETB's /24, which no other ROA covers -> unknown.
        without = vrps(*(s for s in FIGURE2_VRPS if s != ("63.168.93.0/24", 19429)))
        assert validate("63.168.93.0/24", 19429, without).state is (
            RouteValidity.UNKNOWN
        )


class TestExplain:
    S = vrps(*FIGURE2_VRPS)

    def test_explain_valid(self):
        outcome = validate("63.174.16.0/22", 7341, self.S)
        assert outcome.state is RouteValidity.VALID
        assert [str(v) for v in outcome.matching] == ["(63.174.16.0/22, AS7341)"]
        assert len(outcome.covering) == 2  # the /20 ROA also covers

    def test_explain_invalid_names_the_covering_roa(self):
        outcome = validate("63.174.17.0/24", 17054, self.S)
        assert outcome.state is RouteValidity.INVALID
        assert outcome.matching == ()
        assert "(63.174.16.0/20, AS17054)" in [str(v) for v in outcome.covering]

    def test_explain_unknown_is_empty(self):
        outcome = validate("8.8.8.0/24", 15169, self.S)
        assert outcome.state is RouteValidity.UNKNOWN
        assert outcome.covering == () and outcome.matching == ()
