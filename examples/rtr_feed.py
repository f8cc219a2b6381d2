#!/usr/bin/env python3
"""Feeding routers over RTR (RFC 6810): the last hop of Figure 1.

Builds the Figure 2 RPKI, runs a relying-party cache, and attaches two
routers over RTR sessions with real wire encoding.  Then Sprint whacks
Continental Broadband's /20 ROA — and the withdrawal races down both
sessions as an incremental serial update, flipping route validity inside
the routers without either ever seeing a certificate.

This is the mechanism by which "the potential for faulty or compromised
RPKI authorities to instantaneously affect BGP routing" (paper, Section
1) is literal: one repository write, one cache refresh, one RTR delta.

Run:  python examples/rtr_feed.py
"""

from repro.core import execute_whack, plan_whack
from repro.modelgen import build_figure2
from repro.repository import Fetcher
from repro.rp import RelyingParty, validate
from repro.rtr import DuplexPipe, RtrCacheServer, RtrRouterClient


def pump(cache, routers, rounds=4):
    for _ in range(rounds):
        cache.process()
        for router in routers:
            router.process()


def show_router(name, router):
    state = validate("63.174.16.0/20", 17054, router.vrp_set()).state
    print(f"  {name}: state={router.state.value} serial={router.serial} "
          f"vrps={router.vrp_count} | (63.174.16.0/20, AS17054) -> "
          f"{state.value}")


def main() -> None:
    world = build_figure2()
    rp = RelyingParty(
        world.trust_anchors, Fetcher(world.registry, world.clock), world.clock
    )
    rp.refresh()

    cache = RtrCacheServer(session_id=2013, journal=rp.journal)
    cache.update(rp.vrps)
    routers = []
    for _ in range(2):
        pipe = DuplexPipe()
        cache.attach(pipe)
        router = RtrRouterClient(pipe)
        router.connect()
        routers.append(router)
    pump(cache, routers)

    print("After initial reset synchronization:")
    for index, router in enumerate(routers):
        show_router(f"router {index}", router)

    print("\nSprint whacks (63.174.16.0/20, AS 17054)...")
    execute_whack(plan_whack(world.sprint, world.target20, world.continental))
    rp.refresh()
    new_serial = cache.update(rp.vrps)
    print(f"cache refreshed: serial bumped to {new_serial}; "
          "Serial Notify sent to both routers")
    pump(cache, routers)

    print("\nAfter the incremental update (one withdrawal PDU each):")
    for index, router in enumerate(routers):
        show_router(f"router {index}", router)

    print(
        "\nThe route's protection evaporated at every attached router in"
        "\none RTR delta — no router ever parsed a certificate, and none"
        "\ncan tell a whack from a legitimate withdrawal."
    )


if __name__ == "__main__":
    main()
