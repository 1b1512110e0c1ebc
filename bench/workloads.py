"""The benchmark's workloads: one scenario each, built from the seed.

Each workload stresses a different part of the simulate -> trace ->
detect -> report chain; README.md in this directory says which and why.
``tiny`` overrides shrink a workload for the smoke tests while keeping
the behaviour its checks look for.
"""

WORKLOADS = {
    # All three detect layers and the route-split accounting; the largest
    # trace, so read, detect and peak memory do the most work here.  The
    # address pool is nearly idle.
    "mixed-600": {
        "kind": "mixed",
        "duration": 600.0,
        "overrides": {},
        "tiny": {"duration": 60.0},
        "expect": [],
    },
    # Every event is DHCP: pool renewals in the simulator, checksum
    # decoding on read and verifier fingerprints in detect.  The anomaly
    # layer never evaluates a baseline.
    "dhcp-churn": {
        "kind": "rogue-race",
        "duration": 1800.0,
        "overrides": {"clients": 500, "pool_size": 1000},
        "tiny": {"duration": 600.0, "clients": 50, "pool_size": 100},
        "expect": ["vr_rogue_alert"],
    },
    # Spoofed DISCOVERs fill the pool to exhaustion: fresh allocations and
    # the exhausted-pool scan dominate the simulator.
    "starvation-2000": {
        "kind": "starvation",
        "duration": 60.0,
        "overrides": {"pool_size": 2000, "spoofed_macs": 2500},
        "tiny": {"duration": 20.0, "pool_size": 200, "spoofed_macs": 250},
        "expect": ["vr_rogue_alert", "exhaustion_alert"],
    },
}


def scenario_args(name: str, tiny: bool = False) -> tuple[str, float, dict]:
    """``(kind, duration, overrides)`` for :func:`dhcpguard.default_scenario`."""
    spec = WORKLOADS[name]
    overrides = dict(spec["overrides"])
    duration = spec["duration"]
    if tiny:
        overrides.update(spec["tiny"])
        duration = overrides.pop("duration", duration)
    return spec["kind"], duration, overrides
