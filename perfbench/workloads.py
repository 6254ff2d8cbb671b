"""Seeded ScenarioSpec generators for the benchmark workloads.

Every workload is a closed batch of WORLDS_PER_RUN specs (worlds), each
compiled and run to its horizon by one perfbench_sim process per execution.
Everything random in a spec (router graph, host placement, roaming
itinerary, fault plan, protocol seed) is drawn from the workload seed and
the world index, so the same seed gives the same specs byte for byte; the
simulator only ever sees the resulting JSON.

Shared traffic shape: one CBR flow per group at 20 datagrams/s x 128 B and
two receivers per group. NOTES.md records why each workload exists.
"""

import random

# Paper Table 1 strategies, assigned round-robin to roaming receivers.
PAPER_STRATEGIES = [
    "local-membership",
    "bidir-tunnel",
    "tunnel-mh-to-ha",
    "tunnel-ha-to-mh",
]

# Full-size shapes. "small" shrinks each to a seconds-long smoke run of the
# same structure for the benchmark's own tests.
WORKLOADS = {
    "flood-512": dict(routers=512, groups=16, horizon_s=3, dwell_s=0,
                      disruptions=0, engine="pimdm", slice_s=0.1,
                      probe_reps=1, twin_threads=0),
    "steady": dict(routers=64, groups=32, horizon_s=300, dwell_s=0,
                   disruptions=0, engine="pimdm", slice_s=2.0,
                   probe_reps=5, twin_threads=4),
    "roam-faults": dict(routers=160, groups=16, horizon_s=60, dwell_s=10,
                        disruptions=16, engine="pimdm", slice_s=0.5,
                        probe_reps=5, twin_threads=0),
    "hpim-faults": dict(routers=160, groups=16, horizon_s=30, dwell_s=10,
                        disruptions=8, engine="hpimdm", slice_s=0.5,
                        probe_reps=5, twin_threads=0),
}

SMALL = {
    "flood-512": dict(routers=48, groups=4, horizon_s=3),
    "steady": dict(routers=24, groups=6, horizon_s=30),
    "roam-faults": dict(routers=32, groups=4, horizon_s=40, disruptions=6),
    "hpim-faults": dict(routers=32, groups=4, horizon_s=40, disruptions=6),
}

# Worlds per run: averaging over several seed-derived worlds damps the
# seed-to-seed variation of the work.
WORLDS_PER_RUN = 3
FANOUT_CAP = 32
FIRST_SEND_S = 1
FAULT_START_S = 5
SETTLE_S = 10


def shape(workload, small=False):
    params = dict(WORKLOADS[workload])
    if small:
        params.update(SMALL[workload])
    return params


def _topology(rng, n):
    """Random connected router graph with one stub LAN per router.

    A random spanning tree plus n/4 extra cross links, no router above
    FANOUT_CAP attachments (stub included). Returns (links, routers,
    transit_names).
    """
    attach = [["Stub%d" % i] for i in range(n)]
    transit = []

    def has_room(r):
        return len(attach[r]) < FANOUT_CAP

    for i in range(1, n):
        parent = rng.randrange(i)
        for _ in range(32):
            if has_room(parent):
                break
            parent = rng.randrange(i)
        if not has_room(parent):
            parent = next(r for r in range(i) if has_room(r))
        name = "Transit%d" % len(transit)
        transit.append(name)
        attach[parent].append(name)
        attach[i].append(name)
    for _ in range(n // 4):
        a, b = rng.randrange(n), rng.randrange(n)
        if a == b or not has_room(a) or not has_room(b):
            continue
        name = "Transit%d" % len(transit)
        transit.append(name)
        attach[a].append(name)
        attach[b].append(name)

    links = [{"name": "Stub%d" % i} for i in range(n)]
    links += [{"name": t} for t in transit]
    routers = [{"name": "Router%d" % i, "links": attach[i]} for i in range(n)]
    return links, routers, transit


def _fault_plan(rng, p, transit, routers):
    """Non-overlapping disruptions: transit link flaps and router
    crash/restart, each repaired before the horizon minus SETTLE_S."""
    faults = []
    busy = set()
    last = p["horizon_s"] - SETTLE_S
    span = last - FAULT_START_S
    # A fixed quarter of the disruptions are router crashes, in random
    # slots, so every seed draws the same fault mix.
    crashes = set(rng.sample(range(p["disruptions"]), p["disruptions"] // 4))
    for k in range(p["disruptions"]):
        # Spread fault instants evenly, jittered inside their slot.
        slot = span / p["disruptions"]
        at = round(FAULT_START_S + slot * k + rng.uniform(0, slot / 2), 3)
        outage = round(rng.uniform(1.0, min(8.0, last - at)), 3)
        crash = k in crashes
        pool = routers if crash else transit
        target = rng.choice(pool)
        while target in busy:
            target = rng.choice(pool)
        busy.add(target)
        down, up = ("router-crash", "router-restart") if crash else (
            "link-down", "link-up")
        faults.append({"kind": down, "target": target, "at_s": at})
        faults.append({"kind": up, "target": target,
                       "at_s": round(at + outage, 3)})
    return faults


def make_spec(workload, seed, small=False, world=0):
    """The ScenarioSpec (as a JSON-ready dict) of world `world` of
    `workload` for `seed`; a run averages over the workload's worlds."""
    if workload not in WORKLOADS:
        raise ValueError("unknown workload %r" % workload)
    p = shape(workload, small)
    rng = random.Random("%s/%d/%d" % (workload, seed, world))
    n = p["routers"]
    links, routers, transit = _topology(rng, n)
    router_names = [r["name"] for r in routers]
    stubs = ["Stub%d" % i for i in range(n)]

    hosts, subscriptions, traffic, mobility = [], [], [], []
    for g in range(p["groups"]):
        group = "ff1e::%x" % (0x100 + g)
        port = 9000 + g
        sender = "S%d" % g
        hosts.append({"name": sender, "home": rng.choice(stubs)})
        traffic.append({"type": "cbr", "source": sender, "group": group,
                        "port": port, "interval_ms": 50,
                        "payload_bytes": 128, "start_s": FIRST_SEND_S})
        for r in range(2):
            name = "R%d_%d" % (g, r)
            host = {"name": name, "home": rng.choice(stubs)}
            if p["dwell_s"]:
                host["strategy"] = PAPER_STRATEGIES[(2 * g + r) % 4]
                t = FIRST_SEND_S + rng.uniform(0, p["dwell_s"])
                while t < p["horizon_s"] - 1:
                    mobility.append({"host": name, "at_s": round(t, 3),
                                     "to": rng.choice(stubs)})
                    t += p["dwell_s"]
            hosts.append(host)
            subscriptions.append({"host": name, "group": group})
    mobility.sort(key=lambda m: (m["at_s"], m["host"]))

    faults = []
    if p["disruptions"]:
        faults = _fault_plan(rng, p, transit, router_names)

    spec = {
        "name": workload,
        "description": "perfbench workload %s, seed %d, world %d%s"
                       % (workload, seed, world, " (small)" if small else ""),
        "duration_s": p["horizon_s"],
        "seed": rng.randrange(1, 2**31),
        "config": {"dense_engine": p["engine"]},
        "topology": {"links": links, "routers": routers, "hosts": hosts},
        "subscriptions": subscriptions,
        "traffic": traffic,
        "mobility": mobility,
        "metrics": {"delivery": True, "events": True},
    }
    if faults:
        spec["faults"] = faults
    return spec
