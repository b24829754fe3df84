"""Seeded workload inputs: request streams, reference lists, zone snapshots.

Everything here is a pure function of the workload seed.  The program under
test only ever sees the files and request lines produced here; it never
learns the seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from pathlib import Path

from repro.idn.idna_codec import IDNAError, to_ascii_label
from repro.measurement.domainlists import (
    ATTACKER_SUBSTITUTIONS,
    ZoneConfig,
    generate_population,
)

#: Subdomain prefixes of a CT-log feed (certificates name hosts, not zones).
CT_PREFIXES = (
    "www.", "mail.", "api.", "cdn.", "m.", "shop.", "app.", "static.",
    "login.", "dev.", "eu.api.", "img.cdn.",
)
#: Share of CT-log names that carry a subdomain prefix.
CT_SUBDOMAIN_SHARE = 0.70

#: IDN-dense mix: share of fresh requests that are ``xn--`` names, the share
#: of those that are homoglyph mutations of the reference list, and the
#: share of all requests that repeat a recent request (so the LRU hits).
IDN_XN_SHARE = 0.50
IDN_MUTATION_SHARE = 0.40
IDN_REPEAT_SHARE = 0.30
IDN_REPEAT_WINDOW = 2000

#: Zone snapshots for ``scan``/``track``: days, daily churn, and the share
#: of the population held back as future registrations.
TRACK_DAYS = 20
DAILY_CHURN = 0.01
RESERVE_SHARE = 0.25

#: Reference domains appended per hot reload (fresh names, never requested).
RELOAD_BATCH = 40


@dataclass
class Workload:
    """The generated inputs of one run."""

    name: str
    seed: int
    references: list[str]
    #: Request domains in send order (one per request line).
    requests: list[str]
    #: Day-1 zone: the registrable domains handed to ``scan``.
    zone: list[str]
    #: Domains registered on each later day, and those removed.
    additions: list[list[str]] = field(default_factory=list)
    removals: list[list[str]] = field(default_factory=list)
    #: Reference batches appended by successive hot reloads.
    reload_batches: list[list[str]] = field(default_factory=list)

    def day_sets(self) -> list[list[str]]:
        """The sorted delegation set of every tracked day."""
        current = set(self.zone)
        days = [sorted(current)]
        for added, removed in zip(self.additions, self.removals):
            current.difference_update(removed)
            current.update(added)
            days.append(sorted(current))
        return days


def _mutate(label: str, rng: random.Random) -> str | None:
    """A homoglyph twin of *label* (1-2 substitutions), as an A-label."""
    positions = [i for i, ch in enumerate(label) if ch in ATTACKER_SUBSTITUTIONS]
    if not positions:
        return None
    chars = list(label)
    for position in rng.sample(positions, min(len(positions), rng.choice((1, 1, 1, 2)))):
        chars[position] = rng.choice(ATTACKER_SUBSTITUTIONS[chars[position]])
    try:
        ascii_label = to_ascii_label("".join(chars))
    except IDNAError:
        return None
    return ascii_label if ascii_label.startswith("xn--") else None


def _churn(zone_pool: list[str], rng: random.Random, days: int):
    """Split a population into a day-1 zone plus daily add/remove sets."""
    pool = list(zone_pool)
    rng.shuffle(pool)
    reserve_size = int(len(pool) * RESERVE_SHARE)
    reserve, zone = pool[:reserve_size], pool[reserve_size:]
    current = list(zone)
    additions, removals = [], []
    step = max(1, int(len(zone) * DAILY_CHURN))
    for _day in range(1, days):
        removed = rng.sample(current, step)
        added, reserve = reserve[:step], reserve[step:]
        gone = set(removed)
        current = [d for d in current if d not in gone] + added
        additions.append(added)
        removals.append(removed)
    return zone, additions, removals


def _fresh_references(existing: set[str], rng: random.Random, count: int) -> list[str]:
    """Reference domains no request and no earlier reference uses."""
    fresh = []
    while len(fresh) < count:
        label = "".join(rng.choice("bcdfghklmnprstvz") + rng.choice("aeiou")
                        for _ in range(rng.randint(3, 5)))
        domain = f"{label}ref.com"
        if domain not in existing:
            existing.add(domain)
            fresh.append(domain)
    return fresh


def ctlog(seed: int, request_count: int, reloads: int) -> Workload:
    """CT-log-shaped feed: unique names, mostly subdomained ASCII, ≤1% ``xn--``.

    Registrable domains come from the paper-shaped synthetic population
    (0.67% IDNs); reference domains themselves are left out, so almost every
    name is a certain miss for the batch kernel.
    """
    rng = random.Random(seed)
    population = generate_population(ZoneConfig.paper_scaled(scale=0.8, seed=seed))
    references = population.reference.domains()
    reference_set = set(references)
    registrable = [d for d in population.zone_domains if d not in reference_set]
    rng.shuffle(registrable)

    bare_budget = int(request_count * (1 - CT_SUBDOMAIN_SHARE))
    requests: list[str] = []
    seen: set[str] = set()
    cursor = 0
    while len(requests) < request_count:
        domain = registrable[cursor % len(registrable)]
        cursor += 1
        if bare_budget > 0 and domain not in seen and rng.random() < 1 - CT_SUBDOMAIN_SHARE:
            name = domain
            bare_budget -= 1
        else:
            name = rng.choice(CT_PREFIXES) + domain
            if name in seen:
                continue
        seen.add(name)
        requests.append(name)

    zone, additions, removals = _churn(population.zone_domains, rng, TRACK_DAYS)
    taken = reference_set | set(population.zone_domains)
    return Workload(
        name="ctlog-serve", seed=seed, references=references, requests=requests,
        zone=zone, additions=additions, removals=removals,
        reload_batches=[_fresh_references(taken, rng, RELOAD_BATCH) for _ in range(reloads)],
    )


def idn(seed: int, request_count: int, reloads: int) -> Workload:
    """IDN-dense mix: half ``xn--``, homoglyph twins of the references, repeats.

    ``xn--`` names are the IDNs of an IDN-dense synthetic population plus
    homoglyph mutations of the reference list; the ASCII half is the
    population's other domains, bare or under a few common subdomains.  A
    fixed share of requests repeats one of
    the last few thousand, so the detector's label cache gets hits.
    """
    rng = random.Random(seed)
    population = generate_population(ZoneConfig(
        total_domains=40_000, idn_fraction=0.5, homograph_count=1_500,
        reference_size=10_000, seed=seed,
    ))
    references = population.reference.domains()
    reference_set = set(references)
    population_idns = population.plain_idns + [h.domain_ascii for h in population.homographs]
    rng.shuffle(population_idns)
    ascii_domains = [prefix + d for d in population.zone_domains
                     if d not in reference_set and not d.startswith("xn--")
                     for prefix in ("",) + CT_PREFIXES[:3]]
    rng.shuffle(ascii_domains)

    mutations: list[str] = []
    seen_mutations = set(population_idns)
    wanted = int(request_count * (1 - IDN_REPEAT_SHARE) * IDN_XN_SHARE * IDN_MUTATION_SHARE) + 1
    attempts = 0
    while len(mutations) < wanted and attempts < wanted * 20:
        attempts += 1
        label, _, tld = rng.choice(references).rpartition(".")
        twin = _mutate(label, rng)
        if twin is None:
            continue
        domain = f"{twin}.{tld}"
        if domain not in seen_mutations:
            seen_mutations.add(domain)
            mutations.append(domain)

    cursors = {"idn": 0, "mutation": 0, "ascii": 0}
    pools = {"idn": population_idns, "mutation": mutations, "ascii": ascii_domains}

    def take(kind: str) -> str:
        pool = pools[kind]
        value = pool[cursors[kind] % len(pool)]
        cursors[kind] += 1
        return value

    requests: list[str] = []
    for _ in range(request_count):
        if requests and rng.random() < IDN_REPEAT_SHARE:
            window = requests[-IDN_REPEAT_WINDOW:]
            requests.append(window[rng.randrange(len(window))])
        elif rng.random() < IDN_XN_SHARE:
            requests.append(take("mutation" if rng.random() < IDN_MUTATION_SHARE else "idn"))
        else:
            requests.append(take("ascii"))

    zone, additions, removals = _churn(population.zone_domains, rng, TRACK_DAYS)
    taken = reference_set | set(population.zone_domains) | seen_mutations
    return Workload(
        name="idn-serve", seed=seed, references=references, requests=requests,
        zone=zone, additions=additions, removals=removals,
        reload_batches=[_fresh_references(taken, rng, RELOAD_BATCH) for _ in range(reloads)],
    )


def write_lines(path: Path, lines: list[str]) -> Path:
    path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    return path


def write_snapshots(directory: Path, workload: Workload, seed: int) -> list[tuple[str, Path]]:
    """One presentation-format zone file per tracked day.

    Every delegation gets one NS host; a small share of hosts change each
    day so ``track`` also sees NS-only changes.
    """
    rng = random.Random(seed ^ 0x5EED)
    nameservers: dict[str, str] = {}
    snapshots = []
    for day, domains in enumerate(workload.day_sets(), start=1):
        for domain in domains:
            if domain not in nameservers:
                nameservers[domain] = f"ns{rng.randint(1, 4)}.host.example"
        for domain in rng.sample(domains, max(1, len(domains) // 1000)):
            nameservers[domain] = f"ns{rng.randint(5, 9)}.host.example"
        date = f"2019-05-{day:02d}"
        path = directory / f"{date}.zone"
        path.write_text(
            "".join(f"{d}.\t172800\tIN\tNS\t{nameservers[d]}.\n" for d in domains),
            encoding="utf-8",
        )
        snapshots.append((date, path))
    return snapshots
