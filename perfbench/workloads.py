"""Workload decks, the timed loop and the output checks of one round.

Every round of a run executes the same deck, built from the run's seed.
The seed names atoms, worlds, vertices and variables and shuffles the
order of the jobs; the structure of the instances comes from fixed generator
seeds. That keeps the work per round the same for every seed, so the
run-to-run spread measures the program rather than the sample drawn.

The code calls ctlenum through module attributes (``kripke.x``,
``enumeration.y``) so that a traced round sees the wrapped versions.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import string
from dataclasses import dataclass, field
from time import perf_counter_ns

from ctlenum import enumeration, families, kripke, reductions
from ctlenum import formula as F
from ctlenum.modelcheck import check

CHAIN_WORLDS = 13
# enum-general: (worlds, ground-set size) of the models in the deck, drawn
# in order from one fixed generator seed; ground sets stay <= 20 so that
# brute-force enumeration remains a usable reference.
GENERAL_MODELS = ((6, 17), (5, 15), (5, 14))
GENERAL_DECK_SEED = 5021
GENERAL_TEXTS = (
    "AG (p -> AF q)",
    "EF (p & EX q)",
    "A[p U q]",
    "E[p R q]",
    "AG (p | EF q)",
    "!E[p U !q]",
    "AF AG q",
    "EG (p -> AX q)",
)
# exists-reductions: hampath-au/ar run on 3-vertex digraphs, where one
# search takes at most about a second (on 4 vertices a single instance can
# take minutes); hampath-af/ax are cheap and run on 4-vertex digraphs.
EXISTS_DECK_SEED = 7013
SMALL_DIGRAPHS = 16
LARGE_DIGRAPHS = 24
CNF_COUNT = 16
KNOWN_DEFECT = "hampath-ar"


@dataclass
class Job:
    kind: str  # "enum" or a reduction name for exists jobs
    model: kripke.KripkeModel
    formula: F.Formula
    connected: bool = True
    source: object = None  # exists jobs: digraph or CNF the instance came from


@dataclass
class Deck:
    jobs: list[Job]
    formula_text: str = ""  # enum-chain: the formula as the CLI reads it


def _tag(rng: random.Random) -> str:
    """Lower-case identifier prefix; no keyword of the formula grammar."""
    return "".join(rng.choice(string.ascii_lowercase) for _ in range(3))


def _rename_worlds(model: kripke.KripkeModel, prefix: str) -> kripke.KripkeModel:
    """Same model with world ids w<i> renamed to <prefix><i>, order kept."""
    names = {w.id: prefix + w.id[1:] for w in model.worlds}
    return kripke.KripkeModel.of(
        [(names[w.id], sorted(w.labels)) for w in model.worlds],
        [(names[s], names[t]) for s, t in model.edges],
        names[model.root],
    )


# --- decks ---------------------------------------------------------------------


def chain_deck(seed: int) -> Deck:
    """chain_models(n) with EF over a seed-named atom on the root."""
    atom = _tag(random.Random(seed))
    model = families.chain_models(CHAIN_WORLDS, atom=atom)
    text = f"EF {atom}"
    return Deck([Job("enum", model, F.parse_formula(text))], text)


def general_battery() -> list[F.Formula]:
    """General CTL, AF/AG chains, monotone formulas and parsed texts."""
    general = families.formulas_by_size(("p", "q"), 40, constants=False)[10:]
    chains = families.afag_chain_formulas("p", 3)[1:]
    monotone = families.formulas_by_size(("p", "q"), 12, monotone=True)[4:]
    parsed = [F.parse_formula(text) for text in GENERAL_TEXTS]
    return general + chains + monotone + parsed


def general_deck(seed: int) -> Deck:
    rng = random.Random(seed)
    structure = random.Random(GENERAL_DECK_SEED)
    battery = general_battery()
    jobs = []
    for worlds, ground in GENERAL_MODELS:
        while True:
            model = families.random_model(structure, worlds, ("p", "q"), edge_prob=0.3)
            if len(model.worlds) - 1 + len(model.edges) == ground:
                break
        model = _rename_worlds(model, _tag(rng))
        # the connectivity of each (model, formula) pair is part of the
        # deck; only the order in which the pairs run depends on the seed
        pairs = [(phi, i % 2 == 0) for i, phi in enumerate(battery)]
        rng.shuffle(pairs)
        jobs += [Job("enum", model, phi, connected) for phi, connected in pairs]
    return Deck(jobs)


def _digraph(structure: random.Random, size: int, names: list[str]) -> reductions.HampathInstance:
    pairs = [(u, v) for u in range(size) for v in range(size)]
    bits = structure.getrandbits(len(pairs))
    edges = tuple((names[u], names[v]) for i, (u, v) in enumerate(pairs) if bits >> i & 1)
    s, t = structure.sample(range(size), 2)
    return reductions.HampathInstance(tuple(names[:size]), edges, names[s], names[t])


def _cnf_text(structure: random.Random, names: list[str]) -> str:
    """Random CNF of 3..5 variables; the clause count spans both verdicts."""
    n = structure.randint(3, 5)
    clauses = []
    for _ in range(structure.randint(n, 5 * n)):
        picked = structure.sample(range(n), min(3, n))
        clauses.append(
            "(" + " | ".join(("!" if structure.random() < 0.5 else "") + names[v] for v in picked) + ")"
        )
    return " & ".join(clauses)


def exists_deck(seed: int) -> Deck:
    rng = random.Random(seed)
    structure = random.Random(EXISTS_DECK_SEED)
    vertex = _tag(rng)
    variable = _tag(rng)
    names = [f"{vertex}{i}" for i in range(4)]
    jobs = []
    for size, count, kinds in (
        (4, LARGE_DIGRAPHS, ("hampath-af", "hampath-ax")),
        (3, SMALL_DIGRAPHS, ("hampath-au", "hampath-ar")),
    ):
        for _ in range(count):
            digraph = _digraph(structure, size, names)
            for kind in kinds:
                generator = getattr(reductions, kind.replace("hampath-", "hampath_to_"))
                instance = generator(digraph)
                jobs.append(Job(kind, instance.model, instance.formula, source=digraph))
    variables = [f"{variable}{i}" for i in range(5)]
    for _ in range(CNF_COUNT):
        phi = F.parse_formula(_cnf_text(structure, variables))
        for encoding in ("negation", "relabel"):
            instance = reductions.sat_to_ag(phi, encoding=encoding)
            jobs.append(Job(f"sat-ag-{encoding}", instance.model, instance.formula, source=phi))
    # the job order is fixed: with ~2 ms verdicts near the median, a
    # seed-dependent order moves garbage-collection pauses between ops and
    # shifts the median by whole ranks
    return Deck(jobs)


DECKS = {
    "enum-chain": chain_deck,
    "enum-general": general_deck,
    "exists-reductions": exists_deck,
}


# --- the timed loop ------------------------------------------------------------


def write_line(out, line: str) -> None:
    """What `ctlenum enumerate` does per solution: one line, flushed."""
    out.write(line + "\n")
    out.flush()


@dataclass
class Timed:
    elapsed_ns: int
    delays_ns: list[int]
    counts: list[int]  # enum jobs: solutions emitted; exists jobs: 1
    verdicts: list[bool | None]
    queries: int
    solutions: int
    fallback_queries: int
    peak_rss_mb: float


def run_deck(deck: Deck, out, tracer) -> Timed:
    """Run every job of the deck; an op is one solution or one verdict.

    The delay of an op runs from the previous op of the same job (or the
    job's start) to the flushed write of its line.
    """
    emit = tracer.wrap("cli.write", write_line)
    serialize = kripke.canonical_serialize
    delays: list[int] = []
    counts: list[int] = []
    verdicts: list[bool | None] = []
    queries = solutions = fallbacks = 0
    start = perf_counter_ns()
    for job in deck.jobs:
        prev = perf_counter_ns()
        if job.kind == "enum":
            session = enumeration.enumerate_submodels(job.model, job.formula, connected=job.connected)
            count = 0
            for sol in tracer.iterate("enumeration", session):
                emit(out, serialize(sol))
                now = perf_counter_ns()
                delays.append(now - prev)
                prev = now
                count += 1
            counts.append(count)
            verdicts.append(None)
            queries += sum(session.stats.oracle_calls)
            solutions += session.stats.solutions
            fallbacks += session.stats.fallback_queries
        else:
            verdict = enumeration.exists_submodel(job.model, job.formula)
            emit(out, "true" if verdict else "false")
            delays.append(perf_counter_ns() - prev)
            counts.append(1)
            verdicts.append(verdict)
            queries += 1
    elapsed = perf_counter_ns() - start
    return Timed(elapsed, delays, counts, verdicts, queries, solutions, fallbacks, peak_rss_mb())


def peak_rss_mb() -> float:
    """Peak resident memory of this process's own address space.

    ru_maxrss is not used: after fork and exec it also carries the RSS the
    parent had at the fork, and run.py grows as rounds report.
    """
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise RuntimeError("no VmHWM in /proc/self/status")


# --- output checks -------------------------------------------------------------


@dataclass
class Verdict:
    attempted: int = 0
    failed: int = 0
    known_defect_failed: int = 0
    notes: list[str] = field(default_factory=list)


def _read_jobs(path: str, counts: list[int]) -> list[list[str]]:
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    out, at = [], 0
    for count in counts:
        out.append(lines[at : at + count])
        at += count
    return out


def _submodel(line: str) -> kripke.Submodel:
    data = json.loads(line)
    return kripke.Submodel(frozenset(data["worlds"]), frozenset(tuple(e) for e in data["edges"]))


def check_chain(deck: Deck, timed: Timed, stream: str, full: bool) -> Verdict:
    """The stream must equal the one pinned in baseline.json byte for byte;
    with full set (or on a mismatch) every solution is also validated and
    model-checked."""
    job = deck.jobs[0]
    verdict = Verdict(attempted=timed.counts[0])
    with open(stream, "rb") as fh:
        digest = hashlib.sha256(fh.read()).hexdigest()
    with open(os.path.join(os.path.dirname(os.path.abspath(__file__)), "baseline.json")) as fh:
        pinned = json.load(fh)["pins"]["enum-chain"]
    same = digest == pinned["sha256"] and timed.counts[0] == pinned["solutions"]
    if same and not full:
        return verdict
    lines = _read_jobs(stream, timed.counts)[0]
    bad = sum(
        1
        for line in lines
        if not kripke.is_valid_submodel(job.model, sub := _submodel(line))
        or not check(job.model, job.formula, sub)
    )
    duplicates = len(lines) - len(set(lines))
    missing = max(0, 2**CHAIN_WORLDS - 1 - len(set(lines)))
    verdict.failed = bad + duplicates + missing
    if not same:
        verdict.notes.append(f"stream sha256 {digest} != pinned")
        # the stream contract covers order: a reordered stream fails whole
        verdict.failed = max(verdict.failed, len(lines), 1)
    verdict.attempted = max(verdict.attempted, verdict.failed)
    return verdict


def general_reference(deck: Deck) -> list[list[str]]:
    """Brute-force solution lines per job, sorted."""
    return [
        sorted(
            kripke.canonical_serialize(sub)
            for sub in enumeration.brute_force_enumerate(job.model, job.formula, connected=job.connected)
        )
        for job in deck.jobs
    ]


def check_general(timed: Timed, stream: str, reference: list[list[str]]) -> Verdict:
    verdict = Verdict()
    for lines, expected in zip(_read_jobs(stream, timed.counts), reference):
        got = set(lines)
        want = set(expected)
        wrong = len(got ^ want) + len(lines) - len(got)
        verdict.attempted += max(len(lines), len(want))
        verdict.failed += min(wrong, max(len(lines), len(want)))
    return verdict


def check_exists(deck: Deck, timed: Timed) -> Verdict:
    verdict = Verdict(attempted=len(deck.jobs))
    for job, got in zip(deck.jobs, timed.verdicts):
        if job.kind.startswith("sat-ag"):
            expected = reductions.brute_sat(job.source) is not None
        else:
            expected = reductions.brute_hampath(job.source) is not None
        if got != expected:
            verdict.failed += 1
            if job.kind == KNOWN_DEFECT:
                verdict.known_defect_failed += 1
            else:
                verdict.notes.append(f"{job.kind} verdict {got}, brute force {expected}")
    return verdict


def cli_smoke(deck: Deck, stream: str, workdir: str) -> str | None:
    """Run `ctlenum enumerate` in process on the chain job; None when its
    exit code is 0 and its stream is byte-identical to the library one."""
    from ctlenum import cli

    job = deck.jobs[0]
    model_path = os.path.join(workdir, "chain-model.json")
    out_path = os.path.join(workdir, "chain-cli.jsonl")
    kripke.save_model(job.model, model_path)
    code = cli.main(["enumerate", "--model", model_path, "--formula", deck.formula_text, "--out", out_path])
    if code != 0:
        return f"cli exit code {code}"
    with open(out_path, "rb") as a, open(stream, "rb") as b:
        if a.read() != b.read():
            return "cli stream differs from the library stream"
    return None


def ground_sizes(deck: Deck) -> list[int]:
    return sorted({len(job.model.worlds) - 1 + len(job.model.edges) for job in deck.jobs})

