"""One benchmark round in a fresh interpreter.

Started by run.py with PYTHONHASHSEED fixed and ctlenum's source tree on
PYTHONPATH. It builds the deck, runs it once (traced or not), checks the
outputs outside the timed region and writes one JSON result file.
"""

from __future__ import annotations

import time

START_NS = time.monotonic_ns()  # setup_s runs from here to the first timed call

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402

import tracing  # noqa: E402


def layer_metrics(tracer: tracing.Tracer, timed) -> dict[str, float]:
    """The per-layer metrics of one traced round, by their benchmark names."""
    layers = tracer.layers

    def ms(name: str) -> float:
        return layers[name].self_ns / 1e6

    out: dict[str, float] = {}
    for name in ("kripke.closure", "kripke.reach", "kripke.successor_masks", "modelcheck.label"):
        out[f"{name}.calls"] = layers[name].calls
        out[f"{name}.self_ms"] = ms(name)
    for name in ("kripke.closure", "modelcheck.label"):
        out[f"{name}.repeat_ratio"] = layers[name].repeat_ratio
    out["enumeration.queries"] = timed.queries
    out["enumeration.solutions_per_query"] = timed.solutions / timed.queries
    out["enumeration.fallback_queries"] = timed.fallback_queries
    out["enumeration.self_ms"] = ms("enumeration")
    out["kripke.compile.calls"] = layers["kripke.compile"].calls
    for name in (
        "kripke.compile",
        "formula.parse",
        "formula.classify",
        "families.generate",
        "reductions.generate",
        "kripke.submodel",
        "kripke.serialize",
        "cli.write",
    ):
        out[f"{name}.ms"] = ms(name)
    return out


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--first", action="store_true", help="also make the references and the CLI smoke run")
    args = parser.parse_args()

    tracer = tracing.Tracer() if args.trace else tracing.NullTracer()
    import workloads

    if args.trace:
        tracing.install(tracer)
    deck = workloads.DECKS[args.workload](args.seed)
    stream = os.path.join(args.workdir, "stream.jsonl")
    with open(stream, "w", encoding="utf-8") as out:
        setup_ns = time.monotonic_ns() - START_NS
        timed = workloads.run_deck(deck, out, tracer)
    tracer.active = False

    if args.workload == "enum-chain":
        verdict = workloads.check_chain(deck, timed, stream, full=args.first)
        if args.first:
            problem = workloads.cli_smoke(deck, stream, args.workdir)
            if problem:
                verdict.notes.append(problem)
    elif args.workload == "enum-general":
        reference_path = os.path.join(args.workdir, "reference.json")
        if args.first:
            reference = workloads.general_reference(deck)
            with open(reference_path, "w", encoding="utf-8") as fh:
                json.dump(reference, fh)
        else:
            with open(reference_path, encoding="utf-8") as fh:
                reference = json.load(fh)
        verdict = workloads.check_general(timed, stream, reference)
    else:
        verdict = workloads.check_exists(deck, timed)

    result = {
        "traced": bool(args.trace),
        "setup_s": setup_ns / 1e9,
        "timed_s": timed.elapsed_ns / 1e9,
        "ops": len(timed.delays_ns),
        "delays_us": [d / 1e3 for d in timed.delays_ns],  # in op order
        "peak_rss_mb": timed.peak_rss_mb,
        "attempted": verdict.attempted,
        "failed": verdict.failed,
        "known_defect": workloads.KNOWN_DEFECT,
        "known_defect_failed": verdict.known_defect_failed,
        "notes": verdict.notes,
        "ground_sizes": workloads.ground_sizes(deck),
        "jobs": len(deck.jobs),
    }
    if args.trace:
        result["layers"] = layer_metrics(tracer, timed)
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
