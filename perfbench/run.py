"""ctlenum benchmark: one workload, timed from outside the program.

    python3 perfbench/run.py --workload enum-chain --seed 1 --seconds 10 --trace 0

A run is a sequence of rounds. Each round is a fresh interpreter
(worker.py, PYTHONHASHSEED=0, one at a time) that builds the workload's
deck from the seed, runs it once and checks the outputs outside the timed
region, so ctlenum's process-wide caches start cold as they do for a CLI
user. Rounds repeat until the measured rounds have spent --seconds in
their timed regions.

--trace 0 prints the end-to-end metrics. --trace 1 alternates untraced
and traced rounds and prints the per-layer metrics of the traced ones,
plus the tracing overhead. The last line of stdout is one JSON object;
the lines before it repeat the figures for a reader.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
import time

import orderstats

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("enum-chain", "enum-general", "exists-reductions")
MIN_ROUNDS = 3  # measured rounds; setup_s and each op delay are medians over them
DEADLINE_S = 170  # a run must end within 180 s


class RunError(Exception):
    pass


def run_round(args, index: int, traced: bool, workdir: str, deadline: float) -> dict:
    result_path = os.path.join(workdir, f"round-{index}.json")
    env = dict(os.environ, PYTHONHASHSEED="0", PYTHONPATH=os.path.join(ROOT, "src"))
    command = [
        sys.executable,
        os.path.join(HERE, "worker.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--trace", str(int(traced)),
        "--workdir", workdir,
        "--result", result_path,
    ]
    if index == 0:
        command.append("--first")
    try:
        done = subprocess.run(
            command, env=env, cwd=ROOT, capture_output=True, text=True,
            timeout=max(1.0, deadline - time.monotonic()),
        )
    except subprocess.TimeoutExpired as exc:
        raise RunError(f"round {index} did not finish within the run's deadline") from exc
    if done.returncode != 0:
        raise RunError(f"round {index} exited {done.returncode}:\n{done.stderr}")
    with open(result_path, encoding="utf-8") as fh:
        return json.load(fh)


def run_rounds(args, workdir: str) -> list[dict]:
    """Untraced: measured rounds only. Traced: untraced and traced rounds
    alternate, the traced ones being measured; both kinds give the
    overhead."""
    deadline = time.monotonic() + DEADLINE_S
    rounds: list[dict] = []
    while True:
        for traced in (False, True) if args.trace else (False,):
            rounds.append(run_round(args, len(rounds), traced, workdir, deadline))
        measured = [r for r in rounds if r["traced"] == bool(args.trace)]
        if len(measured) >= MIN_ROUNDS and sum(r["timed_s"] for r in measured) >= args.seconds:
            return rounds


def op_delays(rounds: list[dict]) -> list[float]:
    """Each op's delay as the median over rounds, ascending.

    Every round runs the same deck, so op i is the same solution or verdict
    in every round; the median over rounds strips the machine's per-op
    noise before the percentiles are taken."""
    return sorted(orderstats.median(list(op)) for op in zip(*(r["delays_us"] for r in rounds)))


def end_to_end(rounds: list[dict]) -> dict[str, float]:
    delays = op_delays(rounds)
    return {
        "setup_s": orderstats.median([r["setup_s"] for r in rounds]),
        "ops_per_s": orderstats.median([r["ops"] / r["timed_s"] for r in rounds]),
        "delay_p50_us": orderstats.percentile(delays, 1, 2),
        "delay_tail_us": orderstats.percentile(delays, *orderstats.tail_rung(len(delays))),
        "peak_rss_mb": max(r["peak_rss_mb"] for r in rounds),
    }


def per_layer(rounds: list[dict]) -> dict[str, float]:
    traced = [r for r in rounds if r["traced"]]
    untraced = [r for r in rounds if not r["traced"]]
    out = {name: orderstats.median([r["layers"][name] for r in traced]) for name in traced[0]["layers"]}
    wall = orderstats.median([r["setup_s"] + r["timed_s"] for r in traced])
    base = orderstats.median([r["setup_s"] + r["timed_s"] for r in untraced])
    out["trace.overhead_s"] = wall - base
    return out


def declared_units(trace: int) -> dict[str, str]:
    """Metric name -> unit, as BENCHMARK.json declares them."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def report(args, rounds: list[dict]) -> dict:
    measured = [r for r in rounds if r["traced"] == bool(args.trace)]
    values = per_layer(rounds) if args.trace else end_to_end(measured)
    units = declared_units(args.trace)
    if sorted(values) != sorted(units):
        raise RunError("metrics differ from the ones BENCHMARK.json declares")
    metrics = {name: (value, units[name]) for name, value in values.items()}
    attempted = sum(r["attempted"] for r in rounds)
    failed = sum(r["failed"] for r in rounds)
    known = sum(r["known_defect_failed"] for r in rounds)
    notes = sorted({note for r in rounds for note in r["notes"]})
    # wrong verdicts of the known defect (hampath-ar, see the README's
    # "Known red acceptance assertions") are counted in `failed`; any
    # other failure or check note marks the run incorrect
    correct = failed == known and not notes
    load = os.getloadavg()
    print(
        f"# workload={args.workload} seed={args.seed} rounds={len(rounds)} "
        f"jobs/round={rounds[0]['jobs']} ground sizes={rounds[0]['ground_sizes']}"
    )
    print(
        f"# python={platform.python_version()} nproc={len(os.sched_getaffinity(0))} "
        f"loadavg={load[0]:.2f},{load[1]:.2f},{load[2]:.2f}"
    )
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    if not args.trace:
        ops = len(op_delays(measured))
        print(
            f"# delay_tail_us is {orderstats.rung_label(*orderstats.tail_rung(ops))} of "
            f"{ops} per-op delays, each the median over {len(measured)} rounds"
        )
    print(
        f"failed_ratio {failed / attempted:.6g} ratio "
        f"({failed}/{attempted}; known defect {rounds[0]['known_defect']}: {known})"
    )
    for note in notes:
        print(f"# check failed: {note}")
    return {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "ctlenum", "__init__.py")):
        print(f"error: no ctlenum source tree under {ROOT}/src", file=sys.stderr)
        return 2
    workdir = os.path.join(ROOT, ".perfbench")
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    try:
        result = report(args, run_rounds(args, workdir))
    except RunError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
