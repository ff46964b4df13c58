"""Run one reference workload and print its metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload plane-serve [--seed 71] [--seconds 10] [--trace 0|1]

A run generates the workload's input streams from the seed (stream ``i``
from ``seed + STREAM_STRIDE * i``) and serves them in *rounds*.  Each
round runs in a fresh process (``perfbench/round.py``): it warms up,
sets the system up, serves one whole stream once and tears it down.  The
run then kills the round's process group and waits for every process in
it, so no process of a round outlives it.  A run serves every stream at
least ``REPEATS`` times, and more until the timed serving time reaches
``--seconds``.  A stream's rounds replay the same inputs, so their
answer digest and exact counts must agree.

Timings are rescaled to the reference machine speed by a probe run
between timestamps (``perfbench.workloads.speed_probe``): on a shared
two-vCPU cloud VM everything ran up to 1.6x slower in spells longer than
a run.

With ``--trace 0`` the run reports the end-to-end metrics.  With
``--trace 1`` it serves one more, traced round per stream; the run
reports the per-layer metrics and prints the self-time ledger of the
traced rounds.
The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  ``perfbench/reference.json``
holds the default seed's exact counts and the end-to-end metric and
workload each per-layer metric should move.
"""

from __future__ import annotations

import argparse
import ctypes
import inspect
import json
import math
import os
import pathlib
import pickle
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

#: The reporting percentiles; a tail is the highest one with at least
#: ``TAIL_BEYOND`` samples beyond it.  p99.9 is left out: on a shared
#: two-CPU machine its dozen samples caught scheduler stalls and doubled
#: between runs of the same stream.
TAIL_LADDER = (99.0, 90.0, 50.0)
TAIL_BEYOND = 10
#: Untraced rounds per stream at least (see ``end_to_end`` for how they
#: combine): a request's best over three rounds, seconds apart, drops
#: from the medians the stalls and short slow spells that the speed
#: probe does not catch.
REPEATS = 3
#: Stream ``i`` of a run is drawn from seed ``seed + STREAM_STRIDE * i``.
STREAM_STRIDE = 1_000
REFERENCE = pathlib.Path(__file__).resolve().parent / "reference.json"
ROUND_SCRIPT = pathlib.Path(__file__).resolve().parent / "round.py"
#: A run gives up, with no result line, once its rounds have taken this
#: many seconds.
DEADLINE_S = 170.0
#: ``prctl`` option that makes a process adopt its orphaned descendants.
PR_SET_CHILD_SUBREAPER = 36
#: Whether this process adopts orphans (``become_subreaper``), so that a
#: round's killed processes are waited for here.
_subreaper = False


def become_subreaper() -> bool:
    """Adopt this process's orphaned descendants, so it can wait for them."""
    global _subreaper
    try:
        libc = ctypes.CDLL(None, use_errno=True)
        _subreaper = libc.prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0) == 0
    except (OSError, AttributeError):
        _subreaper = False
    return _subreaper


def reap_orphans(seconds: float = 10.0) -> None:
    """Wait for the killed processes of a round that this process adopted."""
    if not _subreaper:
        return
    give_up = time.monotonic() + seconds
    while True:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return
        if pid:
            continue
        if time.monotonic() > give_up:
            raise RuntimeError("a process started by a round outlived its process group")
        time.sleep(0.01)


def serve_round(scratch: pathlib.Path, number: int, deadline: float, *arguments):
    """``run_round(*arguments)`` in a fresh process of its own session.

    Whatever the round starts (plane-churn's worker processes) shares its
    process group; the group is killed and waited for however the round
    ends.  A round that fails, or outlasts ``deadline``, raises.
    """
    given = scratch / f"round-{number}.args"
    taken = scratch / f"round-{number}.result"
    given.write_bytes(pickle.dumps(arguments))
    process = subprocess.Popen(
        [sys.executable, str(ROUND_SCRIPT), str(given), str(taken)],
        stdout=subprocess.DEVNULL,
        start_new_session=True,
    )
    try:
        code = process.wait(timeout=max(0.0, deadline - time.monotonic()))
    finally:
        try:
            os.killpg(process.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        process.wait()
        reap_orphans()
    if code != 0:
        raise RuntimeError(f"round {number} exited with code {code}")
    return pickle.loads(taken.read_bytes())


def declared_units(section: str) -> dict:
    """Metric name -> unit, as ``BENCHMARK.json`` declares them."""
    entries = json.loads((ROOT / "BENCHMARK.json").read_text())[section]
    return {entry["name"]: entry["unit"] for entry in entries}


def tail(samples, beyond: int = TAIL_BEYOND):
    """``(percentile, value)``: the highest ladder percentile with at least
    ``beyond`` samples above its nearest-rank value."""
    ordered = sorted(samples)
    for percentile in TAIL_LADDER:
        rank = math.ceil(percentile / 100.0 * len(ordered))
        if len(ordered) - rank >= beyond:
            return percentile, ordered[rank - 1]
    return 50.0, ordered[math.ceil(len(ordered) / 2) - 1]


def end_to_end(by_stream) -> dict:
    """End-to-end metrics over the untraced rounds of every stream.

    Timings are taken at the reference machine speed (``Round.scaled``).
    A stream's rounds replay the same requests in the same order, so the
    p50s are medians of each request's best over the rounds, pooled
    across the streams.  The tails and the throughput are taken over
    every round's own samples, so a stall that hits different requests
    in different rounds still shows in them.  Counts are exact totals
    over the streams; set-up and memory are medians over every round.
    """
    best_updates, best_epochs, unscaled = [], [], []
    updates, epochs = [], []
    for results in by_stream.values():
        scaled = [result.scaled() for result in results]
        best_updates += [min(samples) for samples in zip(*(s[0] for s in scaled))]
        best_epochs += [min(samples) for samples in zip(*(s[1] for s in scaled))]
        unscaled += [min(samples) for samples in zip(*(r.update_s for r in results))]
        for round_updates, round_epochs, _ in scaled:
            updates += round_updates
            epochs += round_epochs
    rounds = [result for results in by_stream.values() for result in results]
    print(
        f"unscaled update p50 {statistics.median(unscaled) * 1e6:.1f} us; median speed "
        "of each round " + " ".join(f"{statistics.median(r.speed()):.3f}" for r in rounds)
    )
    update_p, update_tail = tail(updates)
    epoch_p, epoch_tail = tail(epochs)
    values = {
        "updates_per_s": len(updates) / (sum(updates) + sum(epochs)),
        "update_p50_us": statistics.median(best_updates) * 1e6,
        "update_tail_us": update_tail * 1e6,
        "epoch_p50_ms": statistics.median(best_epochs) * 1e3,
        "epoch_tail_ms": epoch_tail * 1e3,
        "setup_s": statistics.median(result.scaled()[2] for result in rounds),
        "rss_peak_mb": statistics.median(result.rss_mb for result in rounds),
    }
    totals = {
        name: sum(results[0].counts[name] for results in by_stream.values())
        for name in ("updates", "messages", "objects", "wire_bytes")
    }
    for name in ("messages", "objects", "wire_bytes"):
        values[f"{name}_per_update"] = totals[name] / totals["updates"]
    details = {
        "update_tail_us": f"  (p{update_p:g} of {len(updates)} samples)",
        "epoch_tail_ms": f"  (p{epoch_p:g} of {len(epochs)} samples)",
    }
    metrics = {}
    for name, unit in declared_units("end_to_end").items():
        metrics[name] = {"value": values[name], "unit": unit}
        print(f"{name:24s} {values[name]:14.4f} {unit}{details.get(name, '')}")
    return metrics


def _scaled_serve(result) -> float:
    updates, epochs, _ = result.scaled()
    return sum(updates) + sum(epochs)


def trace_metrics(workload, untraced, traced) -> dict:
    """Per-layer metrics of the traced rounds, with the ledger printed."""
    from perfbench.ledger import layer_metrics

    values, ledger = layer_metrics(workload, list(traced.values()))
    wall = sum(result.serve_s for result in traced.values())
    values["bench.trace_overhead_ratio"] = sum(
        _scaled_serve(result) for result in traced.values()
    ) / sum(statistics.median(_scaled_serve(r) for r in untraced[seed]) for seed in traced)
    print(f"ledger: self seconds of the traced rounds, serving wall {wall:.4f}s")
    for layer, seconds in sorted(ledger.items(), key=lambda item: -item[1]):
        print(f"  {layer:48s} {seconds:10.4f}s {seconds / wall:7.1%}")
    print(f"  {'sum':48s} {sum(ledger.values()):10.4f}s")
    metrics = {}
    for name, unit in declared_units("per_layer").items():
        metrics[name] = {"value": values[name], "unit": unit}
        print(f"{name:56s} {values[name]:14.6g} {unit}")
    return metrics


def fingerprint(workload) -> dict:
    from repro import obs
    from repro.durability import open_durable_service

    versions = {}
    for module in ("numpy", "scipy"):
        try:
            versions[module] = __import__(module).__version__
        except ImportError:
            versions[module] = "absent"
    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": versions["numpy"],
        "scipy": versions["scipy"],
        "obs_enabled": obs.enabled(),
        "wal_fsync": (
            inspect.signature(open_durable_service).parameters["fsync"].default
            if workload.transport == "tcp"
            else "no WAL"
        ),
        "loadavg_1m": os.getloadavg()[0],
    }


def same_outcome(first, other) -> bool:
    return first.digest == other.digest and first.counts == other.counts


def main(argv=None) -> int:
    from perfbench.workloads import DEFAULT_SEED, WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]
    print(f"workload {workload}")
    print(f"seed {args.seed}  fingerprint {json.dumps(fingerprint(workload))}")

    scratch = pathlib.Path.cwd() / ".perfbench"
    scratch.mkdir(exist_ok=True)
    seeds = [args.seed + STREAM_STRIDE * index for index in range(workload.streams)]
    untraced = {seed: [] for seed in seeds}
    traced = {}
    # Every round runs in a fresh process: the same round's speed differs by
    # up to a quarter from one process to the next, so the rounds must be
    # fresh draws for their per-request best to filter that out.
    deadline = time.monotonic() + DEADLINE_S
    number = 0
    try:
        served, cycles = 0.0, 0
        while cycles < (1 if args.trace else REPEATS) or served < args.seconds:
            for seed in seeds:
                number += 1
                untraced[seed].append(
                    serve_round(scratch, number, deadline, workload, seed, str(scratch))
                )
                served += untraced[seed][-1].serve_s
            cycles += 1
        if args.trace:
            for seed in seeds:
                number += 1
                traced[seed] = serve_round(
                    scratch, number, deadline, workload, seed, str(scratch), True
                )
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    references = json.loads(REFERENCE.read_text())["counts"].get(workload.name, {})
    attempted = failed = 0
    correct = True
    for seed in seeds:
        rounds = untraced[seed] + ([traced[seed]] if seed in traced else [])
        for number, result in enumerate(rounds):
            kind = "traced" if result is traced.get(seed) else "untraced"
            print(
                f"stream {seed} round {number} {kind}: setup {result.setup_s:.3f}s "
                f"serve {result.serve_s:.3f}s updates {result.updates} epochs "
                f"{len(result.epoch_s)} checked {result.checked} failed {result.failed} "
                f"digest {result.digest[:16]}"
            )
            for error in result.errors:
                print(f"  failure: {error}")
            attempted += result.attempted
            failed += result.failed
            correct = correct and result.failed == 0 and result.checked > 0
            if not same_outcome(rounds[0], result):
                correct = False
                print(f"  MISMATCH: answers or exact counts differ from round 0: {result.counts}")
        counts = rounds[0].counts
        print(f"stream {seed} exact counts {json.dumps(counts, sort_keys=True)}")
        if str(seed) in references and args.seed == DEFAULT_SEED:
            verdict = "match" if references[str(seed)] == counts else "DIFFER"
            print(f"stream {seed} reference counts: {verdict}")
    print(f"error_rate {failed / attempted:.6f} ({failed} of {attempted} operations)")

    if args.trace:
        metrics = trace_metrics(workload, untraced, traced)
    else:
        metrics = end_to_end(untraced)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    # The program must come from this checkout's source, never from an
    # installed copy: without ``src/repro`` the benchmark refuses to run.
    try:
        import repro
    except ImportError as error:
        print(f"cannot import the program: {error}", file=sys.stderr)
        sys.exit(2)
    if ROOT / "src" not in pathlib.Path(repro.__file__).resolve().parents:
        print(f"repro imported from {repro.__file__}, not from this checkout", file=sys.stderr)
        sys.exit(2)
    # One CPU for the driver, its server threads and its worker processes.
    # With one request in flight nothing runs in parallel anyway, and on a
    # small VM a wake-up across CPUs costs more, and varies far more from
    # run to run, than the socketpair round trip it ends.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    become_subreaper()
    # A terminated run still stops the round it is waiting for.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    sys.exit(main())
