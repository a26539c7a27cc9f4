"""End-to-end attack benchmark: Table 2 serial and pooled, and a defended
tournament slice, timed from outside through the public drivers.

One run measures one workload for ``--seconds``: it repeats passes (fresh
interpreter and context, timed set-up, timed driver call) until the time
is spent; NOTES.md defines each metric.  ``--trace 1`` alternates
untraced and traced passes on the same documents and reports the layer
ledger instead.  The last stdout
line is the result::

    {"correct": true, "attempted": 348, "failed": 0, "metrics": {...}}

Usage, from the repository root::

    python3 e2ebench/run.py --workload table2-serial --seed 0 --seconds 30 --trace 0
    python3 e2ebench/run.py --all            # every workload, then BENCHMARK.json
    python3 e2ebench/run.py --freeze-reference

The benchmark sets no ``REPRO_*`` or BLAS-thread variable and refuses to
run if a ``REPRO_*`` variable is set, so it measures the defaults a user
gets.  Victims are trained once into ``e2ebench/.state`` (untimed).
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent

RUN_SECONDS = 50
#: the workloads BENCHMARK.json lists.  ``table2-pool2`` stays runnable by
#: name but is not listed: unpinned BLAS threads in its two workers make
#: one draw take anywhere from 14 s to 28 s, too wide a spread to bound
#: within a run's time (see NOTES.md)
LISTED_WORKLOADS = ("table2-serial", "tournament-slice")
#: set-ups per run, at least; their median is ``setup_s``
MIN_SETUPS = 5
#: wall-clock limit on one run's passes, so a run ends well inside 180 s
RUN_DEADLINE = 150.0
#: self times plus unattributed time must equal the traced wall time within
LEDGER_TOLERANCE = 0.02

#: (name, unit, better, bound) of every metric a user of the drivers sees.
#: Timings spread by up to 12% over seeds on a shared 2-CPU machine, so
#: their bounds sit at the 0.25 maximum.  Every run sweeps the same
#: documents, so the outcome fractions do not move with the seed.
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("wall_s", "s", "lower", 0.25),
    ("docs_per_s", "1/s", "higher", 0.25),
    ("doc_p50_ms", "ms", "lower", 0.25),
    ("doc_p90_ms", "ms", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
    ("success_frac", "ratio", "higher", 0.05),
    ("queries_per_doc", "count", "lower", 0.1),
    ("completed_frac", "ratio", "higher", 0.05),
)

#: (name, unit, better) of the traced run's layer ledger
PER_LAYER = (
    ("models.predict_proba.calls", "count", "lower"),
    ("models.predict_proba.rows", "count", "lower"),
    ("models.predict_proba.wcnn.self_s", "s", "lower"),
    ("models.predict_proba.lstm.self_s", "s", "lower"),
    ("models.embedding_gradient.calls", "count", "lower"),
    ("models.embedding_gradient.self_s", "s", "lower"),
    ("text.encode_batch.self_s", "s", "lower"),
    ("text.word_similarity.calls", "count", "lower"),
    ("text.ngram_lm.self_s", "s", "lower"),
    ("attacks.attack.calls", "count", "lower"),
    ("attacks.attack.self_s", "s", "lower"),
    ("attacks.paraphrase.word.self_s", "s", "lower"),
    ("attacks.paraphrase.sentence.self_s", "s", "lower"),
    ("attacks.paraphrase.word.memo_hit_ratio", "ratio", "higher"),
    ("attacks.paraphrase.word.candidate_calls", "count", "lower"),
    ("attacks.score_cache.hit_ratio", "ratio", "higher"),
    ("attacks.queries", "count", "lower"),
    ("defense.smoothing.calls", "count", "lower"),
    ("defense.smoothing.self_s", "s", "lower"),
    ("defense.smoothing.rows_per_call", "rows", "higher"),
    ("eval.evaluate_attack.self_s", "s", "lower"),
    ("eval.runner.s", "s", "lower"),
    ("eval.pool.busy_frac", "ratio", "higher"),
    ("eval.pool.overhead_s", "s", "lower"),
    ("eval.failed_frac", "ratio", "lower"),
    ("experiments.grid.self_s", "s", "lower"),
    ("experiments.post_grid_s", "s", "lower"),
    ("trace.wall_s", "s", "lower"),
    ("trace.unattributed_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
)


def spec() -> dict:
    """The ``BENCHMARK.json`` contents, from the definitions in this package."""
    from workloads import WORKLOADS

    return {
        "command": ["python3", "e2ebench/run.py"],
        "paths": ["e2ebench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": WORKLOADS[n].why} for n in LISTED_WORKLOADS],
        "end_to_end": [
            {"name": n, "unit": u, "better": b, "bound": bound} for n, u, b, bound in END_TO_END
        ],
        "per_layer": [{"name": n, "unit": u, "better": b} for n, u, b in PER_LAYER],
    }


def median(values) -> float:
    return float(statistics.median(values))


def quantile(values, q: int) -> float:
    """The q-th percentile (q in 1..99) of ``values``."""
    return float(statistics.quantiles(values, n=100)[q - 1])


def peak_rss_mb() -> float:
    """This process's peak RSS plus that of its largest reaped child (Linux KiB)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024.0


def fits_another(start: float, done: int, seconds: float, passes: int = 1) -> bool:
    """Whether ``passes`` more passes, at the mean pass length so far, end
    within ``seconds``."""
    elapsed = time.monotonic() - start
    return elapsed * (1 + passes / done) <= seconds


# -- one pass per process ---------------------------------------------------------
def pass_child(name: str, seed: int, block: int, traced: bool, setup_only: bool) -> int:
    """Run one pass (or one set-up) in this fresh process; print it as JSON."""
    from dataclasses import asdict

    from ledger import Ledger
    from workloads import WORKLOADS, run_pass, setup

    workload = WORKLOADS[name]
    if setup_only:
        print(json.dumps({"setup_s": setup(workload)[1]}))
        return 0
    ledger = Ledger() if traced else None
    out, _ = run_pass(workload, seed, block, ledger=ledger)
    record = asdict(out)
    record["peak_rss_mb"] = peak_rss_mb()
    if ledger is not None:
        record["ledger"] = ledger_metrics(workload, ledger, out)
        record["ledger_closes"] = ledger_closes(ledger, out.wall_s)
        record["ledger_installed"] = ledger.installed
    print(json.dumps(record))
    return 0


def child(
    name: str, seed: int, block: int, deadline: float, traced=False, setup_only=False
) -> dict:
    """One pass in a fresh interpreter, so every pass pays what a user's
    run pays (cold caches, imports) and no pass warms the next."""
    cmd = [
        sys.executable, str(Path(__file__)), "--workload", name, "--seed", str(seed),
        "--pass-block", str(block),
    ]
    if traced:
        cmd.append("--pass-traced")
    if setup_only:
        cmd.append("--pass-setup-only")
    # its own session, so a timeout also takes down the pass's pool workers
    proc = subprocess.Popen(
        cmd,
        cwd=ROOT,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        start_new_session=True,
    )
    try:
        stdout, stderr = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise RuntimeError(f"{name} block {block} ran past the run's deadline") from None
    if proc.returncode != 0:
        sys.stderr.write(stderr)
        raise RuntimeError(f"{name} block {block} exited with {proc.returncode}")
    return json.loads(stdout.strip().splitlines()[-1])


def measure(name: str, seed: int, seconds: float, deadline: float) -> tuple[dict, list[dict]]:
    """Whole sweeps of untraced passes, as many as fit in ``seconds`` and at
    least one; returns (metrics, passes)."""
    from workloads import WORKLOADS

    blocks = WORKLOADS[name].blocks
    passes: list[dict] = []
    start = time.monotonic()
    while not passes or fits_another(start, len(passes), seconds, blocks):
        for _ in range(blocks):
            passes.append(child(name, seed, len(passes), deadline))
    setups = [p["setup_s"] for p in passes]
    while len(setups) < MIN_SETUPS:
        setups.append(child(name, seed, 0, deadline, setup_only=True)["setup_s"])
    attempted = sum(p["attempted"] for p in passes)
    driver_s = sum(p["wall_s"] for p in passes)
    walls = [w for p in passes for w in p["doc_walls"]]
    values = {
        "setup_s": median(setups),
        # the passes attack disjoint blocks of one permutation, so means over
        # them cover the run's documents evenly; the driver takes the median
        # over runs
        "wall_s": driver_s / len(passes),
        "docs_per_s": attempted / driver_s,
        "doc_p50_ms": 1e3 * median(walls),
        "doc_p90_ms": 1e3 * quantile(walls, 90),
        "peak_rss_mb": max(p["peak_rss_mb"] for p in passes),
        "success_frac": sum(p["successes"] for p in passes) / attempted,
        "queries_per_doc": sum(p["queries"] for p in passes) / attempted,
        "completed_frac": 1.0 - sum(p["attack_failures"] for p in passes) / attempted,
    }
    units = {n: u for n, u, _, _ in END_TO_END}
    return {n: {"value": v, "unit": units[n]} for n, v in values.items()}, passes


# -- traced runs -----------------------------------------------------------------
def ledger_metrics(workload, ledger, traced) -> dict:
    """The per-layer numbers of one traced pass, read from its ledger."""
    calls, self_s, counts = ledger.calls, ledger.self_s, ledger.counts
    predict_calls = sum(v for k, v in calls.items() if k.startswith("models.predict_proba."))
    candidate_calls = counts["attacks.paraphrase.word.candidate_calls"]
    smoothing_calls = calls["defense.smoothing"]
    runner_s = ledger.total_s["eval.runner"]
    doc_s = sum(traced.doc_walls)
    n_workers = workload.n_workers
    return {
        "models.predict_proba.calls": predict_calls,
        "models.predict_proba.rows": counts["models.predict_proba.rows"],
        "models.predict_proba.wcnn.self_s": self_s["models.predict_proba.wcnn"],
        "models.predict_proba.lstm.self_s": self_s["models.predict_proba.lstm"],
        "models.embedding_gradient.calls": calls["models.embedding_gradient"],
        "models.embedding_gradient.self_s": self_s["models.embedding_gradient"],
        "text.encode_batch.self_s": self_s["text.encode_batch"],
        "text.word_similarity.calls": calls["text.word_similarity"],
        "text.ngram_lm.self_s": self_s["text.ngram_lm"],
        "attacks.attack.calls": calls["attacks.attack"],
        "attacks.attack.self_s": self_s["attacks.attack"],
        "attacks.paraphrase.word.self_s": self_s["attacks.paraphrase.word"],
        "attacks.paraphrase.sentence.self_s": self_s["attacks.paraphrase.sentence"],
        "attacks.paraphrase.word.memo_hit_ratio": (
            1.0 - counts["attacks.paraphrase.word.memo_misses"] / candidate_calls
            if candidate_calls
            else 0.0
        ),
        "attacks.paraphrase.word.candidate_calls": candidate_calls,
        "attacks.score_cache.hit_ratio": (
            traced.cache_hits / (traced.cache_hits + traced.queries)
            if traced.queries + traced.cache_hits
            else 0.0
        ),
        "attacks.queries": traced.queries,
        "defense.smoothing.calls": smoothing_calls,
        "defense.smoothing.self_s": self_s["defense.smoothing"],
        "defense.smoothing.rows_per_call": (
            counts["defense.smoothing.rows"] / smoothing_calls if smoothing_calls else 0.0
        ),
        "eval.evaluate_attack.self_s": self_s["eval.evaluate_attack"],
        "eval.runner.s": runner_s,
        "eval.pool.busy_frac": doc_s / (n_workers * runner_s) if runner_s else 0.0,
        "eval.pool.overhead_s": runner_s - doc_s / n_workers,
        "eval.failed_frac": traced.attack_failures / traced.attempted,
        "experiments.grid.self_s": self_s["experiments.grid"],
        "experiments.post_grid_s": traced.t_end - ledger.last_end["experiments.grid"],
        "trace.wall_s": traced.wall_s,
        "trace.unattributed_s": traced.wall_s - ledger.root_s,
    }


def ledger_closes(ledger, wall_s: float) -> bool:
    """Self times plus unattributed time equal the traced wall time."""
    total = sum(ledger.self_s.values()) + (wall_s - ledger.root_s)
    return abs(total - wall_s) <= LEDGER_TOLERANCE * wall_s


def measure_traced(
    name: str, seed: int, seconds: float, deadline: float
) -> tuple[dict, list[dict], list[str]]:
    """Untraced/traced pass pairs on the same blocks within ``seconds``."""
    per_pair, passes, problems = [], [], []
    start = time.monotonic()
    while not per_pair or fits_another(start, len(per_pair), seconds):
        block = len(per_pair)
        untraced = child(name, seed, block, deadline)
        traced = child(name, seed, block, deadline, traced=True)
        draw = traced["draw"]
        if traced["ledger_installed"]:
            problems.append("ledger wrappers left installed after the traced pass")
        if traced["digest"] != untraced["digest"]:
            problems.append(f"draw {draw}: traced and untraced digests differ")
        if not traced["ledger_closes"]:
            problems.append(f"draw {draw}: self times do not add up to the traced wall time")
        layers = dict(traced["ledger"])
        layers["trace.overhead_s"] = traced["wall_s"] - untraced["wall_s"]
        per_pair.append(layers)
        passes += [untraced, traced]
    units = {n: u for n, u, _ in PER_LAYER}
    metrics = {
        n: {"value": median([m[n] for m in per_pair]), "unit": units[n]} for n in units
    }
    return metrics, passes, problems


# -- entry points -------------------------------------------------------------
def run_workload(name: str, seed: int, seconds: float, trace: bool) -> int:
    import envinfo
    from workloads import STATE_DIR, WORKLOADS, check_digests, prepare

    env = envinfo.environment(ROOT)
    print(json.dumps({"env": env}, sort_keys=True), flush=True)
    prepare(list(WORKLOADS.values()))
    deadline = time.monotonic() + RUN_DEADLINE
    if trace:
        metrics, passes, problems = measure_traced(name, seed, seconds, deadline)
    else:
        metrics, passes = measure(name, seed, seconds, deadline)
        problems = []
    problems += [u for p in passes for u in p["unexpected"]]
    problems += check_digests(WORKLOADS[name], [(p["draw"], p["digest"]) for p in passes])
    correct = not problems
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(len(p["unexpected"]) for p in passes)
    record = {
        "workload": name,
        "seed": seed,
        "trace": int(trace),
        "env": env,
        "problems": problems,
        "passes": [{k: v for k, v in p.items() if k != "doc_walls"} for p in passes],
        "metrics": metrics,
    }
    results = STATE_DIR / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{name}_seed{seed}_trace{int(trace)}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True)
    )
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": failed if correct else max(failed, 1),
                # a run that fails its output check yields no number
                "metrics": metrics if correct else {},
            }
        ),
        flush=True,
    )
    return 0 if correct else 1


def run_all(seed: int, seconds: float) -> int:
    """Every workload in its own process; print every metric; write the spec."""
    from workloads import WORKLOADS

    status = 0
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__)), "--workload", name, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", "0"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            check=False,
        )
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1]) if lines else {}
        print(f"== {name}  correct={result.get('correct')}  attempted={result.get('attempted')}"
              f"  failed={result.get('failed')}")
        for metric, entry in result.get("metrics", {}).items():
            print(f"  {metric:<18} {entry['value']:>14.6g} {entry['unit']}")
        if proc.returncode != 0:
            status = 1
            sys.stderr.write(proc.stderr)
    (ROOT / "BENCHMARK.json").write_text(json.dumps(spec(), indent=2) + "\n")
    return status


def freeze_reference() -> int:
    """Merge this checkout's recorded digests into the committed reference."""
    from workloads import REFERENCE_FILE, STATE_DIR, load_json

    reference = load_json(REFERENCE_FILE)
    for grid, table in load_json(STATE_DIR / "digests.json").items():
        merged = reference.setdefault(grid, {})
        for draw, value in table.items():
            if merged.setdefault(draw, value) != value:
                print(f"{grid} draw {draw}: digest disagrees with the reference",
                      file=sys.stderr)
                return 1
    REFERENCE_FILE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--all", action="store_true", help="run every workload")
    parser.add_argument("--freeze-reference", action="store_true")
    # internal: one pass in this process (see child())
    parser.add_argument("--pass-block", type=int, help=argparse.SUPPRESS)
    parser.add_argument("--pass-traced", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--pass-setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    import envinfo

    if envinfo.repro_vars():
        print(f"refusing to run with REPRO_* set: {sorted(envinfo.repro_vars())}",
              file=sys.stderr)
        return 2
    if not (ROOT / "src" / "repro").is_dir():
        print(f"no repro sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from workloads import WORKLOADS

    if args.freeze_reference:
        return freeze_reference()
    if args.all:
        return run_all(args.seed, args.seconds)
    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {sorted(WORKLOADS)}")
    if args.pass_block is not None:
        return pass_child(
            args.workload, args.seed, args.pass_block, args.pass_traced, args.pass_setup_only
        )
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
