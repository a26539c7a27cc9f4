"""The three workloads, one pass of each, and the checks on its output.

A *pass* is what a user runs once: build a fresh experiment context on
the repository's default settings (victims load from the benchmark's own
cache), then call the public driver — ``table2.run`` + ``render``, or
``tournament.run`` + ``leaderboard`` — and time it.

The seed deals the documents into passes.  A workload attacks a fixed
population, the first ``blocks * max_examples`` test documents of each
dataset.  The seed permutes it into ``blocks`` blocks, and pass ``k`` of a
run attacks block ``k mod blocks`` in every cell.  A run measures whole
sweeps of the population, so its totals depend on the machine, not on
which documents a seed happened to draw; per-pass figures do depend on
the seed.  Victims, corpora and the grid stay those of the
paper configuration, so a new seed needs no training.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import time
import zlib
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from repro.data import TextDataset
from repro.experiments import table2, tournament
from repro.experiments.common import ExperimentContext
from repro.experiments.grid import GridRunner

BENCH_DIR = Path(__file__).resolve().parent
#: run-time state the benchmark owns: trained victims, the digest store
STATE_DIR = BENCH_DIR / ".state"
REFERENCE_FILE = BENCH_DIR / "reference.json"

TABLE2_DATASETS = ("news", "trec07p", "yelp")
MODELS = ("wcnn", "lstm")
TOURNAMENT_ATTACKS = ("joint", "greedy_word")
TOURNAMENT_DEFENSES = ("none", "smoothing")
#: (defense, attack) cells where documents may fail, and how: smoothing
#: exposes no gradient, so the joint attack fails once it needs one
EXPECTED_FAILURES = {("smoothing", "joint"): "NotImplementedError"}


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    #: driver: "table2" or "tournament"
    family: str
    n_workers: int
    #: documents per cell and pass
    max_examples: int
    #: passes in one sweep of the population; sized so that a sweep takes
    #: about the default --seconds on a 2-CPU machine
    blocks: int
    datasets: tuple[str, ...]

    @property
    def grid(self) -> str:
        """Workloads on one grid must produce identical outputs per draw."""
        return f"{self.family}-{self.max_examples}x{self.blocks}"


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "table2-serial",
            "full Table 2 grid at 1 worker: scoring, gradients, search bookkeeping",
            "table2",
            1,
            11,
            5,
            TABLE2_DATASETS,
        ),
        Workload(
            "table2-pool2",
            "same grid at 2 forked workers: pool fork/IPC and BLAS threads contending",
            "table2",
            2,
            11,
            5,
            TABLE2_DATASETS,
        ),
        Workload(
            "tournament-slice",
            "yelp tournament with smoothing defense and transfer matrix; exercises failures",
            "tournament",
            1,
            15,
            3,
            ("yelp",),
        ),
    )
}


@dataclass
class PassOutput:
    """One timed driver call and everything the metrics need from it."""

    #: "<seed>.<block>"
    draw: str
    setup_s: float
    wall_s: float
    digest: str
    attempted: int = 0
    successes: int = 0
    queries: int = 0
    cache_hits: int = 0
    attack_failures: int = 0
    unexpected: list[str] = field(default_factory=list)
    doc_walls: list[float] = field(default_factory=list)
    #: perf_counter when the driver call returned
    t_end: float = 0.0


class BlockContext(ExperimentContext):
    """The default context, with every test split cut down to one block of
    the workload's population, dealt by ``seed``."""

    def __init__(self, workload: Workload, seed: int, block: int) -> None:
        super().__init__(cache_dir=STATE_DIR, n_workers=workload.n_workers)
        self.workload, self.seed, self.block = workload, seed, block % workload.blocks
        self._blocks: dict[str, TextDataset] = {}

    def dataset(self, name: str) -> TextDataset:
        if name not in self._blocks:
            full = super().dataset(name)
            size = self.workload.max_examples
            population = full.test[: self.workload.blocks * size]
            rng = np.random.default_rng([self.seed, zlib.crc32(name.encode())])
            order = rng.permutation(len(population))
            picked = sorted(int(i) for i in order[self.block * size : (self.block + 1) * size])
            self._blocks[name] = TextDataset(
                full.name, full.class_names, full.train, [population[i] for i in picked]
            )
        return self._blocks[name]


def prepare(workloads) -> None:
    """Train (or find cached) every victim the workloads attack.  Untimed."""
    context = ExperimentContext(cache_dir=STATE_DIR)
    for dataset in sorted({d for w in workloads for d in w.datasets}):
        for arch in MODELS:
            context.model(dataset, arch)


def setup(workload: Workload, seed: int = 0, block: int = 0):
    """The warm set-up a user pays per run: context, corpora, vocabulary,
    embeddings, LM, cached victims and paraphrasers.  Returns (context, s)."""
    start = time.perf_counter()
    context = BlockContext(workload, seed, block)
    for dataset in workload.datasets:
        for arch in MODELS:
            context.model(dataset, arch)
        context.word_paraphraser(dataset)
        context.sentence_paraphraser(dataset)
    return context, time.perf_counter() - start


@contextlib.contextmanager
def captured_frames(frames: list):
    """Keep every ``ResultFrame`` the drivers' ``GridRunner.run`` returns;
    the drivers reduce it to rows, and the checks need every document."""
    original = GridRunner.__dict__["run"]

    def run(self, *args, **kwargs):
        frame = original(self, *args, **kwargs)
        frames.append(frame)
        return frame

    GridRunner.run = run
    try:
        yield
    finally:
        GridRunner.run = original


def call_driver(workload: Workload, context) -> str:
    """The user-visible driver call: grid, row shaping, rendered artifact."""
    if workload.family == "table2":
        return table2.render(table2.run(context, max_examples=workload.max_examples))
    result = tournament.run(
        context,
        max_examples=workload.max_examples,
        datasets=workload.datasets,
        models=MODELS,
        attacks=TOURNAMENT_ATTACKS,
        defenses=TOURNAMENT_DEFENSES,
    )
    return tournament.leaderboard(result)


def digest(rendered: str, frame) -> str:
    """SHA-256 over the rendered artifact and, per cell, every adversarial
    document, its query count and verdict, and every failure."""
    h = hashlib.sha256(rendered.encode())
    for cell in sorted(frame, key=lambda c: c.tag):
        h.update(f"\n#{cell.tag}".encode())
        for r in cell.evaluation.results:
            h.update(f"\n{' '.join(r.adversarial)}|{r.n_queries}|{int(r.success)}".encode())
        for f in cell.evaluation.failures:
            h.update(f"\n!{f.doc_index}|{f.error_type}".encode())
    return h.hexdigest()


def run_pass(
    workload: Workload, seed: int, block: int, ledger=None
) -> tuple[PassOutput, object]:
    """Set up, drive and digest one pass.  With ``ledger``, its wrappers
    are installed for the driver call only and removed afterwards."""
    from ledger import install

    context, setup_s = setup(workload, seed, block)
    frames: list = []
    with captured_frames(frames):
        try:
            if ledger is not None:
                install(ledger)
            start = time.perf_counter()
            rendered = call_driver(workload, context)
            end = time.perf_counter()
        finally:
            if ledger is not None:
                ledger.remove()
    frame = frames[-1]
    out = PassOutput(
        draw=f"{seed}.{context.block}",
        setup_s=setup_s,
        wall_s=end - start,
        digest=digest(rendered, frame),
        t_end=end,
    )
    for cell in frame:
        summarize_cell(out, cell)
    return out, frame


def summarize_cell(out: PassOutput, cell) -> None:
    """Fold one cell into the pass totals and check its outcomes."""
    ev = cell.evaluation
    coords = (cell.cell.defense.tag_label, cell.cell.attack.tag_label)
    expected_error = EXPECTED_FAILURES.get(coords)
    out.attempted += len(ev.results) + len(ev.failures)
    out.attack_failures += len(ev.failures)
    for failure in ev.failures:
        if failure.error_type != expected_error:
            out.unexpected.append(
                f"{cell.tag}: doc {failure.doc_index} failed with {failure.error_type}"
            )
    victim = cell.victim
    for r in ev.results:
        out.successes += int(r.success)
        out.queries += r.n_queries
        out.cache_hits += r.n_cache_hits
        out.doc_walls.append(r.wall_time)
        if r.n_queries < 1:
            out.unexpected.append(f"{cell.tag}: a result paid no query")
        # the verdict must be the victim's: rescore the adversarial document
        # exactly as Attack.attack does
        prob = victim.predict_proba([list(r.adversarial)])[0]
        if abs(float(prob[r.target_label]) - r.adversarial_prob) > 1e-9 or bool(
            prob.argmax() == r.target_label
        ) != r.success:
            out.unexpected.append(f"{cell.tag}: rescored verdict differs from the result")


# -- digest bookkeeping ----------------------------------------------------
def load_json(path: Path) -> dict:
    return json.loads(path.read_text()) if path.exists() else {}


def check_digests(workload: Workload, passes: list[tuple[str, str]]) -> list[str]:
    """Compare each pass with the committed reference and with every
    earlier pass of the same grid and draw in this checkout, then
    record the new digests.  Returns the mismatches."""
    reference = load_json(REFERENCE_FILE).get(workload.grid, {})
    store_path = STATE_DIR / "digests.json"
    store = load_json(store_path)
    seen = store.setdefault(workload.grid, {})
    problems = []
    for draw, value in passes:
        for source, table in (("reference", reference), ("earlier pass", seen)):
            if draw in table and table[draw] != value:
                problems.append(f"draw {draw}: digest differs from the {source}")
        seen.setdefault(draw, value)
    STATE_DIR.mkdir(parents=True, exist_ok=True)
    store_path.write_text(json.dumps(store, indent=1, sort_keys=True))
    return problems
