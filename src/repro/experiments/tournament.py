"""The robustness tournament: attacks × defenses × models, plus transfer.

The paper evaluates attacks against undefended victims (Tables 2-3) and
one defense in isolation (Table 5).  The tournament closes the loop: the
full cross of registry attacks × registry defenses × victim
architectures runs as one :class:`~repro.experiments.grid.RunMatrix`,
and the adversarial documents crafted against each undefended victim are
**replayed** against every other architecture through the engine's
scoring choke point (:meth:`~repro.attacks.engine.AttackEngine.score_batch`),
yielding a transferability matrix.

Determinism: per-document reseeding makes every grid cell bitwise
reproducible at any worker count, and the transfer replay happens in the
parent process over already-crafted documents — so the whole tournament,
transfer matrix included, is worker-count independent.

Black-box defenses (``smoothing``) expose no gradients; gradient-guided
attacks against them fail per-document with structured
:class:`~repro.attacks.base.AttackFailure` records instead of aborting
the grid — the leaderboard's ``failures`` column makes the incompatible
cells visible.

Every cell lands in the context's :class:`~repro.obs.registry.
MetricsRegistry` under ``tournament/<dataset>/<arch>/<defense>/<attack>/``
gauges (transfer cells under ``tournament/transfer/``), and a traced run
writes them into a ``tournament_summary`` cell so
``python -m repro.experiments compare`` gates tournament regressions —
adversarial accuracy after a defense is higher-better, transfer success
lower-better.

Run it with ``python -m repro.experiments tournament`` (see ``--help``).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

from repro.defense.registry import DEFENSES
from repro.experiments.common import ExperimentContext
from repro.experiments.grid import GridRunner, MatrixAttack, MatrixDefense, RunMatrix
from repro.obs.registry import MetricsRegistry
from repro.obs.report import render_tournament_report, write_run_metrics

__all__ = [
    "DEFAULT_ATTACKS",
    "TournamentCell",
    "TransferCell",
    "TournamentResult",
    "matrix",
    "run",
    "render",
    "leaderboard",
    "main",
]

#: the default attack roster — one per optimization family (submodular
#: joint, objective-greedy [19], gradient [18], random floor) so the
#: default tournament stays tractable; ``--attacks`` opens the registry
DEFAULT_ATTACKS: tuple[str, ...] = ("joint", "greedy_word", "gradient_word", "random_word")


@dataclass
class TournamentCell:
    """One executed grid cell, flattened for leaderboards and gauges."""

    dataset: str
    arch: str
    defense: str
    attack: str
    clean_accuracy: float
    adversarial_accuracy: float
    success_rate: float
    mean_queries: float
    n_examples: int
    n_failures: int


@dataclass
class TransferCell:
    """Adversarial docs crafted on ``src_arch``, replayed on ``dst_arch``.

    ``transfer_rate`` is the fraction of *successful* source-attack
    documents that also flip the destination victim; ``n_docs`` how many
    such documents the source cell produced.
    """

    dataset: str
    attack: str
    src_arch: str
    dst_arch: str
    n_docs: int
    transfer_rate: float


@dataclass
class TournamentResult:
    cells: list[TournamentCell]
    transfers: list[TransferCell]


def matrix(
    max_examples: int = 12,
    datasets: tuple[str, ...] = ("yelp",),
    models: tuple[str, ...] = ("wcnn", "lstm"),
    attacks: tuple[str, ...] = DEFAULT_ATTACKS,
    defenses: tuple[str, ...] | None = None,
) -> RunMatrix:
    """The tournament grid: every attack × defense × victim, declared.

    ``defenses=None`` crosses the whole defense registry (sorted with
    the undefended control first).
    """
    if defenses is None:
        defenses = tuple(sorted(DEFENSES, key=lambda n: (n != "none", n)))
    unknown = [d for d in defenses if d not in DEFENSES]
    if unknown:
        raise KeyError(f"unknown defenses {unknown}; choose from {sorted(DEFENSES)}")
    return RunMatrix(
        name="tournament",
        datasets=datasets,
        models=models,
        attacks=tuple(MatrixAttack.of(a) for a in attacks),
        defenses=tuple(MatrixDefense.of(d) for d in defenses),
        max_examples=max_examples,
    )


def _transfer_matrix(
    context: ExperimentContext,
    frame,
    datasets: tuple[str, ...],
    models: tuple[str, ...],
    attacks: tuple[str, ...],
) -> list[TransferCell]:
    """Replay undefended-cell adversarial docs across architectures.

    Runs in the parent process: the documents are already crafted, so
    replay is a handful of scoring forwards through a fresh engine on
    each destination victim — deterministic at any worker count.
    """
    transfers: list[TransferCell] = []
    for dataset in datasets:
        for attack_name in attacks:
            for src in models:
                source = frame.get(
                    dataset=dataset, arch=src, defense="none", attack=attack_name
                ).evaluation
                wins = [r for r in source.results if r.success]
                for dst in models:
                    victim = context.model(dataset, dst)
                    engine = context.make_attack(attack_name, victim, dataset)
                    flipped = 0
                    by_target: dict[int, list] = {}
                    for r in wins:
                        by_target.setdefault(r.target_label, []).append(r)
                    for target, results in sorted(by_target.items()):
                        scores = engine.score_batch(
                            [list(r.adversarial) for r in results], target
                        )
                        flipped += sum(1 for s in scores if s > 0.5)
                    transfers.append(
                        TransferCell(
                            dataset=dataset,
                            attack=attack_name,
                            src_arch=src,
                            dst_arch=dst,
                            n_docs=len(wins),
                            transfer_rate=flipped / len(wins) if wins else 0.0,
                        )
                    )
    return transfers


def run(
    context: ExperimentContext,
    max_examples: int = 12,
    datasets: tuple[str, ...] = ("yelp",),
    models: tuple[str, ...] = ("wcnn", "lstm"),
    attacks: tuple[str, ...] = DEFAULT_ATTACKS,
    defenses: tuple[str, ...] | None = None,
    transfer: bool = True,
) -> TournamentResult:
    """Run the full tournament and publish its standing gauges.

    Per-cell journals (``REPRO_JOURNAL_DIR``) make an interrupted
    tournament resumable mid-grid; per-cell trace subdirectories
    (``REPRO_TRACE_DIR``) carry each cell's metrics, plus a
    ``tournament_summary`` cell holding every leaderboard gauge for
    ``compare`` to gate.
    """
    grid = matrix(max_examples, datasets, models, attacks, defenses)
    cells: list[TournamentCell] = []
    gauges = MetricsRegistry()

    def publish(result):
        ev = result.evaluation
        cell = TournamentCell(
            dataset=result.cell.dataset,
            arch=result.cell.arch,
            defense=result.cell.defense.tag_label,
            attack=result.cell.attack.tag_label,
            clean_accuracy=ev.clean_accuracy,
            adversarial_accuracy=ev.adversarial_accuracy,
            success_rate=ev.success_rate,
            mean_queries=ev.mean_queries,
            n_examples=ev.n_examples,
            n_failures=ev.n_failures,
        )
        cells.append(cell)
        prefix = f"tournament/{cell.dataset}/{cell.arch}/{cell.defense}/{cell.attack}"
        for registry in (context.metrics, gauges):
            registry.set_gauge(f"{prefix}/clean_accuracy", cell.clean_accuracy)
            registry.set_gauge(
                f"{prefix}/adversarial_accuracy", cell.adversarial_accuracy
            )
            registry.set_gauge(f"{prefix}/success_rate", cell.success_rate)
            registry.set_gauge(f"{prefix}/mean_queries", cell.mean_queries)
            registry.set_gauge(f"{prefix}/failures", float(cell.n_failures))

    frame = GridRunner(context).run(grid, on_cell=publish)

    transfers: list[TransferCell] = []
    if transfer and "none" in {d.tag_label for d in grid.defenses} and len(models) > 1:
        attack_labels = tuple(a.tag_label for a in grid.attacks)
        transfers = _transfer_matrix(context, frame, datasets, models, attack_labels)
        for t in transfers:
            name = (
                f"tournament/transfer/{t.dataset}/{t.attack}/"
                f"{t.src_arch}_to_{t.dst_arch}/success_rate"
            )
            for registry in (context.metrics, gauges):
                registry.set_gauge(name, t.transfer_rate)

    # a traced tournament persists its gauges as one summary cell, so
    # `compare` sees them even though they are set after each cell's own
    # metrics.json was written
    summary_dir = context.trace_path("tournament_summary")
    if summary_dir is not None:
        write_run_metrics(summary_dir, gauges.snapshot())

    return TournamentResult(cells=cells, transfers=transfers)


def render(result: TournamentResult) -> str:
    """The CLI artifact view (markdown — same content as the leaderboard)."""
    return leaderboard(result)


def leaderboard(result: TournamentResult) -> str:
    """The standing markdown leaderboard, via the obs/report layer."""
    return render_tournament_report(
        [asdict(c) for c in result.cells], [asdict(t) for t in result.transfers]
    )


def main() -> TournamentResult:  # pragma: no cover - CLI convenience
    context = ExperimentContext()
    result = run(context)
    print(leaderboard(result))
    return result


if __name__ == "__main__":  # pragma: no cover
    main()
