"""Command-line entry point: regenerate the paper's tables and figures.

Usage::

    python -m repro.experiments table3            # one artifact
    python -m repro.experiments table2 figure4    # several
    python -m repro.experiments all               # everything
    python -m repro.experiments table3 --save results/   # + JSON/CSV dumps
    python -m repro.experiments report runs/      # render a traced run
    python -m repro.experiments list-attacks      # registry: source x strategy
    python -m repro.experiments list-defenses     # defense registry
    python -m repro.experiments frontier          # success vs query-budget leaderboard
    python -m repro.experiments tournament        # attacks x defenses x models
    python -m repro.experiments compare a/ b/     # regression gates, nonzero on fail

Results print as aligned text tables; trained victims are cached under
``.cache/`` so repeated runs are fast.  Setting ``REPRO_TRACE_DIR`` (or
``ExperimentContext(trace_dir=...)``) records per-document attack traces
and run metrics, which ``report`` renders as markdown and ``compare``
diffs against another run.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

from repro.attacks import ATTACKS
from repro.defense import DEFENSES
from repro.eval.artifacts import ResultsWriter
from repro.experiments import (
    appendix_examples,
    examples_gallery,
    figure4,
    frontier,
    table2,
    table3,
    table4,
    table5,
    table6,
    tournament,
)
from repro.experiments.common import ExperimentContext
from repro.obs.compare import DEFAULT_REL_TOL, compare_runs, render_compare_report
from repro.obs.report import render_phase_table, render_report
from repro.obs.trace import validate_run_dir

_ARTIFACTS = {
    "table2": (table2.run, table2.render),
    "table3": (table3.run, table3.render),
    "table4": (table4.run, table4.render),
    "table5": (table5.run, table5.render),
    "table6": (table6.run, table6.render),
    "figure4": (figure4.run, figure4.render),
    "figure1": (
        examples_gallery.run,
        lambda entries: "\n\n".join(examples_gallery.render_entry(e) for e in entries),
    ),
    "appendix": (appendix_examples.run, appendix_examples.render),
}

# figure1 entries hold AttackResult objects; only tabular artifacts are saved
_SAVEABLE = {"table2", "table3", "table4", "table5", "table6", "figure4"}


def _run_dir_error(run_dir: str) -> str | None:
    """One-line diagnosis of an unusable run directory, or ``None``.

    ``report``/``compare`` exit nonzero with this message instead of
    tracebacking on a typo'd or artifact-less path.
    """
    path = Path(run_dir)
    if not path.is_dir():
        return f"run directory {run_dir!r} does not exist"
    has_artifacts = (
        next(path.rglob("metrics.json"), None) is not None
        or next(path.rglob("trace-*.jsonl"), None) is not None
    )
    if not has_artifacts:
        return (
            f"run directory {run_dir!r} holds no run artifacts "
            f"(metrics.json or trace-*.jsonl) — was the run "
            f"traced via REPRO_TRACE_DIR / trace_dir?"
        )
    return None


def _report_main(argv: list[str]) -> int:
    """``report <run_dir>``: render the markdown digest of a traced run."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments report",
        description="Render a markdown report for a traced attack run.",
    )
    parser.add_argument("run_dir", help="directory passed as trace_dir / REPRO_TRACE_DIR")
    parser.add_argument(
        "--validate",
        action="store_true",
        help="schema-validate every trace line before rendering",
    )
    parser.add_argument(
        "--out",
        metavar="FILE",
        default=None,
        help="write the markdown to FILE instead of stdout",
    )
    args = parser.parse_args(argv)
    error = _run_dir_error(args.run_dir)
    if error is not None:
        print(f"error: {error}", file=sys.stderr)
        return 2
    if args.validate:
        checked = validate_run_dir(args.run_dir)
        print(f"[validated {checked} trace lines]", file=sys.stderr)
    markdown = render_report(args.run_dir)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(markdown + "\n")
        print(f"[report written to {args.out}]", file=sys.stderr)
    else:
        print(markdown)
    return 0


def _compare_main(argv: list[str]) -> int:
    """``compare <run_a> <run_b>``: regression gates between two runs."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments compare",
        description="Diff two traced run directories (metrics.json, "
        "BENCH_*.json) under relative-tolerance regression gates; exits 1 "
        "when the candidate run regressed.",
    )
    parser.add_argument("run_a", help="baseline run directory")
    parser.add_argument("run_b", help="candidate run directory")
    parser.add_argument(
        "--rel-tol",
        type=float,
        default=DEFAULT_REL_TOL,
        help=f"relative tolerance for every gated metric (default {DEFAULT_REL_TOL})",
    )
    parser.add_argument(
        "--gate",
        action="append",
        metavar="NAME=TOL",
        default=[],
        help="per-metric tolerance override (repeatable; TOL >= 1 disables "
        "that metric's gate)",
    )
    parser.add_argument(
        "--out",
        metavar="FILE",
        default=None,
        help="write the markdown report to FILE instead of stdout",
    )
    args = parser.parse_args(argv)
    for run_dir in (args.run_a, args.run_b):
        error = _run_dir_error(run_dir)
        if error is not None:
            print(f"error: {error}", file=sys.stderr)
            return 2
    overrides: dict[str, float] = {}
    for spec in args.gate:
        name, sep, tol = spec.partition("=")
        try:
            overrides[name] = float(tol)
        except ValueError:
            sep = ""
        if not sep or not name:
            parser.error(f"--gate expects NAME=TOL, got {spec!r}")
    comparison = compare_runs(
        args.run_a, args.run_b, rel_tol=args.rel_tol, gate_overrides=overrides
    )
    markdown = render_compare_report(comparison)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(markdown + "\n")
        print(f"[comparison written to {args.out}]", file=sys.stderr)
    else:
        print(markdown)
    if not comparison.ok:
        names = ", ".join(d.name for d in comparison.regressions)
        print(f"[{len(comparison.regressions)} regression(s): {names}]", file=sys.stderr)
        return 1
    return 0


def _frontier_main(argv: list[str]) -> int:
    """``frontier``: sweep query budgets across the registry, rank attacks."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments frontier",
        description="Query-efficiency frontier: success rate vs. hard "
        "max_queries budgets for every registry attack, rendered as a "
        "markdown leaderboard.",
    )
    parser.add_argument(
        "--attacks",
        nargs="+",
        metavar="NAME",
        default=None,
        choices=sorted(ATTACKS),
        help="registry attacks to sweep (default: the whole registry)",
    )
    parser.add_argument(
        "--budgets",
        nargs="+",
        type=int,
        metavar="N",
        default=None,
        help=f"max_queries grid (default: {' '.join(map(str, frontier.DEFAULT_BUDGETS))})",
    )
    parser.add_argument(
        "--max-examples", type=int, default=12, help="corpus slice size per cell"
    )
    parser.add_argument("--dataset", default="yelp", help="corpus to attack")
    parser.add_argument("--arch", default="wcnn", help="victim architecture")
    parser.add_argument(
        "--out",
        metavar="FILE",
        default=None,
        help="write the markdown leaderboard to FILE (table still prints)",
    )
    args = parser.parse_args(argv)
    context = ExperimentContext()
    start = time.perf_counter()
    points = frontier.run(
        context,
        max_examples=args.max_examples,
        budgets=tuple(args.budgets) if args.budgets else frontier.DEFAULT_BUDGETS,
        attacks=tuple(args.attacks) if args.attacks else None,
        dataset=args.dataset,
        arch=args.arch,
    )
    print(frontier.render(points))
    print(f"[frontier done in {time.perf_counter() - start:.1f}s]", file=sys.stderr)
    markdown = frontier.leaderboard(points)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(markdown + "\n")
        print(f"[leaderboard written to {args.out}]", file=sys.stderr)
    else:
        print()
        print(markdown)
    return 0


def _tournament_main(argv: list[str]) -> int:
    """``tournament``: attacks × defenses × models cross + transfer matrix."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments tournament",
        description="Robustness tournament: every attack × defense × victim "
        "cell plus a cross-architecture transferability matrix, rendered as "
        "a markdown leaderboard.  With REPRO_TRACE_DIR set, the standing "
        "gauges land in a tournament_summary cell that `compare` can gate.",
    )
    parser.add_argument(
        "--attacks",
        nargs="+",
        metavar="NAME",
        default=None,
        choices=sorted(ATTACKS),
        help="registry attacks to enter "
        f"(default: {' '.join(tournament.DEFAULT_ATTACKS)})",
    )
    parser.add_argument(
        "--defenses",
        nargs="+",
        metavar="NAME",
        default=None,
        choices=sorted(DEFENSES),
        help="registry defenses to cross (default: the whole registry)",
    )
    parser.add_argument(
        "--models",
        nargs="+",
        metavar="ARCH",
        default=["wcnn", "lstm"],
        choices=["wcnn", "lstm", "gru"],
        help="victim architectures (default: wcnn lstm)",
    )
    parser.add_argument(
        "--datasets",
        nargs="+",
        metavar="NAME",
        default=["yelp"],
        help="corpora to attack (default: yelp)",
    )
    parser.add_argument(
        "--max-examples", type=int, default=12, help="corpus slice size per cell"
    )
    parser.add_argument(
        "--no-transfer",
        action="store_true",
        help="skip the cross-architecture transfer replay",
    )
    parser.add_argument(
        "--out",
        metavar="FILE",
        default=None,
        help="write the markdown leaderboard to FILE instead of stdout",
    )
    args = parser.parse_args(argv)
    context = ExperimentContext()
    start = time.perf_counter()
    result = tournament.run(
        context,
        max_examples=args.max_examples,
        datasets=tuple(args.datasets),
        models=tuple(args.models),
        attacks=tuple(args.attacks) if args.attacks else tournament.DEFAULT_ATTACKS,
        defenses=tuple(args.defenses) if args.defenses else None,
        transfer=not args.no_transfer,
    )
    print(
        f"[tournament done in {time.perf_counter() - start:.1f}s: "
        f"{len(result.cells)} cells, {len(result.transfers)} transfer cells]",
        file=sys.stderr,
    )
    markdown = tournament.leaderboard(result)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(markdown + "\n")
        print(f"[leaderboard written to {args.out}]", file=sys.stderr)
    else:
        print(markdown)
    return 0


def _list_defenses_main(argv: list[str]) -> int:
    """``list-defenses``: print the defense registry."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments list-defenses",
        description="List the defense registry: every name with its kind "
        "(training-time vs inference-time), parameters, resource needs and "
        "reference.",
    )
    parser.add_argument(
        "--json",
        action="store_true",
        help="machine-readable dump (name, kind, params, needs, black_box, "
        "...) for tooling and the dashboard",
    )
    args = parser.parse_args(argv)
    specs = [DEFENSES[name] for name in sorted(DEFENSES)]
    if args.json:
        payload = [
            {
                "name": s.name,
                "kind": s.kind,
                "reference": s.reference,
                "summary": s.summary,
                "params": list(s.params),
                "needs": list(s.needs),
                "black_box": s.black_box,
            }
            for s in specs
        ]
        print(json.dumps(payload, indent=2))
        return 0
    headers = ("name", "kind", "black box", "params", "reference")
    rows = [
        (
            s.name,
            s.kind,
            "yes" if s.black_box else "no",
            ", ".join(s.params) or "—",
            s.reference,
        )
        for s in specs
    ]
    widths = [max(len(h), *(len(r[i]) for r in rows)) for i, h in enumerate(headers)]
    fmt = "  ".join(f"{{:<{w}}}" for w in widths)
    print(fmt.format(*headers))
    print(fmt.format(*("-" * w for w in widths)))
    for row in rows:
        print(fmt.format(*row))
    print(
        f"\n{len(specs)} defenses; build one with repro.defense.build_defense(name, ...)"
    )
    return 0


def _list_attacks_main(argv: list[str]) -> int:
    """``list-attacks``: print the registry as a source × strategy table."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments list-attacks",
        description="List the attack registry: every name with its candidate "
        "source, search strategy and paper reference.",
    )
    parser.add_argument(
        "--json",
        action="store_true",
        help="machine-readable dump (name, needs, params, ...) for "
        "tooling and the dashboard",
    )
    args = parser.parse_args(argv)
    specs = [ATTACKS[name] for name in sorted(ATTACKS)]
    if args.json:
        payload = [
            {
                "name": s.name,
                "source": s.source,
                "strategy": s.strategy,
                "paper": s.paper,
                "summary": s.summary,
                "needs": list(s.needs),
                "params": list(s.params),
            }
            for s in specs
        ]
        print(json.dumps(payload, indent=2))
        return 0
    headers = ("name", "source", "strategy", "paper")
    rows = [(s.name, s.source, s.strategy, s.paper) for s in specs]
    widths = [max(len(h), *(len(r[i]) for r in rows)) for i, h in enumerate(headers)]
    fmt = "  ".join(f"{{:<{w}}}" for w in widths)
    print(fmt.format(*headers))
    print(fmt.format(*("-" * w for w in widths)))
    for row in rows:
        print(fmt.format(*row))
    print(f"\n{len(specs)} attacks; build one with repro.attacks.build_attack(name, model, ...)")
    return 0


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    # `report`, `compare`, `list-attacks`, `list-defenses`, `frontier`
    # and `tournament` are verbs, not artifacts: dispatch
    # before the artifact parser
    if argv and argv[0] == "report":
        return _report_main(argv[1:])
    if argv and argv[0] == "compare":
        return _compare_main(argv[1:])
    if argv and argv[0] == "list-attacks":
        return _list_attacks_main(argv[1:])
    if argv and argv[0] == "list-defenses":
        return _list_defenses_main(argv[1:])
    if argv and argv[0] == "frontier":
        return _frontier_main(argv[1:])
    if argv and argv[0] == "tournament":
        return _tournament_main(argv[1:])
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments",
        description="Regenerate the paper's tables and figures.",
    )
    parser.add_argument(
        "artifacts",
        nargs="+",
        choices=sorted(_ARTIFACTS) + ["all"],
        help="which table/figure to regenerate ('all' for everything)",
    )
    parser.add_argument(
        "--save",
        metavar="DIR",
        default=None,
        help="also dump tabular results as JSON + CSV under DIR",
    )
    args = parser.parse_args(argv)
    names = sorted(_ARTIFACTS) if "all" in args.artifacts else args.artifacts
    context = ExperimentContext()
    writer = ResultsWriter(args.save) if args.save else None
    for name in names:
        print(f"\n=== {name} ===")
        start = time.perf_counter()
        run, render = _ARTIFACTS[name]
        rows = run(context)
        print(render(rows))
        if writer is not None and name in _SAVEABLE:
            saved = writer.save(name, rows, artifact=name)
            print(f"[saved {saved} and the matching .csv]")
        print(f"[{name} done in {time.perf_counter() - start:.1f}s]")
    counters = context.metrics.counters
    if any(name.startswith("phase/") and name.endswith("_seconds") for name in counters):
        print("\n=== phase breakdown ===")
        print(render_phase_table(counters))
    if context.run.trace_dir is not None:
        print(
            f"\n[traces in {context.run.trace_dir}; render with"
            f" `python -m repro.experiments report {context.run.trace_dir}`]"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
