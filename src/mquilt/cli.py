"""Command line surface.

Subcommands: ``fit`` (estimate a model from trajectories), ``gap``
(spectral diagnostics), ``release`` (noisy query over a window),
``compose`` (combine ledgered releases), ``verify`` (counterexample
or soundness sweep), ``simulate`` (draw a trajectory). Exit codes: 0
success, 1 usage error, 2 domain error or failed verification.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from collections import Counter
from typing import Sequence

import numpy as np

from .chains import ChainModel, StateSequence, random_model, sample, spectral
from .composition import (
    CompositionReport,
    compose_auto,
    compose_parallel_general,
    compose_parallel_mqm_approx,
    compose_sequential_mqm,
)
from .errors import FormatError, InvalidEpsilon, MixedFrameworks, MquiltError
from .fit import fit_chain
from .influence import Variant, approx_offset_threshold
from .mechanism import (
    Framework,
    Window,
    count_state_query,
    release,
)
from .oracle import (
    empirical_epsilon,
    enumerate_sequences,
    release_values,
    verify_counterexample,
)
from .storage import (
    LedgerEntry,
    append_release,
    load_model,
    load_sequence,
    read_ledger,
    save_model,
    save_sequence,
)

__all__ = ["main", "build_parser"]


class _Parser(argparse.ArgumentParser):
    """Argument parser whose usage errors exit with code 1, not 2."""

    def error(self, message: str):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _seed(text: str) -> int:
    if int(text) < 0:  # np.random.default_rng refuses negative seeds
        raise argparse.ArgumentTypeError(f"seed must be >= 0, got {text}")
    return int(text)


def _trials(text: str) -> int:
    if int(text) < 1:  # a sweep that runs no trial must not report success
        raise argparse.ArgumentTypeError(f"trial count must be >= 1, got {text}")
    return int(text)


def _parse_window(text: str) -> Window:
    try:
        start, end = map(int, text.split(":"))
    except ValueError as exc:
        raise FormatError(f"window must look like 'start:end', got {text!r}") from exc
    return Window(start, end)


def _emit(args, payload: dict, lines: Sequence[str]) -> None:
    if args.json:
        print(json.dumps(payload))
    else:
        for line in lines:
            print(line)


def _print_report(args, report: CompositionReport) -> None:
    lines = [f"epsilon: {report.epsilon}", f"rule: {report.rule.value}"]
    for c in report.checks:
        lines.append(f"check {c.name}: {'PASS' if c.passed else 'FAIL'} ({c.evidence})")
    lines.append(f"inputs: {', '.join(report.inputs)}")
    _emit(args, report.to_dict(), lines)


# ------------------------------------------------------------------- commands


def _cmd_fit(args) -> int:
    sequences = [load_sequence(p).values for p in args.data.split(",")]
    states = args.states.split(",") if args.states else None
    k = args.k if args.k is not None else int(max(int(s.max()) for s in sequences)) + 1
    model = fit_chain(sequences, k, args.alpha, states)
    save_model(model, args.out)
    _emit(
        args,
        {"out": args.out, "model": {"states": list(model.states)}},
        [f"fitted {k}-state model from {len(sequences)} sequences -> {args.out}"],
    )
    return 0


def _cmd_gap(args) -> int:
    info = spectral(load_model(args.model))
    threshold = approx_offset_threshold(info)
    payload = {
        "stationary": info.stationary.tolist(),
        "eigenvalues": info.eigenvalues.tolist(),
        "gap": info.gap,
        "pi_min": info.pi_min,
        "finite_offset_threshold": threshold,
    }
    _emit(
        args,
        payload,
        [
            f"stationary: {np.array2string(info.stationary, precision=6)}",
            f"gap: {info.gap:.6g}",
            f"pi_min: {info.pi_min:.6g}",
            f"finite-offset-threshold: {threshold:.6g}",
        ],
    )
    return 0


def _cmd_release(args) -> int:
    models = tuple(load_model(p) for p in args.model.split(","))
    data = load_sequence(args.data)
    window = _parse_window(args.window) if args.window else Window(1, len(data))
    horizon = args.horizon if args.horizon is not None else window.end
    framework = Framework(horizon, window, models)
    variant = Variant(args.variant)
    k = framework.k
    if len(data) == horizon != window.length:
        # The file holds the whole trajectory; release only the window.
        data = StateSequence(data.values[window.start - 1 : window.end])
    if args.query == "histogram":
        queries = [count_state_query(s, k, framework.states[s]) for s in range(k)]
    elif args.query.startswith("count:"):
        label = args.query.split(":", 1)[1]
        queries = [count_state_query(models[0].state_index(label), k, label)]
    else:
        raise FormatError(
            f"unknown query {args.query!r}; use 'count:<state>' or 'histogram'"
        )
    if not (args.epsilon > 0 and math.isfinite(args.epsilon)):
        # Refuse the budget as given, not the share of it each query gets.
        raise InvalidEpsilon(f"budget must be positive and finite, got {args.epsilon}")
    # The queries split the budget, which thm6 sums back, and share one search.
    records = release(
        data, queries, args.epsilon / len(queries), framework, variant, args.seed,
        scope=args.scope,
    )
    entries = append_release(args.ledger, framework, records) if args.ledger else []
    ids = [e.entry_id for e in entries]

    if args.query == "histogram":
        report = compose_sequential_mqm(records)
        payload = {
            "records": [r.to_dict() for r in records],
            "composition": report.to_dict(),
            "ledger_ids": ids,
        }
        lines = [
            f"{r.query_id}: output {r.output:.6g} (sigma {r.sigma_max:.6g}, "
            f"epsilon {r.epsilon:.6g})"
            for r in records
        ]
        lines.append(f"total epsilon under budget sum: {report.epsilon:.6g}")
        if ids:
            lines.append(f"ledger ids: {', '.join(map(str, ids))}")
    else:
        (rec,) = records
        payload = {"record": rec.to_dict(), "ledger_id": ids[0] if ids else None}
        lines = [
            f"output: {rec.output:.6g}",
            f"sigma_max: {rec.sigma_max:.6g}",
            f"epsilon: {rec.epsilon:.6g}",
            f"variant: {rec.variant.value}",
            *(f"ledger id: {i}" for i in ids),
        ]
    _emit(args, payload, lines)
    return 0


def _entries_by_ids(path: str, ids: Sequence[int]) -> list[LedgerEntry]:
    repeated = sorted(i for i, n in Counter(ids).items() if n > 1)
    if repeated:
        raise FormatError(f"ids name entries {repeated} more than once")
    table = {e.entry_id: e for e in read_ledger(path, ids)}
    missing = [i for i in ids if i not in table]
    if missing:
        raise FormatError(f"ledger has no entries {missing}")
    return [table[i] for i in ids]


def _shared_models(entries: Sequence[LedgerEntry]) -> tuple[ChainModel, ...]:
    """The candidate models every entry was released under; refuse a mix."""
    base = entries[0].framework.models
    for e in entries[1:]:
        if e.framework.models != base:
            raise MixedFrameworks(
                "ledger entries were released under different model sets"
            )
    return base


def _cmd_compose(args) -> int:
    try:
        ids = [int(s) for s in args.ids.split(",")]
    except ValueError:
        raise FormatError(
            f"ids must be comma-separated integers, got {args.ids!r}"
        ) from None
    entries = _entries_by_ids(args.ledger, ids)
    records = [e.record for e in entries]
    labels = [str(e.entry_id) for e in entries]
    rule = args.rule

    if rule == "auto":
        report = compose_auto(records, _shared_models(entries), labels)
    elif rule == "thm6":
        report = compose_sequential_mqm(records, labels)
    else:  # thm2 or thm3, the parallel rules for two disjoint windows
        if len(records) != 2:
            raise FormatError(f"rule {rule} composes exactly 2 releases")
        compose = (
            compose_parallel_general if rule == "thm2" else compose_parallel_mqm_approx
        )
        report = compose(records[0], records[1], _shared_models(entries), labels)
    if not math.isfinite(report.epsilon):
        # Budgets near the float maximum can sum past it.
        raise InvalidEpsilon(f"composed budget {report.epsilon} is not finite")
    _print_report(args, report)
    return 0


def _cmd_verify_counterexample(args) -> int:
    rep = verify_counterexample(args.p, args.q)
    single = max(rep.single_squared)
    joint = max(rep.joint_diagonal)
    lines = [
        "single-release squared candidates: "
        f"{rep.single_squared[0]:.4f} {rep.single_squared[1]:.4f}",
        "joint-release candidates:          "
        f"{rep.joint_diagonal[0]:.4f} {rep.joint_diagonal[1]:.4f}",
        f"oracle agreement: {'yes' if rep.closed_form_agrees else 'NO'}",
        f"full-grid maximum beyond corner candidates: "
        f"{'yes' if rep.grid_beyond_corners else 'no'}",
    ]
    if rep.violated:
        lines.append(f"SEQUENTIAL COMPOSITION VIOLATED: {joint:.4f} > {single:.4f}")
    else:
        lines.append(f"sequential composition holds: {joint:.4f} <= {single:.4f}")
    _emit(args, rep.to_dict(), lines)
    if not rep.closed_form_agrees:
        return 2
    return 0


def _cmd_verify_soundness(args) -> int:
    rng = np.random.default_rng(args.seeds_from)
    variant = Variant(args.variant)
    failures = 0
    lines = []
    results = []
    for trial in range(args.seeds):
        model = load_model(args.model) if args.model else random_model(args.k, rng)
        T = args.T
        fw = Framework(T, Window(1, T), (model,))
        q = count_state_query(int(rng.integers(0, model.k)), model.k)
        data = StateSequence(rng.integers(0, model.k, T))
        (rec,) = release(data, [q], args.epsilon, fw, variant, int(rng.integers(2**32)))
        seqs = enumerate_sequences(model.k, T)
        vals, sigma = release_values(rec, q, seqs)
        emp = empirical_epsilon(fw, [(vals, sigma)], seqs=seqs)
        ok = emp.value <= args.epsilon + 1e-9
        failures += 0 if ok else 1
        results.append(
            {"empirical_epsilon": emp.value, "slack": args.epsilon - emp.value}
        )
        lines.append(
            f"trial {trial}: empirical {emp.value:.6f} vs budget "
            f"{args.epsilon:.6f} -> {'PASS' if ok else 'FAIL'}"
        )
    lines.append(f"{args.seeds - failures}/{args.seeds} trials passed")
    _emit(
        args,
        {"trials": args.seeds, "failures": failures, "results": results},
        lines,
    )
    return 0 if failures == 0 else 2


def _cmd_simulate(args) -> int:
    seq = sample(load_model(args.model), args.T, args.seed)
    save_sequence(seq, args.out)
    _emit(
        args,
        {"out": args.out, "length": args.T},
        [f"wrote {args.T} steps -> {args.out}"],
    )
    return 0


# --------------------------------------------------------------------- parser


def build_parser() -> _Parser:
    """A fresh parser of the ``mquilt`` command line."""
    parser = _Parser(prog="mquilt", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("fit", help="estimate a chain model from trajectories")
    p.add_argument("--data", required=True, help="CSV path(s), comma separated")
    p.add_argument(
        "--k", type=int, default=None, help="number of states (default: inferred)"
    )
    p.add_argument("--alpha", type=float, default=1.0, help="additive smoothing")
    p.add_argument("--states", default=None, help="comma-separated state labels")
    p.add_argument("--out", required=True, help="where to write the model JSON")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_fit)

    p = sub.add_parser("gap", help="spectral diagnostics of a model")
    p.add_argument("--model", required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_gap)

    p = sub.add_parser("release", help="release a noisy query over a window")
    p.add_argument("--model", required=True, help="model JSON path(s), comma separated")
    p.add_argument(
        "--data",
        required=True,
        help="trajectory CSV holding the window, or the whole horizon",
    )
    p.add_argument("--query", required=True, help="'count:<state>' or 'histogram'")
    p.add_argument("--epsilon", type=float, required=True)
    p.add_argument("--variant", choices=["exact", "approx"], default="exact")
    p.add_argument(
        "--seed", type=_seed, default=None,
        help="noise seed, for reproducible draws; default: OS entropy. "
        "Never written to the output or the ledger",
    )
    p.add_argument("--window", default=None, help="start:end, default full data")
    p.add_argument("--horizon", type=int, default=None)
    p.add_argument("--scope", choices=["window", "chain"], default="window")
    p.add_argument("--ledger", default=None, help="JSON-lines ledger to append to")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_release)

    p = sub.add_parser("compose", help="combine ledgered releases")
    p.add_argument("--ledger", required=True)
    p.add_argument("--ids", required=True, help="comma-separated entry ids")
    p.add_argument(
        "--rule",
        choices=["auto", "thm2", "thm3", "thm6"],
        default="auto",
        help="auto picks thm6 for one window, thm2 or thm3 for two disjoint ones",
    )
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_compose)

    checks = sub.add_parser(
        "verify", help="run built-in verification routines"
    ).add_subparsers(dest="check", required=True)

    p = checks.add_parser("counterexample", help="the two-node composition example")
    p.add_argument("--p", type=float, default=0.9)
    p.add_argument("--q", type=float, default=0.01)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_verify_counterexample)

    p = checks.add_parser("soundness", help="released budgets against empirical epsilon")
    p.add_argument("--model", default=None)
    p.add_argument("--k", type=int, default=2)
    p.add_argument("--T", type=int, default=5)
    p.add_argument("--epsilon", type=float, default=1.0)
    p.add_argument("--variant", choices=["exact", "approx"], default="exact")
    p.add_argument("--seeds", type=_trials, default=5, help="trial count")
    p.add_argument("--seeds-from", type=_seed, default=0, help="RNG seed for the sweep")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_verify_soundness)

    p = sub.add_parser("simulate", help="sample a trajectory from a model")
    p.add_argument("--model", required=True)
    p.add_argument("--T", type=int, required=True)
    p.add_argument("--seed", type=_seed, required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_simulate)

    return parser


@functools.cache
def _parser() -> _Parser:
    """The parser ``main`` uses, built once: parsing leaves it unchanged."""
    return build_parser()


def main(argv: Sequence[str] | None = None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        # argparse exits on usage errors and on --help; surface the code
        # instead of tearing down the caller.
        return int(exc.code or 0)
    try:
        return args.func(args)
    except MquiltError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        # A missing input, or an output in a directory that does not exist.
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
