"""Privacy accounting when several releases touch the same trajectory.

Each rule takes release records (plus, for the parallel rules, the
candidate models the boundary influence is computed under) and produces a
:class:`CompositionReport`: the combined budget, the rule applied, and the
precondition checks with evidence. Rules never mutate records and never
look at data.

Rule tokens name the theorems: ``thm2`` (general parallel, paying the
exact boundary influence), ``thm3`` (parallel max for approximate
releases under far-apart-window conditions, falling back to ``thm2``) and
``thm6`` (plain budget sum for quilt releases) are the rules the CLI
offers, with ``compose_auto`` choosing among them. Two more remain for
library callers only: ``thm1`` (worst budget times count, requiring
identical active quilts) never beats ``thm6`` on the records it accepts,
and ``thm5`` (general sequential with a max-divergence surcharge) rests
on a divergence bound that nothing here checks. Both are due for
deletion.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Sequence

from .chains import ChainModel
from .errors import (
    EmptyInput,
    MixedFrameworks,
    NegativeE,
    NotApproxVariant,
    OverlappingWindows,
    QuiltMismatch,
    TooManyWindows,
)
from .influence import QuiltShape, Variant, influence_over_set
from .mechanism import ReleaseRecord

__all__ = [
    "CompositionRule",
    "Check",
    "CompositionReport",
    "compose_sequential_mqm",
    "compose_sequential_legacy",
    "compose_sequential_general",
    "compose_parallel_general",
    "compose_parallel_mqm_approx",
    "compose_auto",
]


class CompositionRule(str, enum.Enum):
    """Accounting rules, named by their CLI tokens."""

    LEGACY_SEQUENTIAL = "thm1"
    GENERAL_PARALLEL = "thm2"
    APPROX_PARALLEL = "thm3"
    GENERAL_SEQUENTIAL = "thm5"
    MQM_SEQUENTIAL = "thm6"


@dataclass(frozen=True)
class Check:
    """One verified precondition with human-readable evidence."""

    name: str
    passed: bool
    evidence: str

    def to_dict(self) -> dict:
        return {"name": self.name, "passed": self.passed, "evidence": self.evidence}


@dataclass(frozen=True)
class CompositionReport:
    """Outcome of one composition: budget, rule, checks, input labels."""

    epsilon: float
    rule: CompositionRule
    checks: tuple[Check, ...]
    inputs: tuple[str, ...]

    def to_dict(self) -> dict:
        return {
            "epsilon": self.epsilon,
            "rule": self.rule.value,
            "checks": [c.to_dict() for c in self.checks],
            "inputs": list(self.inputs),
        }


def _labels(records: Sequence[ReleaseRecord], input_ids) -> tuple[str, ...]:
    if input_ids is not None:
        return tuple(str(i) for i in input_ids)
    return tuple(f"record-{n}:{r.query_id}" for n, r in enumerate(records))


def _require_same_window(records: Sequence[ReleaseRecord]) -> Check:
    first = records[0].window
    for r in records[1:]:
        if r.window != first:
            raise MixedFrameworks(
                f"windows differ: [{first.start}, {first.end}] vs "
                f"[{r.window.start}, {r.window.end}]"
            )
    return Check(
        "same-window",
        True,
        f"all {len(records)} records released over [{first.start}, {first.end}]",
    )


def compose_sequential_mqm(
    records: Sequence[ReleaseRecord],
    input_ids: Sequence[str] | None = None,
) -> CompositionReport:
    """Budget sum for quilt releases over one window.

    Quilt releases need no shared active quilts for their budgets to add,
    so this rule only checks that the records cover the same window. The
    guarantee applies to secrets inside that window.
    """
    records = list(records)
    if not records:
        raise EmptyInput("no records to compose")
    checks = [_require_same_window(records)]
    eps = float(sum(r.epsilon for r in records))
    checks.append(
        Check(
            "budget-sum",
            True,
            f"epsilons {[r.epsilon for r in records]} sum to {eps}",
        )
    )
    return CompositionReport(
        eps, CompositionRule.MQM_SEQUENTIAL, tuple(checks), _labels(records, input_ids)
    )


def _quilt_structures_match(records: Sequence[ReleaseRecord]) -> Check:
    base = records[0].active_quilts
    for n, r in enumerate(records[1:], start=1):
        if set(r.active_quilts.keys()) != set(base.keys()):
            raise QuiltMismatch(f"record {n} covers a different model set")
        for theta, quilts in base.items():
            other = r.active_quilts[theta]
            if len(other) != len(quilts):
                raise QuiltMismatch(
                    f"record {n} searched a different node count under model {theta}"
                )
            for mine, theirs in zip(quilts, other):
                if mine.node != theirs.node or mine.shape != theirs.shape:
                    raise QuiltMismatch(
                        f"record {n} uses quilt {theirs.shape.to_dict()} at node "
                        f"{theirs.node} under model {theta}, expected "
                        f"{mine.shape.to_dict()}"
                    )
    return Check(
        "identical-active-quilts",
        True,
        f"{len(records)} records agree on every node's winning quilt",
    )


def compose_sequential_legacy(
    records: Sequence[ReleaseRecord],
    input_ids: Sequence[str] | None = None,
) -> CompositionReport:
    """Worst budget times record count, the pre-quilt accounting rule.

    Only valid when every record used the same active quilt at every node
    under every model; raises ``QuiltMismatch`` otherwise.
    """
    records = list(records)
    if not records:
        raise EmptyInput("no records to compose")
    checks = [_require_same_window(records), _quilt_structures_match(records)]
    eps = float(len(records) * max(r.epsilon for r in records))
    checks.append(
        Check(
            "count-times-max",
            True,
            f"{len(records)} records, worst budget "
            f"{max(r.epsilon for r in records)}",
        )
    )
    return CompositionReport(
        eps,
        CompositionRule.LEGACY_SEQUENTIAL,
        tuple(checks),
        _labels(records, input_ids),
    )


def compose_sequential_general(
    eps_a: float,
    eps_b: float,
    divergence_bound: float,
    input_ids: Sequence[str] | None = None,
) -> CompositionReport:
    """Two arbitrary private mechanisms on one trajectory: pay the coupling.

    ``divergence_bound`` must upper-bound the max divergence between the
    joint output law and the product of the marginal laws, uniformly over
    secrets and models. The combined budget is the budget sum plus twice
    that bound; an infinite bound yields no finite guarantee. Nothing
    here computes or checks the bound: the guarantee holds only if the
    caller's bound does, and the report says so.
    """
    if not (eps_a > 0 and eps_b > 0):
        raise EmptyInput(f"budgets must be positive, got {eps_a}, {eps_b}")
    if math.isnan(divergence_bound) or divergence_bound < 0:
        raise NegativeE(f"divergence bound must be >= 0, got {divergence_bound}")
    eps = eps_a + eps_b + 2.0 * divergence_bound
    checks = [
        Check(
            "nonnegative-divergence",
            True,
            f"divergence bound {divergence_bound} is assumed as given by "
            "the caller, not verified",
        ),
        Check(
            "finite-guarantee",
            math.isfinite(eps),
            "combined budget is finite"
            if math.isfinite(eps)
            else "divergence bound is infinite, no finite guarantee",
        ),
    ]
    ids = ("mechanism-a", "mechanism-b") if input_ids is None else map(str, input_ids)
    return CompositionReport(
        float(eps), CompositionRule.GENERAL_SEQUENTIAL, tuple(checks), tuple(ids)
    )


def _ordered_disjoint(
    rec_a: ReleaseRecord, rec_b: ReleaseRecord
) -> tuple[ReleaseRecord, ReleaseRecord]:
    first, second = rec_a, rec_b
    if second.window.start < first.window.start:
        first, second = second, first
    if first.window.end >= second.window.start:
        raise OverlappingWindows(
            f"windows [{first.window.start}, {first.window.end}] and "
            f"[{second.window.start}, {second.window.end}] overlap"
        )
    return first, second


def compose_parallel_general(
    rec_a: ReleaseRecord,
    rec_b: ReleaseRecord,
    models: Sequence[ChainModel],
    input_ids: Sequence[str] | None = None,
) -> CompositionReport:
    """Two private releases over disjoint windows of one trajectory.

    A secret in the earlier window is charged its own budget plus whatever
    the later release can learn through the boundary, which is at most the
    smaller of the later budget and the forward influence of the earlier
    window's last node on the later window's first node. The later window
    is charged symmetrically through the backward influence. Both
    influences are the exact maxima over ``models``
    (:func:`~mquilt.influence.influence_over_set`); an influence that is
    ``inf`` (an absorbing state, say) is capped by the other budget. Secrets
    outside the two windows carry no guarantee from this rule.
    """
    first, second = _ordered_disjoint(rec_a, rec_b)
    t2, t3 = first.window.end, second.window.start
    fwd = influence_over_set(models, QuiltShape(t2, None, t3 - t2))
    bwd = influence_over_set(models, QuiltShape(t3, t3 - t2, None))
    eps = max(
        first.epsilon + min(second.epsilon, fwd),
        second.epsilon + min(first.epsilon, bwd),
    )
    checks = [
        Check(
            "disjoint-windows",
            True,
            f"[{first.window.start}, {first.window.end}] before "
            f"[{second.window.start}, {second.window.end}]",
        ),
        Check(
            "boundary-influence",
            True,
            f"forward {fwd:.6g}, backward {bwd:.6g} via exact route",
        ),
        Check(
            "secret-scope",
            True,
            "guarantee covers secrets inside the two windows only",
        ),
    ]
    return CompositionReport(
        float(eps), CompositionRule.GENERAL_PARALLEL, tuple(checks),
        _labels([first, second], input_ids),
    )


def _two_sided_active_everywhere(rec: ReleaseRecord, tag: str) -> Check:
    missing = [
        theta
        for theta, quilts in rec.active_quilts.items()
        if not any(
            left is not None and right is not None
            for _, _, left, right, _ in quilts.runs
        )
    ]
    if missing or not rec.active_quilts:
        return Check(
            f"two-sided-active-{tag}",
            False,
            f"models {missing} have no node whose winning quilt is two-sided"
            if missing else "the record holds no quilt table",
        )
    return Check(
        f"two-sided-active-{tag}",
        True,
        "every model has a node whose winning quilt is two-sided",
    )


def compose_parallel_mqm_approx(
    rec_a: ReleaseRecord,
    rec_b: ReleaseRecord,
    models: Sequence[ChainModel],
    input_ids: Sequence[str] | None = None,
) -> CompositionReport:
    """Parallel composition of two approximate-variant releases.

    When both records show a two-sided winning quilt under every model and
    the gap between the windows is at least as long as either window span,
    the combined budget is simply the larger of the two. If either
    condition fails, the rule falls back to the general parallel rule over
    ``models`` and reports the failed check alongside.
    """
    if rec_a.variant is not Variant.APPROX or rec_b.variant is not Variant.APPROX:
        raise NotApproxVariant(
            f"rule needs approximate-variant releases, got "
            f"{rec_a.variant.value} and {rec_b.variant.value}"
        )
    first, second = _ordered_disjoint(rec_a, rec_b)
    t1, t2 = first.window.start, first.window.end
    t3, t4 = second.window.start, second.window.end
    cond1 = [
        _two_sided_active_everywhere(first, "earlier"),
        _two_sided_active_everywhere(second, "later"),
    ]
    gap_needed = max(t2 - t1, t4 - t3)
    cond2 = Check(
        "windows-far-apart",
        t3 - t2 >= gap_needed,
        f"gap {t3 - t2} vs required {gap_needed}",
    )
    checks = cond1 + [cond2]
    if all(c.passed for c in checks):
        eps = max(first.epsilon, second.epsilon)
        checks.append(
            Check("budget-max", True, f"max of {first.epsilon} and {second.epsilon}")
        )
        return CompositionReport(
            float(eps), CompositionRule.APPROX_PARALLEL, tuple(checks),
            _labels([first, second], input_ids),
        )
    fallback = compose_parallel_general(first, second, models, input_ids)
    return CompositionReport(
        fallback.epsilon,
        fallback.rule,
        tuple(checks) + fallback.checks,
        fallback.inputs,
    )


def compose_auto(
    records: Sequence[ReleaseRecord],
    models: Sequence[ChainModel],
    input_ids: Sequence[str] | None = None,
) -> CompositionReport:
    """Pick a rule from the records' window layout.

    Identical windows take the budget-sum rule. Two disjoint windows take
    the approximate-parallel rule when both releases qualify, otherwise
    the general parallel rule. The parallel rules are proved for two
    windows only, so three or more disjoint windows raise
    ``TooManyWindows``; partial overlap raises ``OverlappingWindows``.
    Both messages say what is refused and why: a composition report is
    not a record and cannot be composed again, and a bound on each pair
    of windows bounds no three of them.
    """
    records = list(records)
    if not records:
        raise EmptyInput("no records to compose")
    ids = list(_labels(records, input_ids))
    if len(records) == 1:
        return CompositionReport(
            float(records[0].epsilon),
            CompositionRule.MQM_SEQUENTIAL,
            (Check("single-record", True, "one record, its own budget applies"),),
            tuple(ids),
        )
    if all(r.window == records[0].window for r in records):
        return compose_sequential_mqm(records, ids)
    order = sorted(range(len(records)), key=lambda n: records[n].window.start)
    for left, right in zip(order, order[1:]):
        if records[left].window.end >= records[right].window.start:
            raise OverlappingWindows(
                "windows partially overlap; the budget sum needs one shared "
                "window and the parallel rules need two disjoint ones"
            )
    if len(records) > 2:
        raise TooManyWindows(
            f"{len(records)} disjoint windows have no proved bound; the parallel "
            "rules hold for two windows, and a pairwise bound bounds no more"
        )
    a, b = records[order[0]], records[order[1]]
    pair_ids = [ids[order[0]], ids[order[1]]]
    if a.variant is Variant.APPROX and b.variant is Variant.APPROX:
        return compose_parallel_mqm_approx(a, b, models, pair_ids)
    return compose_parallel_general(a, b, models, pair_ids)
