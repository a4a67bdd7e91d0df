"""The three workloads: seeded inputs, a fixed list of operations per pass,
and the checks on every operation's output.

Operations go through ``mquilt.cli.main(argv)`` in-process, or through the
public library where the CLI has no verb (ledger replay, the oracle). Names
are looked up on their modules at call time so that the traced run sees
every call. Checks use ``reference`` (plain numpy) and never the noise
value: only what the quilt search and the accountant decide is checked.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np

import mquilt.cli
import mquilt.mechanism
import mquilt.oracle
import mquilt.storage

import reference as ref


class CheckFailed(Exception):
    """An operation's output broke one of the benchmark's checks."""


def expect(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


def close(a: float, b: float, rel: float = 1e-9) -> bool:
    return abs(a - b) <= rel * max(1.0, abs(a), abs(b))


@dataclass
class Op:
    """One operation: ``run`` is timed, ``check`` inspects its result."""

    name: str
    run: Callable[[], Any]
    check: Callable[[Any], None]


def cli(argv: list[str]) -> dict:
    """Run one CLI command in-process; its ``--json`` payload is the result."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = mquilt.cli.main(argv + ["--json"])
    if code != 0:
        raise CheckFailed(f"{argv[0]} exited {code}: {err.getvalue().strip()}")
    return json.loads(out.getvalue().splitlines()[-1])


def public(value):
    """Drop the noise draw, its seed and wall-clock stamps from a payload."""
    if isinstance(value, dict):
        return {k: public(v) for k, v in value.items() if k not in ("output", "seed", "timestamp")}
    if isinstance(value, list):
        return [public(v) for v in value]
    return value


# ------------------------------------------------------------------ inputs


def random_chain(rng: np.random.Generator, k: int, stay: float = 0.0):
    """Initial law and transition matrix with every entry bounded below;
    ``stay`` moves that much mass of every row onto the diagonal."""
    P = rng.random((k, k)) + 0.05
    P = (1.0 - stay) * P / P.sum(axis=1, keepdims=True) + stay * np.eye(k)
    P = P / P.sum(axis=1, keepdims=True)
    q = rng.random(k) + 0.05
    return q / q.sum(), P


def sample_path(rng: np.random.Generator, initial, P, T: int) -> np.ndarray:
    u = rng.random(T)
    cum, rows = np.cumsum(initial), np.cumsum(P, axis=1)
    out = np.empty(T, dtype=np.int64)
    out[0] = min(int(np.searchsorted(cum, u[0], side="right")), len(initial) - 1)
    for t in range(1, T):
        out[t] = min(int(np.searchsorted(rows[out[t - 1]], u[t], side="right")), len(initial) - 1)
    return out


def labels(k: int) -> list[str]:
    return [f"s{j}" for j in range(k)]


def write_model(path: Path, initial, P) -> str:
    doc = {"states": labels(len(initial)), "initial": list(map(float, initial)),
           "transition": [list(map(float, row)) for row in P]}
    path.write_text(json.dumps(doc))
    return str(path)


def write_data(path: Path, values) -> str:
    path.write_text("state\n" + "".join(f"{int(v)}\n" for v in values))
    return str(path)


def fresh(path: Path) -> str:
    with contextlib.suppress(FileNotFoundError):
        path.unlink()
    return str(path)


class Workload:
    """Inputs fixed at construction; ``ops()`` gives one pass of the list.

    An output equal (noise aside) to one that already passed the full
    checks passes again; anything else is checked in full.
    """

    def __init__(self, seed: int, workdir: Path):
        self.rng = np.random.default_rng([seed, self.tag])
        self.verified: dict[str, Any] = {}

    def verify(self, name: str, result: Any, full: Callable[[], None]) -> None:
        key = public(result)
        if self.verified.get(name) == key:
            return
        full()
        self.verified[name] = key


# ---------------------------------------------------------- release-exact


class ReleaseExact(Workload):
    """Exact count releases over a k x window-length grid, one fresh ledger each."""

    tag = 1
    GRID = [(2, 64), (5, 64), (10, 64), (2, 256), (5, 256), (10, 256),
            (2, 1024), (5, 1024), (10, 1024)]
    TWO_MODELS = (2, 256)
    OFFSET = (5, 256)  # window 301:556 of a 1000-node horizon

    def __init__(self, seed: int, workdir: Path):
        super().__init__(seed, workdir)
        self.configs = []
        for n, (k, L) in enumerate(self.GRID):
            chains = [random_chain(self.rng, k)]
            if (k, L) == self.TWO_MODELS:
                chains.append(random_chain(self.rng, k))
            start, horizon = (301, 1000) if (k, L) == self.OFFSET else (1, L)
            path = sample_path(self.rng, *chains[0], horizon)[start - 1 : start - 1 + L]
            eps = float(self.rng.uniform(0.5, 2.0))
            state = int(self.rng.integers(k))
            argv = [
                "release",
                "--model", ",".join(write_model(workdir / f"rx{n}-m{j}.json", *c)
                                    for j, c in enumerate(chains)),
                "--data", write_data(workdir / f"rx{n}.csv", path),
                "--query", f"count:s{state}", "--epsilon", repr(eps),
                "--variant", "exact", "--seed", str(int(self.rng.integers(2**31))),
            ]
            if start != 1:
                argv += ["--window", f"{start}:{start + L - 1}", "--horizon", str(horizon)]
            self.configs.append(dict(name=f"release k={k} L={L}", chains=chains, L=L,
                                     start=start, eps=eps, state=state, argv=argv,
                                     ledger=workdir / f"rx{n}.jsonl"))

    def ops(self) -> list[Op]:
        out = []
        for c in self.configs:
            argv = c["argv"] + ["--ledger", fresh(c["ledger"])]
            out.append(Op(c["name"], lambda argv=argv: cli(argv),
                          lambda res, c=c: self.verify(c["name"], res, lambda: self.check(c, res))))
        return out

    def check(self, c: dict, payload: dict) -> None:
        L, start, eps = c["L"], c["start"], c["eps"]
        expect(payload["ledger_id"] == 1, f"fresh ledger gave id {payload['ledger_id']}")
        entries = mquilt.storage.read_ledger(c["ledger"])
        expect([e.entry_id for e in entries] == [1], "ledger does not hold exactly entry 1")
        entry = entries[0]
        rec = entry.record
        expect(public(rec.to_dict()) == public(payload["record"]), "ledger record differs from output")
        expect(rec.variant.value == "exact" and rec.epsilon == eps, "variant or budget changed")
        expect(rec.query_id == f"count:s{c['state']}", f"query {rec.query_id}")
        expect((rec.window.start, rec.window.end) == (start, start + L - 1), "window changed")
        expect(sorted(rec.active_quilts) == list(range(len(c["chains"]))), "model set changed")
        scores = []
        for idx, (initial, P) in enumerate(c["chains"]):
            init = initial @ np.linalg.matrix_power(P, start - 1)
            chain = ref.ExactChain(init, P, L)
            quilts = rec.active_quilts[idx]
            expect([q.node for q in quilts] == list(range(start, start + L)), "node list")
            for q in quilts:
                i, a, b = q.node - start + 1, q.shape.left, q.shape.right
                expect(q.shape.node == q.node, "shape node differs from node")
                expect((a is None or 1 <= a < i) and (b is None or 1 <= b <= L - i),
                       f"quilt {q.shape} does not fit the window")
                expect(math.isfinite(q.score) and q.score > 0, f"score {q.score}")
                e = eps - ref.nearby(i, a, b, L) / q.score
                expect(close(e, chain.influence(i, a, b)),
                       f"node {q.node}: score {q.score} implies influence {e}, "
                       f"reference {chain.influence(i, a, b)}")
                if L == 64:
                    best = chain.best_score(i, eps)
                    expect(close(q.score, best), f"node {q.node}: {q.score} is not the minimum {best}")
                scores.append(q.score)
        sigma = rec.sigma_max
        expect(sigma == max(scores), f"sigma {sigma} is not the largest score {max(scores)}")
        expect(1.0 / eps <= sigma * (1 + 1e-12) and sigma <= L / eps * (1 + 1e-12),
               f"sigma {sigma} outside [1/eps, L/eps]")
        check_replay(entry.record, mquilt.storage.replay_search(entry))


# -------------------------------------------------------- histogram-ledger


class HistogramLedger(Workload):
    """Approx histograms over two far-apart windows into one growing ledger."""

    tag = 2
    HORIZON = 1200
    WINDOWS = ((101, 180), (901, 980))
    MODELS = ((10, 0.0), (30, 0.8))  # (states, extra self-transition mass)
    # The chains themselves do not vary with the seed: the cost of
    # chains.spectral depends on the chain (its eigen-solver runs all 200
    # sweeps on some chains, see CHANGES.md), which would split seeds into
    # two cost groups. Data, budgets, bucket pairs and noise seeds vary.
    MODEL_SEED = 20170707

    def __init__(self, seed: int, workdir: Path):
        super().__init__(seed, workdir)
        self.ledger = workdir / "hist.jsonl"
        self.cycles = []
        model_rng = np.random.default_rng(self.MODEL_SEED)
        for n, (k, stay) in enumerate(self.MODELS):
            initial, P = random_chain(model_rng, k, stay)
            model = write_model(workdir / f"h{n}.json", initial, P)
            path = sample_path(self.rng, initial, P, self.HORIZON)
            hists = []
            for w, (a, b) in enumerate(self.WINDOWS):
                eps = float(self.rng.uniform(1.0, 3.0))
                data = write_data(workdir / f"h{n}-w{w}.csv", path[a - 1 : b])
                argv = ["release", "--model", model, "--data", data, "--query", "histogram",
                        "--epsilon", repr(eps), "--variant", "approx",
                        "--seed", str(int(self.rng.integers(2**31))),
                        "--window", f"{a}:{b}", "--horizon", str(self.HORIZON)]
                hists.append(dict(argv=argv, eps=eps, window=(a, b)))
            pairs = [tuple(int(x) for x in self.rng.choice(k, 2, replace=False)) for _ in hists]
            self.cycles.append(dict(k=k, initial=initial, P=P, hists=hists, pairs=pairs,
                                    across=int(self.rng.integers(k)),
                                    replay=int(self.rng.integers(k))))

    def ops(self) -> list[Op]:
        ledger = fresh(self.ledger)
        state: dict = {"next_id": 1}
        out = []
        for n, cyc in enumerate(self.cycles):
            for w, h in enumerate(cyc["hists"]):
                key = (n, w)
                out.append(Op(f"histogram model={n} window={w}",
                              lambda h=h, key=key: state.setdefault(key, cli(h["argv"] + ["--ledger", ledger])),
                              lambda res, cyc=cyc, h=h: self.check_hist(cyc, h, res, state)))
                i, j = cyc["pairs"][w]
                out.append(Op(f"compose thm6 model={n} window={w}",
                              lambda key=key, i=i, j=j: cli(self._compose(ledger, state, key, i, key, j, "thm6")),
                              lambda res, key=key, i=i, j=j: self.check_thm6(state, key, i, j, res)))
            s = cyc["across"]
            out.append(Op(f"compose auto model={n}",
                          lambda n=n, s=s: cli(self._compose(ledger, state, (n, 0), s, (n, 1), s, "auto")),
                          lambda res, cyc=cyc, n=n, s=s: self.check_auto(cyc, state, n, s, res)))
            out.append(Op(f"replay model={n}",
                          lambda n=n, r=cyc["replay"]: self._replay(ledger, state[(n, 1)]["ledger_ids"][r]),
                          lambda res: self.check_replay(res, state)))
        return out

    @staticmethod
    def _compose(ledger, state, ka, i, kb, j, rule) -> list[str]:
        ids = f"{state[ka]['ledger_ids'][i]},{state[kb]['ledger_ids'][j]}"
        return ["compose", "--ledger", ledger, "--ids", ids, "--rule", rule]

    @staticmethod
    def _replay(ledger: str, entry_id: int):
        entries = mquilt.storage.read_ledger(ledger)
        entry = next(e for e in entries if e.entry_id == entry_id)
        return [e.entry_id for e in entries], entry.record, mquilt.storage.replay_search(entry)

    def check_hist(self, cyc, h, payload, state) -> None:
        k, eps_b = cyc["k"], h["eps"] / cyc["k"]
        ids = payload["ledger_ids"]
        expect(ids == list(range(state["next_id"], state["next_id"] + k)),
               f"ledger ids {ids} do not continue from {state['next_id']}")
        state["next_id"] += k
        self.verify(" ".join(h["argv"]), payload, lambda: self._check_hist(cyc, h, payload, eps_b))

    def _check_hist(self, cyc, h, payload, eps_b) -> None:
        k, (a, b) = cyc["k"], h["window"]
        L = b - a + 1
        recs = [mquilt.mechanism.ReleaseRecord.from_dict(r) for r in payload["records"]]
        expect([r.query_id for r in recs] == [f"count:{s}" for s in labels(k)], "bucket queries")
        expect(all(r.variant.value == "approx" and r.epsilon == eps_b for r in recs),
               "bucket variant or budget")
        expect(len({r.sigma_max for r in recs}) == 1, "buckets do not share one sigma")
        expect(all(r.active_quilts == recs[0].active_quilts for r in recs), "bucket quilts differ")
        comp = payload["composition"]
        expect(comp["rule"] == "thm6" and close(comp["epsilon"], k * eps_b, 1e-12),
               f"histogram total {comp['epsilon']} is not the bucket sum {k * eps_b}")
        t = ref.spectral_terms(cyc["P"], L - 1)
        best = ref.approx_best_scores(t, L, eps_b)
        quilts = recs[0].active_quilts[0]
        expect([q.node for q in quilts] == list(range(a, b + 1)), "node list")
        for q in quilts:
            i, left, right = q.node - a + 1, q.shape.left, q.shape.right
            expect(math.isfinite(q.score) and q.score > 0, f"score {q.score}")
            e = eps_b - ref.nearby(i, left, right, L) / q.score
            e_ref = ref.approx_influence(t, left, right)
            expect(abs(e - e_ref) <= 1e-9 + 1e-7 * e_ref,
                   f"node {q.node}: score implies bound {e}, reference {e_ref}")
            expect(close(q.score, best[i - 1]), f"node {q.node}: {q.score} is not the minimum {best[i - 1]}")
        expect(recs[0].sigma_max == max(q.score for q in quilts), "sigma is not the largest score")

    @staticmethod
    def _eps(state, key, i) -> float:
        return state[key]["records"][i]["epsilon"]

    def check_thm6(self, state, key, i, j, rep) -> None:
        e1, e2 = self._eps(state, key, i), self._eps(state, key, j)
        expect(rep["rule"] == "thm6", f"rule {rep['rule']}")
        expect(close(rep["epsilon"], e1 + e2, 1e-12), f"thm6 gave {rep['epsilon']}, sum {e1 + e2}")
        _within(rep["epsilon"], [e1, e2])

    def check_auto(self, cyc, state, n, s, rep) -> None:
        r1, r2 = (mquilt.mechanism.ReleaseRecord.from_dict(state[(n, w)]["records"][s]) for w in (0, 1))
        (t1, t2), (t3, t4) = self.WINDOWS
        two_sided = all(any(q.shape.is_two_sided for q in r.active_quilts[0]) for r in (r1, r2))
        if two_sided and t3 - t2 >= max(t2 - t1, t4 - t3):
            expect(rep["rule"] == "thm3", f"rule {rep['rule']}, expected thm3")
            want = max(r1.epsilon, r2.epsilon)
        else:
            expect(rep["rule"] == "thm2", f"rule {rep['rule']}, expected thm2")
            fwd, bwd = ref.boundary_influences(cyc["initial"], cyc["P"], t2, t3)
            want = max(r1.epsilon + min(r2.epsilon, fwd), r2.epsilon + min(r1.epsilon, bwd))
        expect(close(rep["epsilon"], want), f"{rep['rule']} gave {rep['epsilon']}, reference {want}")
        _within(rep["epsilon"], [r1.epsilon, r2.epsilon])

    @staticmethod
    def check_replay(res, state) -> None:
        ids, record, replayed = res
        expect(ids == list(range(1, len(ids) + 1)) and len(ids) == state["next_id"] - 1,
               f"ledger ids are not contiguous: {ids[:3]}...{ids[-3:]}")
        check_replay(record, replayed)


def check_replay(record, replayed) -> None:
    """A replayed search must pick the stored quilts and reproduce the scores.

    Scores are compared to 1e-12 rather than bit for bit: the ledger round
    trip renormalizes the stored models, which moves their last bits (see
    CHANGES.md), so ``storage.replay_matches`` fails on some inputs.
    """
    sigma, active = replayed
    expect(close(sigma, record.sigma_max, 1e-12), f"replayed sigma {sigma} vs {record.sigma_max}")
    expect(sorted(active) == sorted(record.active_quilts), "replayed model set")
    for idx, quilts in record.active_quilts.items():
        again = active[idx]
        expect([(q.node, q.shape) for q in again] == [(q.node, q.shape) for q in quilts],
               f"replay picked other quilts under model {idx}")
        expect(all(close(a.score, q.score, 1e-12) for a, q in zip(again, quilts)),
               f"replayed scores differ under model {idx}")


def _within(eps: float, parts: list[float]) -> None:
    lo, hi = max(parts), sum(parts)
    expect(lo * (1 - 1e-12) <= eps <= hi * (1 + 1e-12), f"composed {eps} outside [{lo}, {hi}]")


# ------------------------------------------------------ oracle-composition


class OracleComposition(Workload):
    """Small-chain audits: two same-window and two disjoint-window counts,
    composed, then checked against the exact joint empirical epsilon."""

    tag = 3
    # (states, horizon, same window, disjoint windows, i.i.d.)
    AUDITS = [(2, 12, (2, 12), ((1, 4), (8, 12)), False),
              (3, 7, (1, 7), ((1, 2), (5, 7)), False),
              (2, 10, (1, 10), ((1, 4), (7, 10)), True)]

    def __init__(self, seed: int, workdir: Path):
        super().__init__(seed, workdir)
        self.audits = []
        for n, (k, T, same, disjoint, iid) in enumerate(self.AUDITS):
            initial, P = random_chain(self.rng, k)
            if iid:
                P = np.tile(initial, (k, 1))
            model = write_model(workdir / f"o{n}.json", initial, P)
            path = sample_path(self.rng, initial, P, T)
            rels = []
            for r, (a, b) in enumerate([same, same, *disjoint]):
                state = r % k if iid else int(self.rng.integers(k))
                argv = ["release", "--model", model,
                        "--data", write_data(workdir / f"o{n}-r{r}.csv", path[a - 1 : b]),
                        "--query", f"count:s{state}",
                        "--epsilon", repr(float(self.rng.uniform(0.3, 1.5))),
                        "--variant", "exact", "--seed", str(int(self.rng.integers(2**31))),
                        "--window", f"{a}:{b}", "--horizon", str(T)]
                rels.append(dict(argv=argv, state=state, window=(a, b)))
            self.audits.append(dict(k=k, T=T, initial=initial, P=P, iid=iid, rels=rels,
                                    ledger=workdir / f"o{n}.jsonl"))
        self.pq = (float(self.rng.uniform(0.6, 0.95)), float(self.rng.uniform(0.01, 0.2)))

    def ops(self) -> list[Op]:
        out = []
        for n, au in enumerate(self.audits):
            ledger = fresh(au["ledger"])
            st: dict = {}
            for r, rel in enumerate(au["rels"]):
                out.append(Op(f"audit {n} release {r}",
                              lambda rel=rel, r=r, st=st, ledger=ledger: st.setdefault(
                                  r, cli(rel["argv"] + ["--ledger", ledger])),
                              lambda res, r=r: expect(res["ledger_id"] == r + 1, "ledger id")))
            for pair, rule in (((0, 1), "thm6"), ((2, 3), "thm2")):
                ids = f"{pair[0] + 1},{pair[1] + 1}"
                out.append(Op(f"audit {n} compose {rule}",
                              lambda ids=ids, rule=rule, pair=pair, st=st, ledger=ledger: st.setdefault(
                                  pair, cli(["compose", "--ledger", ledger, "--ids", ids, "--rule", rule])),
                              lambda res, rule=rule: expect(res["rule"] == rule, f"rule {res['rule']}")))
                out.append(Op(f"audit {n} oracle {rule}",
                              lambda au=au, pair=pair, st=st: self._oracle(au, st, pair),
                              lambda res, au=au, pair=pair, st=st: self.check_audit(au, st, pair, res)))
        out.append(Op("verify counterexample",
                      lambda: cli(["verify", "counterexample", "--p", repr(self.pq[0]), "--q", repr(self.pq[1])]),
                      self.check_counterexample))
        return out

    @staticmethod
    def _oracle(au, st, pair):
        """Exact joint empirical epsilon of one composed pair."""
        recs = [mquilt.mechanism.ReleaseRecord.from_dict(st[r]["record"]) for r in pair]
        queries = [mquilt.mechanism.count_state_query(au["rels"][r]["state"], au["k"]) for r in pair]
        seqs = mquilt.oracle.enumerate_sequences(au["k"], au["T"])
        rels = [mquilt.oracle.release_values(rec, q, seqs) for rec, q in zip(recs, queries)]
        model = mquilt.storage.load_model(au["rels"][0]["argv"][2])
        T = au["T"]
        fw = mquilt.mechanism.Framework(T, mquilt.mechanism.Window(1, T), (model,))
        nodes = sorted({t for rec in recs for t in range(rec.window.start, rec.window.end + 1)})
        return recs, mquilt.oracle.empirical_epsilon(fw, rels, secret_nodes=nodes)

    def check_audit(self, au, st, pair, res) -> None:
        recs, emp = res
        composed = st[pair]["epsilon"]
        eps = [r.epsilon for r in recs]
        _within(composed, eps)
        expect(emp.value <= composed + 1e-9, f"empirical {emp.value} exceeds composed {composed}")
        # The witness must reproduce from an independent enumeration.
        seqs = ref.trajectories(au["k"], au["T"])
        probs = ref.trajectory_probs(au["initial"], au["P"], seqs)
        centers = []
        for r, rec in zip(pair, recs):
            a, b = au["rels"][r]["window"]
            centers.append((seqs[:, a - 1 : b] == au["rels"][r]["state"]).sum(axis=1).astype(float))
        w = emp.witness
        node, (u, v) = w.node, w.pair
        scales = [rec.sigma_max for rec in recs]
        m_u = probs[seqs[:, node - 1] == u].sum()
        m_v = probs[seqs[:, node - 1] == v].sum()
        lu = ref.log_mixture(probs * (seqs[:, node - 1] == u) / m_u, centers, scales, w.point)
        lv = ref.log_mixture(probs * (seqs[:, node - 1] == v) / m_v, centers, scales, w.point)
        expect(close(abs(lu - lv), emp.value, 1e-8),
               f"witness log ratio {abs(lu - lv)} differs from empirical {emp.value}")
        if au["iid"] and pair == (0, 1):
            # Independent nodes: each count is plain Laplace at scale 1/eps,
            # and moving one node from state 0 to 1 shifts both counts.
            expect(all(close(rec.sigma_max, 1.0 / rec.epsilon) for rec in recs),
                   f"i.i.d. scales {scales} are not 1/eps")
            expect(close(emp.value, sum(eps)), f"i.i.d. empirical {emp.value} is not {sum(eps)}")

    def check_counterexample(self, rep) -> None:
        consts = ref.counterexample_constants(*self.pq)
        for key in ("single_squared", "joint_diagonal"):
            for form in ("closed", "direct"):
                for x, y in zip(rep[key], consts[form][key]):
                    expect(close(x, y), f"{key} {rep[key]} vs {form} {consts[form][key]}")
            for x, y in zip(rep[f"oracle_{key}"], consts["direct"][key]):
                expect(close(x, y, 1e-6), f"oracle {key} {rep[f'oracle_{key}']}")
        expect(rep["closed_form_agrees"] is True, "closed forms and oracle disagree")
        joint, single = max(consts["closed"]["joint_diagonal"]), max(consts["closed"]["single_squared"])
        expect(rep["violated"] == (joint > single + 1e-12), "violation verdict")


WORKLOADS = {
    "release-exact": ReleaseExact,
    "histogram-ledger": HistogramLedger,
    "oracle-composition": OracleComposition,
}


def warm_up(workdir: Path) -> None:
    """Touch every command and library path once on tiny inputs."""
    rng = np.random.default_rng(0)
    initial, P = random_chain(rng, 2)
    model = write_model(workdir / "warm.json", initial, P)
    data = write_data(workdir / "warm.csv", sample_path(rng, initial, P, 6))
    ledger = fresh(workdir / "warm.jsonl")
    for variant, query in (("exact", "count:s0"), ("approx", "histogram")):
        cli(["release", "--model", model, "--data", data, "--query", query, "--epsilon", "1.0",
             "--variant", variant, "--seed", "1", "--ledger", ledger])
    cli(["compose", "--ledger", ledger, "--ids", "1,2", "--rule", "thm6"])
    entries = mquilt.storage.read_ledger(ledger)
    mquilt.storage.replay_search(entries[0])
    rec = entries[0].record
    seqs = mquilt.oracle.enumerate_sequences(2, 6)
    vals = mquilt.oracle.release_values(rec, mquilt.mechanism.count_state_query(0, 2), seqs)
    mquilt.oracle.empirical_epsilon(entries[0].framework, [vals])
    cli(["verify", "counterexample"])
    os.unlink(ledger)
