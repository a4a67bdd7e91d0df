import dataclasses
import json
import multiprocessing
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

from mquilt import cli, mechanism, oracle, storage
from mquilt.chains import ChainModel, StateSequence, random_model, sample
from mquilt.cli import main
from mquilt.composition import compose_auto, compose_sequential_mqm
from mquilt.errors import (
    AlphabetMismatch,
    EmptyInput,
    FormatError,
    MquiltError,
)
from mquilt.fit import fit_chain
from mquilt.influence import Variant
from mquilt.mechanism import Framework, Window, count_state_query, release
from mquilt.storage import (
    append_release,
    framework_from_dict,
    framework_to_dict,
    load_model,
    load_sequence,
    model_from_dict,
    model_to_dict,
    read_ledger,
    replay_matches,
    replay_search,
    save_model,
    save_sequence,
)

LAZY = ChainModel.from_arrays([0.6, 0.4], [[0.8, 0.2], [0.3, 0.7]])


# ------------------------------------------------------------------ fitting


def test_fit_alternating_sequence_without_smoothing():
    model = fit_chain([[0, 1, 0, 1]], 2, smoothing=0.0)
    np.testing.assert_array_equal(model.initial, [1.0, 0.0])
    np.testing.assert_array_equal(model.transition, [[0.0, 1.0], [1.0, 0.0]])


def test_fit_heavy_smoothing_flattens_rows():
    model = fit_chain([[0, 0, 0, 0]], 2, smoothing=1000.0)
    np.testing.assert_allclose(model.transition, 0.5, atol=2e-3)
    np.testing.assert_allclose(model.initial, 0.5, atol=2e-3)


def test_fit_rows_always_stochastic():
    rng = np.random.default_rng(3)
    for _ in range(20):
        k = int(rng.integers(2, 5))
        seqs = [
            rng.integers(0, k, size=int(rng.integers(2, 12))).tolist()
            for _ in range(int(rng.integers(1, 4)))
        ]
        model = fit_chain(seqs, k)
        np.testing.assert_allclose(model.transition.sum(axis=1), 1.0, atol=1e-12)
        assert model.initial.sum() == pytest.approx(1.0, abs=1e-12)


def test_fit_refuses_unleavable_state_without_smoothing():
    with pytest.raises(MquiltError, match="never left"):
        fit_chain([[0, 0, 0]], 2, smoothing=0.0)


def test_fit_input_validation():
    with pytest.raises(EmptyInput):
        fit_chain([], 2)
    with pytest.raises(EmptyInput):
        fit_chain([[]], 2)
    with pytest.raises(AlphabetMismatch):
        fit_chain([[0, 2]], 2)
    with pytest.raises(MquiltError):
        fit_chain([[0, 1]], 2, smoothing=-1.0)


def test_fit_carries_state_labels():
    model = fit_chain([[0, 1, 1]], 2, states=("lo", "hi"))
    assert model.states == ("lo", "hi")


def test_fit_refuses_a_label_count_other_than_k(tmp_path, capsys):
    with pytest.raises(AlphabetMismatch, match="3 state labels for 2 states"):
        fit_chain([[0, 1, 1]], 2, states=("a", "b", "c"))
    # The CLI refuses before writing a model that every later command rejects.
    data, out = tmp_path / "two.csv", tmp_path / "fitted.json"
    save_sequence([0, 1, 0, 1, 1, 0], data)
    argv = ["fit", "--data", str(data), "--states", "a,b,c", "--out", str(out)]
    assert main(argv) == 2
    assert "error: got 3 state labels for 2 states" in capsys.readouterr().err
    assert not out.exists()


# ------------------------------------------------------------------ storage


def test_model_json_round_trip(tmp_path):
    path = tmp_path / "m.json"
    save_model(LAZY, path)
    back = load_model(path)
    np.testing.assert_array_equal(back.initial, LAZY.initial)
    np.testing.assert_array_equal(back.transition, LAZY.transition)
    assert back.states == LAZY.states


def test_model_dict_round_trip_survives_json():
    blob = json.dumps(model_to_dict(LAZY))
    back = model_from_dict(json.loads(blob))
    np.testing.assert_array_equal(back.transition, LAZY.transition)


def test_load_model_rejects_garbage(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("not json at all")
    with pytest.raises(FormatError):
        load_model(path)
    path.write_text(json.dumps({"initial": [1.0]}))
    with pytest.raises(FormatError):
        load_model(path)


def test_sequence_csv_round_trip(tmp_path):
    path = tmp_path / "seq.csv"
    save_sequence(StateSequence(np.array([0, 1, 1, 0])), path)
    text = path.read_text()
    assert text.splitlines()[0] == "state"
    back = load_sequence(path)
    np.testing.assert_array_equal(back.values, [0, 1, 1, 0])


def test_load_sequence_rejects_garbage(tmp_path):
    path = tmp_path / "seq.csv"
    path.write_text("state\nfoo\n")
    with pytest.raises(FormatError):
        load_sequence(path)


def test_framework_dict_round_trip():
    fw = Framework(6, Window(2, 5), (LAZY,))
    back = framework_from_dict(json.loads(json.dumps(framework_to_dict(fw))))
    assert back.horizon == 6
    assert back.window == Window(2, 5)
    np.testing.assert_array_equal(back.models[0].transition, LAZY.transition)


def _make_record(eps=0.7, seed=4):
    fw = Framework(4, Window(1, 4), (LAZY,))
    data = StateSequence(np.array([0, 1, 0, 0]))
    return fw, release(data, count_state_query(0, 2), eps, fw, Variant.EXACT, seed)


def test_ledger_ids_increase(tmp_path):
    path = tmp_path / "ledger.jsonl"
    fw, rec = _make_record()
    (first,) = append_release(path, fw, [rec])
    (second,) = append_release(path, fw, [rec])
    assert (first.entry_id, second.entry_id) == (1, 2)
    entries = read_ledger(path)
    assert [e.entry_id for e in entries] == [1, 2]
    assert entries[0].record.output == pytest.approx(rec.output)
    assert entries[0].framework.window == fw.window


def test_ledger_replay_reproduces_search(tmp_path):
    path = tmp_path / "ledger.jsonl"
    fw, rec = _make_record(eps=1.3)
    (entry,) = append_release(path, fw, [rec])
    sigma, active = replay_search(entry)
    assert sigma == rec.sigma_max
    assert active[0] == rec.active_quilts[0]
    assert replay_matches(entry)


@pytest.mark.parametrize("k", [5, 10])
@pytest.mark.parametrize("variant", list(Variant))
def test_ledger_replay_matches_random_chains(tmp_path, k, variant):
    # Rows normalized by the caller rather than by validate, as in a model
    # file: the ledger round trip must not move their last bits.
    rng = np.random.default_rng(k)
    path = tmp_path / "ledger.jsonl"
    for n in range(20):
        P = rng.random((k, k)) + 0.05
        q = rng.random(k) + 0.05
        model = ChainModel.from_arrays(q / q.sum(), P / P.sum(axis=1, keepdims=True))
        fw = Framework(40, Window(10, 33), (model,))
        data = StateSequence(rng.integers(0, k, 24))
        rec = release(data, count_state_query(0, k), 1.5, fw, variant, n)
        append_release(path, fw, [rec])
    entries = read_ledger(path)
    assert len(entries) == 20
    assert all(replay_matches(e) for e in entries)


def test_ledger_replay_detects_tampering(tmp_path):
    path = tmp_path / "ledger.jsonl"
    fw, rec = _make_record()
    append_release(path, fw, [rec])
    lines = path.read_text().splitlines()
    doctored = json.loads(lines[0])
    doctored["record"]["sigma_max"] = 99.0
    path.write_text(json.dumps(doctored) + "\n")
    entry = read_ledger(path)[0]
    assert not replay_matches(entry)


def test_read_ledger_rejects_garbage(tmp_path):
    path = tmp_path / "ledger.jsonl"
    path.write_text("{broken\n")
    with pytest.raises(FormatError):
        read_ledger(path)


def _v1_line(entry_id, fw, rec, **record_changes) -> str:
    """A ledger line as written before version 2: no "v", its own
    framework, and one quilt object per node."""
    quilts = {
        str(idx): [
            {"node": q.node, "left": q.shape.left, "right": q.shape.right,
             "score": q.score}
            for q in qs
        ]
        for idx, qs in rec.active_quilts.items()
    }
    record = {**rec.to_dict(), "active_quilts": quilts, **record_changes}
    return json.dumps({"id": entry_id, "timestamp": "t",
                       "framework": framework_to_dict(fw), "record": record})


def _entry_line(**record_changes) -> str:
    return _v1_line(1, *_make_record(), **record_changes)


def _offset_window_line(**record_changes) -> str:
    """A line over nodes 2..5 of a 6-node horizon."""
    fw = Framework(6, Window(2, 5), (LAZY,))
    data = StateSequence(np.array([0, 1, 0, 0]))
    rec = release(data, count_state_query(0, 2), 0.7, fw, Variant.EXACT, 4)
    return _v1_line(1, fw, rec, **record_changes)


def _node(n):
    return {"node": n, "left": None, "right": None, "score": 5.0}


@pytest.mark.parametrize(
    "last_line",
    ['{"id": 1, "trunc', '{"id": "x"}', '{"no-id": 1}', "[1, 2]"],
    ids=["torn", "string-id", "no-id", "not-an-object"],
)
def test_damaged_last_line_is_a_format_error(tmp_path, capsys, last_line):
    path = tmp_path / "ledger.jsonl"
    path.write_text(_entry_line() + "\n" + last_line)
    fw, rec = _make_record()
    with pytest.raises(FormatError, match="last line"):
        append_release(path, fw, [rec])
    with pytest.raises(FormatError, match="line 2"):
        read_ledger(path)
    model_path, data_path = _write_inputs(tmp_path)
    argv = ["release", "--model", model_path, "--data", data_path,
            "--query", "count:0", "--epsilon", "1.0", "--seed", "1",
            "--ledger", str(path)]
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize(
    "line",
    [
        _entry_line(variant="bogus"),
        _entry_line(active_quilts=[1]),
        _entry_line(epsilon="high"),
        json.dumps({"id": 1, "timestamp": "t"}),
        _entry_line(active_quilts={}),
        _entry_line(active_quilts={"0": [[1, 4, None, None, 5.0]],
                                   "1": [[1, 4, None, None, 5.0]]}),
        _entry_line(active_quilts={"0": []}),
        _entry_line(active_quilts={"0": [[1, 200000, None, None, 5.0]]}),
        _entry_line(active_quilts={"0": [[1, 2, None, None, 5.0], [4, 4, None, None, 5.0]]}),
        _entry_line(active_quilts={"0": [[1, 3, None, None, 5.0], [3, 4, None, None, 5.0]]}),
        _entry_line(active_quilts={"0": [[1, 0, None, None, 5.0]]}),
        _offset_window_line(active_quilts={"0": [[1, 5, None, None, 5.0]]}),
        _offset_window_line(scope="chain"),
        _entry_line(active_quilts={"0": [_node(1), _node(2), _node(4)]}),
        _entry_line(active_quilts={"0": [_node(1), _node(2), _node(2), _node(3), _node(4)]}),
        _entry_line(epsilon=-0.9),
        _entry_line(epsilon=float("nan")),
        _entry_line(sigma_max=0.0),
        _entry_line(sigma_max=float("inf")),
        _entry_line(lipschitz_constant=-1.0),
        _entry_line(output=float("nan")),
        _entry_line(output=float("inf")),
        _entry_line(scope="bogus"),
        _entry_line(window={"start": 40, "end": 60}),
        _offset_window_line(window={"start": 1, "end": 4}),
    ],
    ids=["unknown-variant", "quilts-not-a-map", "epsilon-not-a-number", "no-record",
         "no-quilt-table", "extra-model", "no-runs", "runs-past-the-window",
         "runs-with-a-gap", "runs-overlap", "run-ends-before-it-starts",
         "runs-before-the-window", "chain-scope-runs-cover-only-the-window",
         "v1-skips-a-node", "v1-repeats-a-node", "negative-epsilon", "nan-epsilon",
         "zero-sigma", "infinite-sigma", "negative-lipschitz-constant", "nan-output",
         "infinite-output", "unknown-scope", "window-past-the-horizon",
         "window-not-the-frameworks"],
)
def test_malformed_entry_is_a_format_error(tmp_path, line):
    path = tmp_path / "ledger.jsonl"
    path.write_text(line + "\n")
    with pytest.raises(FormatError, match="line 1"):
        read_ledger(path)
    with pytest.raises(FormatError, match="line 1"):
        read_ledger(path, ids=[1])


def _json_loads_per_line(line, skim=False):
    """Ledger lines decoded as ``json.loads`` decodes them, one decoder per
    call: the reference for the decoders that storage builds once."""
    return json.loads(line, parse_float=str if skim else None)


def test_ledger_reads_with_shared_decoders_equal_json_loads(tmp_path):
    path = tmp_path / "ledger.jsonl"
    fw, rec = _make_record()
    for n in range(3):
        append_release(path, fw, [rec, dataclasses.replace(rec, output=rec.output + n)])

    def parts(entries):
        return [(e.entry_id, e.timestamp, e.record, e.framework.horizon, e.framework.window,
                 [(m.states, m.initial.tobytes(), m.transition.tobytes())
                  for m in e.framework.models]) for e in entries]

    for ids in (None, [2], [4, 5], [6]):
        got = read_ledger(path, ids=ids)
        with mock.patch.object(storage, "_loads", _json_loads_per_line):
            assert parts(got) == parts(read_ledger(path, ids=ids))
        assert [e.entry_id for e in got] == (ids or list(range(1, 7)))
    good = path.read_bytes()
    lines = good.splitlines(keepends=True)
    damaged = [
        lines[0][:-10] + b"\n",  # cut short
        b"\xff\xfe" + lines[0],  # not UTF-8
        lines[0].replace(b'"id": 1', b'"id": 1.0'),  # an id that is not an integer
        b"[1, 2]\n",  # not an object
        lines[0].rstrip() + b" }\n",  # trailing junk
    ]
    for bad in damaged:
        path.write_bytes(bad + b"".join(lines[1:]))
        for ids in (None, [2]):
            with pytest.raises(FormatError, match="line 1"):
                read_ledger(path, ids=ids)


def test_read_ledger_refuses_ids_that_do_not_increase(tmp_path):
    path = tmp_path / "ledger.jsonl"
    fw, rec = _make_record()
    for _ in range(3):
        append_release(path, fw, [rec])
    lines = path.read_text().splitlines()
    path.write_text("\n".join([lines[0], lines[2], lines[1]]) + "\n")
    with pytest.raises(FormatError, match="must increase"):
        read_ledger(path, ids=[1])


def test_append_after_unterminated_last_line(tmp_path):
    path = tmp_path / "ledger.jsonl"
    fw, rec = _make_record()
    append_release(path, fw, [rec])
    path.write_text(path.read_text().rstrip("\n"))
    assert append_release(path, fw, [rec])[0].entry_id == 2
    assert [e.entry_id for e in read_ledger(path)] == [1, 2]


def _append_releases(path, barrier, writer, size):
    """Ten releases of ``size`` records each, tagged with writer and call."""
    fw, rec = _make_record()
    barrier.wait(timeout=60)
    for call in range(10):
        records = [
            dataclasses.replace(rec, query_id=f"w{writer}c{call}q{q}")
            for q in range(size)
        ]
        ids = [e.entry_id for e in append_release(path, fw, records)]
        assert ids == list(range(ids[0], ids[0] + size)), ids


def test_parallel_writers_get_distinct_ids(tmp_path):
    # Six writers on two cores, two of them appending 3-record releases: the
    # last-line read and the whole release's write must stay inside one
    # lock, or two writers take the same id or interleave their entries.
    path = tmp_path / "ledger.jsonl"
    ctx = multiprocessing.get_context("spawn")
    sizes = [1, 1, 1, 1, 3, 3]
    barrier = ctx.Barrier(len(sizes))
    procs = [
        ctx.Process(target=_append_releases, args=(str(path), barrier, w, size))
        for w, size in enumerate(sizes)
    ]
    for p in procs:
        p.start()
    for p in procs:
        p.join(timeout=120)
    assert not any(p.is_alive() for p in procs)
    assert [p.exitcode for p in procs] == [0] * len(sizes)
    n = 10 * sum(sizes)
    lines = path.read_text().splitlines()
    assert sorted(json.loads(line)["id"] for line in lines) == list(range(1, n + 1))
    entries = read_ledger(path)
    assert [e.entry_id for e in entries] == list(range(1, n + 1))
    # Each release's records have consecutive ids, in order.
    calls = {}
    for e in entries:
        call, q = e.record.query_id.rsplit("q", 1)
        calls.setdefault(call, []).append((int(q), e.entry_id))
    assert len(calls) == 10 * len(sizes)
    for call, got in calls.items():
        size = sizes[int(call[1:].split("c")[0])]
        assert got == [(q, got[0][1] + q) for q in range(size)], call


def test_read_ledger_by_ids_matches_full_read(tmp_path, capsys):
    path = tmp_path / "ledger.jsonl"
    other = ChainModel.from_arrays([0.5, 0.5], [[0.6, 0.4], [0.1, 0.9]])
    one = Framework(4, Window(1, 4), (LAZY,))
    two = Framework(4, Window(1, 4), (LAZY, other))
    data = StateSequence(np.array([0, 1, 0, 0]))
    # Model sets alternate in runs, so a framework kept from one entry
    # would be wrong for the next.
    for n, fw in enumerate([one, one, two, one, two, two, one]):
        rec = release(data, count_state_query(0, 2), 0.5 + n, fw, Variant.EXACT, n)
        append_release(path, fw, [rec])
    full = read_ledger(path)
    assert full[0].framework is full[1].framework
    for ids in ([2, 3, 4], [7, 1], [5], []):
        part = read_ledger(path, ids)
        want = [e for e in full if e.entry_id in ids]
        assert [e.entry_id for e in part] == [e.entry_id for e in want]
        for got, exp in zip(part, want):
            assert got.record.to_dict() == exp.record.to_dict()
            assert got.framework.window == exp.framework.window
            assert len(got.framework.models) == len(exp.framework.models)
            assert all(
                a.equal_to(b)
                for a, b in zip(got.framework.models, exp.framework.models)
            )
    # Damage on a line that was not asked for is still refused.
    with open(path, "a") as fh:
        fh.write("{not json\n")
    with pytest.raises(FormatError, match="line 8"):
        read_ledger(path, [1])
    argv = ["compose", "--ledger", str(path), "--ids", "1,2", "--rule", "thm6"]
    assert main(argv) == 2
    assert "line 8 is not valid JSON" in capsys.readouterr().err


def test_append_decodes_only_the_last_line(tmp_path, monkeypatch):
    # Guards against appends that re-read the ledger, which made writing n
    # entries cost O(n^2).
    path = tmp_path / "ledger.jsonl"
    fw, rec = _make_record()
    append_release(path, fw, [rec])
    doc = json.loads(path.read_text())
    with open(path, "a") as fh:
        for n in range(2, 501):
            fh.write(json.dumps({**doc, "id": n}) + "\n")
    calls = []
    loads = storage._loads  # every ledger line is decoded through it

    def counting_loads(*args, **kwargs):
        calls.append(1)
        return loads(*args, **kwargs)

    monkeypatch.setattr(storage, "_loads", counting_loads)
    assert append_release(path, fw, [rec])[0].entry_id == 501
    assert len(calls) <= 1


def _histogram(k=30, L=40, eps=3.0, variant=Variant.APPROX, seed=1):
    """One release of k bucket counts that share one search, as the CLI
    makes it."""
    rng = np.random.default_rng(seed)
    P = rng.random((k, k)) + 0.05
    q = rng.random(k) + 0.05
    model = ChainModel.from_arrays(q / q.sum(), P / P.sum(axis=1, keepdims=True))
    fw = Framework(L + 20, Window(11, L + 10), (model,))
    data = StateSequence(rng.integers(0, k, L))
    search = mechanism.quilt_scores(fw, eps / k, variant)
    gen = np.random.default_rng(seed)
    records = [
        mechanism.release_record(search, data, count_state_query(s, k), eps / k, fw,
                                 variant, gen)
        for s in range(k)
    ]
    return fw, records


def test_histogram_append_writes_framework_and_quilts_once(tmp_path):
    path = tmp_path / "ledger.jsonl"
    fw, records = _histogram()
    entries = append_release(path, fw, records)
    lines = [json.loads(line) for line in path.read_text().splitlines()]
    assert len(lines) == 30
    assert all(line["v"] == 2 for line in lines)
    assert ["framework" in line for line in lines] == [True] + [False] * 29
    assert ["active_quilts" in line["record"] for line in lines] == [True] + [False] * 29
    assert [line.get("release") for line in lines] == [None] + [1] * 29
    # The framework is most of a head line; the others are a few hundred bytes.
    sizes = [len(line) for line in path.read_text().splitlines()]
    assert max(sizes[1:]) < 500 < len(json.dumps(framework_to_dict(fw))) < sizes[0]
    for back in (read_ledger(path), read_ledger(path, [3, 1, 30])):
        assert all(e.framework is back[0].framework for e in back)
        assert all(e.record.active_quilts is back[0].record.active_quilts for e in back)
        want = {e.entry_id: e.record for e in entries}
        assert all(e.record == want[e.entry_id] for e in back)
    assert read_ledger(path, [7])[0].record == records[6]


def test_release_with_its_own_quilt_table_keeps_it(tmp_path):
    # A record whose table differs from the head's carries its own.
    path = tmp_path / "ledger.jsonl"
    fw, rec = _make_record(eps=0.7)
    _, other = _make_record(eps=2.5)
    assert other.active_quilts != rec.active_quilts
    append_release(path, fw, [rec, other, rec])
    lines = [json.loads(line) for line in path.read_text().splitlines()]
    assert ["active_quilts" in line["record"] for line in lines] == [True, True, False]
    for back in (read_ledger(path), read_ledger(path, [2, 3])):
        assert [e.record for e in back] == [rec, other, rec][-len(back):]
        assert all(replay_matches(e) for e in back)


@pytest.mark.parametrize("where", ["earlier-head", "itself", "no-head", "after-v1"])
def test_release_reference_to_another_head_is_a_format_error(tmp_path, where):
    path = tmp_path / "ledger.jsonl"
    fw, rec = _make_record()
    append_release(path, fw, [rec, rec])
    append_release(path, fw, [rec, rec])
    lines = path.read_text().splitlines()
    docs = [json.loads(line) for line in lines]
    if where == "earlier-head":
        docs[3]["release"] = 1
    elif where == "itself":
        docs[3]["release"] = 4
    elif where == "no-head":
        docs = docs[1:2]
    else:
        docs[2] = json.loads(_v1_line(3, fw, rec))
    path.write_text("".join(json.dumps(d) + "\n" for d in docs))
    with pytest.raises(FormatError, match="refers to release"):
        read_ledger(path)
    with pytest.raises(FormatError, match="refers to release"):
        read_ledger(path, [1])


def test_unknown_ledger_version_is_a_format_error(tmp_path):
    path = tmp_path / "ledger.jsonl"
    fw, rec = _make_record()
    append_release(path, fw, [rec])
    doc = json.loads(path.read_text())
    path.write_text(json.dumps({**doc, "v": 3}) + "\n")
    with pytest.raises(FormatError, match="unknown ledger version 3"):
        read_ledger(path)


def test_v1_ledger_reads_composes_and_replays_beside_v2_releases(tmp_path, capsys):
    path = tmp_path / "ledger.jsonl"
    other = ChainModel.from_arrays([0.5, 0.5], [[0.6, 0.4], [0.1, 0.9]])
    early = Framework(40, Window(1, 12), (LAZY, other))
    late = Framework(40, Window(29, 40), (LAZY, other))
    rng = np.random.default_rng(6)
    data = StateSequence(rng.integers(0, 2, 12))
    v1 = [
        (early, release(data, count_state_query(0, 2), 0.6, early, Variant.EXACT, 1)),
        (early, release(data, count_state_query(1, 2), 0.9, early, Variant.EXACT, 2)),
        (late, release(data, count_state_query(0, 2), 0.7, late, Variant.APPROX, 3)),
    ]
    path.write_text(
        _v1_line(1, *v1[0]) + "\n"
        + _v1_line(2, *v1[1], seed=2) + "\n"
        + _v1_line(3, *v1[2]) + "\n"
    )
    v2 = [
        (fw, rec)
        for fw in (early, late)
        for rec in [release(data, count_state_query(s, 2), 0.4, fw, Variant.EXACT, s)
                    for s in range(2)]
    ]
    append_release(path, early, [rec for _, rec in v2[:2]])
    append_release(path, late, [rec for _, rec in v2[2:]])
    written = v1 + v2
    full = read_ledger(path)
    assert [e.entry_id for e in full] == [1, 2, 3, 4, 5, 6, 7]
    assert [e.record for e in full] == [rec for _, rec in written]
    for e, (fw, _) in zip(full, written):
        assert e.framework.window == fw.window
        assert all(a.equal_to(b) for a, b in zip(e.framework.models, fw.models))
    for ids in ([2, 5], [7, 1, 3], [6]):
        assert [e.record for e in read_ledger(path, ids)] == [
            full[i - 1].record for i in sorted(ids)
        ]
    assert all(replay_matches(e) for e in full if e.record.variant is Variant.EXACT)
    recs = [rec for _, rec in written]
    cases = [
        ("1,2", "thm6", compose_sequential_mqm([recs[0], recs[1]])),
        ("2,4", "thm6", compose_sequential_mqm([recs[1], recs[3]])),
        ("1,2", "auto", compose_auto([recs[0], recs[1]], early.models)),
        ("1,3", "auto", compose_auto([recs[0], recs[2]], early.models)),
        ("3,6", "auto", compose_auto([recs[2], recs[5]], early.models)),
    ]
    for ids, rule, want in cases:
        argv = ["compose", "--ledger", str(path), "--ids", ids, "--rule", rule, "--json"]
        assert main(argv) == 0
        got = json.loads(capsys.readouterr().out)
        assert (got["rule"], got["epsilon"]) == (want.rule.value, want.epsilon), ids


# ---------------------------------------------------------------------- CLI


def _write_inputs(tmp_path, T=6):
    model_path = tmp_path / "model.json"
    data_path = tmp_path / "data.csv"
    save_model(LAZY, model_path)
    save_sequence(StateSequence(np.array([0, 1, 0, 0, 1, 0][:T])), data_path)
    return str(model_path), str(data_path)


def test_cli_refuses_input_files_that_are_not_utf8(tmp_path, capsys):
    # Byte 0xff starts no UTF-8 sequence. Each command names the file and
    # exits 2, as it does for a ledger line holding that byte.
    model_path, data_path = _write_inputs(tmp_path)
    model, data = tmp_path / "bad.json", tmp_path / "bad.csv"
    model.write_bytes(b"\xff" + Path(model_path).read_bytes())
    data.write_bytes(b"state\n0\n\xff1\n")
    release = ["release", "--query", "count:0", "--epsilon", "1", "--seed", "1"]
    cases = [
        (model, ["gap", "--model", str(model)]),
        (model, release + ["--model", str(model), "--data", data_path]),
        (data, release + ["--model", model_path, "--data", str(data)]),
        (data, ["fit", "--data", str(data), "--out", str(tmp_path / "fitted.json")]),
        (model, ["simulate", "--model", str(model), "--T", "5", "--seed", "1",
                 "--out", str(tmp_path / "sim.csv")]),
    ]
    for path, argv in cases:
        assert main(argv) == 2, argv
        assert capsys.readouterr().err.startswith(f"error: {path} is not "), argv
    assert not (tmp_path / "fitted.json").exists() and not (tmp_path / "sim.csv").exists()


def test_cli_exit_codes(tmp_path, capsys):
    model_path, data_path = _write_inputs(tmp_path)
    assert main(["gap", "--model", model_path]) == 0
    assert main(["no-such-command"]) == 1
    assert main(["release", "--model", model_path]) == 1  # missing flags
    code = main(
        [
            "release",
            "--model", model_path,
            "--data", data_path,
            "--query", "count:0",
            "--epsilon", "-1",
            "--seed", "1",
        ]
    )
    assert code == 2
    capsys.readouterr()
    assert main(["compose", "--ledger", "ledger.jsonl", "--ids", "1,x"]) == 2
    assert "error: ids must be comma-separated integers" in capsys.readouterr().err


def test_main_builds_its_parser_once(tmp_path, capsys):
    model_path, data_path = _write_inputs(tmp_path)
    release = ["release", "--model", model_path, "--data", data_path,
               "--query", "count:0", "--epsilon", "0.8", "--seed", "11", "--json"]
    runs = [
        ["release", "--model", model_path],  # a usage error first
        release,
        ["no-such-command"],
        ["gap", "--model", model_path, "--json"],
        release[:-1],
    ]

    def outcomes():
        got = []
        for argv in runs:
            code = main(argv)
            got.append((code, *capsys.readouterr()))
        return got

    with mock.patch.object(cli, "_parser", cli.build_parser):
        fresh = outcomes()  # a new parser for every call
    assert [code for code, _, _ in fresh] == [1, 0, 1, 0, 0]
    built = []
    build = cli.build_parser

    def counting():
        built.append(1)
        return build()

    cli._parser.cache_clear()
    try:
        with mock.patch.object(cli, "build_parser", counting):
            assert outcomes() == fresh
    finally:
        cli._parser.cache_clear()
    assert len(built) == 1
    assert build() is not build()


def _long_approx_count(tmp_path, epsilon):
    """A release argv: the approx count of one state over a 10**5-node walk
    of a fast-mixing 10-state chain."""
    model = random_model(10, np.random.default_rng(3))
    model_path, data_path = tmp_path / "model.json", tmp_path / "walk.csv"
    save_model(model, model_path)
    save_sequence(sample(model, 100_000, 1), data_path)
    return ["release", "--model", str(model_path), "--data", str(data_path),
            "--query", f"count:{model.states[0]}", "--epsilon", str(epsilon),
            "--variant", "approx", "--seed", "1"]


def test_cli_approx_count_over_the_table_limit_exits_2(tmp_path, capsys):
    # Under a lowered limit the doubling caps outgrow it: at this budget no
    # spectral term within the first cap is below it, so the nodes take a
    # second step, whose 16 x 16 two-sided table is refused before it is
    # built, with no traceback.
    limit = mechanism._FIRST_CAP ** 2
    with mock.patch.object(mechanism, "_TABLE_LIMIT", limit):
        assert main(_long_approx_count(tmp_path, 0.01)) == 2
    out, err = capsys.readouterr()
    assert out == "" and "Traceback" not in err
    assert err.startswith("error: the approx search of node ") and f"limit is {limit}" in err


def test_cli_approx_count_over_a_long_window_runs(tmp_path, capsys):
    # The nodes step through doubling caps and the two-sided tables stay
    # small. Below budget t(8) = 0.7216 no spectral term within the first
    # cap is below the budget, yet the full reach's 99999 x 99999 table is
    # over the limit, so the search doubles from the first cap all the same.
    for epsilon, sigma_eps, runs in [(1.0, 30.777758, 32), (0.5, 34.215475, 35),
                                     (0.01, 53.056427, 54)]:
        assert main(_long_approx_count(tmp_path, epsilon) + ["--json"]) == 0
        record = json.loads(capsys.readouterr().out.splitlines()[-1])["record"]
        assert round(record["sigma_max"] * record["epsilon"], 6) == sigma_eps
        assert len(record["active_quilts"]["0"]) == runs


def _refusal_inputs(tmp_path) -> dict[str, str]:
    """Paths for the refusal cases: a model and its data, a ledger whose two
    entries were released under different models, a missing ledger, a JSON
    array and a CSV without the ``state`` header."""
    model_path, data_path = _write_inputs(tmp_path)
    other = tmp_path / "other.json"
    save_model(ChainModel.from_arrays([0.5, 0.5], [[0.6, 0.4], [0.4, 0.6]]), other)
    ledger = tmp_path / "ledger.jsonl"
    for seed, model in enumerate([model_path, str(other)], start=1):
        assert main(["release", "--model", model, "--data", data_path, "--query", "count:0",
                     "--epsilon", "1", "--seed", str(seed), "--ledger", str(ledger)]) == 0
    (tmp_path / "array.json").write_text("[1, 2]")
    (tmp_path / "headless.csv").write_text("0\n1\n")
    return {"model": model_path, "data": data_path, "ledger": str(ledger),
            "missing": str(tmp_path / "missing.jsonl"), "array": str(tmp_path / "array.json"),
            "headless": str(tmp_path / "headless.csv")}


_RELEASE = ["release", "--model", "{model}", "--epsilon", "1", "--seed", "1"]


@pytest.mark.parametrize("argv, message", [
    (_RELEASE + ["--data", "{data}", "--query", "count:0", "--window", "3-9"],
     "window must look like 'start:end', got '3-9'"),
    (_RELEASE + ["--data", "{data}", "--query", "sum"],
     "unknown query 'sum'; use 'count:<state>' or 'histogram'"),
    (["compose", "--ledger", "{ledger}", "--ids", "1,9", "--rule", "thm6"],
     "ledger has no entries [9]"),
    (["compose", "--ledger", "{ledger}", "--ids", "1,2", "--rule", "auto"],
     "ledger entries were released under different model sets"),
    (["compose", "--ledger", "{ledger}", "--ids", "1", "--rule", "thm2"],
     "rule thm2 composes exactly 2 releases"),
    (["compose", "--ledger", "{missing}", "--ids", "1", "--rule", "thm6"], "no ledger at "),
    (["gap", "--model", "{array}"], "does not hold a model object"),
    (_RELEASE + ["--data", "{headless}", "--query", "count:0"],
     "is missing the 'state' header"),
], ids=["window-without-colon", "unknown-query", "missing-entry", "mixed-model-sets",
        "thm2-one-id", "missing-ledger", "gap-on-json-array", "csv-without-header"])
def test_cli_refusals_exit_2_with_one_error_line(tmp_path, capsys, argv, message):
    paths = _refusal_inputs(tmp_path)
    capsys.readouterr()
    assert main([a.format(**paths) for a in argv]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: ") and message in err
    assert "Traceback" not in err and err.count("\n") == 1


def test_ledger_with_blank_lines_still_reads(tmp_path):
    ledger = Path(_refusal_inputs(tmp_path)["ledger"])

    def read():
        return [(e.entry_id, e.record.to_dict()) for e in read_ledger(ledger)]

    entries = read()
    ledger.write_text("\n" + ledger.read_text().replace("\n", "\n\n  \n"))
    assert read() == entries and [i for i, _ in entries] == [1, 2]


def test_cli_missing_files_exit_2(tmp_path, capsys):
    model_path, data_path = _write_inputs(tmp_path)
    missing = str(tmp_path / "missing.csv")
    nowhere = tmp_path / "no-such-dir"
    release = ["release", "--query", "count:0", "--epsilon", "1", "--seed", "1"]
    cases = [
        release + ["--model", model_path, "--data", missing],
        release + ["--model", str(tmp_path / "missing.json"), "--data", data_path],
        release + ["--model", model_path, "--data", data_path,
                   "--ledger", str(nowhere / "ledger.jsonl")],
        ["simulate", "--model", model_path, "--T", "5", "--seed", "1",
         "--out", str(nowhere / "sim.csv")],
    ]
    for argv in cases:
        assert main(argv) == 2, argv
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "No such file or directory" in err, err
    assert not nowhere.exists()


def test_cli_gap_reports_spectrum(tmp_path, capsys):
    model_path = str(tmp_path / "sym.json")
    save_model(
        ChainModel.from_arrays([1.0, 0.0], [[0.75, 0.25], [0.25, 0.75]]), model_path
    )
    assert main(["gap", "--model", model_path, "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["gap"] == pytest.approx(0.75, abs=1e-9)
    assert payload["pi_min"] == pytest.approx(0.5, abs=1e-9)


def test_cli_fit_round_trip(tmp_path, capsys):
    data = tmp_path / "train.csv"
    save_sequence([0, 1, 0, 1, 1, 0], data)
    out = tmp_path / "fitted.json"
    code = main(
        ["fit", "--data", str(data), "--alpha", "0.5", "--out", str(out)]
    )
    assert code == 0
    model = load_model(out)
    assert model.k == 2  # inferred from the data
    np.testing.assert_allclose(model.transition.sum(axis=1), 1.0, atol=1e-12)
    capsys.readouterr()


def test_cli_release_is_deterministic(tmp_path, capsys):
    model_path, data_path = _write_inputs(tmp_path)
    argv = [
        "release",
        "--model", model_path,
        "--data", data_path,
        "--query", "count:0",
        "--epsilon", "0.8",
        "--seed", "11",
        "--json",
    ]
    assert main(argv) == 0
    first = json.loads(capsys.readouterr().out)
    assert main(argv) == 0
    second = json.loads(capsys.readouterr().out)
    assert first["record"]["output"] == second["record"]["output"]
    assert main(argv[:-1] + ["--seed", "12", "--json"]) == 0
    third = json.loads(capsys.readouterr().out)
    assert third["record"]["output"] != first["record"]["output"]


@pytest.mark.parametrize("alpha", ["nan", "inf"])
def test_cli_fit_refuses_non_finite_smoothing(tmp_path, capsys, alpha):
    data = tmp_path / "train.csv"
    save_sequence([0, 1, 0, 1, 1, 0], data)
    out = tmp_path / "fitted.json"
    assert main(["fit", "--data", str(data), "--alpha", alpha, "--out", str(out)]) == 2
    assert "smoothing must be in [0, inf), got " + alpha in capsys.readouterr().err
    assert not out.exists()


def test_fit_refuses_smoothing_that_overflows(tmp_path, capsys):
    # Counts plus 1e308 sum past the float maximum; the fit must not come
    # back as an all-zero model, nor warn on the way (warnings fail tier-1).
    sample = np.random.default_rng(0).integers(0, 3, 1000)
    with pytest.raises(MquiltError, match="overflows the counts"):
        fit_chain([sample], 3, smoothing=1e308)
    data, out = tmp_path / "train.csv", tmp_path / "fitted.json"
    save_sequence(sample, data)
    assert main(["fit", "--data", str(data), "--alpha", "1e308", "--out", str(out)]) == 2
    assert "error: smoothing 1e+308 overflows the counts" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("k", ["0", "-1"])
def test_cli_fit_refuses_a_state_count_below_one(tmp_path, capsys, k):
    # 0 is a given count, not a request to infer one from the data.
    data, out = tmp_path / "train.csv", tmp_path / "fitted.json"
    save_sequence([0, 1, 0, 1, 1, 0], data)
    assert main(["fit", "--data", str(data), "--k", k, "--out", str(out)]) == 2
    assert f"state count must be >= 1, got {k}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("horizon", ["0", "-1"])
def test_cli_release_refuses_a_horizon_below_one(tmp_path, capsys, horizon):
    # 0 is a given horizon, not a request to end it at the window.
    model_path, data_path = _write_inputs(tmp_path)
    argv = ["release", "--model", model_path, "--data", data_path, "--query", "count:0",
            "--epsilon", "1.0", "--seed", "1", "--horizon", horizon]
    assert main(argv) == 2
    assert f"horizon must be >= 1, got {horizon}" in capsys.readouterr().err


@pytest.mark.parametrize("seeds", ["0", "-2"])
def test_cli_soundness_refuses_a_sweep_of_no_trials(capsys, seeds):
    assert main(["verify", "soundness", "--T", "3", "--seeds", seeds]) == 1
    captured = capsys.readouterr()
    assert f"trial count must be >= 1, got {seeds}" in captured.err
    assert "trials passed" not in captured.out


def test_cli_release_refuses_a_budget_too_small_for_the_window(tmp_path, capsys):
    model_path, data_path = _write_inputs(tmp_path)
    for variant in ("exact", "approx"):
        argv = ["release", "--model", model_path, "--data", data_path, "--query",
                "histogram", "--epsilon", "1e-310", "--variant", variant]
        assert main(argv) == 2
        assert "too small" in capsys.readouterr().err


def test_cli_refuses_negative_seeds(tmp_path, capsys):
    model_path, data_path = _write_inputs(tmp_path)
    cases = [
        ["release", "--model", model_path, "--data", data_path, "--query", "count:0",
         "--epsilon", "1", "--seed", "-1"],
        ["simulate", "--model", model_path, "--T", "5", "--seed", "-1",
         "--out", str(tmp_path / "sim.csv")],
        ["verify", "soundness", "--T", "3", "--seeds", "1", "--seeds-from", "-1"],
    ]
    for argv in cases:
        assert main(argv) == 1, argv
        assert "must be >= 0, got -1" in capsys.readouterr().err
    assert not (tmp_path / "sim.csv").exists()


def test_cli_release_refuses_misfit_data_before_searching(tmp_path, capsys, monkeypatch):
    model_path, data_path = _write_inputs(tmp_path)
    monkeypatch.setattr(cli, "quilt_scores", lambda *a, **kw: pytest.fail("searched"))
    for query in ("count:0", "histogram"):
        argv = ["release", "--model", model_path, "--data", data_path, "--query",
                query, "--epsilon", "1", "--window", "1:4"]
        assert main(argv) == 2
        assert "data has length 6, window needs 4" in capsys.readouterr().err


def test_cli_histogram_is_one_ledger_append(tmp_path, capsys, monkeypatch):
    model_path, data_path = _write_inputs(tmp_path)
    ledger = tmp_path / "ledger.jsonl"
    calls = []
    monkeypatch.setattr(
        cli, "append_release", lambda *a: calls.append(a) or append_release(*a)
    )
    for query in ("count:0", "histogram", "count:1"):
        argv = ["release", "--model", model_path, "--data", data_path, "--query",
                query, "--epsilon", "1", "--ledger", str(ledger), "--json"]
        assert main(argv) == 0
    assert len(calls) == 3
    entries = read_ledger(ledger)
    assert [e.entry_id for e in entries] == [1, 2, 3, 4]
    assert json.loads(capsys.readouterr().out.splitlines()[1])["ledger_ids"] == [2, 3]
    assert entries[1].timestamp == entries[2].timestamp
    assert [e.record.query_id for e in entries] == ["count:0", "count:0", "count:1",
                                                    "count:1"]


def test_cli_histogram_release_composes(tmp_path, capsys):
    model_path, data_path = _write_inputs(tmp_path)
    code = main(
        [
            "release",
            "--model", model_path,
            "--data", data_path,
            "--query", "histogram",
            "--epsilon", "1.0",
            "--seed", "5",
            "--json",
        ]
    )
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert len(payload["records"]) == 2
    assert payload["composition"]["rule"] == "thm6"
    assert payload["composition"]["epsilon"] == pytest.approx(1.0)
    for rec in payload["records"]:
        assert rec["epsilon"] == pytest.approx(0.5)


def test_cli_histogram_runs_one_search(tmp_path, capsys, monkeypatch):
    model = ChainModel.from_arrays(
        [0.2, 0.5, 0.3], [[0.5, 0.3, 0.2], [0.1, 0.6, 0.3], [0.3, 0.3, 0.4]]
    )
    model_path, data_path = tmp_path / "m3.json", tmp_path / "d3.csv"
    save_model(model, model_path)
    values = np.array([0, 2, 1, 1, 0, 2, 2, 1, 0, 1] * 3)
    save_sequence(values, data_path)
    calls = []
    search = mechanism.quilt_scores

    def counting(*args, **kwargs):
        calls.append(args)
        return search(*args, **kwargs)

    monkeypatch.setattr(mechanism, "quilt_scores", counting)
    monkeypatch.setattr(cli, "quilt_scores", counting)
    argv = ["release", "--model", str(model_path), "--data", str(data_path),
            "--query", "histogram", "--epsilon", "1.2", "--variant", "approx",
            "--seed", "9", "--json"]
    assert main(argv) == 0
    assert len(calls) == 1
    records = json.loads(capsys.readouterr().out)["records"]
    # The same records as one release per bucket, the buckets drawing in
    # turn from one generator seeded with the user seed; so the first
    # bucket matches a single release under that seed.
    fw = Framework(30, Window(1, 30), (model,))
    rng = np.random.default_rng(9)
    for s, got in enumerate(records):
        want = release(StateSequence(values), count_state_query(s, 3), 1.2 / 3, fw,
                       Variant.APPROX, rng)
        assert got == json.loads(json.dumps(want.to_dict()))
        assert mechanism.ReleaseRecord.from_dict(got) == want
    first = release(StateSequence(values), count_state_query(0, 3), 1.2 / 3, fw,
                    Variant.APPROX, 9)
    assert records[0] == json.loads(json.dumps(first.to_dict()))


def test_cli_release_ledger_compose_round_trip(tmp_path, capsys):
    model_path, data_path = _write_inputs(tmp_path)
    ledger = str(tmp_path / "ledger.jsonl")
    for seed in (1, 2):
        code = main(
            [
                "release",
                "--model", model_path,
                "--data", data_path,
                "--query", "count:0",
                "--epsilon", "0.4",
                "--seed", str(seed),
                "--ledger", ledger,
                "--json",
            ]
        )
        assert code == 0
        capsys.readouterr()
    code = main(
        ["compose", "--ledger", ledger, "--ids", "1,2", "--rule", "auto", "--json"]
    )
    assert code == 0
    auto = json.loads(capsys.readouterr().out)
    assert auto["rule"] == "thm6"
    assert auto["epsilon"] == pytest.approx(0.8)
    code = main(
        ["compose", "--ledger", ledger, "--ids", "1,2", "--rule", "thm6", "--json"]
    )
    assert code == 0
    assert json.loads(capsys.readouterr().out) == auto


@pytest.mark.parametrize(
    "changes",
    [{"epsilon": -0.9}, {"epsilon": float("nan")}, {"window": {"start": 40, "end": 60}}],
    ids=["negative-epsilon", "nan-epsilon", "window-off-the-framework"],
)
def test_cli_compose_refuses_an_impossible_record(tmp_path, capsys, changes):
    # Two counts over nodes 1..30; a record doctored after the append must
    # be refused, not composed into too small a budget.
    model_path, data_path = tmp_path / "model.json", tmp_path / "walk.csv"
    save_model(LAZY, model_path)
    save_sequence(StateSequence(np.arange(30) % 2), data_path)
    ledger = tmp_path / "ledger.jsonl"
    for query, seed in (("count:0", "1"), ("count:1", "2")):
        assert main(["release", "--model", str(model_path), "--data", str(data_path),
                     "--query", query, "--epsilon", "1.0", "--seed", seed,
                     "--ledger", str(ledger)]) == 0
    for rule in ("thm6", "auto"):
        assert main(["compose", "--ledger", str(ledger), "--ids", "1,2", "--rule", rule]) == 0
    lines = ledger.read_text().splitlines()
    doctored = json.loads(lines[0])
    doctored["record"].update(changes)
    ledger.write_text(json.dumps(doctored) + "\n" + lines[1] + "\n")
    capsys.readouterr()
    for rule in ("thm6", "auto"):
        assert main(["compose", "--ledger", str(ledger), "--ids", "1,2", "--rule", rule]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: ")


def _two_ledgered_counts(tmp_path, epsilon="0.5"):
    """A ledger of two count releases over one window, ids 1 and 2."""
    model_path, data_path = _write_inputs(tmp_path)
    ledger = str(tmp_path / "ledger.jsonl")
    for seed in (1, 2):
        assert main(["release", "--model", model_path, "--data", data_path,
                     "--query", "count:0", "--epsilon", epsilon, "--seed", str(seed),
                     "--ledger", ledger]) == 0
    return ledger


@pytest.mark.parametrize(
    "extra",
    [["--rule", "thm1"], ["--rule", "thm5"], ["--rule", "thm5", "--E", "0.25"],
     ["--E", "0.25"]],
    ids=["thm1", "thm5", "thm5-with-E", "E"],
)
def test_cli_compose_offers_no_rule_that_cannot_win(tmp_path, capsys, extra):
    # thm1 never beats thm6 on the records it accepts, and thm5 rests on a
    # divergence bound nothing checks: both are usage errors.
    ledger = _two_ledgered_counts(tmp_path)
    capsys.readouterr()
    assert main(["compose", "--ledger", ledger, "--ids", "1,2", "--json", *extra]) == 1
    out, err = capsys.readouterr()
    assert out == "" and "error:" in err


@pytest.mark.parametrize("rule", ["auto", "thm6"])
def test_cli_compose_refuses_a_budget_that_is_not_finite(tmp_path, capsys, rule):
    # Two budgets near the float maximum sum to inf, which bounds nothing.
    ledger = _two_ledgered_counts(tmp_path, epsilon="1e308")
    capsys.readouterr()
    argv = ["compose", "--ledger", ledger, "--ids", "1,2", "--rule", rule, "--json"]
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: composed budget inf")


@pytest.mark.parametrize("ids, repeated", [("1,1", "[1]"), ("2,1,2", "[2]"),
                                           ("1,2,1,2,2", "[1, 2]")])
def test_cli_compose_refuses_an_id_given_twice(tmp_path, capsys, ids, repeated):
    # An entry composed with itself would count its budget twice.
    ledger = _two_ledgered_counts(tmp_path)
    capsys.readouterr()
    for rule in ("auto", "thm6"):
        assert main(["compose", "--ledger", ledger, "--ids", ids, "--rule", rule]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err == f"error: ids name entries {repeated} more than once\n"


def _keys(doc) -> set:
    """Every mapping key at any depth of a decoded JSON document."""
    if isinstance(doc, dict):
        return set(doc).union(*(_keys(v) for v in doc.values()))
    if isinstance(doc, list):
        return set().union(*(_keys(v) for v in doc))
    return set()


@pytest.mark.parametrize("query", ["count:0", "histogram"])
def test_release_never_publishes_the_seed(tmp_path, capsys, query):
    # With the seed, output - sigma * unit_laplace(default_rng(seed)) is the
    # exact count; no public document may carry it.
    model_path, data_path = _write_inputs(tmp_path)
    ledger = tmp_path / "ledger.jsonl"
    argv = ["release", "--model", model_path, "--data", data_path, "--query", query,
            "--epsilon", "1.0", "--seed", "424242", "--ledger", str(ledger), "--json"]
    assert main(argv) == 0
    payload = json.loads(capsys.readouterr().out)
    lines = [json.loads(line) for line in ledger.read_text().splitlines()]
    records = [e.record for e in read_ledger(ledger)]
    assert lines and len(records) == len(lines)
    for doc in [payload, *lines, *(r.to_dict() for r in records)]:
        assert "seed" not in _keys(doc)


def test_ledger_line_with_seed_still_reads_and_replays(tmp_path, capsys, caplog):
    # Ledgers written before the seed was dropped carry a "seed" key; a read
    # names those lines in one warning, since the seed reveals the count.
    path = tmp_path / "ledger.jsonl"
    first = json.loads(_entry_line(seed=4))
    second = {**first, "id": 2, "record": {**first["record"], "seed": 5}}
    clean = json.loads(_entry_line())
    clean["id"] = 2
    docs = (first, clean, {**second, "id": 3})
    path.write_text("".join(json.dumps(d) + "\n" for d in docs))
    caplog.set_level("WARNING", logger="mquilt.storage")
    assert [e.entry_id for e in read_ledger(path, [2])] == [2]
    (warning,) = caplog.records
    assert warning.levelname == "WARNING"
    assert "lines [1, 3] hold a noise seed" in warning.message
    assert capsys.readouterr() == ("", "")
    path.write_text(json.dumps(first) + "\n" + json.dumps(second) + "\n")
    entries = read_ledger(path)
    assert [e.entry_id for e in entries] == [1, 2]
    assert all(replay_matches(e) for e in entries)
    assert "seed" not in _keys(entries[0].record.to_dict())
    argv = ["compose", "--ledger", str(path), "--ids", "1,2", "--rule", "auto", "--json"]
    assert main(argv) == 0
    assert json.loads(capsys.readouterr().out)["epsilon"] == pytest.approx(1.4)


def test_cli_release_without_seed_draws_fresh_noise(tmp_path, capsys):
    model_path, data_path = _write_inputs(tmp_path)
    argv = ["release", "--model", model_path, "--data", data_path,
            "--query", "count:0", "--epsilon", "0.8", "--json"]
    outputs = set()
    for _ in range(2):
        assert main(argv) == 0
        outputs.add(json.loads(capsys.readouterr().out)["record"]["output"])
    assert len(outputs) == 2


def test_cli_verify_counterexample_verdict(capsys):
    assert main(["verify", "counterexample"]) == 0
    out = capsys.readouterr().out
    assert "single-release squared candidates: 5.3132 6.2672" in out
    joint_lines = [l for l in out.splitlines() if l.startswith("joint-release")]
    assert joint_lines and joint_lines[0].endswith("4.4695 6.3448")
    assert "SEQUENTIAL COMPOSITION VIOLATED: 6.3448 > 6.2672" in out
    assert "oracle agreement: yes" in out


def test_cli_verify_counterexample_null_case(capsys):
    assert main(["verify", "counterexample", "--p", "0.5", "--q", "0.5"]) == 0
    out = capsys.readouterr().out
    assert "VIOLATED" not in out
    assert "sequential composition holds" in out


def test_cli_verify_soundness_and_lemmas(capsys):
    assert main(["verify", "soundness", "--T", "3", "--seeds", "2"]) == 0
    out = capsys.readouterr().out
    assert "2/2" in out
    assert main(["verify", "lemmas"]) == 0
    assert "4/4" in capsys.readouterr().out


def test_cli_verify_soundness_json_reports_each_trial(capsys):
    argv = ["verify", "soundness", "--T", "4", "--seeds", "3", "--epsilon", "0.8"]
    assert main(argv + ["--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["trials"] == 3 and payload["failures"] == 0
    results = payload["results"]
    assert len(results) == 3
    for res in results:
        assert res["slack"] == 0.8 - res["empirical_epsilon"]
        assert 0.0 < res["empirical_epsilon"] <= 0.8 + 1e-9
    assert main(argv) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[:3] == [
        f"trial {n}: empirical {res['empirical_epsilon']:.6f} vs budget 0.800000 -> PASS"
        for n, res in enumerate(results)
    ]


def test_cli_verify_soundness_enumerates_each_trial_once(capsys):
    tables = []
    inner = oracle.enumerate_sequences

    def counting(k, T):
        tables.append((k, T))
        return inner(k, T)

    with mock.patch.object(cli, "enumerate_sequences", counting), \
            mock.patch.object(oracle, "enumerate_sequences", counting):
        assert main(["verify", "soundness", "--T", "4", "--seeds", "3"]) == 0
    assert tables == [(2, 4)] * 3
    assert "3/3 trials passed" in capsys.readouterr().out


def test_cli_verify_soundness_single_state_chain(capsys):
    # A one-state chain has no secret pair: zero leakage, not a crash.
    assert main(["verify", "soundness", "--k", "1", "--T", "3", "--seeds", "1"]) == 0
    out = capsys.readouterr().out
    assert "empirical 0.000000" in out and "1/1 trials passed" in out


def test_cli_simulate_round_trip(tmp_path, capsys):
    model_path, _ = _write_inputs(tmp_path)
    out = tmp_path / "sim.csv"
    argv = [
        "simulate",
        "--model", model_path,
        "--T", "25",
        "--seed", "9",
        "--out", str(out),
    ]
    assert main(argv) == 0
    seq = load_sequence(out)
    assert len(seq) == 25
    first = seq.values.copy()
    assert main(argv) == 0
    np.testing.assert_array_equal(load_sequence(out).values, first)
    capsys.readouterr()


def test_cli_windowed_release_with_horizon(tmp_path, capsys):
    model_path, _ = _write_inputs(tmp_path)
    data_path = str(tmp_path / "win.csv")
    save_sequence([0, 1, 0], data_path)
    code = main(
        [
            "release",
            "--model", model_path,
            "--data", data_path,
            "--query", "count:0",
            "--epsilon", "0.6",
            "--seed", "2",
            "--window", "3:5",
            "--horizon", "8",
            "--scope", "chain",
            "--json",
        ]
    )
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["record"]["window"] == {"start": 3, "end": 5}
    assert payload["record"]["scope"] == "chain"


def test_cli_window_of_full_trajectory(tmp_path, capsys):
    model_path, _ = _write_inputs(tmp_path)
    walk, part, short = (str(tmp_path / n) for n in ("walk.csv", "part.csv", "short.csv"))
    argv = ["simulate", "--model", model_path, "--T", "200", "--seed", "3", "--out", walk]
    assert main(argv) == 0
    values = load_sequence(walk).values
    save_sequence(values[60:110], part)
    save_sequence(values[:120], short)
    outputs = []
    for data in (walk, part):
        argv = ["release", "--model", model_path, "--data", data, "--query", "count:0",
                "--epsilon", "1.0", "--seed", "4", "--window", "61:110",
                "--horizon", "200", "--json"]
        capsys.readouterr()
        assert main(argv) == 0
        outputs.append(json.loads(capsys.readouterr().out)["record"])
    assert outputs[0] == outputs[1]
    argv = ["release", "--model", model_path, "--data", walk, "--query", "count:0",
            "--epsilon", "1.0", "--seed", "4", "--window", "1:50", "--horizon", "200"]
    assert main(argv) == 0
    argv[4] = short
    assert main(argv) == 2
    assert "data has length 120, window needs 50" in capsys.readouterr().err
