import json
import multiprocessing
from types import SimpleNamespace

import numpy as np
import pytest

from mquilt import cli, mechanism, storage
from mquilt.chains import ChainModel, StateSequence
from mquilt.cli import main
from mquilt.errors import (
    AlphabetMismatch,
    EmptyInput,
    FormatError,
    MquiltError,
    TooFewSequences,
)
from mquilt.fit import FitConfig, fit_chain
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
    model = fit_chain([[0, 1, 0, 1]], 2, FitConfig(smoothing=0.0))
    np.testing.assert_array_equal(model.initial, [1.0, 0.0])
    np.testing.assert_array_equal(model.transition, [[0.0, 1.0], [1.0, 0.0]])


def test_fit_heavy_smoothing_flattens_rows():
    model = fit_chain([[0, 0, 0, 0]], 2, FitConfig(smoothing=1000.0))
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
        fit_chain([[0, 0, 0]], 2, FitConfig(smoothing=0.0))


def test_fit_input_validation():
    with pytest.raises(EmptyInput):
        fit_chain([], 2)
    with pytest.raises(EmptyInput):
        fit_chain([[]], 2)
    with pytest.raises(TooFewSequences):
        fit_chain([[0, 1]], 2, FitConfig(min_sequences=3))
    with pytest.raises(AlphabetMismatch):
        fit_chain([[0, 2]], 2)
    with pytest.raises(MquiltError):
        FitConfig(smoothing=-1.0)


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
    first = append_release(path, fw, rec)
    second = append_release(path, fw, rec)
    assert (first.entry_id, second.entry_id) == (1, 2)
    entries = read_ledger(path)
    assert [e.entry_id for e in entries] == [1, 2]
    assert entries[0].record.output == pytest.approx(rec.output)
    assert entries[0].framework.window == fw.window


def test_ledger_replay_reproduces_search(tmp_path):
    path = tmp_path / "ledger.jsonl"
    fw, rec = _make_record(eps=1.3)
    entry = append_release(path, fw, rec)
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
        append_release(path, fw, rec)
    entries = read_ledger(path)
    assert len(entries) == 20
    assert all(replay_matches(e) for e in entries)


def test_ledger_replay_detects_tampering(tmp_path):
    path = tmp_path / "ledger.jsonl"
    fw, rec = _make_record()
    append_release(path, fw, rec)
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


def _entry_line(**record_changes) -> str:
    fw, rec = _make_record()
    doc = {"id": 1, "timestamp": "t", "framework": framework_to_dict(fw),
           "record": {**rec.to_dict(), **record_changes}}
    return json.dumps(doc)


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
        append_release(path, fw, rec)
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
    ],
    ids=["unknown-variant", "quilts-not-a-map", "epsilon-not-a-number", "no-record"],
)
def test_malformed_entry_is_a_format_error(tmp_path, line):
    path = tmp_path / "ledger.jsonl"
    path.write_text(line + "\n")
    with pytest.raises(FormatError, match="line 1"):
        read_ledger(path)
    with pytest.raises(FormatError, match="line 1"):
        read_ledger(path, ids=[1])


def test_read_ledger_refuses_ids_that_do_not_increase(tmp_path):
    path = tmp_path / "ledger.jsonl"
    fw, rec = _make_record()
    for _ in range(3):
        append_release(path, fw, rec)
    lines = path.read_text().splitlines()
    path.write_text("\n".join([lines[0], lines[2], lines[1]]) + "\n")
    with pytest.raises(FormatError, match="must increase"):
        read_ledger(path, ids=[1])


def test_append_after_unterminated_last_line(tmp_path):
    path = tmp_path / "ledger.jsonl"
    fw, rec = _make_record()
    append_release(path, fw, rec)
    path.write_text(path.read_text().rstrip("\n"))
    assert append_release(path, fw, rec).entry_id == 2
    assert [e.entry_id for e in read_ledger(path)] == [1, 2]


def _append_ten(path, barrier):
    fw, rec = _make_record()
    barrier.wait(timeout=60)
    for _ in range(10):
        append_release(path, fw, rec)


def test_parallel_writers_get_distinct_ids(tmp_path):
    # Four writers on two cores: the last-line read and the append must
    # stay inside one lock, or two writers take the same id.
    path = tmp_path / "ledger.jsonl"
    ctx = multiprocessing.get_context("spawn")
    barrier = ctx.Barrier(4)
    procs = [
        ctx.Process(target=_append_ten, args=(str(path), barrier)) for _ in range(4)
    ]
    for p in procs:
        p.start()
    for p in procs:
        p.join(timeout=120)
    assert not any(p.is_alive() for p in procs)
    assert [p.exitcode for p in procs] == [0] * 4
    lines = path.read_text().splitlines()
    assert sorted(json.loads(line)["id"] for line in lines) == list(range(1, 41))
    assert [e.entry_id for e in read_ledger(path)] == list(range(1, 41))


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
        append_release(path, fw, rec)
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
    append_release(path, fw, rec)
    doc = json.loads(path.read_text())
    with open(path, "a") as fh:
        for n in range(2, 501):
            fh.write(json.dumps({**doc, "id": n}) + "\n")
    calls = []

    def counting_loads(*args, **kwargs):
        calls.append(1)
        return json.loads(*args, **kwargs)

    monkeypatch.setattr(
        storage, "json", SimpleNamespace(loads=counting_loads, dumps=json.dumps)
    )
    assert append_release(path, fw, rec).entry_id == 501
    assert len(calls) <= 1


# ---------------------------------------------------------------------- CLI


def _write_inputs(tmp_path, T=6):
    model_path = tmp_path / "model.json"
    data_path = tmp_path / "data.csv"
    save_model(LAZY, model_path)
    save_sequence(StateSequence(np.array([0, 1, 0, 0, 1, 0][:T])), data_path)
    return str(model_path), str(data_path)


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
        ["compose", "--ledger", ledger, "--ids", "1,2", "--rule", "thm1", "--json"]
    )
    assert code == 0
    legacy = json.loads(capsys.readouterr().out)
    assert legacy["epsilon"] == pytest.approx(0.8)
    assert auto["epsilon"] <= legacy["epsilon"] + 1e-12


def test_cli_compose_thm5_needs_divergence_bound(tmp_path, capsys):
    model_path, data_path = _write_inputs(tmp_path)
    ledger = str(tmp_path / "ledger.jsonl")
    for seed in (1, 2):
        main(
            [
                "release",
                "--model", model_path,
                "--data", data_path,
                "--query", "count:0",
                "--epsilon", "0.5",
                "--seed", str(seed),
                "--ledger", ledger,
            ]
        )
        capsys.readouterr()
    assert main(["compose", "--ledger", ledger, "--ids", "1,2", "--rule", "thm5"]) == 2
    capsys.readouterr()
    code = main(
        [
            "compose",
            "--ledger", ledger,
            "--ids", "1,2",
            "--rule", "thm5",
            "--E", "0.25",
            "--json",
        ]
    )
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["epsilon"] == pytest.approx(1.5)
    (check,) = [c for c in payload["checks"] if c["name"] == "nonnegative-divergence"]
    assert "assumed" in check["evidence"] and "not verified" in check["evidence"]


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


def test_ledger_line_with_seed_still_reads_and_replays(tmp_path, capsys):
    # Ledgers written before the seed was dropped carry a "seed" key.
    path = tmp_path / "ledger.jsonl"
    first = json.loads(_entry_line(seed=4))
    second = {**first, "id": 2, "record": {**first["record"], "seed": 5}}
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
