"""Reading and writing models, trajectories, and the release ledger.

Models are JSON documents; trajectories are one-column CSV files with a
``state`` header; releases append to a JSON-lines ledger guarded by an
advisory file lock, so concurrent writers get distinct monotone ids.

Each ledger line is one entry. A release's first line, its head, is
tagged ``"v": 2`` and holds the release's framework and its first record,
quilt table included. Every later line of the release holds ``"v": 2``,
``"release": <head id>`` and its own record, which leaves the quilt table
out when it equals the head's. A release thus stores its framework and
quilt table once, and records store quilts as runs of nodes, not one
object per node. Lines without ``"v"`` are version 1: each holds its own
framework and record, and reads as a release of one entry.

Ledger operations cost what they touch, not what the ledger holds. An
append reads only the ledger's last line, backwards from the end of the
file, and numbers the new entries on from that line's id; so a ledger is
append-only, its ids increase down the file, and it must not be reordered
by hand (a reader refuses ids that do not increase). A read streams the
file, decodes every line and checks its id, so damage anywhere is refused,
but builds entries only for the ids asked for, and decodes a release's
head in full only when one of its entries is asked for.
"""

from __future__ import annotations

import csv
import datetime
import fcntl
import json
import logging
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .chains import ChainModel, StateSequence
from .errors import FormatError, MquiltError
from .mechanism import Framework, ReleaseRecord, Window, quilt_scores

__all__ = [
    "save_model",
    "load_model",
    "model_to_dict",
    "model_from_dict",
    "save_sequence",
    "load_sequence",
    "framework_to_dict",
    "framework_from_dict",
    "LedgerEntry",
    "append_release",
    "read_ledger",
    "replay_search",
    "replay_matches",
]


def model_to_dict(model: ChainModel) -> dict:
    return {
        "states": list(model.states),
        "initial": model.initial.tolist(),
        "transition": model.transition.tolist(),
    }


def model_from_dict(d: dict) -> ChainModel:
    """The model a document holds. A malformed document raises
    ``FormatError``; a well-formed but invalid model, the error
    :class:`~mquilt.chains.ChainModel` raises for it."""
    try:
        if not isinstance(d["states"], list):
            raise TypeError("'states' is not an array of labels")
        for n, label in enumerate(d["states"]):
            # bool is an int, but JSON true and false are not numbers
            if isinstance(label, bool) or not isinstance(label, (str, int, float)):
                raise TypeError(f"state label {n} is {json.dumps(label)}, not a string or number")
        return ChainModel.from_arrays(d["initial"], d["transition"], d["states"])
    except MquiltError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise FormatError(f"malformed model document: {exc}") from exc


def save_model(model: ChainModel, path: str | Path) -> None:
    """Write a model as JSON. Float repr round-trips exactly."""
    Path(path).write_text(json.dumps(model_to_dict(model), indent=2) + "\n")


def load_model(path: str | Path) -> ChainModel:
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise FormatError(f"{path} is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise FormatError(f"{path} does not hold a model object")
    return model_from_dict(doc)


def save_sequence(seq: StateSequence | Iterable[int], path: str | Path) -> None:
    """Write a trajectory as CSV with a single ``state`` column."""
    values = seq.values if isinstance(seq, StateSequence) else np.asarray(list(seq))
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["state"])
        for v in values:
            writer.writerow([int(v)])


def load_sequence(path: str | Path) -> StateSequence:
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path} is not UTF-8 text: {exc}") from exc
    if not rows or rows[0] != ["state"]:
        raise FormatError(f"{path} is missing the 'state' header")
    try:
        values = [int(row[0]) for row in rows[1:] if row]
    except (IndexError, ValueError) as exc:
        raise FormatError(f"{path} has a malformed row: {exc}") from exc
    return StateSequence(np.asarray(values, dtype=np.int64))


def framework_to_dict(fw: Framework) -> dict:
    return {
        "horizon": fw.horizon,
        "window": fw.window.to_dict(),
        "models": [model_to_dict(m) for m in fw.models],
    }


def framework_from_dict(d: dict) -> Framework:
    try:
        return Framework(
            int(d["horizon"]),
            Window.from_dict(d["window"]),
            tuple(model_from_dict(m) for m in d["models"]),
        )
    except (KeyError, TypeError) as exc:
        raise FormatError(f"malformed framework document: {exc}") from exc


@dataclass(frozen=True)
class LedgerEntry:
    """One audited release: id, wall-clock stamp, framework, record."""

    entry_id: int
    timestamp: str
    framework: Framework
    record: ReleaseRecord


# Bytes read per step when looking for the ledger's last line.
_TAIL_BLOCK = 1 << 16


_FULL = json.JSONDecoder()
_SKIM = json.JSONDecoder(parse_float=str)
"""The decoders of ledger lines, built once: ``json.loads`` builds a new one
at every call that passes it an option such as ``parse_float``."""


def _loads(line: bytes, skim: bool = False):
    """``json.loads`` of one ledger line, with floats kept as text if
    ``skim``."""
    text = line.decode(json.detect_encoding(line), "surrogatepass")
    return (_SKIM if skim else _FULL).decode(text)


def _line_doc(line: bytes, where: str, skim: bool = False) -> dict:
    """Decode one ledger line and check its id; ``where`` names it in errors.

    With ``skim`` the line's floats stay as text, which about halves the
    decoding time of a line read only for its id; its JSON syntax is still
    checked in full.
    """
    try:
        doc = _loads(line, skim)
    except ValueError as exc:
        raise FormatError(f"{where} is not valid JSON: {exc}") from exc
    entry_id = doc.get("id") if isinstance(doc, dict) else None
    if type(entry_id) is not int or entry_id < 1:
        raise FormatError(f"{where} has no positive integer id: {line[:80]!r}")
    return doc


def _last_line(fh) -> tuple[bytes, bool]:
    """The last non-blank line of a binary file, read backwards from its end
    in blocks, and whether the file ends with a newline. Only each new block
    is searched for the newline, so the cost is linear in the line's length."""
    pos = fh.seek(0, os.SEEK_END)
    blocks: list[bytes] = []  # from the end of the file back
    blank = True  # whether the blocks read hold only whitespace
    while pos > 0:
        step = min(_TAIL_BLOCK, pos)
        pos -= step
        fh.seek(pos)
        blocks.append(fh.read(step))
        body = blocks[-1].rstrip() if blank else blocks[-1]
        blank = not body
        cut = body.rfind(b"\n")
        if cut >= 0:
            line = body[cut + 1 :] + b"".join(blocks[-2::-1])
            return line.rstrip(), blocks[0].endswith(b"\n")
    tail = b"".join(reversed(blocks))
    return tail.strip(), tail.endswith(b"\n")


def append_release(
    path: str | Path, framework: Framework, records: Sequence[ReleaseRecord]
) -> list[LedgerEntry]:
    """Append one release, the records of its queries, and return their entries.

    The entries take consecutive ids after the last line's id and share one
    timestamp. The first line, the release's head, carries the framework;
    the others refer to it and carry a quilt table only where theirs
    differs from the head's. Reading the last line and writing the entries
    happen under one exclusive advisory lock, so parallel writers neither
    collide on ids nor interleave entries. The cost does not depend on the
    ledger's length.

    Raises
    ------
    FormatError
        The last line is not a ledger entry (for instance a torn write).
    """
    path = Path(path)
    with open(path, "a+b") as fh:
        fcntl.flock(fh.fileno(), fcntl.LOCK_EX)
        try:
            last, terminated = _last_line(fh)
            last_id = 0
            if last:
                last_id = _line_doc(last, f"{path} last line", skim=True)["id"]
            stamp = datetime.datetime.now(datetime.timezone.utc).isoformat()
            entries = [
                LedgerEntry(last_id + n, stamp, framework, record)
                for n, record in enumerate(records, start=1)
            ]
            head = entries[0] if entries else None
            docs = []
            for e in entries:
                doc = {"v": 2, "id": e.entry_id, "timestamp": stamp}
                if e is head:
                    doc["framework"] = framework_to_dict(framework)
                else:
                    doc["release"] = head.entry_id
                own = e is head or e.record.active_quilts != head.record.active_quilts
                doc["record"] = e.record.to_dict(quilts=own)
                docs.append(doc)
            # A last line without its newline (written by hand, or a write
            # cut short after the closing brace) must not absorb this release.
            lead = b"" if terminated or not last else b"\n"
            lines = b"".join(json.dumps(d).encode() + b"\n" for d in docs)
            fh.write(lead + lines)
            fh.flush()
        finally:
            fcntl.flock(fh.fileno(), fcntl.LOCK_UN)
    return entries


def replay_search(entry: LedgerEntry):
    """Re-run the quilt search from an entry's stored inputs.

    Scores are data-independent, so the ledger alone determines them;
    returns ``(sigma_max, active_quilts)`` exactly as the release saw them.
    """
    return quilt_scores(
        entry.framework,
        entry.record.epsilon,
        entry.record.variant,
        scope=entry.record.scope,
    )


def replay_matches(entry: LedgerEntry) -> bool:
    """Whether a replayed search reproduces the stored scale and quilt runs."""
    sigma, active = replay_search(entry)
    return sigma == entry.record.sigma_max and active == dict(entry.record.active_quilts)


@dataclass
class _Head:
    """The line that opens the release being read: a version-2 head, or a
    version-1 line, which is a release of its own and has no ``id`` that a
    later line may refer to. ``parts`` holds its framework, record and
    timestamp once an entry of the release needs them."""

    id: int | None
    line: bytes
    where: str
    doc: dict | None  # the decoded line, unless it was only skimmed
    parts: tuple[Framework, ReleaseRecord, str] | None = None


def _decode(
    doc: dict, where: str, framework: Framework | None = None, quilts=None
) -> tuple[Framework, ReleaseRecord, str]:
    """The framework, record and timestamp of a decoded ledger line.

    ``framework`` stands in for the line's own (a later line of a release
    has none), and ``quilts`` for a quilt table its record leaves out. The
    record's window must be the framework's, and the table must hold runs
    over the searched nodes (the window, or the horizon under scope
    "chain") for every framework model.
    """
    try:
        if framework is None:
            framework = framework_from_dict(doc["framework"])
        rec = doc["record"]
        record = ReleaseRecord.from_dict(rec, None if "active_quilts" in rec else quilts)
        win, n = framework.window, len(framework.models)
        if record.window != win:
            raise ValueError(f"record window {record.window} is not the framework's {win}")
        searched = (1, framework.horizon) if record.scope == "chain" else (win.start, win.end)
        spans = {i: q.runs and (q.runs[0][0], q.runs[-1][1]) for i, q in record.active_quilts.items()}
        if spans != dict.fromkeys(range(n), searched):
            raise ValueError(
                f"quilt runs span nodes {spans} by model index, not {searched} "
                f"under each of the {n} framework models"
            )
        return framework, record, str(doc["timestamp"])
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise FormatError(f"{where} is a malformed entry: {exc!r}") from exc


def read_ledger(
    path: str | Path, ids: Iterable[int] | None = None
) -> list[LedgerEntry]:
    """Entries of a JSON-lines ledger in file order: all of them, or only
    those whose id is in ``ids``.

    The file is streamed line by line. Every line is decoded and its id
    checked, so a damaged line, ids that do not increase, or a line that
    refers to any release but the one being read are refused even where
    that entry was not asked for; only the asked-for entries are built.
    The entries of one release share one (frozen) ``Framework`` and one
    quilt table, and consecutive releases with equal framework documents
    share one ``Framework``.

    A record that still holds a ``seed`` key (ledgers written before
    releases stopped storing it) reads as any other; one WARNING names
    those lines, since the seed and the output give the exact answer.

    Raises
    ------
    FormatError
        No ledger at ``path``, or a line that is not a ledger entry.
    """
    wanted = None if ids is None else set(ids)
    skim = wanted is not None
    entries = []
    last_id = 0
    head: _Head | None = None
    known = (None, None)  # the last framework document built, and its Framework
    seeded = []  # lines written before releases stopped storing the noise seed
    try:
        fh = open(path, "rb")
    except FileNotFoundError as exc:
        raise FormatError(f"no ledger at {path}") from exc
    with fh:
        for n, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            where = f"{path} line {n}"
            doc = _line_doc(line, where, skim=skim)
            if isinstance(doc.get("record"), dict) and "seed" in doc["record"]:
                seeded.append(n)
            entry_id = doc["id"]
            if entry_id <= last_id:
                raise FormatError(
                    f"{where} has id {entry_id} after id {last_id}; "
                    "ledger ids must increase"
                )
            last_id = entry_id
            version = doc.get("v", 1)
            if type(version) is not int or version not in (1, 2):
                raise FormatError(f"{where} has unknown ledger version {version!r}")
            later = version == 2 and "release" in doc
            if later:
                ref, current = doc["release"], head.id if head is not None else None
                if type(ref) is not int or ref != current:
                    raise FormatError(
                        f"{where} refers to release {ref!r}, but the release "
                        f"being read is {current!r}"
                    )
            else:
                head = _Head(entry_id if version == 2 else None, line, where,
                             None if skim else doc)
            if skim and entry_id not in wanted:
                continue
            if head.parts is None:
                head_doc = head.doc if head.doc is not None else _loads(head.line)
                raw = head_doc.get("framework")
                shared = known[1] if raw == known[0] else None
                head.parts = _decode(head_doc, head.where, shared)
                known = (raw, head.parts[0])
            framework, record, timestamp = head.parts
            if later:
                line_doc = _loads(line) if skim else doc
                _, record, timestamp = _decode(line_doc, where, framework, record.active_quilts)
            entries.append(LedgerEntry(entry_id, timestamp, framework, record))
    if seeded:
        logging.getLogger(__name__).warning(
            "%s lines %s hold a noise seed, which gives away the exact answer", path, seeded
        )
    return entries
