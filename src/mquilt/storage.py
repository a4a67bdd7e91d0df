"""Reading and writing models, trajectories, and the release ledger.

Models are JSON documents; trajectories are one-column CSV files with a
``state`` header; releases append to a JSON-lines ledger guarded by an
advisory file lock, so concurrent writers get distinct monotone ids.

Ledger operations cost what they touch, not what the ledger holds. An
append reads only the ledger's last line, backwards from the end of the
file, and numbers the new entries on from that line's id; so a ledger is
append-only, its ids increase down the file, and it must not be reordered
by hand (a reader refuses ids that do not increase). A read streams the
file, decodes every line and checks its id, so damage anywhere is refused,
but builds entries only for the ids asked for.
"""

from __future__ import annotations

import csv
import datetime
import fcntl
import json
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .chains import ChainModel, StateSequence
from .errors import FormatError
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
    try:
        return ChainModel.from_arrays(d["initial"], d["transition"], d["states"])
    except (KeyError, TypeError, ValueError) as exc:
        raise FormatError(f"malformed model document: {exc}") from exc


def save_model(model: ChainModel, path: str | Path) -> None:
    """Write a model as JSON. Float repr round-trips exactly."""
    Path(path).write_text(json.dumps(model_to_dict(model), indent=2) + "\n")


def load_model(path: str | Path) -> ChainModel:
    try:
        doc = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
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
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
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

    def to_dict(self) -> dict:
        return {
            "id": self.entry_id,
            "timestamp": self.timestamp,
            "framework": framework_to_dict(self.framework),
            "record": self.record.to_dict(),
        }


# Bytes read per step when looking for the ledger's last line.
_TAIL_BLOCK = 1 << 16


def _line_doc(line: bytes, where: str, skim: bool = False) -> dict:
    """Decode one ledger line and check its id; ``where`` names it in errors.

    With ``skim`` the line's floats stay as text, which about halves the
    decoding time of a line read only for its id; its JSON syntax is still
    checked in full.
    """
    try:
        doc = json.loads(line, parse_float=str if skim else None)
    except ValueError as exc:
        raise FormatError(f"{where} is not valid JSON: {exc}") from exc
    entry_id = doc.get("id") if isinstance(doc, dict) else None
    if type(entry_id) is not int or entry_id < 1:
        raise FormatError(f"{where} has no positive integer id: {line[:80]!r}")
    return doc


def _last_line(fh) -> tuple[bytes, bool]:
    """The last non-blank line of a binary file, read backwards from its end
    in blocks, and whether the file ends with a newline."""
    pos = fh.seek(0, os.SEEK_END)
    tail = b""
    while pos > 0:
        step = min(_TAIL_BLOCK, pos)
        pos -= step
        fh.seek(pos)
        tail = fh.read(step) + tail
        body = tail.rstrip()
        cut = body.rfind(b"\n")
        if cut >= 0:
            return body[cut + 1 :], tail.endswith(b"\n")
    return tail.strip(), tail.endswith(b"\n")


def append_release(
    path: str | Path, framework: Framework, records: Sequence[ReleaseRecord]
) -> list[LedgerEntry]:
    """Append one release, the records of its queries, and return their entries.

    The entries take consecutive ids after the last line's id and share one
    timestamp. Reading that line and writing the entries happen under one
    exclusive advisory lock, so parallel writers neither collide on ids nor
    interleave entries. The cost does not depend on the ledger's length.

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
            # A last line without its newline (written by hand, or a write
            # cut short after the closing brace) must not absorb this release.
            lead = b"" if terminated or not last else b"\n"
            lines = b"".join(json.dumps(e.to_dict()).encode() + b"\n" for e in entries)
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
    """Whether a replayed search reproduces the stored scale and quilts."""
    sigma, active = replay_search(entry)
    rec = entry.record
    if sigma != rec.sigma_max:
        return False
    if set(active.keys()) != set(rec.active_quilts.keys()):
        return False
    return all(
        tuple(active[idx]) == tuple(rec.active_quilts[idx])
        for idx in active
    )


def read_ledger(
    path: str | Path, ids: Iterable[int] | None = None
) -> list[LedgerEntry]:
    """Entries of a JSON-lines ledger in file order: all of them, or only
    those whose id is in ``ids``.

    The file is streamed line by line. Every line is decoded and its id
    checked, so a damaged line or ids that do not increase are refused
    even where that entry was not asked for; only the asked-for entries
    are built. Consecutive entries with equal framework documents share
    one (frozen) ``Framework``.

    Raises
    ------
    FormatError
        No ledger at ``path``, or a line that is not a ledger entry.
    """
    wanted = None if ids is None else set(ids)
    entries = []
    last_id, raw_framework, framework = 0, None, None
    try:
        fh = open(path, "rb")
    except FileNotFoundError as exc:
        raise FormatError(f"no ledger at {path}") from exc
    with fh:
        for n, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            where = f"{path} line {n}"
            doc = _line_doc(line, where, skim=wanted is not None)
            if doc["id"] <= last_id:
                raise FormatError(
                    f"{where} has id {doc['id']} after id {last_id}; "
                    "ledger ids must increase"
                )
            last_id = doc["id"]
            if wanted is not None:
                if last_id not in wanted:
                    continue
                doc = json.loads(line)  # was skimmed; now its floats are needed
            try:
                if framework is None or doc["framework"] != raw_framework:
                    raw_framework = doc["framework"]
                    framework = framework_from_dict(raw_framework)
                record = ReleaseRecord.from_dict(doc["record"])
                timestamp = str(doc["timestamp"])
            except (AttributeError, KeyError, TypeError, ValueError) as exc:
                raise FormatError(f"{where} is a malformed entry: {exc!r}") from exc
            entries.append(LedgerEntry(last_id, timestamp, framework, record))
    return entries
