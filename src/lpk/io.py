"""Reading and writing ``.lpk`` files and JSON documents.

An ``.lpk`` file is one UTF-8 JSON header line terminated by ``\\n``,
followed by a raw binary payload:

* ``kind = "signal"`` / ``"multisignal"``: little-endian float64 pairs
  (re, im interleaved), ascending index order, channel-major.
* ``kind = "mask"``: one byte per index, 0 or 1, ascending index order;
  calibration bounds live in the header.

The header is serialized canonically (sorted keys, no extra whitespace),
so writing the same object twice produces byte-identical files, and a
write/read round trip is bit-exact including signed zeros.

Every JSON document (phantoms, scenes, filter banks, experiment configs
and reports) is read by :func:`read_json` and written by
:func:`write_json`: UTF-8, sorted keys, one-space indent and a final
newline, so the same document is written as the same bytes.
"""

from __future__ import annotations

import json
from typing import Union

import numpy as np

from .core import KGrid, KSignal, MultiKSignal, SamplingMask

FORMAT_VERSION = 1

_Payload = Union[KSignal, MultiKSignal, SamplingMask]


class LpkFormatError(ValueError):
    """Malformed ``.lpk`` content (bad header, bad fields)."""


class UnknownVersionError(LpkFormatError):
    """Header declares a format version this reader does not know."""


class TruncatedPayloadError(LpkFormatError):
    """File ends before the payload length declared by the header."""


class PayloadLengthError(LpkFormatError):
    """File holds more payload bytes than the header declares."""


def _header(obj: _Payload) -> dict:
    grid = obj.grid
    hdr = {
        "version": FORMAT_VERSION,
        "dims": grid.dims,
        "n_min": list(grid.n_min),
        "n_max": list(grid.n_max),
        "fov": list(grid.fov),
    }
    if isinstance(obj, KSignal):
        hdr["kind"] = "signal"
        hdr["q_count"] = 1
    elif isinstance(obj, MultiKSignal):
        hdr["kind"] = "multisignal"
        hdr["q_count"] = obj.q_count
    elif isinstance(obj, SamplingMask):
        hdr["kind"] = "mask"
        hdr["calib"] = None if obj.calib is None else [list(c) for c in obj.calib]
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__}")
    return hdr


def _payload(obj: _Payload) -> bytes:
    if isinstance(obj, SamplingMask):
        return np.ascontiguousarray(obj.acquired, dtype=np.uint8).tobytes()
    return np.ascontiguousarray(obj.values, dtype="<c16").tobytes()


def write_lpk(path, obj: _Payload) -> None:
    """Write a signal, channel stack, or mask to ``path``."""
    line = json.dumps(_header(obj), sort_keys=True, separators=(",", ":"))
    with open(path, "wb") as fh:
        fh.write(line.encode("utf-8"))
        fh.write(b"\n")
        fh.write(_payload(obj))


def _grid_from_header(hdr: dict) -> KGrid:
    try:
        n_min, n_max, fov = hdr["n_min"], hdr["n_max"], hdr["fov"]
    except KeyError as exc:
        raise LpkFormatError(f"header missing field {exc}") from exc
    try:
        # KGrid.window accepts derived ranges that need not contain index 0.
        return KGrid.window(tuple(n_min), tuple(n_max), tuple(fov))
    except (TypeError, ValueError) as exc:
        raise LpkFormatError(f"bad grid in header: {exc}") from exc


def read_lpk(path) -> _Payload:
    """Read an ``.lpk`` file back into the object kind its header declares.

    Raises:
        UnknownVersionError: header version is unsupported.
        TruncatedPayloadError: payload shorter than the header declares.
        PayloadLengthError: payload longer than the header declares.
        LpkFormatError: anything else malformed, a grid or calibration
            field of the wrong type or value included.
    """
    with open(path, "rb") as fh:
        line = fh.readline()
        body = fh.read()
    if not line.endswith(b"\n"):
        raise LpkFormatError("missing header line terminator")
    try:
        hdr = json.loads(line.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise LpkFormatError(f"bad header JSON: {exc}") from exc
    if not isinstance(hdr, dict):
        raise LpkFormatError("header must be a JSON object")
    version = hdr.get("version")
    if version != FORMAT_VERSION:
        raise UnknownVersionError(f"unsupported format version {version!r}")
    kind = hdr.get("kind")
    grid = _grid_from_header(hdr)

    if kind in ("signal", "multisignal"):
        q = hdr.get("q_count")
        if not isinstance(q, int) or q < 1:
            raise LpkFormatError(f"bad q_count {q!r}")
        expect = q * grid.size * 16
        _check_length(len(body), expect)
        flat = np.frombuffer(body, dtype="<c16").reshape((q,) + grid.shape)
        if kind == "signal":
            if q != 1:
                raise LpkFormatError("kind 'signal' requires q_count 1")
            return KSignal(grid, flat[0])
        return MultiKSignal.from_array(grid, flat)

    if kind == "mask":
        expect = grid.size
        _check_length(len(body), expect)
        acq = np.frombuffer(body, dtype=np.uint8).reshape(grid.shape)
        if not np.all((acq == 0) | (acq == 1)):
            raise LpkFormatError("mask payload bytes must be 0 or 1")
        try:
            return SamplingMask(grid, acq.astype(bool), hdr.get("calib"))
        except (TypeError, ValueError) as exc:
            raise LpkFormatError(f"bad calib in header: {exc}") from exc

    raise LpkFormatError(f"unknown kind {kind!r}")


def _check_length(got: int, expect: int) -> None:
    if got < expect:
        raise TruncatedPayloadError(f"payload has {got} bytes, header declares {expect}")
    if got > expect:
        raise PayloadLengthError(f"payload has {got} bytes, header declares {expect}")


def read_json(path):
    """The JSON document in ``path``.

    An unreadable file raises ``OSError``.  Content that is not UTF-8,
    or not JSON, raises ``ValueError`` naming ``path``; a parse error
    also gives its byte offset.
    """
    with open(path, "rb") as fh:
        raw = fh.read()
    try:
        return json.loads(raw.decode("utf-8"))
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path} is not UTF-8: {exc}") from exc
    except json.JSONDecodeError as exc:
        offset = len(raw.decode("utf-8", errors="ignore")[: exc.pos].encode("utf-8"))
        raise ValueError(f"parse error in {path} at byte offset {offset}: {exc.msg}") from exc


def _from_doc(path, build, doc):
    """``build(doc)``, with a document of the wrong structure (a missing
    field, a list where an object belongs, a bad value) a ``ValueError``
    that names ``path``."""
    try:
        return build(doc)
    except KeyError as exc:
        raise ValueError(f"{path}: missing field {exc}") from exc
    except (TypeError, AttributeError) as exc:
        raise ValueError(f"{path}: malformed document: {exc}") from exc
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc


def write_json(path, doc) -> None:
    """Write the JSON document ``doc`` to ``path``."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, sort_keys=True, indent=1)
        fh.write("\n")
