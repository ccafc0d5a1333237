"""Binary persistence: bit-exact round trips and malformed-file rejection."""

import json

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from lpk.core import KGrid, KSignal, MultiKSignal, SamplingMask
from lpk.io import (
    LpkFormatError,
    PayloadLengthError,
    TruncatedPayloadError,
    UnknownVersionError,
    read_lpk,
    write_lpk,
)


def grid1d(lo, hi, fov=1.0):
    return KGrid((lo,), (hi,), (fov,))


def test_signal_round_trip_bit_exact(tmp_path):
    rng = np.random.default_rng(0)
    vals = rng.normal(size=16) + 1j * rng.normal(size=16)
    sig = KSignal(grid1d(-8, 7, 2.5), vals)
    path = tmp_path / "sig.lpk"
    write_lpk(path, sig)
    back = read_lpk(path)
    assert isinstance(back, KSignal)
    assert back.grid == sig.grid
    # Bit-exact, not merely close.
    assert back.values.tobytes() == sig.values.tobytes()


def test_signed_zero_survives(tmp_path):
    vals = np.array([complex(0.0, -0.0), complex(-0.0, 0.0), 1.0, 2.0])
    sig = KSignal(KGrid.window((0,), (3,), (1.0,)), vals)
    path = tmp_path / "zeros.lpk"
    write_lpk(path, sig)
    back = read_lpk(path)
    assert back.values.tobytes() == vals.astype(np.complex128).tobytes()


def test_multisignal_round_trip(tmp_path):
    rng = np.random.default_rng(1)
    g = KGrid((-4, -4), (3, 3), (1.0, 1.0))
    ms = MultiKSignal.from_array(g, rng.normal(size=(3, 8, 8)) * (1 - 1j))
    path = tmp_path / "ms.lpk"
    write_lpk(path, ms)
    back = read_lpk(path)
    assert isinstance(back, MultiKSignal)
    assert back.q_count == 3
    assert back.stack().tobytes() == ms.stack().tobytes()


def test_mask_round_trip_with_calib(tmp_path):
    g = grid1d(-8, 7)
    acq = np.zeros(16, dtype=bool)
    acq[2::2] = True
    acq[4:12] = True  # calib block [-4, 3]
    mask = SamplingMask(g, acq, ((-4, 3),))
    path = tmp_path / "mask.lpk"
    write_lpk(path, mask)
    back = read_lpk(path)
    assert isinstance(back, SamplingMask)
    assert np.array_equal(back.acquired, mask.acquired)
    assert back.calib == ((-4, 3),)


def test_header_records_calib_verbatim(tmp_path):
    g = grid1d(-8, 7)
    acq = np.ones(16, dtype=bool)
    mask = SamplingMask(g, acq, ((-4, 3),))
    path = tmp_path / "m.lpk"
    write_lpk(path, mask)
    header = json.loads(path.read_bytes().split(b"\n", 1)[0])
    assert header["calib"] == [[-4, 3]]
    assert header["kind"] == "mask"


def test_write_is_deterministic(tmp_path):
    sig = KSignal(grid1d(-2, 2), np.arange(5.0))
    a, b = tmp_path / "a.lpk", tmp_path / "b.lpk"
    write_lpk(a, sig)
    write_lpk(b, sig)
    assert a.read_bytes() == b.read_bytes()


def test_truncated_payload_rejected(tmp_path):
    sig = KSignal(grid1d(-2, 2), np.arange(5.0))
    path = tmp_path / "t.lpk"
    write_lpk(path, sig)
    raw = path.read_bytes()
    path.write_bytes(raw[:-8])
    with pytest.raises(TruncatedPayloadError):
        read_lpk(path)


def test_overlong_payload_rejected(tmp_path):
    sig = KSignal(grid1d(-2, 2), np.arange(5.0))
    path = tmp_path / "o.lpk"
    write_lpk(path, sig)
    path.write_bytes(path.read_bytes() + b"\x00" * 16)
    with pytest.raises(PayloadLengthError):
        read_lpk(path)


def test_unknown_version_rejected(tmp_path):
    sig = KSignal(grid1d(-2, 2), np.arange(5.0))
    path = tmp_path / "v.lpk"
    write_lpk(path, sig)
    header, payload = path.read_bytes().split(b"\n", 1)
    doc = json.loads(header)
    doc["version"] = 99
    path.write_bytes(json.dumps(doc, sort_keys=True).encode() + b"\n" + payload)
    with pytest.raises(UnknownVersionError):
        read_lpk(path)


def test_bad_mask_byte_rejected(tmp_path):
    g = grid1d(-2, 2)
    mask = SamplingMask(g, np.ones(5, dtype=bool))
    path = tmp_path / "b.lpk"
    write_lpk(path, mask)
    raw = bytearray(path.read_bytes())
    raw[-1] = 7
    path.write_bytes(bytes(raw))
    with pytest.raises(LpkFormatError):
        read_lpk(path)


@pytest.mark.parametrize("field,value,message", [
    ("n_min", 5, "bad grid in header: "),
    ("n_min", [-2.5], "bad grid in header: n_min entries must be integers"),
    ("calib", 5, "bad calib in header: "),
    ("calib", [[-1.5, 1.9]], "bad calib in header: calib bound must be an integer, got -1.5"),
], ids=["n_min-int", "n_min-float", "calib-int", "calib-float"])
def test_a_malformed_grid_or_calib_field_is_a_format_error(tmp_path, field, value, message):
    # The first and third raised an uncaught TypeError, the second a plain
    # ValueError, so the CLI could not name the file; the fourth was read
    # as [-1, 1].
    path = tmp_path / "m.lpk"
    write_lpk(path, SamplingMask(grid1d(-2, 2), np.ones(5, dtype=bool), ((-1, 1),)))
    header, payload = path.read_bytes().split(b"\n", 1)
    doc = json.loads(header)
    doc[field] = value
    path.write_bytes(json.dumps(doc, sort_keys=True).encode() + b"\n" + payload)
    with pytest.raises(LpkFormatError, match="^" + message):
        read_lpk(path)


def test_header_without_newline_rejected(tmp_path):
    path = tmp_path / "n.lpk"
    path.write_bytes(b'{"version":1,"kind":"signal"}')
    with pytest.raises(LpkFormatError):
        read_lpk(path)


@pytest.mark.parametrize("seed", range(4))
def test_random_payload_round_trips(tmp_path, seed):
    rng = np.random.default_rng(seed)
    size = int(rng.integers(2, 40))
    lo = -int(rng.integers(0, size - 1))
    sig = KSignal(
        KGrid((lo,), (lo + size - 1,), (float(rng.uniform(0.5, 3.0)),)),
        rng.normal(size=size) + 1j * rng.normal(size=size),
    )
    path = tmp_path / f"r{seed}.lpk"
    write_lpk(path, sig)
    back = read_lpk(path)
    assert back.grid == sig.grid
    assert back.values.tobytes() == sig.values.tobytes()


@st.composite
def payloads(draw):
    """A signal, channel stack or mask on a random grid (index 0 optional)."""
    dims = draw(st.sampled_from([1, 2]))
    shape = tuple(draw(st.integers(1, 7)) for _ in range(dims))
    n_min = tuple(draw(st.integers(-9, 3)) for _ in range(dims))
    fov = tuple(draw(st.floats(0.25, 4.0)) for _ in range(dims))
    grid = KGrid.window(n_min, tuple(lo + s - 1 for lo, s in zip(n_min, shape)), fov)
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    kind = draw(st.sampled_from(["signal", "multisignal", "mask"]))
    if kind == "mask":
        acq = rng.random(shape) < 0.5
        calib = None
        if draw(st.booleans()):
            lo = tuple(draw(st.integers(a, a + s - 1)) for a, s in zip(n_min, shape))
            hi = tuple(draw(st.integers(b, a + s - 1)) for a, b, s in zip(n_min, lo, shape))
            calib = tuple(zip(lo, hi))
            acq[tuple(slice(a - g, b - g + 1) for (a, b), g in zip(calib, n_min))] = True
        return SamplingMask(grid, acq, calib)
    q = 1 if kind == "signal" else draw(st.integers(1, 3))
    values = rng.normal(size=(q,) + shape) + 1j * rng.normal(size=(q,) + shape)
    return KSignal(grid, values[0]) if kind == "signal" else MultiKSignal.from_array(grid, values)


@settings(derandomize=True, max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(obj=payloads())
def test_every_payload_round_trips_exactly(tmp_path, obj):
    path = tmp_path / "p.lpk"
    write_lpk(path, obj)
    back = read_lpk(path)
    assert type(back) is type(obj)
    assert back.grid == obj.grid
    if isinstance(obj, SamplingMask):
        assert back.acquired.tobytes() == obj.acquired.tobytes()
        assert back.calib == obj.calib
    else:
        stack = (lambda s: s.values) if isinstance(obj, KSignal) else (lambda s: s.stack())
        assert stack(back).tobytes() == stack(obj).tobytes()
