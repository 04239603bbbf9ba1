"""Property tests for the RPC frame codec (``frame`` / ``unframe``)."""

import struct

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net.rpc import FRAME_BYTES, MAX_METHOD_BYTES, frame, unframe

#: Method names that fit the fixed-width header field.  NUL is the
#: field's padding byte, so a name ending in one cannot round-trip.
methods = st.text(max_size=MAX_METHOD_BYTES).filter(
    lambda m: len(m.encode()) <= MAX_METHOD_BYTES and not m.endswith("\0")
)
payloads = st.binary(max_size=256)


@st.composite
def near_frames(draw):
    """An honest frame with arbitrary name-field bytes, then maybe cut
    short or extended: the blobs that reach the length checks and the
    name decode, which uniform random bytes almost never do."""
    name = draw(st.binary(min_size=MAX_METHOD_BYTES, max_size=MAX_METHOD_BYTES))
    payload = draw(payloads)
    blob = struct.pack("<16sI", name, len(payload)) + payload
    mode = draw(st.sampled_from(["exact", "truncated", "extended"]))
    if mode == "truncated":
        return blob[: draw(st.integers(0, len(blob) - 1))]
    if mode == "extended":
        return blob + draw(st.binary(min_size=1, max_size=8))
    return blob


@settings(max_examples=200, deadline=None)
@given(methods, payloads)
def test_frame_round_trips_byte_identically(method, payload):
    blob = frame(method, payload)
    assert len(blob) == FRAME_BYTES + len(payload)
    assert unframe(blob) == (method, payload)
    assert frame(*unframe(blob)) == blob


@settings(max_examples=300, deadline=None)
@given(st.one_of(st.binary(max_size=64), near_frames()))
def test_arbitrary_bytes_parse_exactly_or_raise_value_error(blob):
    try:
        method, payload = unframe(blob)
    except ValueError:
        return
    assert frame(method, payload) == blob
