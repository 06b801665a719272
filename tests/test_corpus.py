import random

from hypothesis import given, settings, strategies as st

from mscgossip.corpus import random_msc
from mscgossip.msc import SystemSignature, mirror_msc, msc_to_json, validate_msc


@settings(max_examples=200, deadline=None)
@given(
    k=st.integers(1, 4),
    seed=st.integers(0, 2**32 - 1),
    max_events=st.integers(0, 6),
    p_send=st.floats(0, 1),
    p_recv=st.floats(0, 1),
)
def test_random_msc_and_its_mirror_are_valid(k, seed, max_events, p_send, p_recv):
    sig = SystemSignature(tuple(f"p{i}" for i in range(k)), ("a", "b"))
    m = random_msc(sig, random.Random(seed), max_events, p_send, p_recv)
    assert validate_msc(m) == []
    assert validate_msc(mirror_msc(m)) == []
    assert msc_to_json(mirror_msc(mirror_msc(m))) == msc_to_json(m)
