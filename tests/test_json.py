"""The JSON codec: shortest round-trip floats, sorted keys, two layouts."""

import json

from hypothesis import given
from hypothesis import strategies as st

from expsum import _json

EXTREMES = (-0.0, 0.0, 5e-324, -5e-324, 1.7976931348623157e308,
            -1.7976931348623157e308, 2.2250738585072014e-308, 1e-9, 1e16)
finite = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(EXTREMES)
documents = st.recursive(
    finite | st.integers(-2**63, 2**63 - 1) | st.text(max_size=5),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=5), inner, max_size=4),
    max_leaves=20,
)


def bits(obj):
    """``obj`` with every float replaced by its exact hex form, so -0.0 and
    0.0 differ and a float never equals an int."""
    if isinstance(obj, float):
        return ("float", obj.hex())
    if isinstance(obj, list):
        return [bits(x) for x in obj]
    if isinstance(obj, dict):
        return {k: bits(v) for k, v in obj.items()}
    return obj


@given(documents)
def test_codec_text_reads_back_as_the_same_document(doc):
    compact = _json.dumps(doc, indent=False).decode("utf-8")
    indented = _json.dumps(doc).decode("utf-8")
    assert compact.count("\n") == 1 and compact.endswith("\n")
    for text in (compact, indented):
        assert bits(json.loads(text)) == bits(doc)
    stdlib = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    assert indented.count("\n") == stdlib.count("\n")
