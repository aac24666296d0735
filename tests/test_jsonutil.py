"""JSON text: floats read back bit-exactly, and the layout stays fixed."""

import json
import math

import pytest

from b2gbounds import ValidationError, jsonutil


@pytest.mark.parametrize(
    "x", [-0.0, 5e-324, 0.1, 1.0, 1e16, 1.7976931348623157e308], ids=repr
)
def test_floats_read_back_bit_exactly(x):
    # float.hex is exact and tells -0.0 from 0.0
    back = json.loads(jsonutil.dumps({"v": [x]}))["v"][0]
    assert type(back) is float and back.hex() == x.hex()


@pytest.mark.parametrize("x", [math.nan, math.inf, -math.inf], ids=repr)
def test_non_finite_float_is_a_validation_error(x):
    with pytest.raises(ValidationError):
        jsonutil.dumps({"summary": [1.0, x]})


LAYOUT = """\
{
  "a": [
    1,
    0.5,
    [],
    {},
    [
      true,
      false,
      null
    ]
  ],
  "b": {
    "c": {
      "d": []
    },
    "e": "q\\"\\u00e9\\n"
  },
  "f": {},
  "7": -3
}
"""


def test_layout_is_two_space_indent_in_key_order():
    # the text the earlier hand-written emitter gave for the same object
    obj = {
        "a": [1, 0.5, [], {}, (True, False, None)],
        "b": {"c": {"d": []}, "e": 'q"é\n'},
        "f": {},
        7: -3,
    }
    assert jsonutil.dumps(obj) == LAYOUT
