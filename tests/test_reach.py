"""tools/reach.py's search for refusals, on a file written here. The traced run
itself is not repeated inside the suite."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "reach.py"


def test_refusals_are_raise_statements_and_fail_calls(tmp_path):
    spec = importlib.util.spec_from_file_location("reach", TOOL)
    reach = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(reach)
    source = tmp_path / "m.py"
    source.write_text(
        "def f(x):\n"
        "    if x:\n"
        "        raise ValueError(\n"
        "            'x')\n"
        "    _fail('a', 'b')\n"
        "    fail('a', 'b')\n"
        "    try:\n"
        "        g()\n"
        "    except KeyError:\n"
        "        raise\n")
    assert reach.refusals(source) == {3: "raise ValueError(", 5: "_fail('a', 'b')", 10: "raise"}
