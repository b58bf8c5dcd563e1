"""The README's library example runs as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_example_runs():
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.S | re.M)
    assert len(blocks) == 1
    namespace: dict = {}
    exec(compile(blocks[0], str(README), "exec"), namespace)
    # the parity value at the origin of thermal 2.4 is 1/(1 + 2 n_th)
    assert abs(namespace["w0"] - 1 / (1 + 2 * 2.4)) < 0.02
    assert not namespace["wmap"].points[0].flagged
