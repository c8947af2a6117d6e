"""The README's python blocks run as written against the installed package."""

import math
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def python_blocks():
    return re.findall(r"^```python\n(.*?)^```", README.read_text(encoding="utf-8"),
                      re.MULTILINE | re.DOTALL)


def test_library_sketch_runs():
    blocks = python_blocks()
    assert blocks, "README holds no python block"
    namespace = {}  # the blocks run in order, as one session
    for code in blocks:
        exec(compile(code, str(README), "exec"), namespace)
    result = namespace["result"]
    assert math.isfinite(result.final_loss) and len(result.final_swarm) > 0
