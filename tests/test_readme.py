"""The README's library example runs as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_example_runs():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    assert len(blocks) == 1
    # the same code over a smaller corpus
    code = blocks[0].replace("range(64)", "range(8)")
    assert code != blocks[0]
    scope = {}
    exec(compile(code, str(README), "exec"), scope)
    assert scope["restored"].shape == scope["tensors"][0].shape == (16, 16, 32)
