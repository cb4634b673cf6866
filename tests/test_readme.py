"""The README's library example runs, and prints the digits its comments state."""

import re
from pathlib import Path

README = Path(__file__).parent.parent / "README.md"

# the digits the comments state, one printed line each, in print order
STATED = ["3.2407959928", "3.3431319160", "-0.7071", "0.1202660974", "0.2729632595"]


def test_library_example(capsys):
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    assert len(blocks) == 2
    namespace: dict = {}
    for block in blocks:  # the second block reads `dom` from the first
        exec(compile(block, str(README), "exec"), namespace)
    printed = capsys.readouterr().out.splitlines()
    code = "".join(blocks).splitlines()
    comments = [line.split("#", 1)[1] for line in code if line.startswith("print(") and "#" in line]
    stated = re.findall(r"(-?\d+\.\d+)\.\.\.", "\n".join(comments))
    assert stated == STATED
    assert len(printed) == len(stated)
    for digits, line in zip(stated, printed):
        assert digits in line, (digits, line)
    thm4 = next(line for line in code if line.startswith("report, check = thm4_scan("))
    assert namespace["report"].verdict == thm4.split("#", 1)[1].strip() == "NonConvexDetected"
    assert namespace["check"].passed
