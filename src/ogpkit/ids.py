"""Element labels: each is a string, built here and nowhere else.

Base shapes name their elements with plain strings ("0-", "1", ...).  A
Gray product names (x, y) as "(x,y)", and a pushout names the left
input's x as "in0:x" and the right input's unglued y as "in1:y", so the
shared part keeps the left label and no fresh-name generator is needed.
No base label contains "(", ",", ")" or an "in0:"/"in1:" prefix, so the
names built here are distinct, and a label is matched, sorted and
printed as the string it is: nothing parses it.
"""

from __future__ import annotations


def pair(x: str, y: str) -> str:
    return f"({x},{y})"


def inl(x: str) -> str:
    return f"in0:{x}"


def inr(x: str) -> str:
    return f"in1:{x}"


# The identity on labels.  Only perfbench/make_goldens.py reads it; it goes
# when the benchmark moves onto the mask layer.
def sid(x: str) -> str:
    return x
