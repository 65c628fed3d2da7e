"""Pure-Python word kernel: reduction, concatenation, inversion, substitution.

Words are tuples of nonzero ints; the generator with index i (1-based) is
the letter i and its inverse is -i.  A tuple is reduced when no letter is
directly followed by its negative.  All four functions return reduced
tuples; concat and substitute additionally assume reduced inputs.
"""
from __future__ import annotations


def reduce_letters(letters):
    out = []
    for x in letters:
        if out and out[-1] == -x:
            out.pop()
        else:
            out.append(x)
    return tuple(out)


def concat(a, b):
    i = len(a)
    j = 0
    n = len(b)
    while i > 0 and j < n and a[i - 1] == -b[j]:
        i -= 1
        j += 1
    return a[:i] + b[j:]


def invert(a):
    return tuple(-x for x in reversed(a))


def substitute(images, letters):
    out = []
    for x in letters:
        if x > 0:
            img = images[x - 1]
        else:
            img = tuple(-y for y in reversed(images[-x - 1]))
        for y in img:
            if out and out[-1] == -y:
                out.pop()
            else:
                out.append(y)
    return tuple(out)
