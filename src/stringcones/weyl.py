"""Weyl group bookkeeping for Lie types A, B and C.

Conventions.  Type ``A`` of rank ``r`` acts on ``{1, ..., r+1}`` by
permutations; types ``B`` and ``C`` of rank ``n`` act by signed permutations
of ``{1, ..., n}``.  The simple reflection ``s_i`` with ``i < n`` swaps
positions ``i`` and ``i+1`` of the one-line notation; in types B/C the last
generator ``s_n`` flips the sign of the last entry.  The longest element is
the order-reversing permutation in type A and minus the identity in types
B/C.  B_n and C_n share one Weyl group, so their reduced words coincide as
letter sequences; the types differ only through `cartan_pairing`.

A type-B/C word of rank ``n`` folds out of a type-A word on ``2n`` wires:
`lift` is the one writer of that layout, and the entry of the one-line
notation at position ``p`` (``p <= n``) is the wire at position ``p`` of
the lifted diagram, ``v`` for ``+v`` and ``2n + 1 - v`` for ``-v``.  So
`contract`, which drops the wires ``1`` and ``2n``, reads the word alone,
tracking where the entry +-1 sits.

Letters are 1-based generator indices.  Words serialize as comma-separated
integers, Lie types as strings like ``"A3"`` or ``"C2"``.
"""

from __future__ import annotations

from math import factorial
from typing import Iterator, Sequence

from ._linalg import Value

__all__ = [
    "LieType",
    "ReducedWord",
    "Weight",
    "longest_length",
    "is_reduced",
    "enumerate_reduced_words",
    "count_reduced_words",
    "commutation_class",
    "heap_coordinates",
    "foata_normal_form",
    "class_words",
    "lift",
    "contract",
    "cartan_pairing",
    "positive_coroots",
    "weyl_dimension",
    "gt_adapted_word",
    "braid_variant_word",
    "EnumerationCapExceeded",
]

_FAMILIES = ("A", "B", "C")

DEFAULT_WORD_CAP = 10_000_000


class EnumerationCapExceeded(RuntimeError):
    """Raised when a reduced-word enumeration would exceed its cap."""


class LieType(Value):
    """A simple Lie type restricted to the families A, B, C."""

    _fields = ("family", "rank")

    def __init__(self, family: str, rank: int) -> None:
        if family not in _FAMILIES:
            raise ValueError(f"unsupported family {family!r}; expected one of {_FAMILIES}")
        min_rank = 1 if family == "A" else 2
        if rank < min_rank:
            raise ValueError(f"rank {rank} too small for type {family}")
        super().__init__(family, rank)

    @classmethod
    def parse(cls, text: str) -> "LieType":
        """Parse strings like ``"A3"``, ``"B2"``, ``"C3"``."""
        text = text.strip()
        if len(text) < 2 or text[0].upper() not in _FAMILIES:
            raise ValueError(f"cannot parse Lie type from {text!r}")
        return cls(text[0].upper(), _integer(text[1:], "rank", text))

    def __str__(self) -> str:
        return f"{self.family}{self.rank}"

    @property
    def is_doubled(self) -> bool:
        """Whether the type folds from a doubled type-A diagram (B or C)."""
        return self.family in ("B", "C")


def longest_length(t: LieType) -> int:
    """Length of the longest Weyl element: m(m-1)/2 in A_{m-1}, n^2 in B_n/C_n."""
    if t.family == "A":
        m = t.rank + 1
        return m * (m - 1) // 2
    return t.rank * t.rank


# One-line notation.  Type A: a tuple with entries 1..m.  Types B/C: a tuple
# with entries +-1..+-n.  Multiplication on the right by s_i permutes
# positions, so w*s_i differs from w in positions i, i+1 (or flips the last
# sign for s_n).


def _identity(t: LieType) -> tuple[int, ...]:
    size = t.rank + 1 if t.family == "A" else t.rank
    return tuple(range(1, size + 1))


def _w0(t: LieType) -> tuple[int, ...]:
    if t.family == "A":
        return tuple(range(t.rank + 1, 0, -1))
    return tuple(-i for i in range(1, t.rank + 1))


def _apply(t: LieType, w: tuple[int, ...], letter: int) -> tuple[int, ...]:
    """Right-multiply the one-line notation ``w`` by the generator ``letter``."""
    if t.family == "A" or letter < t.rank:
        i = letter - 1
        return w[:i] + (w[i + 1], w[i]) + w[i + 2 :]
    return w[:-1] + (-w[-1],)


def _is_ascent(t: LieType, w: tuple[int, ...], letter: int) -> bool:
    """Whether right multiplication by ``letter`` increases the length."""
    if t.family == "A":
        return w[letter - 1] < w[letter]
    if letter == t.rank:
        return w[-1] > 0
    # Signed entries compare in the mirror order 1 < ... < n < -n < ... < -1,
    # the left-to-right order of wire positions on a symplectic diagram.
    n = t.rank
    key = lambda x: x if x > 0 else 2 * n + 1 + x
    return key(w[letter - 1]) < key(w[letter])


def _integer(token: str, what: str, text: str) -> int:
    """``token`` of the input ``text`` as an int, or a `ValueError` naming both."""
    try:
        return int(token)
    except ValueError:
        raise ValueError(f"{what} {token!r} in {text!r} is not an integer") from None


def _check_letters(t: LieType, letters: Sequence[int]) -> None:
    for x in letters:
        if not 1 <= x <= t.rank:
            raise ValueError(f"letter {x} out of range 1..{t.rank} for type {t}")


def is_reduced(t: LieType, letters: Sequence[int]) -> bool:
    """Whether ``letters`` is a reduced word for the longest element of ``t``.

    The product of the simple reflections must equal the longest element and
    the word must have the longest length; together these force reducedness.
    """
    _check_letters(t, letters)
    if len(letters) != longest_length(t):
        return False
    w = _identity(t)
    for x in letters:
        w = _apply(t, w, x)
    return w == _w0(t)


class ReducedWord(Value):
    """A reduced word for the longest Weyl element of a fixed Lie type."""

    _fields = ("lie_type", "letters")

    def __init__(self, lie_type: LieType, letters: Sequence[int]) -> None:
        letters = tuple(letters)
        if not is_reduced(lie_type, letters):
            raise ValueError(
                f"{','.join(map(str, letters))} is not a reduced word "
                f"for the longest element of {lie_type}"
            )
        self._hold(lie_type, letters)

    def _hold(self, lie_type: LieType, letters: tuple[int, ...]) -> None:
        object.__setattr__(self, "lie_type", lie_type)
        object.__setattr__(self, "letters", letters)

    @classmethod
    def _reduced(cls, lie_type: LieType, letters: tuple[int, ...]) -> "ReducedWord":
        """An instance holding ``letters`` unchecked: they must already be a
        reduced word for the longest element of ``lie_type``."""
        w = object.__new__(cls)
        w._hold(lie_type, letters)
        return w

    @classmethod
    def parse(cls, type_text: str, word_text: str) -> "ReducedWord":
        """Comma-separated letters for a type like ``"C3"``, or for a bare
        family like ``"C"`` of the rank of the largest letter; an empty word
        or a letter that is not an integer raises a `ValueError` naming it."""
        tokens = word_text.replace(" ", "").split(",")
        letters = [_integer(x, "letter", word_text) for x in tokens if x]
        if not letters:
            raise ValueError(f"word {word_text!r} has no letters")
        text = type_text.strip().upper()
        t = LieType.parse(type_text) if len(text) > 1 else LieType(text, max(letters))
        return cls(t, letters)

    def __str__(self) -> str:
        return ",".join(map(str, self.letters))

    def __len__(self) -> int:
        return len(self.letters)

    @property
    def rank(self) -> int:
        return self.lie_type.rank


def enumerate_reduced_words(t: LieType, cap: int = DEFAULT_WORD_CAP) -> Iterator[ReducedWord]:
    """Yield every reduced word for the longest element, lexicographically.

    Depth-first search over prefixes, extending only by letters that
    lengthen the product.  Any reduced prefix extends to a reduced word of
    the longest element, so the search has no dead ends, and every word it
    reaches is reduced.  Raises `EnumerationCapExceeded` on the call, before
    any word is built, when `count_reduced_words` counts more than ``cap``.
    """
    count_reduced_words(t, cap)
    target = longest_length(t)
    stack_word: list[int] = []

    def walk(w: tuple[int, ...]) -> Iterator[ReducedWord]:
        if len(stack_word) == target:
            yield ReducedWord._reduced(t, tuple(stack_word))
            return
        for letter in range(1, t.rank + 1):
            if _is_ascent(t, w, letter):
                stack_word.append(letter)
                yield from walk(_apply(t, w, letter))
                stack_word.pop()

    return walk(_identity(t))


def count_reduced_words(t: LieType, cap: int = DEFAULT_WORD_CAP) -> int:
    """Number of reduced words of the longest element, without enumerating them.

    They are as many as the standard Young tableaux of the staircase
    ``(r, r-1, ..., 1)`` in type A_r (Stanley 1984, *Europ. J. Combin.* 5) and
    of the n×n square in types B_n/C_n (Haiman 1992, *Discrete Math.* 99),
    counted by the hook-length formula.  Raises `EnumerationCapExceeded` when
    the count is over ``cap``, as enumerating them would.  Each rank's shape
    contains the one before, and a shape has at least the tableaux of any
    shape it contains, so the counts grow with the rank: the ranks are
    walked up from 1, and the first count over ``cap`` refuses ``t`` without
    its own, possibly huge, count.
    """
    for rank in range(1, t.rank + 1):
        shape = list(range(rank, 0, -1)) if t.family == "A" else [rank] * rank
        columns = [sum(1 for r in shape if r > j) for j in range(shape[0])]
        hooks = 1
        for i, r in enumerate(shape):
            for j in range(r):
                hooks *= (r - j) + (columns[j] - i) - 1
        count = factorial(sum(shape)) // hooks
        if count > cap:
            raise EnumerationCapExceeded(
                f"{t} has more than the cap {cap} reduced words; raise the cap to enumerate"
            )
    return count


def commutation_class(w: ReducedWord) -> frozenset[ReducedWord]:
    """Every word reached from ``w`` by commutation moves.

    A commutation move swaps two adjacent letters i, j with |i - j| >= 2;
    the Dynkin diagrams of types A, B and C are paths, so these are exactly
    the pairs of commuting simple reflections.  The class is found from the
    letters alone; commutation moves keep a word reduced.
    """
    seen = {w.letters}
    todo = [w.letters]
    while todo:
        letters = todo.pop()
        for j in range(len(letters) - 1):
            if abs(letters[j] - letters[j + 1]) >= 2:
                moved = letters[:j] + (letters[j + 1], letters[j]) + letters[j + 2:]
                if moved not in seen:
                    seen.add(moved)
                    todo.append(moved)
    return frozenset(ReducedWord(w.lie_type, letters) for letters in seen)


def heap_coordinates(w: ReducedWord) -> tuple[int, ...]:
    """Each position's coordinate in the heap of ``w``, shared by its commutation class.

    Position j is labelled ``(i_j, number of earlier occurrences of i_j)``; a
    commutation move never reorders two occurrences of one letter, so every
    word of a class gives a letter occurrence the same label.  Returns each
    position's index in the sorted list of labels.
    """
    nxt = [0] * (w.rank + 1)  # the index of the next occurrence of each letter
    for x in w.letters:
        nxt[x] += 1
    start = 0
    for x, count in enumerate(nxt):
        nxt[x], start = start, start + count
    out = []
    for x in w.letters:
        out.append(nxt[x])
        nxt[x] += 1
    return tuple(out)


def foata_normal_form(w: ReducedWord) -> tuple[int, ...]:
    """The Cartier–Foata normal form of ``w``: one word per commutation class.

    Each letter's level is one more than the highest level of an earlier
    letter it does not commute with, and the letters are read off sorted by
    (level, letter).  Letters ``x`` and ``y`` fail to commute exactly when
    ``cartan_pairing(t, x, y) != 0``, that is when ``|x - y| <= 1`` (the
    Dynkin diagram is a path), so a level is one more than the highest level
    so far of ``x - 1``, ``x`` and ``x + 1``.  A commutation move swaps two
    commuting letters and changes no level, and the normal form is itself a
    word of the class, so two words have equal normal forms exactly when
    they lie in one commutation class (Cartier and Foata, *LNM* 85, 1969).
    It costs O(length) plus one sort of the letters.
    """
    m = w.rank + 1
    top = [0] * (m + 1)  # the level of each letter's last occurrence, padded
    keys = []  # level * m + letter, which sorts as (level, letter)
    for x in w.letters:
        a, b, c = top[x - 1], top[x], top[x + 1]
        level = top[x] = 1 + (a if a > b and a > c else b if b > c else c)  # max, inlined
        keys.append(level * m + x)
    keys.sort()
    return tuple([k % m for k in keys])


def class_words(t: LieType) -> list[ReducedWord]:
    """The first word of each commutation class of ``t``, in enumeration
    order: each word whose `foata_normal_form` no earlier word has."""
    first: dict[tuple[int, ...], ReducedWord] = {}
    for w in enumerate_reduced_words(t):
        first.setdefault(foata_normal_form(w), w)
    return list(first.values())


def lift(w: ReducedWord) -> ReducedWord:
    """Unfold a type-B/C word of rank n into a type-A word of rank 2n-1.

    Each letter ``i < n`` expands to the pair ``(i, 2n-i)``; the letter
    ``n`` stays a single letter.  The result is reduced of length n(2n-1).
    """
    if not w.lie_type.is_doubled:
        raise ValueError("lift applies to words of type B or C")
    n = w.rank
    out: list[int] = []
    for x in w.letters:
        if x == n:
            out.append(n)
        else:
            out.extend((x, 2 * n - x))
    return ReducedWord(LieType("A", 2 * n - 1), tuple(out))


def contract(w: ReducedWord) -> ReducedWord:
    """Drop the outermost wire pair of a type-B/C word, lowering the rank by one.

    Read on the signed one-line notation, where the entry +-1 sits at the
    positions of wires 1 and 2n (see the module docstring).  A letter that
    moves it (``i < n`` swapping it with a neighbour, or ``n`` flipping its
    sign) crosses those wires and is dropped; every other letter is kept,
    one lower when the entry +-1 lies left of its positions.
    """
    if not w.lie_type.is_doubled:
        raise ValueError("contract applies to words of type B or C")
    n = w.rank
    if n < 3:
        raise ValueError("contract needs rank at least 3")
    at = 1  # the position of the entry +-1 in the one-line notation
    out: list[int] = []
    for x in w.letters:
        if at == x + 1:
            at = x
        elif at == x:
            at = min(x + 1, n)
        else:
            out.append(x - 1 if at < x else x)
    return ReducedWord(LieType(w.lie_type.family, n - 1), tuple(out))


def cartan_pairing(t: LieType, i: int, j: int) -> int:
    """The integer pairing of the ``i``-th simple root with the ``j``-th coroot.

    Diagonal entries are 2, neighbours on the Dynkin diagram give -1, except
    for the doubled bond: in type C_n the pairing of the last root with the
    next-to-last coroot is -2, and type B_n is the transpose of type C_n.
    """
    n = t.rank
    if not (1 <= i <= n and 1 <= j <= n):
        raise ValueError(f"indices ({i}, {j}) out of range 1..{n}")
    if i == j:
        return 2
    if abs(i - j) != 1:
        return 0
    if t.family == "C" and i == n:
        return -2
    if t.family == "B" and j == n:
        return -2
    return -1


def positive_coroots(t: LieType) -> tuple[tuple[int, ...], ...]:
    """The positive coroots of ``t`` in the simple-coroot basis, sorted.

    They are the coroots with no negative coefficient in the closure of the
    simple coroots under the simple reflections
    ``s_i(b) = b - <alpha_i, b> alpha_i^vee``.  A weight's pairing with one
    is the dot product of the two coefficient vectors.
    """
    n = t.rank
    simple = [tuple(int(i == j) for j in range(n)) for i in range(n)]
    coroots = set(simple)
    todo = list(simple)
    while todo:
        b = todo.pop()
        for i in range(n):
            pairing = sum(c * cartan_pairing(t, i + 1, j + 1) for j, c in enumerate(b))
            image = tuple(c - pairing * (j == i) for j, c in enumerate(b))
            if image not in coroots:
                coroots.add(image)
                todo.append(image)
    return tuple(sorted(b for b in coroots if min(b) >= 0))


def weyl_dimension(lam: Weight) -> int:
    """Dimension of the irreducible representation V(lam), by Weyl's formula:
    the product of ``<lam + rho, b> / <rho, b>`` over the positive coroots b."""
    top = bottom = 1
    for b in positive_coroots(lam.lie_type):
        top *= sum(c * (x + 1) for c, x in zip(b, lam.coeffs))
        bottom *= sum(b)
    return top // bottom


class Weight(Value):
    """An integral weight written in fundamental-weight coordinates."""

    _fields = ("lie_type", "coeffs")

    def __init__(self, lie_type: LieType, coeffs: Sequence[int]) -> None:
        coeffs = tuple(coeffs)
        if len(coeffs) != lie_type.rank:
            raise ValueError("weight needs one coefficient per fundamental weight")
        super().__init__(lie_type, coeffs)

    @classmethod
    def rho(cls, t: LieType) -> "Weight":
        """The sum of the fundamental weights."""
        return cls(t, (1,) * t.rank)

    @classmethod
    def zero(cls, t: LieType) -> "Weight":
        return cls(t, (0,) * t.rank)

    @classmethod
    def parse(cls, t: LieType, text: str) -> "Weight":
        text = text.strip().lower()
        if text == "rho":
            return cls.rho(t)
        if text == "0":
            return cls.zero(t)
        return cls(t, tuple([_integer(x, "weight coefficient", text) for x in text.split(",")]))

    @property
    def is_dominant(self) -> bool:
        return all(c >= 0 for c in self.coeffs)

    @property
    def is_regular(self) -> bool:
        return all(c > 0 for c in self.coeffs)

    def __str__(self) -> str:
        return ",".join(map(str, self.coeffs))


def gt_adapted_word(n: int) -> ReducedWord:
    """The nested type-C word (n, n-1 n n-1, ..., 1 2 ... n ... 2 1).

    Block k (from the inside out) runs k, k+1, ..., n, ..., k+1, k; its
    string polytope realizes the symplectic Gelfand-Tsetlin polytope.
    """
    letters: list[int] = []
    for k in range(n, 0, -1):
        letters.extend(range(k, n + 1))
        letters.extend(range(n - 1, k - 1, -1))
    return ReducedWord(LieType("C", n), tuple(letters))


def braid_variant_word(n: int) -> ReducedWord:
    """`gt_adapted_word` with a braid move applied to its first four letters."""
    w = gt_adapted_word(n).letters
    return ReducedWord(LieType("C", n), (n - 1, n, n - 1, n) + w[4:])
