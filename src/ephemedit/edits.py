"""Edit operations applied ephemerally to a text.

Each operation describes a single change that is queried against but never
committed: the indexed text stays as built. Positions refer to the original
text of length ``n``.

* ``Insert(after, block)`` places ``block`` immediately after position
  ``after``; ``after == -1`` prepends.
* ``Delete(first, last)`` removes the closed range ``[first, last]``.
* ``Substitute(at, block)`` overwrites ``len(block)`` letters starting at
  ``at`` without changing the length.

`validate_edit` checks an edit against the text and returns its split,
the one both engines and the command line take: the edited text is
text[:ell] + block + text[rp:].
"""

from __future__ import annotations

from dataclasses import dataclass, field


def is_int(x) -> bool:
    """The one rule for positions and letters: an int that is not a bool."""
    return isinstance(x, int) and not isinstance(x, bool)


def _as_block(letters) -> tuple[int, ...]:
    block = tuple(letters)
    for a in block:
        if not is_int(a) or a < 0:
            raise ValueError(f"block letters must be non-negative ints, got {a!r}")
    return block


def _check_positions(op, *names: str) -> None:
    """Positions must be ints, not bools or floats, so that a malformed edit
    fails when it is made instead of being read as another edit or failing
    inside a query."""
    for name in names:
        value = getattr(op, name)
        if not is_int(value):
            raise ValueError(f"{type(op).__name__}.{name} must be an int, got {value!r}")


@dataclass(frozen=True)
class Insert:
    after: int
    block: tuple[int, ...] = field(default=())

    def __post_init__(self):
        _check_positions(self, "after")
        object.__setattr__(self, "block", _as_block(self.block))


@dataclass(frozen=True)
class Delete:
    first: int
    last: int

    def __post_init__(self):
        _check_positions(self, "first", "last")


@dataclass(frozen=True)
class Substitute:
    at: int
    block: tuple[int, ...] = field(default=())

    def __post_init__(self):
        _check_positions(self, "at")
        object.__setattr__(self, "block", _as_block(self.block))


EditOp = Insert | Delete | Substitute


def validate_edit(op: EditOp, n: int, sigma: int | None = None) -> tuple[int, int, tuple[int, ...]]:
    """Check that ``op`` is well formed against a text of length ``n`` and
    return its split (ell, rp, block): the edited text is text[:ell] +
    block + text[rp:], in old coordinates, with the block empty for deletes.

    Raises ValueError with a message naming the violated constraint. When
    ``sigma`` is given, block letters must also lie in ``[0, sigma)``.
    """
    if isinstance(op, Insert):
        if not -1 <= op.after <= n - 1:
            raise ValueError(
                f"insert position {op.after} outside [-1, {n - 1}]"
            )
        if len(op.block) == 0:
            raise ValueError("insert block must be non-empty")
        _check_block(op.block, sigma)
        return op.after + 1, op.after + 1, op.block
    if isinstance(op, Delete):
        if not 0 <= op.first <= op.last <= n - 1:
            raise ValueError(
                f"delete range [{op.first}, {op.last}] invalid for n={n}"
            )
        return op.first, op.last + 1, ()
    if isinstance(op, Substitute):
        if len(op.block) == 0:
            raise ValueError("substitute block must be non-empty")
        if not (0 <= op.at and op.at + len(op.block) <= n):
            raise ValueError(
                f"substitute range [{op.at}, {op.at + len(op.block) - 1}] "
                f"invalid for n={n}"
            )
        _check_block(op.block, sigma)
        return op.at, op.at + len(op.block), op.block
    raise TypeError(f"not an edit operation: {op!r}")


def _check_block(block: tuple[int, ...], sigma: int | None) -> None:
    """``block`` is non-empty and, by `_as_block`, holds non-negative ints,
    so one ``max`` tests it; the loop only names the bad letter."""
    if sigma is not None and max(block) >= sigma:
        for a in block:
            if a >= sigma:
                raise ValueError(f"block letter {a} outside [0, {sigma})")


def edited_length(op: EditOp, n: int) -> int:
    """Length of the text after applying ``op``."""
    if isinstance(op, Insert):
        return n + len(op.block)
    if isinstance(op, Delete):
        return n - (op.last - op.first + 1)
    return n
