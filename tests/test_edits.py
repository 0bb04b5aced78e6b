import pytest

from ephemedit.edits import Delete, EditOp, Insert, Substitute, edited_length, validate_edit


def test_blocks_are_normalized_to_tuples():
    assert Insert(0, [1, 2]).block == (1, 2)
    assert Substitute(0, b"ab").block == (97, 98)


def test_ops_are_frozen_and_hashable():
    ops: set[EditOp] = {Insert(1, (2,)), Delete(0, 3), Substitute(2, (5, 6))}
    assert Insert(1, (2,)) in ops
    with pytest.raises(AttributeError):
        Delete(0, 3).first = 1  # type: ignore[misc]


def test_edited_length():
    assert edited_length(Insert(-1, (1, 2)), 10) == 12
    assert edited_length(Delete(3, 6), 10) == 6
    assert edited_length(Substitute(0, (1, 2, 3)), 10) == 10


def test_validate_insert_bounds():
    validate_edit(Insert(-1, (0,)), 5)
    validate_edit(Insert(4, (0,)), 5)
    with pytest.raises(ValueError):
        validate_edit(Insert(5, (0,)), 5)
    with pytest.raises(ValueError):
        validate_edit(Insert(-2, (0,)), 5)
    with pytest.raises(ValueError):
        validate_edit(Insert(0, ()), 5)


def test_validate_delete_bounds():
    validate_edit(Delete(0, 4), 5)
    validate_edit(Delete(2, 2), 5)
    for bad in (Delete(-1, 0), Delete(3, 2), Delete(0, 5)):
        with pytest.raises(ValueError):
            validate_edit(bad, 5)


def test_validate_substitute_bounds():
    validate_edit(Substitute(0, (1, 1, 1, 1, 1)), 5)
    validate_edit(Substitute(4, (1,)), 5)
    with pytest.raises(ValueError):
        validate_edit(Substitute(3, (1, 1, 1)), 5)
    with pytest.raises(ValueError):
        validate_edit(Substitute(0, ()), 5)
    with pytest.raises(ValueError):
        validate_edit(Substitute(-1, (1,)), 5)


def test_validate_returns_the_split_at_both_text_ends():
    """The edited text is text[:ell] + block + text[rp:] for the split
    (ell, rp, block) that validate_edit returns."""
    text = [0, 1, 2, 3, 4]
    n = len(text)
    cases = [
        (Insert(-1, (7, 8)), (0, 0, (7, 8)), [7, 8, 0, 1, 2, 3, 4]),
        (Insert(n - 1, (7,)), (n, n, (7,)), [0, 1, 2, 3, 4, 7]),
        (Delete(0, n - 1), (0, n, ()), []),
        (Delete(0, 0), (0, 1, ()), [1, 2, 3, 4]),
        (Delete(n - 1, n - 1), (n - 1, n, ()), [0, 1, 2, 3]),
        (Substitute(0, (9,)), (0, 1, (9,)), [9, 1, 2, 3, 4]),
        (Substitute(n - 2, (7, 8)), (n - 2, n, (7, 8)), [0, 1, 2, 7, 8]),
    ]
    for op, split, edited in cases:
        ell, rp, block = validate_edit(op, n, sigma=10)
        assert (ell, rp, block) == split, op
        assert text[:ell] + list(block) + text[rp:] == edited, op
        assert len(edited) == edited_length(op, n), op


def test_validate_checks_block_alphabet():
    validate_edit(Insert(0, (3,)), 5, sigma=4)
    with pytest.raises(ValueError):
        validate_edit(Insert(0, (4,)), 5, sigma=4)
    with pytest.raises(ValueError):
        validate_edit(Substitute(0, (-1,)), 5, sigma=4)


@pytest.mark.parametrize(
    "cls, args",
    [
        (Delete, (True, True)),
        (Delete, (2.5, 3)),
        (Delete, (2, 3.0)),
        (Insert, (False, (1,))),
        (Insert, ("0", (1,))),
        (Substitute, (1.0, (1,))),
        (Substitute, (None, (1,))),
    ],
    ids=["delete-bools", "delete-float-first", "delete-float-last", "insert-bool",
         "insert-str", "substitute-float", "substitute-none"],
)
def test_positions_must_be_ints(cls, args):
    # Bools would be read as 0 and 1, floats fail later inside a query.
    with pytest.raises(ValueError, match="must be an int"):
        cls(*args)
