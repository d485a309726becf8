import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gibbsmix.errors import (
    ContainsIdentity,
    InvariantViolation,
    NotGenerating,
    NotSymmetric,
    ParseError,
    SizeLimitExceeded,
)
from gibbsmix.groups import (
    GroupTable,
    build_cyclic,
    build_dihedral,
    build_hypercube,
    load_group,
    verify_generator_set,
    verify_group_axioms,
)


def test_cyclic_table_basics(z6):
    group, gens = z6
    assert group.n == 6
    assert group.identity == 0
    assert group.mul[2, 5] == 1
    assert group.inv[2] == 4
    assert gens.elements == (1, 5)


def test_hypercube_all_involutions(cube3):
    group, gens = cube3
    assert group.n == 8
    assert np.array_equal(group.inv, np.arange(8))
    for g in gens.elements:
        assert group.mul[g, g] == group.identity


def test_dihedral_nonabelian(dihedral3):
    group, _ = dihedral3
    assert group.n == 6
    products = [
        (group.mul[a, b], group.mul[b, a])
        for a in range(group.n)
        for b in range(group.n)
    ]
    assert any(x != y for x, y in products)
    verify_group_axioms(group)


def test_axioms_reject_corrupted_table(z4):
    group, _ = z4
    mul = group.mul.copy()
    mul[1, 1] = 1  # breaks both associativity and the latin-square property
    with pytest.raises(InvariantViolation):
        GroupTable(n=4, mul=mul, inv=group.inv.copy(), identity=0)


def test_generator_set_must_be_symmetric():
    group, _ = build_cyclic(5, [1, 4])
    with pytest.raises(NotSymmetric):
        verify_generator_set(group, [1])


def test_generator_set_rejects_identity():
    group, _ = build_cyclic(5, [1, 4])
    with pytest.raises(ContainsIdentity):
        verify_generator_set(group, [0, 1, 4])


def test_generator_set_must_generate():
    group, _ = build_cyclic(6, [1, 5])
    with pytest.raises(NotGenerating):
        verify_generator_set(group, [2, 4])


def test_a_large_non_generating_set_reaches_its_subgroup():
    # {2, -2} generates the even residues only: the breadth-first search
    # walks 256 frontiers of two elements before it stops
    with pytest.raises(NotGenerating, match="generators reach only 512 of 1024 elements"):
        build_cyclic(1024, [2, 1022])
    group, _ = build_cyclic(1024, [1, 1023])
    assert verify_generator_set(group, [1023, 2, 1, 1022]).elements == (1, 2, 1022, 1023)


def _reach(group, gens):
    """Elements reached from the identity, one element and one generator
    at a time."""
    seen, frontier = {group.identity}, [group.identity]
    while frontier:
        frontier = [b for a in frontier for b in (int(group.mul[a, r]) for r in gens)
                    if b not in seen and not seen.add(b)]
    return len(seen)


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_generation_check_matches_an_element_by_element_search(data):
    # dihedral groups are not abelian, so right multiplication by a
    # generator is what the search must follow
    k = data.draw(st.integers(3, 12))
    group, _ = build_dihedral(k)
    picks = data.draw(st.sets(st.integers(1, group.n - 1), min_size=1, max_size=4))
    gens = sorted({int(r) for p in picks for r in (p, group.inv[p])})
    reach = _reach(group, gens)
    if reach == group.n:
        assert verify_generator_set(group, gens).elements == tuple(gens)
    else:
        with pytest.raises(NotGenerating, match=f"reach only {reach} of {group.n} elements"):
            verify_generator_set(group, gens)


def test_size_cap():
    with pytest.raises(SizeLimitExceeded):
        build_cyclic(5000, [1, 4999])


def test_cyclic_requires_three_elements():
    with pytest.raises(InvariantViolation):
        build_cyclic(2, [1])


def test_group_file_roundtrip(tmp_path, z4):
    group, gens = z4
    lines = [str(group.n)]
    for row in group.mul:
        lines.append(" ".join(str(v) for v in row))
    lines.append(" ".join(str(g) for g in gens.elements))
    path = tmp_path / "z4.txt"
    path.write_text("\n".join(lines) + "\n")
    loaded_group, loaded_gens = load_group(str(path))
    assert np.array_equal(loaded_group.mul, group.mul)
    assert loaded_group.identity == group.identity
    assert loaded_gens.elements == gens.elements


def test_group_file_parse_error(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("3\n0 1 2\n1 2 0\n")
    with pytest.raises(ParseError):
        load_group(str(path))


@pytest.mark.parametrize("text, error, message", [
    # no row reads 0 1 2
    ("3\n1 2 0\n2 0 1\n1 0 2\n1\n", InvariantViolation, "identity: no row equals 0..n-1"),
    # rows 2 and 3 hold no identity: the first is named
    ("4\n0 1 2 3\n1 0 3 2\n2 3 2 2\n3 2 2 2\n1\n", InvariantViolation,
     "inverse: element 2 lacks a two-sided inverse"),
    # 1 * 2 is the identity, but 2 * 1 is not
    ("3\n0 1 2\n1 2 0\n2 1 1\n1\n", InvariantViolation,
     "inverse: element 1 lacks a two-sided inverse"),
    # row 1 holds the identity twice
    ("3\n0 1 2\n1 0 0\n2 0 1\n1\n", InvariantViolation,
     "inverse: element 1 lacks a two-sided inverse"),
    ("3\n0 1 2\n1 2 3\n2 0 1\n1 2\n", ParseError, "table entry out of range"),
    ("3\n0 1 2\n1 2 -1\n2 0 1\n1 2\n", ParseError, "table entry out of range"),
    ("3\n0 1 2\n1 2\n2 0 1\n1 2\n", ParseError, "row has 2 entries, expected 3"),
], ids=["no-identity", "no-inverse", "one-sided-inverse", "two-inverses", "entry-too-large",
        "negative-entry", "short-row"])
def test_group_file_errors(tmp_path, text, error, message):
    path = tmp_path / "bad.txt"
    path.write_text(text)
    with pytest.raises(error) as info:
        load_group(str(path))
    assert type(info.value) is error and str(info.value) == message


@settings(max_examples=30, deadline=None)
@given(n=st.integers(3, 24), data=st.data())
def test_cyclic_axioms_and_inverse_laws(n, data):
    step = data.draw(st.integers(1, n - 1).filter(lambda s: np.gcd(s, n) == 1))
    group, _ = build_cyclic(n, [step, n - step] if step != n - step else [step])
    verify_group_axioms(group)
    a = data.draw(st.integers(0, n - 1))
    b = data.draw(st.integers(0, n - 1))
    assert group.inv[group.inv[a]] == a
    assert group.mul[group.inv[b], group.inv[a]] == group.inv[group.mul[a, b]]
