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
