"""Parity programs: exact energy identity, constraint ladder, decomposition.

The central oracle is the identity  parity_energy(encode(x)) == cost(x),
checked against the problem evaluator for every assignment; satisfying-set
counts and the 32-row decomposition truth table are enumerated locally.
"""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rydcomp.errors import ValidationError
from rydcomp.parity import (
    ParityConstraint,
    compile_parity,
    decode,
    decompose_4body,
    decompose_all,
    encode,
    parity_energy,
    violations,
)
from rydcomp.problems import evaluate, parse_problem


def complete(n, linear=(), quadratic=()):
    return parse_problem(
        {"family": f"K_{n}", "linear": list(linear), "quadratic": list(quadratic)}
    )


def bipartite(n, m, quadratic=()):
    return parse_problem({"family": f"K_{{{n},{m}}}", "quadratic": list(quadratic)})


def all_assignments(k):
    return itertools.product((0, 1), repeat=k)


class TestCompleteStructure:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_counts(self, n):
        prog = compile_parity(complete(n))
        assert prog.n == n + n * (n - 1) // 2
        assert len(prog.constraints) == n * (n - 1) // 2
        triples = [c for c in prog.constraints if len(c.members) == 3]
        quads = [c for c in prog.constraints if len(c.members) == 4]
        assert len(triples) == max(0, n - 1) + max(0, n - 2)
        expected_quads = (n - 2) * (n - 3) // 2 if n >= 3 else 0
        assert len(quads) == expected_quads

    def test_targets_after_complementing(self):
        prog = compile_parity(complete(5))
        for c in prog.constraints:
            assert c.target == (1 if len(c.members) == 3 else 0)

    def test_complement_map(self):
        prog = compile_parity(complete(4))
        flips = {v.name: v.complemented for v in prog.variables}
        assert flips[("s", 0)] is False and flips[("s", 1)] is True
        assert flips[("p", 0, 1)] is False  # span 1
        assert flips[("p", 0, 2)] is True  # span 2
        assert flips[("p", 1, 3)] is True
        assert flips[("p", 0, 3)] is False

    def test_two_variable_fields_by_hand(self):
        # single coupling c: raw fields are +c/2 on each single, -c/2 on the
        # pair; complementing s_1 flips its sign and banks c/2 as offset
        prog = compile_parity(complete(2, quadratic=[[0, 1, 1.0]]))
        fields = {v.name: v.field for v in prog.variables}
        assert fields[("s", 0)] == pytest.approx(0.5)
        assert fields[("s", 1)] == pytest.approx(-0.5)
        assert fields[("p", 0, 1)] == pytest.approx(-0.5)
        assert prog.offset == pytest.approx(0.5)
        assert len(prog.constraints) == 1


class TestEnergyIdentity:
    @given(st.data())
    @settings(max_examples=40, deadline=None)
    def test_complete_energy_and_decode(self, data):
        n = data.draw(st.integers(2, 5))
        lin = [[i, data.draw(st.floats(-2, 2))] for i in range(n)]
        quad = [
            [i, j, data.draw(st.floats(-2, 2))]
            for i in range(n)
            for j in range(i + 1, n)
        ]
        prog = compile_parity(complete(n, lin, quad))
        for x in all_assignments(n):
            z = encode(prog, x)
            assert violations(prog, z) == ()
            assert parity_energy(prog, z) == pytest.approx(
                evaluate(prog.problem, x), rel=1e-12, abs=1e-12
            )
            assert decode(prog, z) == x

    @given(st.data())
    @settings(max_examples=40, deadline=None)
    def test_bipartite_energy_and_decode(self, data):
        n, m = 2, data.draw(st.integers(2, 3))
        quad = [
            [i, n + j, data.draw(st.floats(-1, 1))]
            for i in range(n)
            for j in range(m)
        ]
        prog = decompose_all(compile_parity(bipartite(n, m, quad)))
        for x in all_assignments(n + m):
            z = encode(prog, x)
            assert violations(prog, z) == ()
            assert parity_energy(prog, z) == pytest.approx(
                evaluate(prog.problem, x), rel=1e-12, abs=1e-12
            )
            got = decode(prog, z)
            want = x if x[0] == 0 else tuple(1 - b for b in x)
            assert got == want
            # the global flip encodes to the same pattern: both share one fiber
            assert encode(prog, tuple(1 - b for b in x)) == z

    def test_decomposition_preserves_energy(self):
        prog = compile_parity(complete(5, quadratic=[[0, 4, 1.3], [1, 3, -0.7]]))
        dec = decompose_all(prog)
        assert dec.offset == prog.offset
        for x in all_assignments(5):
            assert parity_energy(dec, encode(dec, x)) == pytest.approx(
                parity_energy(prog, encode(prog, x))
            )


class TestSatisfyingSets:
    @pytest.mark.parametrize("n,expected", [(3, 8), (4, 16)])
    def test_complete_count(self, n, expected):
        prog = compile_parity(complete(n))
        count = sum(
            1 for z in all_assignments(prog.n) if violations(prog, z) == ()
        )
        assert count == expected

    def test_complete_decomposed_count(self):
        prog = decompose_all(compile_parity(complete(4)))
        assert prog.n == 11  # 4 singles + 6 pairs + 1 auxiliary
        count = sum(
            1 for z in all_assignments(prog.n) if violations(prog, z) == ()
        )
        assert count == 16

    def test_bipartite_counts(self):
        raw = compile_parity(bipartite(2, 3))
        assert raw.n == 6 and len(raw.constraints) == 2
        dec = decompose_all(raw)
        assert dec.n == 8 and len(dec.constraints) == 4
        assert all(len(c.members) == 3 and c.target == 1 for c in dec.constraints)
        for prog, size in ((raw, 6), (dec, 8)):
            count = sum(
                1 for z in all_assignments(size) if violations(prog, z) == ()
            )
            assert count == 16

    def test_satisfying_patterns_are_exactly_the_encodings(self):
        prog = compile_parity(complete(3))
        encoded = {encode(prog, x) for x in all_assignments(3)}
        satisfying = {
            z for z in all_assignments(prog.n) if violations(prog, z) == ()
        }
        assert encoded == satisfying


class TestDecomposition:
    def test_truth_table(self):
        c = ParityConstraint(("a", "b", "c", "d"), 0)
        aux, (c1, c2) = decompose_4body(c, "x")
        assert aux.name == "x" and aux.field == 0.0
        rows = 0
        for a, b, cc, d, x in all_assignments(5):
            val = {"a": a, "b": b, "c": cc, "d": d, "x": x}
            sat1 = (val[c1.members[0]] ^ val[c1.members[1]] ^ val[c1.members[2]]) == 1
            sat2 = (val[c2.members[0]] ^ val[c2.members[1]] ^ val[c2.members[2]]) == 1
            both = sat1 and sat2
            assert both == ((a ^ b ^ cc ^ d) == 0 and x == 1 - (a ^ b))
            rows += both
        assert rows == 8

    def test_rejects_wrong_shapes(self):
        with pytest.raises(ValidationError):
            decompose_4body(ParityConstraint(("a", "b", "c"), 0), "x")
        with pytest.raises(ValidationError):
            decompose_4body(ParityConstraint(("a", "b", "c", "d"), 1), "x")

    def test_triples_pair_rows_for_hardware(self):
        # bipartite plaquettes must split row-wise: top pair with the
        # auxiliary, bottom pair with the same auxiliary
        prog = decompose_all(compile_parity(bipartite(2, 2)))
        c1, c2 = prog.constraints
        assert c1.members == (("p", 0, 0), ("p", 0, 1), ("aux", 0))
        assert c2.members == (("p", 1, 0), ("p", 1, 1), ("aux", 0))


class TestValidation:
    def test_encode_checks_length(self):
        prog = compile_parity(complete(3))
        with pytest.raises(ValidationError):
            encode(prog, (0, 1))

    def test_values_checked(self):
        prog = compile_parity(complete(3))
        with pytest.raises(ValidationError):
            parity_energy(prog, (0,) * (prog.n - 1))
        with pytest.raises(ValidationError):
            violations(prog, (2,) * prog.n)
