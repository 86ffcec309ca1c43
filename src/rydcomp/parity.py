"""Parity compilation: cost functions over n bits become local XOR programs.

Each product x_i * x_j is traded for a parity variable carrying x_i XOR x_j
via the exact identity  x_i x_j = (x_i + x_j - (x_i XOR x_j)) / 2,  so the
whole cost becomes *linear* in parity variables, at the price of XOR
consistency constraints between them.

For a complete graph on n variables the program holds n "single" variables
(one per problem bit) plus all n(n-1)/2 "pair" variables, tied together by
a ladder of n-1 weight-3 constraints on adjacent singles, n-2 weight-3
constraints on gap-2 pairs, and (n-2)(n-3)/2 weight-4 plaquettes.  A fixed
complement map (flip singles with odd index, flip pairs whose span is even)
turns every weight-3 target into 1 and leaves every plaquette target at 0 —
exactly the convention the hardware gadgets realise.  Field signs flip with
each complement and the constants stream into ``offset``, keeping

    parity_energy(program, encode(program, x)) == cost(x)

an exact identity for every assignment.

For a bipartite graph the cost is already linear in the cut parities
x_i XOR y_j, so the program is just the n*m grid of pair variables plus
(n-1)(m-1) plaquettes, with no complementing and no offset.  Weight-4
plaquettes decompose into two weight-3 constraints through one auxiliary
variable (``decompose_all``), after which every constraint in the program
is weight-3 with target 1.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import ValidationError
from .problems import Problem


@dataclass(frozen=True)
class ParityVariable:
    name: tuple  # ("s", i) | ("p", i, j) | ("aux", k)
    support: tuple  # problem-variable indices whose XOR this carries
    field: float  # energy coefficient of the *physical* (complemented) value
    complemented: bool = False


@dataclass(frozen=True)
class ParityConstraint:
    members: tuple  # variable names
    target: int  # required XOR of the physical member values


@dataclass(frozen=True)
class ParityProgram:
    problem: Problem
    variables: tuple
    constraints: tuple
    offset: float
    _index: dict = field(default_factory=dict, repr=False, compare=False)

    def __post_init__(self):
        self._index.update({v.name: k for k, v in enumerate(self.variables)})

    @property
    def n(self) -> int:
        return len(self.variables)

    def index(self, name) -> int:
        return self._index[name]

    def variable(self, name) -> ParityVariable:
        return self.variables[self.index(name)]


def compile_parity(problem: Problem) -> ParityProgram:
    if problem.family == "complete":
        return _compile_complete(problem)
    return _compile_bipartite(problem)


def _compile_complete(problem: Problem) -> ParityProgram:
    n = problem.n
    h = {i: 0.0 for i in range(n)}
    for i, v in problem.linear:
        h[i] += v
    for i, j, v in problem.quadratic:
        h[i] += v / 2.0
        h[j] += v / 2.0

    def kappa(name):
        if name[0] == "s":
            return name[1] % 2
        return (name[2] - name[1] + 1) % 2

    variables = []
    offset = 0.0
    for i in range(n):
        variables.append(("s", i, (i,), h[i]))
    for i in range(n):
        for j in range(i + 1, n):
            variables.append(("p", i, j, (i, j), -problem.coupling(i, j) / 2.0))

    out = []
    for entry in variables:
        name = entry[:-2]
        support, raw = entry[-2], entry[-1]
        k = kappa(name)
        out.append(ParityVariable(name, support, raw * (1 - 2 * k), bool(k)))
        offset += raw * k

    constraints = []
    for i in range(n - 1):
        constraints.append((("s", i), ("s", i + 1), ("p", i, i + 1)))
    for i in range(n - 2):
        constraints.append((("p", i, i + 2), ("p", i, i + 1), ("p", i + 1, i + 2)))
    for i in range(n):
        for j in range(i + 3, n):
            constraints.append(
                (("p", i, j), ("p", i, j - 1), ("p", i + 1, j), ("p", i + 1, j - 1))
            )
    cons = []
    for members in constraints:
        flips = sum(kappa(m) for m in members) % 2
        cons.append(ParityConstraint(tuple(members), flips))
    return ParityProgram(problem, tuple(out), tuple(cons), offset)


def _compile_bipartite(problem: Problem) -> ParityProgram:
    n, m = problem.n, problem.m
    variables = tuple(
        ParityVariable(("p", i, j), (i, n + j), problem.coupling(i, n + j))
        for i in range(n)
        for j in range(m)
    )
    cons = tuple(
        ParityConstraint(
            (("p", i, j), ("p", i, j + 1), ("p", i + 1, j), ("p", i + 1, j + 1)), 0
        )
        for i in range(n - 1)
        for j in range(m - 1)
    )
    return ParityProgram(problem, variables, cons, 0.0)


def decompose_4body(constraint: ParityConstraint, aux_name):
    """Split one weight-4, target-0 constraint via one auxiliary variable.

    With members (a, b, c, d) the replacement is  a^b^x = 1  and  c^d^x = 1,
    which hold together exactly when a^b^c^d = 0 and x = NOT (a ^ b).
    """
    if len(constraint.members) != 4:
        raise ValidationError("can only decompose weight-4 constraints")
    if constraint.target != 0:
        raise ValidationError("decomposition assumes an even-parity target")
    a, b, c, d = constraint.members
    aux = ParityVariable(aux_name, (), 0.0)
    return aux, (
        ParityConstraint((a, b, aux_name), 1),
        ParityConstraint((c, d, aux_name), 1),
    )


def decompose_all(program: ParityProgram) -> ParityProgram:
    """Replace every weight-4 constraint; the result is all-triples, target 1."""
    variables = list(program.variables)
    cons = []
    k = 0
    for c in program.constraints:
        if len(c.members) == 4:
            aux, pair = decompose_4body(c, ("aux", k))
            k += 1
            variables.append(aux)
            cons.extend(pair)
        else:
            cons.append(c)
    return ParityProgram(program.problem, tuple(variables), tuple(cons), program.offset)


def encode(program: ParityProgram, assignment) -> tuple:
    """Physical parity-variable values for one problem assignment."""
    x = list(assignment)
    if len(x) != program.problem.n_vars or any(b not in (0, 1) for b in x):
        raise ValidationError(
            f"assignment must be {program.problem.n_vars} bits, got {assignment!r}"
        )
    values = {}
    for v in program.variables:
        if v.name[0] == "aux":
            continue
        raw = 0
        for i in v.support:
            raw ^= x[i]
        values[v.name] = raw ^ int(v.complemented)
    pending = [v.name for v in program.variables if v.name[0] == "aux"]
    while pending:
        progress = False
        for c in program.constraints:
            unknown = [m for m in c.members if m not in values]
            if len(unknown) != 1:
                continue
            acc = c.target
            for m in c.members:
                if m in values:
                    acc ^= values[m]
            values[unknown[0]] = acc
            pending.remove(unknown[0])
            progress = True
        if not progress:
            raise ValidationError("auxiliary variables are under-constrained")
    return tuple(values[v.name] for v in program.variables)


def violations(program: ParityProgram, values) -> tuple:
    """Constraints whose XOR does not meet its target."""
    vals = _check_values(program, values)
    bad = []
    for c in program.constraints:
        acc = 0
        for m in c.members:
            acc ^= vals[program.index(m)]
        if acc != c.target:
            bad.append(c)
    return tuple(bad)


def parity_energy(program: ParityProgram, values) -> float:
    vals = _check_values(program, values)
    return program.offset + sum(
        v.field * vals[k] for k, v in enumerate(program.variables)
    )


def decode(program: ParityProgram, values, *, full_fiber: bool = False):
    """Problem assignment read off one satisfying parity pattern.

    Complete-graph programs decode uniquely from the singles.  Bipartite
    programs carry a global-flip gauge freedom; the representative with
    variable 0 clear is returned (both, oldest-first, with ``full_fiber``).
    """
    vals = _check_values(program, values)
    problem = program.problem
    if problem.family == "complete":
        bits = tuple(
            vals[program.index(("s", i))] ^ int(program.variable(("s", i)).complemented)
            for i in range(problem.n)
        )
        return (bits,) if full_fiber else bits
    n, m = problem.n, problem.m
    x = [0] * (n + m)
    for j in range(m):
        x[n + j] = vals[program.index(("p", 0, j))]
    for i in range(1, n):
        x[i] = vals[program.index(("p", i, 0))] ^ x[n]
    bits = tuple(x)
    if full_fiber:
        return (bits, tuple(1 - b for b in bits))
    return bits


def _check_values(program, values):
    vals = list(values)
    if len(vals) != program.n or any(b not in (0, 1) for b in vals):
        raise ValidationError(f"expected {program.n} parity bits, got {values!r}")
    return vals
