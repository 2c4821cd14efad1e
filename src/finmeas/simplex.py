"""Dense exact-rational simplex with Bland's anti-cycling rule.

No library path calls it: it is kept as the reference the flow core is
tested against (``tests/oracles.py``), and stays in the package only
because ``bench/spans.py`` wraps the ``maximize`` names that ``metrics``
and ``logic_bisim`` import.

Maximizes c.x subject to A_ub x <= b_ub, A_eq x = b_eq, x >= 0,
everything a Fraction.  Bland's rule (lowest eligible index enters,
lowest basic index breaks ratio ties) guarantees termination and makes
the returned basic solution deterministic under the given variable order.
"""

from fractions import Fraction

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"


class LPResult:
    def __init__(self, status, x=None, value=None):
        self.status = status
        self.x = x
        self.value = value

    def __repr__(self):
        return f"LPResult({self.status}, x={self.x}, value={self.value})"


def _pivot(rows, obj, basis, r, c):
    piv = rows[r][c]
    rows[r] = [v / piv for v in rows[r]]
    for i, row in enumerate(rows):
        if i != r and row[c] != 0:
            f = row[c]
            rows[i] = [v - f * w for v, w in zip(row, rows[r])]
    if obj[c] != 0:
        f = obj[c]
        for j, w in enumerate(rows[r]):
            obj[j] -= f * w
    basis[r] = c


def _bland_maximize(rows, obj, basis, allowed):
    """Run primal simplex steps until no allowed column improves."""
    while True:
        enter = None
        for j in allowed:
            if obj[j] > 0:
                enter = j
                break
        if enter is None:
            return
        leave = None
        best = None
        for i, row in enumerate(rows):
            if row[enter] > 0:
                ratio = row[-1] / row[enter]
                if best is None or ratio < best or (
                    ratio == best and basis[i] < basis[leave]
                ):
                    best = ratio
                    leave = i
        if leave is None:
            raise RuntimeError("objective unbounded; malformed program")
        _pivot(rows, obj, basis, leave, enter)


def maximize(c, a_ub=(), b_ub=(), a_eq=(), b_eq=()):
    """Maximize c.x subject to A_ub x <= b_ub (b_ub >= 0), A_eq x = b_eq, x >= 0."""
    n = len(c)
    c = [Fraction(v) for v in c]
    ub = [([Fraction(v) for v in row], Fraction(b)) for row, b in zip(a_ub, b_ub)]
    eq = [([Fraction(v) for v in row], Fraction(b)) for row, b in zip(a_eq, b_eq)]
    for row, b in ub:
        if b < 0:
            raise ValueError("b_ub must be nonnegative")
    eq = [
        ([-v for v in row], -b) if b < 0 else (row, b) for row, b in eq
    ]

    m1, m2 = len(ub), len(eq)
    width = n + m1 + m2 + 1
    rows = []
    basis = []
    for i, (row, b) in enumerate(ub):
        full = row + [Fraction(0)] * (m1 + m2) + [b]
        full[n + i] = Fraction(1)
        rows.append(full)
        basis.append(n + i)
    for i, (row, b) in enumerate(eq):
        full = row + [Fraction(0)] * (m1 + m2) + [b]
        full[n + m1 + i] = Fraction(1)
        rows.append(full)
        basis.append(n + m1 + i)

    artificial = set(range(n + m1, n + m1 + m2))
    if artificial:
        # phase 1: maximize minus the artificial mass
        obj = [Fraction(0)] * width
        for j in artificial:
            obj[j] = Fraction(-1)
        for i, b in enumerate(basis):
            if obj[b] != 0:
                f = obj[b]
                for j, w in enumerate(rows[i]):
                    obj[j] -= f * w
        _bland_maximize(rows, obj, basis, range(n + m1 + m2))
        if obj[-1] != 0:
            return LPResult(INFEASIBLE)
        # drive leftover artificials out of the basis
        for i in range(len(rows)):
            if basis[i] in artificial:
                for j in range(n + m1):
                    if rows[i][j] != 0:
                        _pivot(rows, obj, basis, i, j)
                        break
        keep = [i for i in range(len(rows)) if basis[i] not in artificial]
        rows = [rows[i] for i in keep]
        basis = [basis[i] for i in keep]

    obj = [Fraction(0)] * width
    obj[:n] = c
    for i, b in enumerate(basis):
        if obj[b] != 0:
            f = obj[b]
            for j, w in enumerate(rows[i]):
                obj[j] -= f * w
    _bland_maximize(rows, obj, basis, range(n + m1))

    x = [Fraction(0)] * n
    for i, b in enumerate(basis):
        if b < n:
            x[b] = rows[i][-1]
    value = sum((ci * xi for ci, xi in zip(c, x)), start=Fraction(0))
    return LPResult(OPTIMAL, tuple(x), value)
