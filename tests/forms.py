"""The lattice family shared by the test modules: the two bundled lattices,
the reduced forms, the type-II descriptors on lines through them, and the
boundary vectors the two-route tests walk."""

from paravoa.lattice import GramLattice
from paravoa.monoid import MonoidDescriptor

A2 = GramLattice(gram=((2, -1), (-1, 2)), D=2)
DIAG22 = GramLattice(gram=((2, 0), (0, 2)), D=2)

# boundary vectors: short ones, and the Fibonacci lines, whose basis
# partners lie far out (sup norm 8 or more for (21,13), 34 or more for (89,55))
ALPHAS = ((1, 0), (0, 1), (1, 1))
C1_ALPHAS = [(1, 0), (0, 1), (1, 1), (1, -1), (1, 2), (2, 1), (1, 3)]
C1_FAR_ALPHAS = [(21, 13), (89, 55)]


def reduced_forms(maxdet: int = 15) -> list:
    """Reduced even positive-definite forms [[2a,b],[b,2c]] with
    |b| <= a <= c and det <= maxdet (Cohen, A Course in Computational
    Algebraic Number Theory, 5.3)."""
    out = []
    a = 1
    while 3 * a * a <= maxdet:
        c = a
        while 4 * a * c - a * a <= maxdet:
            out.extend(((2 * a, b), (b, 2 * c)) for b in range(-a, a + 1)
                       if 4 * a * c - b * b <= maxdet)
            c += 1
        a += 1
    return out


def type2(L: GramLattice, a0, s=1) -> MonoidDescriptor:
    """The type-II descriptor on the line through a0 with gamma = s*(-w1, w0),
    w = G a0.  gamma is orthogonal to a0, and (gamma|v) = s*det(G)*det[a0, v],
    so v is on the positive side when s*det[a0, v] > 0."""
    g = L.gram
    w = (g[0][0] * a0[0] + g[0][1] * a0[1], g[1][0] * a0[0] + g[1][1] * a0[1])
    return MonoidDescriptor(kind="type2", gamma=L.hvec(-s * w[1], s * w[0]))


def basis_partner(alpha):
    """Some b with det[alpha, b] = 1."""
    r = max(map(abs, alpha))
    return next((x, y) for x in range(-r, r + 1) for y in range(-r, r + 1)
                if alpha[0] * y - alpha[1] * x == 1)
