"""Lattice families shared by the test modules."""


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
