"""Dense linear algebra over GF(2) on Python int bitsets.

A vector in F_2^n is an int whose bit i is coordinate i.  There is one
elimination kernel, `insert`: lowest-set-bit forward elimination into a
dict from pivot position to row.  Its rows have distinct pivots but are not
reduced against each other, which is all that ranks, span membership and
coordinates need.  Reduced (canonical) echelon form is kept only for the
kernel basis of `kernel_and_image`, because those rows become the cycle
representatives that reports print: two generating sets span the same
subspace iff they reduce to the same row list.
"""

from __future__ import annotations

from ._value import Value
from .errors import EngineError


def _low_bit(v: int) -> int:
    """Position of the lowest set bit of a nonzero int."""
    return (v & -v).bit_length() - 1


def insert(pivots: dict[int, int], v: int) -> bool:
    """Add v to a forward-elimination basis {lowest set bit: row}.

    Returns True when v enlarged the span; otherwise v reduced to zero and
    the basis is unchanged.
    """
    while v:
        p = (v & -v).bit_length() - 1
        row = pivots.get(p)
        if row is None:
            pivots[p] = v
            return True
        v ^= row
    return False


def rank_of(columns, pivots: dict[int, int] | None = None) -> int:
    """Rank of the span of an iterable of vectors.

    When given, pivots (an empty dict, passed by keyword) is filled with the
    forward-elimination basis {lowest set bit: row} of that span.
    """
    if pivots is None:
        pivots = {}
    return sum(1 for v in columns if insert(pivots, v))


def kernel_and_image(columns) -> tuple[list[int], list[int]]:
    """Kernel and image bases of the linear map sending e_j to columns[j].

    Kernel vectors are bitsets over column indices, in reduced echelon form
    sorted by pivot.  Image vectors live in the codomain; they have distinct
    lowest set bits but are not reduced against each other.

    One elimination of the augmented columns v | 1 << (n + j), with n the
    bit length of the widest column, does both: a row whose pivot lies
    below n keeps its codomain part nonzero and spans the image; a row whose
    pivot is n or above has a zero codomain part, so its upper bits are a
    kernel vector.
    """
    columns = list(columns)
    n = max((v.bit_length() for v in columns), default=0)
    pivots: dict[int, int] = {}
    for j, v in enumerate(columns):
        insert(pivots, v | 1 << (n + j))
    mask = (1 << n) - 1
    image = [row & mask for p, row in pivots.items() if p < n]
    kernel = {p - n: row >> n for p, row in pivots.items() if p >= n}
    # back-substitution, highest pivot first: clear each pivot bit from the
    # lower-pivot rows, which leaves one row per pivot bit
    order = sorted(kernel)
    for i in range(len(order) - 1, 0, -1):
        q = order[i]
        row = kernel[q]
        for p in order[:i]:
            if kernel[p] >> q & 1:
                kernel[p] ^= row
    return [kernel[p] for p in order], image


class BitMatrix(Value):
    """Column-major GF(2) matrix; columns[j] is the bitset of column j."""

    def __init__(self, rows: int, cols: int, columns: tuple[int, ...]):
        self.__dict__.update(rows=rows, cols=cols, columns=columns)
        if len(self.columns) != self.cols:
            raise EngineError("column count does not match data length")
        if any(col >> self.rows for col in self.columns):
            raise EngineError("column has bits beyond the row count")


class HomologyWithBasis:
    """Homology of a chain group with chosen cycle representatives.

    cycle_rows is the reduced echelon basis of the cycle space, boundary_rows
    an echelon basis (distinct lowest set bits) of the boundary space.
    Representatives are the cycle rows whose pivots are not pivots of the
    boundary space; together with the boundary rows they form a basis of
    the cycle space, so their classes are a basis of homology.  Raises
    EngineError when some boundary is not a cycle.
    """

    def __init__(self, dim: int, cycle_rows: list[int], boundary_rows: list[int]):
        self.dim = dim
        cycles = {_low_bit(r): r for r in cycle_rows}
        for r in boundary_rows:
            if insert(cycles, r):
                raise EngineError("boundary maps do not compose to zero")
        self.boundary_rows = tuple(boundary_rows)
        self._boundary = {_low_bit(r): r for r in self.boundary_rows}
        reps = [r for r in cycle_rows if _low_bit(r) not in self._boundary]
        self._reps = {_low_bit(r): (r, i) for i, r in enumerate(reps)}
        self.representatives: tuple[int, ...] = tuple(reps)
        self.rank = len(reps)

    def coordinates(self, z: int) -> int:
        """Coordinates of the class [z] over the representatives.

        Returns a bitset over representative indices; raises ValueError when
        z is not a cycle.
        """
        out = 0
        while z:
            p = _low_bit(z)
            if p in self._boundary:
                z ^= self._boundary[p]
            elif p in self._reps:
                row, i = self._reps[p]
                z ^= row
                out ^= 1 << i
            else:
                raise ValueError("vector is not a cycle")
        return out


def homology_at(cycle_rows: list[int], boundary_rows: list[int],
                dim: int) -> HomologyWithBasis:
    """Homology with bases at a chain group of the given dimension.

    cycle_rows is the kernel of the outgoing boundary and boundary_rows the
    image of the incoming one, both as `kernel_and_image` returns them.  A
    row with bits beyond dim is an engine bug and raises EngineError.
    """
    if any(r >> dim for r in cycle_rows) or any(r >> dim for r in boundary_rows):
        raise EngineError("basis row has bits beyond the chain group dimension")
    return HomologyWithBasis(dim, cycle_rows, boundary_rows)
