"""Hadamard matrices, finite fields, and 2-designs.

The chain implemented here: a finite field GF(q) yields a quadratic-character
core, the core yields a Hadamard matrix (two border variants depending on
q mod 4), a normalized Hadamard matrix of order 4t yields a symmetric
2-(4t-1, 2t-1, t-1) design, and design incidence structures yield bipartite
graphs whose adjacency spectra have a closed form.

The field multiplies and lists its nonzero squares; the core takes the
differences a_i - a_j of all pairs at once, digit by digit in base p, and
reads the character off a table of the squares.  A Design holds only its
incidence matrix and derives (v, b, r, k, lambda) from it once; the JSON
reader compares the parameters a file states with those.

All Hadamard and design validation is exact integer arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .graph import BipartiteSplit, Graph, check_vertex_count

__all__ = [
    "FiniteField",
    "is_prime",
    "prime_power",
    "paley_core",
    "paley1",
    "paley2",
    "sylvester",
    "hadamard_of_order",
    "MAX_HADAMARD_ORDER",
    "HadamardOrderError",
    "check_hadamard_order",
    "HadamardMatrix",
    "hadamard_to_design",
    "Design",
    "complement",
    "incidence_graph",
    "design_to_json_dict",
    "design_from_json_dict",
]


def is_prime(p: int) -> bool:
    if p < 2:
        return False
    f = 2
    while f * f <= p:
        if p % f == 0:
            return False
        f += 1
    return True


def prime_power(q: int) -> tuple[int, int] | None:
    """(p, k) with q == p**k and p prime, or None."""
    if q < 2:
        return None
    for p in range(2, q + 1):
        if p * p > q:
            break
        if q % p:
            continue
        k = 0
        m = q
        while m % p == 0:
            m //= p
            k += 1
        return (p, k) if m == 1 else None
    return (q, 1) if is_prime(q) else None


#: Largest Hadamard order built or read.  Validating H H^T is cubic in the
#: order (0.2 s at 512, about 8x more per doubling); the designs used here
#: stop at order 36.
MAX_HADAMARD_ORDER = 512


class HadamardOrderError(ValueError):
    """A Hadamard order above MAX_HADAMARD_ORDER."""


def check_hadamard_order(m: int) -> None:
    """Raise HadamardOrderError when order m is above MAX_HADAMARD_ORDER;
    constructors call it before allocating anything of that order."""
    if m > MAX_HADAMARD_ORDER:
        raise HadamardOrderError(f"Hadamard order {m} exceeds {MAX_HADAMARD_ORDER}")


# -- polynomial helpers over GF(p); coefficient tuples, index = degree ----


def _poly_rem(num: list[int], den: "list[int] | tuple[int, ...]", p: int) -> list[int]:
    num = [c % p for c in num]
    dd = len(den) - 1
    lead_inv = pow(den[-1], -1, p)
    for i in range(len(num) - 1, dd - 1, -1):
        c = num[i]
        if c == 0:
            continue
        f = c * lead_inv % p
        for j in range(dd + 1):
            num[i - dd + j] = (num[i - dd + j] - f * den[j]) % p
    while len(num) > 1 and num[-1] == 0:
        num.pop()
    return num


def _is_zero(poly: list[int]) -> bool:
    return all(c == 0 for c in poly)


def _irreducible(coeffs: tuple[int, ...], p: int) -> bool:
    """Irreducibility of a monic polynomial over GF(p) by trial division
    against every monic polynomial of degree 1..deg//2."""
    deg = len(coeffs) - 1
    for d in range(1, deg // 2 + 1):
        for idx in range(p**d):
            den = _digits_of(idx, p, d) + [1]
            if _is_zero(_poly_rem(list(coeffs), den, p)):
                return False
    return True


def _digits_of(x: int, p: int, k: int) -> list[int]:
    out = []
    for _ in range(k):
        out.append(x % p)
        x //= p
    return out


class FiniteField:
    """GF(p**k) with elements encoded as integers 0..q-1.

    The integer encoding reads the base-p digits of an element as polynomial
    coefficients, constant term in the least significant digit, so integer
    order coincides with lexicographic order on coefficient vectors written
    highest degree first.  The reduction modulus is the lexicographically
    least monic irreducible polynomial of degree k (for k = 1 it is x - 0,
    i.e. plain arithmetic mod p).
    """

    def __init__(self, p: int, k: int = 1):
        if not is_prime(p):
            raise ValueError(f"{p} is not prime")
        if k < 1:
            raise ValueError("extension degree must be >= 1")
        self.p = p
        self.k = k
        self.q = p**k
        if self.q > 4096:
            raise ValueError("field too large for this package's needs")
        self.modulus = self._find_modulus()

    def _find_modulus(self) -> tuple[int, ...]:
        p, k = self.p, self.k
        if k == 1:
            return (0, 1)
        for idx in range(p**k):
            coeffs = tuple(_digits_of(idx, p, k)) + (1,)
            if _irreducible(coeffs, p):
                return coeffs
        raise RuntimeError("no irreducible polynomial found")  # unreachable

    # -- element arithmetic on integer codes --------------------------

    def _check(self, x: int) -> int:
        if not 0 <= x < self.q:
            raise ValueError(f"element {x} outside GF({self.q})")
        return x

    def mul(self, x: int, y: int) -> int:
        p = self.p
        self._check(x), self._check(y)
        xa = _digits_of(x, p, self.k)
        ya = _digits_of(y, p, self.k)
        prod = [0] * (2 * self.k - 1)
        for i, xi in enumerate(xa):
            if xi:
                for j, yj in enumerate(ya):
                    prod[i + j] = (prod[i + j] + xi * yj) % p
        rem = _poly_rem(prod, self.modulus, p)
        out = 0
        for c in reversed(rem):
            out = out * p + c
        return out

    def squares(self) -> frozenset[int]:
        """The set of nonzero squares."""
        return frozenset(self.mul(x, x) for x in range(1, self.q))

    def __repr__(self) -> str:
        return f"FiniteField(p={self.p}, k={self.k})"


def paley_core(f: FiniteField) -> np.ndarray:
    """Quadratic-character matrix of GF(q): zero diagonal, entry (i, j) is
    +1 when a_i - a_j is a nonzero square and -1 otherwise.

    The code of a_i - a_j is read off the base-p digits of i and j, all
    pairs at once.  Row and column sums vanish and C C^T = qI - J.  The
    matrix is symmetric when q = 1 (mod 4) and antisymmetric when q = 3
    (mod 4).
    """
    if f.q % 2 == 0:
        raise ValueError("core needs an odd field")
    powers = f.p ** np.arange(f.k)
    digits = np.arange(f.q)[:, None] // powers % f.p
    diff = ((digits[:, None, :] - digits[None, :, :]) % f.p) @ powers
    is_square = np.zeros(f.q, dtype=bool)
    is_square[list(f.squares())] = True
    c = np.where(is_square[diff], 1, -1).astype(np.int64)
    np.fill_diagonal(c, 0)
    return c


@dataclass(frozen=True, eq=False)
class HadamardMatrix:
    """Square +/-1 matrix with pairwise orthogonal rows (exact check).
    Equal when the arrays are; unhashable."""

    array: np.ndarray = field(repr=False)

    def __post_init__(self):
        a = np.asarray(self.array, dtype=np.int64)
        object.__setattr__(self, "array", a)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValueError(f"Hadamard matrix must be square, got {a.shape}")
        if not np.all(np.abs(a) == 1):
            raise ValueError("entries must be +1 or -1")
        n = a.shape[0]
        if not np.array_equal(a @ a.T, n * np.eye(n, dtype=np.int64)):
            raise ValueError("rows are not orthogonal: H H^T != nI")

    def __eq__(self, other: object) -> bool:
        return type(other) is type(self) and np.array_equal(self.array, other.array)

    @property
    def order(self) -> int:
        return self.array.shape[0]

    def normalized(self) -> "HadamardMatrix":
        """Flip rows whose first entry is -1, then columns likewise, making
        the first row and column all ones."""
        h = self.array.copy()
        h[h[:, 0] == -1] *= -1
        h[:, h[0, :] == -1] *= -1
        return HadamardMatrix(h)

    def is_normalized(self) -> bool:
        return bool(np.all(self.array[0, :] == 1) and np.all(self.array[:, 0] == 1))

    def to_text(self) -> str:
        return "\n".join(
            "".join("+" if x == 1 else "-" for x in row) for row in self.array
        )

    @classmethod
    def from_text(cls, text: str) -> "HadamardMatrix":
        rows = [line.strip() for line in text.strip().splitlines() if line.strip()]
        if any(set(r) - {"+", "-"} for r in rows):
            raise ValueError("Hadamard text rows must contain only '+' and '-'")
        check_hadamard_order(max([len(rows), *map(len, rows)]))
        a = np.array([[1 if ch == "+" else -1 for ch in r] for r in rows], dtype=np.int64)
        return cls(a)


def paley1(f: FiniteField) -> HadamardMatrix:
    """Order q+1 Hadamard matrix for q = 3 (mod 4): identity plus the
    skew conference matrix [[0, j^T], [-j, C]]."""
    if f.q % 4 != 3:
        raise ValueError(f"this construction needs q = 3 (mod 4), got q = {f.q}")
    q = f.q
    check_hadamard_order(q + 1)
    s = np.zeros((q + 1, q + 1), dtype=np.int64)
    s[0, 1:] = 1
    s[1:, 0] = -1
    s[1:, 1:] = paley_core(f)
    return HadamardMatrix(np.eye(q + 1, dtype=np.int64) + s)


def paley2(f: FiniteField) -> HadamardMatrix:
    """Order 2(q+1) Hadamard matrix for q = 1 (mod 4).

    Uses the symmetric conference matrix S = [[0, j^T], [j, C]]; the border
    sign must match on both sides, otherwise the doubling step below does not
    produce orthogonal rows.  Each entry of S is replaced by a 2x2 block:
    zeros become [[1, -1], [-1, -1]] and +/-1 become +/-[[1, 1], [1, -1]].
    """
    if f.q % 4 != 1:
        raise ValueError(f"this construction needs q = 1 (mod 4), got q = {f.q}")
    q = f.q
    check_hadamard_order(2 * (q + 1))
    s = np.zeros((q + 1, q + 1), dtype=np.int64)
    s[0, 1:] = 1
    s[1:, 0] = 1
    s[1:, 1:] = paley_core(f)
    pm = np.array([[1, 1], [1, -1]], dtype=np.int64)
    zero_block = np.array([[1, -1], [-1, -1]], dtype=np.int64)
    h = np.kron(s, pm) + np.kron(np.eye(q + 1, dtype=np.int64), zero_block)
    return HadamardMatrix(h)


def sylvester(h1: HadamardMatrix, h2: HadamardMatrix) -> HadamardMatrix:
    """Kronecker product of two Hadamard matrices (order multiplies)."""
    check_hadamard_order(h1.order * h2.order)
    return HadamardMatrix(np.kron(h1.array, h2.array))


def sylvester_of_order(m: int) -> HadamardMatrix:
    """Hadamard matrix of power-of-two order m by repeated doubling."""
    if m < 1 or m & (m - 1):
        raise ValueError("doubling construction needs a power-of-two order")
    check_hadamard_order(m)
    h = HadamardMatrix(np.array([[1]], dtype=np.int64))
    if m >= 2:
        h2 = HadamardMatrix(np.array([[1, 1], [1, -1]], dtype=np.int64))
        while h.order < m:
            h = sylvester(h, h2)
    return h


def hadamard_of_order(m: int) -> HadamardMatrix:
    """Construct some Hadamard matrix of order m, or raise ValueError.

    Tries, in order: the trivial orders 1 and 2, the q = 3 (mod 4) prime
    power construction at order q+1, the q = 1 (mod 4) construction at order
    2(q+1), and halving (Kronecker with the order-2 matrix).
    """
    if m == 1:
        return HadamardMatrix(np.array([[1]], dtype=np.int64))
    if m == 2:
        return HadamardMatrix(np.array([[1, 1], [1, -1]], dtype=np.int64))
    if m < 1 or m % 4:
        raise ValueError(f"no Hadamard matrix of order {m}")
    check_hadamard_order(m)
    pp = prime_power(m - 1)
    if pp and (m - 1) % 4 == 3:
        return paley1(FiniteField(*pp))
    if m % 2 == 0:
        pp = prime_power(m // 2 - 1)
        if pp and (m // 2 - 1) % 4 == 1:
            return paley2(FiniteField(*pp))
        try:
            half = hadamard_of_order(m // 2)
        except ValueError:
            raise ValueError(f"cannot construct a Hadamard matrix of order {m}") from None
        return sylvester(half, hadamard_of_order(2))
    raise ValueError(f"cannot construct a Hadamard matrix of order {m}")


@dataclass(frozen=True, eq=False)
class Design:
    """2-design given by its points x blocks 0/1 incidence matrix: v points,
    b blocks of size k, each point in r blocks, every point pair in exactly
    lam blocks.  The parameters are derived from the incidence matrix, which
    must have constant r, k and lam; two designs are equal when their
    incidence matrices are.  Unhashable."""

    incidence: np.ndarray = field(repr=False)
    v: int = field(init=False)
    b: int = field(init=False)
    r: int = field(init=False)
    k: int = field(init=False)
    lam: int = field(init=False)

    def __post_init__(self):
        c = np.asarray(self.incidence, dtype=np.int64)
        object.__setattr__(self, "incidence", c)
        for name, value in zip(("v", "b", "r", "k", "lam"), _infer_params(c)):
            object.__setattr__(self, name, value)

    def __eq__(self, other: object) -> bool:
        return type(other) is type(self) and np.array_equal(self.incidence, other.incidence)

    @property
    def is_symmetric(self) -> bool:
        return self.v == self.b


def _infer_params(c: np.ndarray) -> tuple[int, int, int, int, int]:
    if c.ndim != 2:
        raise ValueError("incidence must be a 2-D 0/1 matrix")
    if not np.all((c == 0) | (c == 1)):
        raise ValueError("incidence entries must be 0 or 1")
    v, b = c.shape
    if v < 2 or b < 1:
        raise ValueError("need at least 2 points and 1 block")
    row_sums = c.sum(axis=1)
    col_sums = c.sum(axis=0)
    if not np.all(row_sums == row_sums[0]):
        raise ValueError("replication count is not constant across points")
    if not np.all(col_sums == col_sums[0]):
        raise ValueError("block size is not constant across blocks")
    r = int(row_sums[0])
    k = int(col_sums[0])
    if r < 1 or k < 1:
        raise ValueError("need r >= 1 and k >= 1")
    gram = c @ c.T
    off = gram[~np.eye(v, dtype=bool)]
    if not np.all(off == off[0]):
        raise ValueError("pair coverage is not constant across point pairs")
    return v, b, r, k, int(off[0])


def hadamard_to_design(h: HadamardMatrix) -> Design:
    """Symmetric 2-(n-1, n/2-1, n/4-1) design from a Hadamard matrix of
    order n >= 4: normalize, drop the first row and column, map +1 -> 1."""
    n = h.order
    if n < 4 or n % 4:
        raise ValueError("need order >= 4 divisible by 4")
    hn = h.normalized().array
    c = (hn[1:, 1:] + 1) // 2
    d = Design(c)
    assert (d.v, d.r, d.lam) == (n - 1, n // 2 - 1, n // 4 - 1)
    return d


def complement(d: Design) -> Design:
    """Complementary design: blocks become their point-complements, giving
    parameters (v, b, b-r, v-k, b-2r+lam)."""
    if d.v - d.k < 1 or d.b - d.r < 1:
        raise ValueError("complement would have empty blocks or uncovered points")
    out = Design(1 - d.incidence)
    assert (out.v, out.b, out.r, out.k, out.lam) == (
        d.v,
        d.b,
        d.b - d.r,
        d.v - d.k,
        d.b - 2 * d.r + d.lam,
    )
    return out


def incidence_graph(d: Design) -> tuple[Graph, BipartiteSplit]:
    """Bipartite point-block graph: vertices 0..v-1 are points, v..v+b-1 are
    blocks, edges follow the incidence matrix."""
    v, b = d.v, d.b
    check_vertex_count(v + b)  # the rows below are uint64
    c = d.incidence.astype(np.uint64)
    bit = np.uint64(1) << np.arange(v + b, dtype=np.uint64)
    points = np.bitwise_or.reduce(c * bit[v:], axis=1)  # point i: blocks v + j
    blocks = np.bitwise_or.reduce(c.T * bit[:v], axis=1)  # block v + j: points i
    g = Graph(v + b, tuple(int(row) for row in (*points, *blocks)))
    split = BipartiteSplit(part1=(1 << v) - 1, part2=((1 << b) - 1) << v)
    return g, split


def design_to_json_dict(d: Design) -> dict:
    return {
        "v": d.v,
        "b": d.b,
        "r": d.r,
        "k": d.k,
        "lambda": d.lam,
        "incidence": ["".join(str(int(x)) for x in row) for row in d.incidence],
    }


def design_from_json_dict(data: dict) -> Design:
    if not isinstance(data, dict) or "incidence" not in data:
        raise ValueError('design JSON needs an object with an "incidence" key')
    rows = data["incidence"]
    if not isinstance(rows, list) or any(
        not isinstance(r, str) or set(r) - {"0", "1"} for r in rows
    ):
        raise ValueError("incidence rows must be strings of 0s and 1s")
    # every design from a Hadamard matrix within the order cap fits; bound
    # the matrix and its Gram product before building them
    if len(rows) > MAX_HADAMARD_ORDER or any(len(r) > MAX_HADAMARD_ORDER for r in rows):
        raise ValueError(
            f"incidence matrix exceeds {MAX_HADAMARD_ORDER} rows or columns"
        )
    c = np.array([[int(ch) for ch in row] for row in rows], dtype=np.int64)
    d = Design(c)
    for key, got in (("v", d.v), ("b", d.b), ("r", d.r), ("k", d.k), ("lambda", d.lam)):
        if key in data and not (isinstance(data[key], (int, str)) and int(data[key]) == got):
            raise ValueError(f"stated {key}={data[key]} disagrees with incidence ({got})")
    return d
