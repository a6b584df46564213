"""Finite fields GF(p**k) in the polynomial basis.

The modulus and the generator are chosen deterministically (minimal index
encoding), so two fields built from the same (p, k) are identical. GF(p)
needs no polynomials. GF(p**k) for k >= 2 is built through GF(p) and
``poly``: the modulus search, the generator test and the multiplication
matrix of the exp table run on polynomials over GF(p). An element
is stored as its index sum(c_i * p**i); arithmetic goes through discrete
exp/log tables, which every field builds at construction.

The generator test checks the norm a**((Q-1)/(p-1)) in GF(p), the product
of a's k Frobenius conjugates, before any powmod: it decides every prime of
p - 1 at once, so only the other primes of Q - 1 take a powmod. For odd p
the exp table is built from column-major k x B digit blocks, each M**B
times the last, in int32 while k * (p-1)**2 < 2**31 (every k >= 2 field
under the cap) and in int64 otherwise; for p = 2 by doubling with XORs.

The vector kernels (``*_vec``) index the numpy tables. The scalar ops
(``*_idx``) read the same tables through memoryviews, which share their
memory and return Python ints; they reject element indices outside [0, Q),
which the tables would wrap. For odd p every addition is the Zech rule
u + v = u * (1 + v/u) (Lidl-Niederreiter, Finite Fields, ch. 10), where
1 + w adds 1 to the lowest base-p digit of w's index. The vector kernels
apply it to exp entries, the scalar ops through Z[j] = log(1 + g**j), built
the first time a scalar addition or a polynomial product or division (see
``poly``) needs it, so fields that only run vector kernels never hold one.
Subtraction adds the negation; for p = 2 addition is XOR.

Descriptors are immutable after construction, apart from that lazily built
Zech table, whose build is idempotent, and the derived data the cache keeps
on them (below).

The exp and log tables are int32, as every index and log of a field is
below 2**30; the vector kernels return int64 and widen before they
multiply, so products such as log * e never wrap. A field's tables take
TABLE_BYTES bytes per element.

``make_field`` keeps fields in one LRU cache keyed by (p, k), with the data
derived from them (embeddings, character tables, root profiles; see
``cached``). An entry counts the bytes of its tables and derived data. The
budget, TABLE_BYTES * (C + 2 * isqrt(C)) bytes for a cap C, holds one
cap-sized field and all its proper subfields with their embeddings into it.
Only a miss evicts, least recently used first (with all data naming the
field) until the new field's TABLE_BYTES * Q bytes fit.
"""

from __future__ import annotations

import math
from collections import OrderedDict
from typing import Callable, Sequence

import numpy as np

from . import nt

DEFAULT_CAP = 1 << 22
_TABLE_BLOCK = 4096
_SCATTER_BLOCK = 1 << 16
_TABLE_DTYPE = np.int32  # exp, log and embedding images hold indices below 2**30
TABLE_BYTES = 2 * np.dtype(_TABLE_DTYPE).itemsize  # exp and log, per field element


class CapExceeded(Exception):
    """A field or enumeration size exceeds the configured cap."""


def _gf2_times(tables: np.ndarray, a: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    # the product c * a for indices a of GF(2**k), from the byte tables of c
    out = np.take(tables[0], a & 0xFF, out=out)
    for b in range(1, len(tables)):
        out ^= tables[b][(a >> (8 * b)) & 0xFF]
    return out


# ---------------------------------------------------------------------------


class FieldDescriptor:
    """Immutable description of GF(p**k) plus its arithmetic tables."""

    __slots__ = (
        "p", "k", "Q", "modulus", "generator_index", "_key",
        "_exp", "_log", "_expv", "_logv", "_zech", "_derived",
    )

    def __init__(self, p: int, k: int, cap: int):
        Q = p**k
        # up to 2**30 elements the sum of two logs (mul_vec) fits the tables' int32
        if Q > min(cap, 1 << 30):
            raise CapExceeded(f"field size {p}**{k} = {Q} exceeds cap {cap} or the int32 tables")
        self.p = p
        self.k = k
        self.Q = Q
        self.modulus = self._find_modulus()
        self._key = (p, k, self.modulus)
        self._exp = None
        self._log = None
        self._expv = None
        self._logv = None
        self._zech = None
        self._derived = None  # the cache's derived data while the field is cached
        self.generator_index = self._find_generator()
        self._build_tables()

    # -- construction ------------------------------------------------------

    def _find_modulus(self) -> tuple[int, ...]:
        # minimal index encoding of the non-leading coefficient vector; for
        # k = 1 that is x, index 0, as every monic linear is irreducible
        p, k = self.p, self.k
        if k == 1:
            return (0, 1)
        poly, fp = _prime_field_ring(p)
        for a in range(self.Q):
            coeffs = self._decode(a) + (1,)
            if poly.is_irreducible(poly.Polynomial(fp, coeffs)):
                return coeffs
        raise RuntimeError(f"no irreducible of degree {k} over GF({p})")  # unreachable

    def _find_generator(self) -> int:
        """The least index a with a**((Q-1)/r) != 1 for every prime r of Q - 1.

        For k >= 2 and r | p - 1, a**((Q-1)/r) = N(a)**((p-1)/r), with the
        norm N(a) = a**((Q-1)/(p-1)) in GF(p) (Lidl-Niederreiter, Finite
        Fields, ch. 2), so N(a) must generate GF(p)*. For p = 2 there is no
        such prime and no norm is taken."""
        p, Q = self.p, self.Q
        if Q == 2:
            return 1
        primes = nt.factorize(Q - 1).prime_divisors()
        if self.k == 1:
            cofactors = [(Q - 1) // r for r in primes]
            return next(a for a in range(2, p) if all(pow(a, c, p) != 1 for c in cofactors))
        poly, fp = _prime_field_ring(p)
        f = poly.Polynomial(fp, self.modulus)
        cofactors = [(Q - 1) // r for r in primes if (p - 1) % r]
        norm = self._norm_map(poly, fp, f) if p > 2 else None
        # the indices below p are the prime field, whose orders divide
        # p - 1 < Q - 1, so none of them generates
        for idx in range(p, Q):
            digits = self._decode(idx)
            if norm is not None and fp.mult_order_idx(norm(digits)) != p - 1:
                continue
            a = poly.Polynomial(fp, digits)
            if all(poly.poly_powmod(a, c, f).coeffs != (1,) for c in cofactors):
                return idx
        raise RuntimeError("no generator found")  # unreachable for a field

    def _norm_map(self, poly, fp: FieldDescriptor, f) -> Callable[[tuple[int, ...]], int]:
        """digits of a -> N(a) in GF(p), the product of the k conjugates
        a**(p**i) mod f. The conjugates come from one product with the
        stacked matrices of a -> a**(p**i), the powers of the k x k GF(p)
        Frobenius matrix, whose column j holds x**(j*p) mod f."""
        p, k = self.p, self.k
        xp = poly.poly_powmod(poly.Polynomial.x(fp), p, f)
        frob = np.zeros((k, k), dtype=np.int64)
        col = poly.Polynomial(fp, (1,))
        for j in range(k):
            frob[: len(col.coeffs), j] = col.coeffs
            col = (col * xp) % f
        powers = [np.eye(k, dtype=np.int64)]
        for _ in range(k - 1):
            powers.append((frob @ powers[-1]) % p)
        stack = np.stack(powers)

        def norm(digits: tuple[int, ...]) -> int:
            conjugates = [poly.Polynomial(fp, c) for c in ((stack @ digits) % p).tolist()]
            return poly.poly_prodmod(conjugates, f).coeffs[0]  # a nonzero constant

        return norm

    def _build_tables(self) -> None:
        """exp[j] = index of g**j for j < Q - 1, and its inverse log (with
        log[0] = -1). The exp table must be a bijection onto the nonzero
        indices, which holds exactly when the generator is primitive."""
        Q = self.Q
        exp = self._exp_by_doubling() if self.p == 2 else self._exp_by_matmul()
        log = np.full(Q, -1, dtype=_TABLE_DTYPE)
        # scattered in blocks, so no Q-sized index array is ever allocated
        for i in range(0, Q - 1, _SCATTER_BLOCK):
            block = exp[i : i + _SCATTER_BLOCK]
            log[block] = np.arange(i, i + len(block), dtype=_TABLE_DTYPE)
        # Q - 1 values that hit all Q - 1 nonzero indices are a bijection
        # onto them (and leave log[0] = -1)
        if exp[0] != 1 or log[1:].min() < 0:
            raise RuntimeError("exp table is not a bijection; generator is wrong")
        exp.flags.writeable = False
        log.flags.writeable = False
        self._exp = exp
        self._log = log
        # indexing a memoryview gives a Python int, several times faster
        # than a numpy scalar read, and shares the arrays' memory
        self._expv = memoryview(exp)
        self._logv = memoryview(log)

    def zech_table(self) -> memoryview:
        """Z[j] = log(1 + g**j) for 0 <= j < Q - 1, with -1 where
        1 + g**j = 0, built on first use."""
        if self._zech is None:
            # the smallest signed type holding -Q .. Q - 1; built in blocks
            zech = np.empty(self.Q - 1, dtype=np.min_scalar_type(-self.Q))
            for i in range(0, self.Q - 1, _SCATTER_BLOCK):
                block = self._exp[i : i + _SCATTER_BLOCK]
                zech[i : i + len(block)] = self._log[self._plus_one(block)]
            zech.flags.writeable = False
            self._zech = memoryview(zech)
            if self._derived is not None:  # charged to its cache entry
                _STATS["bytes"] += zech.nbytes
        return self._zech

    def _exp_by_matmul(self) -> np.ndarray:
        """The exp table for any p: the digit vectors of g**j as the columns
        of a k x B block, B = _TABLE_BLOCK columns at a time, each block the
        matrix of multiplication by g**B times the previous one.

        A product entry sums k terms below p**2, so the block is int32 when
        k * (p-1)**2 < 2**31 (every k >= 2 field under the cap) and int64
        otherwise (the large prime fields)."""
        p, k, Qm1 = self.p, self.k, self.Q - 1
        dtype = np.int32 if k * (p - 1) ** 2 < 1 << 31 else np.int64
        # multiplication-by-generator matrix: column j = coeffs of g * x**j
        if k == 1:
            M = np.array([[self.generator_index]], dtype=dtype)
        else:
            poly, fp = _prime_field_ring(p)
            f = poly.Polynomial(fp, self.modulus)
            g = self._decode(self.generator_index)
            M = np.zeros((k, k), dtype=dtype)
            for j in range(k):
                col = (poly.Polynomial(fp, (0,) * j + g) % f).coeffs
                M[: len(col), j] = col
        pp = p ** np.arange(k, dtype=dtype)  # p**(k-1) < Q fits either dtype
        B = min(_TABLE_BLOCK, Qm1)
        block = np.zeros((k, B), dtype=dtype)
        block[0, 0] = 1
        n, Mn = 1, M  # Mn = M**n mod p
        while n < B:  # the first block by doubling: columns n..2n-1 = M**n columns 0..n-1
            m = min(n, B - n)
            block[:, n : n + m] = (Mn @ block[:, :m]) % p
            Mn = (Mn @ Mn) % p
            n += m
        exp = np.empty(Qm1, dtype=_TABLE_DTYPE)
        exp[:B] = pp @ block
        if Qm1 > B:
            # B = _TABLE_BLOCK is a power of two, so the doubling above
            # ended on a full step and left Mn = M**B. numpy's integer matmul
            # and remainder take about three times as long as einsum and a
            # remainder through floor division by a scalar
            prod = np.empty_like(block)
            pos = B
            while pos < Qm1:
                np.einsum("ij,jb->ib", Mn, block, out=prod)
                np.floor_divide(prod, p, out=block)  # block = prod - p * (prod // p)
                block *= -p
                block += prod
                n = min(B, Qm1 - pos)
                np.einsum("i,ib->b", pp, block[:, :n], out=exp[pos : pos + n], casting="same_kind")
                pos += n
        return exp

    def _exp_by_doubling(self) -> np.ndarray:
        """The exp table for p = 2, by doubling: exp[n:2n] = g**n * exp[:n].

        Multiplication by a fixed element c is GF(2)-linear on the bits of
        an index: c * a is the XOR of c * x**i over the set bits i of a.
        Folding those k images into one 256-entry table per byte of the
        index makes each doubling step a few lookups and XORs per entry."""
        k, Qm1 = self.k, self.Q - 1
        mod_bits = sum(c << i for i, c in enumerate(self.modulus))
        exp = np.empty(Qm1, dtype=_TABLE_DTYPE)
        exp[0] = 1
        n, gn = 1, np.array([self.generator_index], dtype=_TABLE_DTYPE)  # [g**n]
        while n < Qm1:
            # row b, entry v: g**n times the element with bits 8b..8b+7 = v
            tables = np.zeros(((k + 7) // 8, 256), dtype=_TABLE_DTYPE)
            v = int(gn[0])
            for i in range(k):  # v = g**n * x**i
                b, bit = divmod(i, 8)
                tables[b, 1 << bit : 2 << bit] = tables[b, : 1 << bit] ^ v
                v <<= 1
                if v >> k:
                    v ^= mod_bits
            m = min(n, Qm1 - n)
            for i in range(0, m, _SCATTER_BLOCK):  # in place, block by block
                j = min(i + _SCATTER_BLOCK, m)
                _gf2_times(tables, exp[i:j], out=exp[n + i : n + j])
            gn = _gf2_times(tables, gn)
            n += m
        return exp

    # -- index codec -------------------------------------------------------

    def _decode(self, idx: int) -> tuple[int, ...]:
        p = self.p
        out = []
        for _ in range(self.k):
            idx, c = divmod(idx, p)
            out.append(c)
        return tuple(out)

    def coeffs_of(self, idx: int) -> tuple[int, ...]:
        """Coefficient vector (constant first) of the element with this index."""
        self._check_idx(idx)
        return self._decode(idx)

    # -- scalar ops in index space ------------------------------------------

    def _check_idx(self, *indices: int) -> None:
        # below 0 an index would wrap in the tables, and XOR (p = 2) checks none
        for a in indices:
            if not 0 <= a < self.Q:
                raise ValueError(f"index {a} out of range for GF({self.Q})")

    def add_idx(self, a: int, b: int) -> int:
        self._check_idx(a, b)
        if self.p == 2:
            return a ^ b
        if not (a and b):
            return a or b
        # g**la + g**lb = g**la * (1 + g**(lb - la)) = g**(la + Z[lb - la])
        n = self.Q - 1
        zech = self._zech if self._zech is not None else self.zech_table()
        la = self._logv[a]
        z = zech[(self._logv[b] - la) % n]
        return self._expv[(la + z) % n] if z >= 0 else 0

    def neg_idx(self, a: int) -> int:
        self._check_idx(a)
        if self.p == 2 or not a:
            return a
        # -1 = g**((Q-1)/2)
        n = self.Q - 1
        return self._expv[(self._logv[a] + n // 2) % n]

    def sub_idx(self, a: int, b: int) -> int:
        return self.add_idx(a, self.neg_idx(b))

    def mul_idx(self, a: int, b: int) -> int:
        self._check_idx(a, b)
        if a == 0 or b == 0:
            return 0
        return self._expv[(self._logv[a] + self._logv[b]) % (self.Q - 1)]

    def pow_idx(self, a: int, e: int) -> int:
        self._check_idx(a)
        if a == 0:
            if e > 0:
                return 0
            if e == 0:
                return 1
            raise ZeroDivisionError("zero to a negative power")
        e %= self.Q - 1
        return self._expv[(self._logv[a] * e) % (self.Q - 1)]

    def inv_idx(self, a: int) -> int:
        self._check_idx(a)
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        return self._expv[-self._logv[a]]  # a negative index wraps mod Q - 1

    def log_idx(self, a: int) -> int:
        self._check_idx(a)
        if a == 0:
            raise ValueError("discrete log of zero")
        return self._logv[a]

    def mult_order_idx(self, a: int) -> int:
        self._check_idx(a)
        if a == 0:
            raise ValueError("multiplicative order of zero")
        Qm1 = self.Q - 1
        return Qm1 // math.gcd(self._logv[a], Qm1)

    # -- vector ops on numpy int64 index arrays ------------------------------

    def all_indices(self) -> np.ndarray:
        return np.arange(self.Q, dtype=np.int64)

    def _plus_one(self, w: np.ndarray) -> np.ndarray:
        # w + 1 changes only the lowest base-p digit (for p = 2, w ^ 1)
        return w + 1 - self.p * (w % self.p == self.p - 1)

    def add_vec(self, u: np.ndarray, v: np.ndarray) -> np.ndarray:
        if self.p == 2:
            return u ^ v
        # u + v = u * (1 + v/u); the logs stay int32, as lu + lz < 2**31
        n, log, exp = self.Q - 1, self._log, self._exp
        lu = log[u]
        lz = log[self._plus_one(exp[(log[v] - lu) % n])]
        out = np.where(lz < 0, 0, exp[(lu + lz) % n])  # 1 + v/u = 0
        out = np.where(u == 0, v, out)
        return np.where(v == 0, u, out).astype(np.int64, copy=False)

    def sub_vec(self, u: np.ndarray, v: np.ndarray) -> np.ndarray:
        if self.p == 2:
            return u ^ v
        # -v = g**(log v + (Q-1)/2), as in neg_idx, with 0 kept at 0
        n = self.Q - 1
        return self.add_vec(u, np.where(v == 0, 0, self._exp[(self._log[v] + n // 2) % n]))

    def log_vec(self, v: np.ndarray) -> np.ndarray:
        """Discrete logs; positions holding zero come back as -1."""
        return self._log[v].astype(np.int64)

    def mul_vec(self, u: np.ndarray, v: np.ndarray) -> np.ndarray:
        # log[0] = -1, so lu | lv is negative exactly where a factor is zero;
        # the logs stay int32, as lu + lv < 2**31
        lu, lv = self._log[u], self._log[v]
        prod = self._exp[(lu + lv) % (self.Q - 1)]
        return np.where((lu | lv) < 0, 0, prod).astype(np.int64, copy=False)

    def pow_vec(self, v: np.ndarray, e: int) -> np.ndarray:
        mask = v != 0
        if e < 0 and not mask.all():
            raise ZeroDivisionError("zero to a negative power")
        zero_val = 1 if e == 0 else 0
        e %= self.Q - 1
        out = np.zeros(v.shape, dtype=np.int64)
        out[mask] = self._exp[(self._log[v[mask]].astype(np.int64) * e) % (self.Q - 1)]
        out[~mask] = zero_val
        return out

    def eval_poly_vec(self, coeff_indices: Sequence[int], points: np.ndarray) -> np.ndarray:
        """Horner evaluation of a polynomial (coefficient indices, constant
        first) at a vector of element indices."""
        if not coeff_indices:
            return np.zeros(points.shape, dtype=np.int64)
        acc = np.full(points.shape, coeff_indices[-1], dtype=np.int64)
        for c in reversed(coeff_indices[:-1]):
            acc = self.mul_vec(acc, points)
            if c:
                acc = self.add_vec(acc, np.array(c, dtype=np.int64))
        return acc

    @property
    def nbytes(self) -> int:
        """Bytes of exp and log (TABLE_BYTES per element) and of Zech, if built."""
        return self._exp.nbytes + self._log.nbytes + (self._zech.nbytes if self._zech is not None else 0)

    # -- element handles -----------------------------------------------------

    @property
    def zero(self) -> "FieldElement":
        return FieldElement(self, 0)

    def element(self, x: "int | FieldElement") -> "FieldElement":
        if isinstance(x, FieldElement):
            if x.field._key != self._key:
                raise ValueError("element belongs to a different field")
            return x
        self._check_idx(x)
        return FieldElement(self, x)

    def to_json(self) -> dict:
        return {
            "p": self.p,
            "k": self.k,
            "modulus": list(self.modulus),
            "generator": self.generator_index,
        }

    def __repr__(self) -> str:
        return f"GF({self.p}**{self.k})"


class FieldElement:
    """An element of a FieldDescriptor, stored as its index."""

    __slots__ = ("field", "idx")

    def __init__(self, field: FieldDescriptor, idx: int):
        self.field = field
        self.idx = idx

    @property
    def coeffs(self) -> tuple[int, ...]:
        return self.field.coeffs_of(self.idx)

    def is_zero(self) -> bool:
        return self.idx == 0

    def _coerce(self, other) -> "FieldElement":
        if not isinstance(other, FieldElement):
            raise TypeError(f"cannot combine a field element with {type(other).__name__}")
        if other.field._key != self.field._key:
            raise ValueError("mixed-field operands")
        return other

    def __add__(self, other):
        other = self._coerce(other)
        return FieldElement(self.field, self.field.add_idx(self.idx, other.idx))

    def __sub__(self, other):
        other = self._coerce(other)
        return FieldElement(self.field, self.field.sub_idx(self.idx, other.idx))

    def __neg__(self):
        return FieldElement(self.field, self.field.neg_idx(self.idx))

    def __mul__(self, other):
        other = self._coerce(other)
        return FieldElement(self.field, self.field.mul_idx(self.idx, other.idx))

    def __truediv__(self, other):
        other = self._coerce(other)
        return FieldElement(self.field, self.field.mul_idx(self.idx, self.field.inv_idx(other.idx)))

    def __pow__(self, e: int):
        return FieldElement(self.field, self.field.pow_idx(self.idx, e))

    def __eq__(self, other):
        if not isinstance(other, FieldElement):
            return NotImplemented
        return self.field._key == other.field._key and self.idx == other.idx

    def __hash__(self):
        return hash((self.field._key, self.idx))

    def __bool__(self):
        return self.idx != 0

    def __repr__(self):
        return f"GF({self.field.Q})[{self.idx}]"


# ---------------------------------------------------------------------------
# construction cache and the cross-field maps


CACHE_BUDGET = TABLE_BYTES * (DEFAULT_CAP + 2 * math.isqrt(DEFAULT_CAP))
# (p, k) -> field, least recently used first; a cached field's _derived maps
# key -> (derived value, keys of the fields it names)
_CACHE: OrderedDict = OrderedDict()
_STATS = dict.fromkeys(("hits", "misses", "evictions", "bytes"), 0)
_CACHE_HOOKS: list = []


def register_cache_hook(fn) -> None:
    """Register a callable invoked by clear_field_cache (for dependent caches)."""
    _CACHE_HOOKS.append(fn)


def clear_field_cache() -> None:
    """Drop every cached field and its data, zero the counters, run the hooks."""
    for fd in _CACHE.values():
        fd._derived = None
    _CACHE.clear()
    _STATS.update(dict.fromkeys(_STATS, 0))
    for fn in _CACHE_HOOKS:
        fn()


def _nbytes(fd: FieldDescriptor) -> int:
    return fd.nbytes + sum(getattr(value, "nbytes", 0) for value, _ in fd._derived.values())


def cache_info() -> dict:
    """Hits, misses and evictions since the last clear; bytes held, budget, entries."""
    return {**_STATS, "budget": CACHE_BUDGET, "entries": len(_CACHE)}


def cached(fields: Sequence[FieldDescriptor], key, build: Callable):
    """Data derived from fields, built once and held under key (naming the
    other fields by their ``_key``) in the entry of fields[0], which its
    ``nbytes`` is charged to, until any of the fields is evicted; built but
    not held when a field is not in the cache."""
    derived = fields[0]._derived
    if derived is not None and key in derived:
        return derived[key][0]
    value = build()
    if all(f._derived is not None for f in fields):  # the build may evict
        fields[0]._derived[key] = (value, {(f.p, f.k) for f in fields})
        _STATS["bytes"] += getattr(value, "nbytes", 0)
    return value


def _evict_lru() -> None:
    # evicts the least recently used field and all data naming it
    key, fd = _CACHE.popitem(last=False)
    _STATS["bytes"] -= _nbytes(fd)
    fd._derived = None
    for other in _CACHE.values():
        for dkey in [d for d, (_, names) in other._derived.items() if key in names]:
            _STATS["bytes"] -= getattr(other._derived.pop(dkey)[0], "nbytes", 0)
    _STATS["evictions"] += 1


def make_field(p: int, k: int, *, cap: int | None = None) -> FieldDescriptor:
    """Build (or fetch from cache) GF(p**k) with the deterministic modulus,
    generator and exp/log tables. Raises CapExceeded when p**k exceeds the
    cap (default 2**22)."""
    if cap is None:
        cap = DEFAULT_CAP
    if k < 1:
        raise ValueError(f"extension degree must be >= 1, got {k}")
    if p > cap or k > cap.bit_length():
        # p**k > cap already; checked before is_prime, which refuses
        # p >= 2**63, and before p**k is formed, which can take unbounded time
        raise CapExceeded(f"field size {p}**{k} exceeds cap {cap}")
    if not nt.is_prime(p):
        raise ValueError(f"{p} is not prime")
    if p**k > cap:
        raise CapExceeded(f"field size {p}**{k} exceeds cap {cap}")
    key = (p, k)
    if key in _CACHE:
        _CACHE.move_to_end(key)
        _STATS["hits"] += 1
        return _CACHE[key]
    _STATS["misses"] += 1
    budget = CACHE_BUDGET if cap <= DEFAULT_CAP else max(CACHE_BUDGET, TABLE_BYTES * (cap + 2 * math.isqrt(cap)))
    while _CACHE and _STATS["bytes"] + TABLE_BYTES * p**k > budget:
        _evict_lru()
    fd = FieldDescriptor(p, k, cap)
    _CACHE[key], fd._derived = fd, {}
    _STATS["bytes"] += fd.nbytes
    return fd


def make_field_pair(q: int, h: int, *, cap: int | None = None) -> tuple[FieldDescriptor, FieldDescriptor]:
    """GF(q) and GF(q**h) for a prime power q. q is checked against the cap
    before the prime-power test, which refuses q >= 2**63."""
    if cap is None:
        cap = DEFAULT_CAP
    if q > cap:
        raise CapExceeded(f"field size {q} exceeds cap {cap}")
    pk = nt.is_prime_power(q)
    if pk is None:
        raise ValueError(f"{q} is not a prime power")
    p, k = pk
    return make_field(p, k, cap=cap), make_field(p, k * h, cap=cap)


def _prime_field_ring(p: int):
    """The ``poly`` module and GF(p), whose polynomial ring builds GF(p**k)
    for k >= 2. GF(p) is built whatever the cap, as every field needs it."""
    # poly imports this module at load time, hence the import at call time
    from . import poly

    return poly, make_field(p, 1, cap=max(DEFAULT_CAP, p))


class _Embedding:
    """The canonical embedding GF(p**m) -> GF(p**k) (m | k) sending the
    subfield's generator-of-arithmetic x to the minimal-index root of the
    subfield modulus.

    The root is searched for among the p**m elements of the target's copy
    of GF(p**m) only. The map is fixed by where the generator goes: g =
    sum c_i x**i maps to G = sum c_i root**i, so the image is one gather
    from the target's exp table at the multiples of log G, kept as an array
    in the table dtype and read through a memoryview, so its entries come
    out as Python ints. A proper subfield has at most sqrt(p**k) elements
    (2**11 under the default cap); one of 2**17 would need a target of 2**34,
    whose tables cannot be built. A field's embedding into itself is
    _Identity, which holds no map."""

    __slots__ = ("src", "target", "root_idx", "_image", "nbytes")

    def __init__(self, src: FieldDescriptor, target: FieldDescriptor):
        self.src = src
        self.target = target
        roots = _roots_of_subfield_modulus(src, target)
        if not roots:
            raise RuntimeError("subfield modulus has no root in the extension")
        self.root_idx = min(roots)
        # g's digits are prime-field constants, with the same indices in the target
        gen = target.eval_poly_vec(src._decode(src.generator_index), np.array([self.root_idx]))
        log_gen = target.log_idx(int(gen[0]))
        image = np.zeros(src.Q, dtype=_TABLE_DTYPE)
        image[src._exp] = target._exp[np.arange(src.Q - 1) * log_gen % (target.Q - 1)]
        image.flags.writeable = False
        self._image = memoryview(image)
        self.nbytes = image.nbytes

    def map_idx(self, a: int) -> int:
        return self._image[a]

    def image_indices(self) -> memoryview:
        return self._image


class _Identity(_Embedding):
    """The embedding of a field into itself, which is the identity: it sends
    x to the least root of the modulus, and that root is x itself. For
    k >= 2 the modulus has no root in GF(p), and x (index p) is the least
    index outside GF(p); for k = 1 the modulus is x, whose only root is 0.
    Every index maps to itself, so no image is built."""

    __slots__ = ()

    def __init__(self, fd: FieldDescriptor):
        self.src = self.target = fd
        self.nbytes = 0
        self.root_idx = fd.p if fd.k > 1 else 0

    def map_idx(self, a: int) -> int:
        return a

    def image_indices(self) -> range:
        return range(self.src.Q)


def _roots_of_subfield_modulus(src: FieldDescriptor, target: FieldDescriptor) -> list[int]:
    # prime-field coefficients c are the constant elements with index c
    coeffs = [c % target.p for c in src.modulus]
    # an irreducible of degree m has all its roots in the copy of GF(p**m):
    # 0 and the powers g**(j(Q-1)/(q-1)) (Lidl-Niederreiter, Finite Fields,
    # Thm 2.14), so only those q candidates are tried
    step = (target.Q - 1) // (src.Q - 1)
    points = np.concatenate((np.zeros(1, dtype=np.int64), target._exp[::step]))
    vals = target.eval_poly_vec(coeffs, points)
    return sorted(points[vals == 0].tolist())


def get_embedding(src: FieldDescriptor, target: FieldDescriptor) -> _Embedding:
    if src.p != target.p:
        raise ValueError("fields have different characteristic")
    if target.k % src.k != 0:
        raise ValueError(f"GF({src.Q}) does not embed in GF({target.Q}): {src.k} does not divide {target.k}")
    return cached(
        (target, src), ("embedding", src._key),
        lambda: _Identity(src) if src.k == target.k else _Embedding(src, target),
    )


# ---------------------------------------------------------------------------
# named operations on elements


def mult_order(beta: FieldElement) -> int:
    """Multiplicative order of a nonzero element."""
    return beta.field.mult_order_idx(beta.idx)


def is_dth_power(beta: FieldElement, d: int) -> bool:
    """Whether beta is a d-th power in the multiplicative group.

    beta = g**j is a d-th power iff gcd(d, Q-1) divides j. Rejects zero and
    d < 1.
    """
    if beta.idx == 0:
        raise ValueError("zero input: d-th power status is defined on the unit group")
    if d < 1:
        raise ValueError("d must be >= 1")
    fd = beta.field
    g = math.gcd(d, fd.Q - 1)
    return fd.log_idx(beta.idx) % g == 0


def frobenius(beta: FieldElement, times: int = 1) -> FieldElement:
    """beta**(p**times), the power-of-Frobenius map."""
    if times < 0:
        raise ValueError("times must be >= 0")
    return beta ** pow(beta.field.p, times, beta.field.Q - 1) if beta.idx != 0 else beta.field.zero
