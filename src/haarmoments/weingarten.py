"""Symmetric-group combinatorics and exact unitary-group moment functions.

Implements the Collins-Sniady integration formula for words of up to ten
unitaries (m <= 5): the Haar average of U X1 U^dag X2 U X3 U^dag ... is a
double sum over permutation pairs (sigma, tau) in S_m x S_m whose delta
contractions split the X's into traced words plus one free word carrying the
outer indices, each pair weighted by Wg(tau sigma^{-1}).

The Weingarten matrix is the inverse of the Gram matrix
G_{sigma,tau} = d^{#cycles(tau sigma^{-1})} (Collins & Sniady, CMP 264, 773
(2006)).  The odd-side traced words depend on tau alone and the even-side
words on sigma alone, so a plan built once per m holds them and the double
sum becomes one matrix-vector product.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache, reduce

import numpy as np

from .errors import DimensionError, SingularWeingartenError
from .linalg import as_matrix

Permutation = tuple[int, ...]
Partition = tuple[int, ...]
Word = tuple[int, ...]

MAX_HALF_ORDER = 5  # largest supported m; moments up to E^(10)


def compose(p: Permutation, q: Permutation) -> Permutation:
    """(p o q)(i) = p[q[i]]."""
    return tuple(p[q[i]] for i in range(len(p)))


def inverse(p: Permutation) -> Permutation:
    inv = [0] * len(p)
    for i, v in enumerate(p):
        inv[v] = i
    return tuple(inv)


def all_permutations(m: int) -> list[Permutation]:
    return [tuple(p) for p in itertools.permutations(range(m))]


def cycles_of(p: Permutation) -> list[tuple[int, ...]]:
    """Cycle decomposition, each cycle starting at its smallest element."""
    seen = [False] * len(p)
    cycles = []
    for start in range(len(p)):
        if seen[start]:
            continue
        cyc = [start]
        seen[start] = True
        j = p[start]
        while j != start:
            cyc.append(j)
            seen[j] = True
            j = p[j]
        cycles.append(tuple(cyc))
    return cycles


def conjugacy_class_of(p: Permutation) -> Partition:
    """Cycle type as a weakly decreasing partition of len(p)."""
    return tuple(sorted((len(c) for c in cycles_of(p)), reverse=True))


@dataclass(frozen=True)
class _Plan:
    """The contractions of S_m, indexed like ``perms`` (perms[0] is the identity).

    Traced words are cycles, so they start at their smallest letter: that is
    the canonical rotation, and equal traces share one key.
    """

    perms: list[Permutation]
    ncycles: np.ndarray  # ncycles[s, t] = #cycles(tau sigma^{-1})
    free: list[Word]  # per sigma: even-operator indices of the open word
    even: list[list[Word]]  # per sigma: traced words of the even operators
    odd: list[list[Word]]  # per tau: traced words of the odd operators


@lru_cache(maxsize=None)
def _plan(m: int) -> _Plan:
    if not 1 <= m <= MAX_HALF_ORDER:
        raise ValueError(f"unsupported order m={m}")
    perms = all_permutations(m)
    ncycles = np.array(
        [[len(cycles_of(compose(tau, inverse(sigma)))) for tau in perms] for sigma in perms]
    )
    ncycles.flags.writeable = False
    free, even = [], []
    for sigma in perms:
        # Even side: block a (holding X_{2a}, block 0 = open slot) is followed
        # by block (sigma(a) + 1) mod m; the cycle through 0 is the open word.
        open_cycle, *closed = cycles_of(tuple((sigma[a] + 1) % m for a in range(m)))
        free.append(tuple(b - 1 for b in open_cycle[1:]))
        even.append([tuple(b - 1 for b in cyc) for cyc in closed])
    odd = [cycles_of(inverse(tau)) for tau in perms]
    return _Plan(perms, ncycles, free, even, odd)


@lru_cache(maxsize=None)
def _wg_matrix(m: int, d: int) -> np.ndarray:
    """Wg[s, t] = Wg(tau sigma^{-1}) at dimension d: the inverse Gram matrix."""
    ncycles = _plan(m).ncycles
    if d < m:
        raise SingularWeingartenError(
            f"Weingarten function needs d >= m; got d={d}, m={m}"
        )
    wg = np.linalg.inv(float(d) ** ncycles)
    wg.flags.writeable = False
    return wg


@lru_cache(maxsize=None)
def weingarten_table(m: int, d: int) -> dict[Partition, float]:
    """Wg values for every conjugacy class of S_m at dimension d."""
    row = _wg_matrix(m, d)[0]
    return {conjugacy_class_of(p): float(w) for p, w in zip(_plan(m).perms, row)}


def weingarten(sigma_class: Partition, d: int) -> float:
    """Weingarten function of a conjugacy class (cycle type) at dimension d."""
    m = sum(sigma_class)
    return weingarten_table(m, d)[sigma_class]


def _product(ops: list[np.ndarray], word: Word) -> np.ndarray:
    return reduce(np.matmul, (ops[i] for i in word))


def _traced_scalars(ops: list[np.ndarray], words_per_perm: list[list[Word]]) -> np.ndarray:
    """Per permutation, the product of the traces of its words."""
    traces: dict[Word, complex] = {}
    out = np.ones(len(words_per_perm), dtype=complex)
    for i, words in enumerate(words_per_perm):
        for word in words:
            if word not in traces:
                traces[word] = complex(np.trace(_product(ops, word)))
            out[i] *= traces[word]
    return out


def moment_function(xs, d: int) -> np.ndarray:
    """Exact Haar average of the word U X1 U^dag X2 U X3 U^dag ... X_{n-1} U^dag.

    ``xs`` holds the n-1 fixed operators (n even, 2 <= n <= 2 MAX_HALF_ORDER);
    all contractions come from the per-m plan rather than hand-expanded term
    lists.  Requires d >= n/2.
    """
    mats = [as_matrix(x) for x in xs]
    if len(mats) % 2 != 1 or not 1 <= len(mats) <= 2 * MAX_HALF_ORDER - 1:
        raise ValueError(
            f"need an odd number of operators between 1 and {2 * MAX_HALF_ORDER - 1}, "
            f"got {len(mats)}"
        )
    for x in mats:
        if x.shape[0] != d:
            raise DimensionError(f"operator dim {x.shape[0]} != d = {d}")
    m = (len(mats) + 1) // 2
    wg = _wg_matrix(m, d)  # raises SingularWeingartenError for d < m
    plan = _plan(m)

    odd_ops = mats[0::2]  # X1, X3, ..., X_{2m-1}; traced among themselves
    even_ops = mats[1::2]  # X2, X4, ..., X_{2m-2}; chained with the open slot

    coef = (wg @ _traced_scalars(odd_ops, plan.odd)) * _traced_scalars(even_ops, plan.even)
    weights: dict[Word, complex] = {}
    for word, c in zip(plan.free, coef):
        weights[word] = weights.get(word, 0.0) + c
    result = np.zeros((d, d), dtype=complex)
    for word, c in weights.items():
        result += c * (_product(even_ops, word) if word else np.eye(d))
    return result


def fourth_moment_closed(x1, x2, x3, d: int) -> np.ndarray:
    """Closed form of the fourth moment average of U X1 U^dag X2 U X3 U^dag."""
    if d < 2:
        raise SingularWeingartenError(f"fourth moment needs d >= 2, got d={d}")
    x1 = as_matrix(x1)
    x2 = as_matrix(x2)
    x3 = as_matrix(x3)
    t1 = np.trace(x1)
    t3 = np.trace(x3)
    t31 = np.trace(x3 @ x1)
    t2 = np.trace(x2)
    denom = d * (d**2 - 1)
    eye = np.eye(d, dtype=complex)
    return ((d * t31 - t1 * t3) * t2 / denom) * eye + (
        (d * t1 * t3 - t31) / denom
    ) * x2
