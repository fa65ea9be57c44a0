"""Symmetric-group combinatorics and exact unitary-group moment functions.

Implements the Collins-Sniady integration formula for words of up to ten
unitaries (m <= 5): the Haar average of U X1 U^dag X2 U X3 U^dag ... is a
double sum over permutation pairs (sigma, tau) in S_m x S_m whose delta
contractions split the X's into traced words plus one free word carrying the
outer indices, each pair weighted by Wg(tau sigma^{-1}).

The Weingarten matrix is the Moore-Penrose pseudo-inverse of the Gram matrix
G_{sigma,tau} = d^{#cycles(tau sigma^{-1})} (Collins & Sniady, CMP 264, 773
(2006); Collins & Matsumoto, ALEA 14, 631 (2017)): its inverse for d >= m,
and still the Weingarten matrix where G is singular, so every d >= 1 works.
The odd-side traced words depend on tau alone and the even-side words on
sigma alone, so the double sum is one matrix-vector product.

The contraction is compiled once per m, independent of d: the distinct
traced words and the distinct open words, each set as a prefix trie by
length, and index arrays from every permutation to its words.  A call builds
each trie length with one stacked matmul and takes each trace as an
elementwise sum against the word's last operator, which needs no product:
0, 0, 4, 25 and 122 d x d products for m = 1..5, against 0, 1, 10, 65 and
408 when every word was multiplied out on its own.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .linalg import as_matrix, check_dim

Permutation = tuple[int, ...]
Partition = tuple[int, ...]
Word = tuple[int, ...]
Step = tuple[np.ndarray, np.ndarray]  # per trie length: (parent nodes, letters)

MAX_HALF_ORDER = 5  # largest supported m; moments up to E^(10)


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


def _trie(words: list[Word], letters: int) -> tuple[tuple[Step, ...], dict[Word, int]]:
    """Prefix trie of the products ``words`` need, one level per length.

    Length 1 is the ``letters`` operators themselves, so the steps start at
    length 2: node k of length n is node parent[k] of length n - 1 times
    operator letter[k].  Returns the steps and every word's node within its
    length (the empty word is node 0 of length 0).
    """
    index: dict[Word, int] = {(): 0} | {(a,): a for a in range(letters)}
    prefixes = {w[:n] for w in words for n in range(2, len(w) + 1)}
    steps = []
    for n in range(2, max(map(len, words), default=0) + 1):
        level = sorted(w for w in prefixes if len(w) == n)
        index |= {w: k for k, w in enumerate(level)}
        steps.append(
            (np.array([index[w[:-1]] for w in level], dtype=np.intp),
             np.array([w[-1] for w in level], dtype=np.intp))
        )
    return tuple(steps), index


def _positions(words_per_perm: list[list[Word]], position: dict[Word, int]) -> np.ndarray:
    """[:, p] = positions of the words of permutation p, padded with one past the last."""
    width = max(map(len, words_per_perm))
    out = np.full((width, len(words_per_perm)), len(position), dtype=np.intp)
    for p, words in enumerate(words_per_perm):
        out[: len(words), p] = [position[w] for w in words]
    return out


@dataclass(frozen=True)
class _Plan:
    """The contraction of S_m x S_m, compiled once per m and independent of d.

    Indexed like ``perms`` (perms[0] is the identity).  Letters index the
    operator stack X1, X2, ..., X_{2m-1}: the odd operators are the even
    letters.  Traced words are cycles, so they start at their smallest letter:
    that is the canonical rotation, and equal traces share one word.

    The traced words of both sides are every single letter, then the longer
    ones by length n.  Tr(X_w1 ... X_wn) = sum_ij (X_w1 ... X_w(n-1))_ij
    (X_wn)_ji, so only the head of a word, its first n - 1 letters, is a
    product: ``heads[n - 2]`` holds the nodes of the heads of the words of
    length n in the trie ``steps``, and ``lasts[n - 2]`` their last letters.
    A word position one past the last stands for a trace of 1.  The open
    words are the nodes of their own trie ``free_steps``, by length from 0.
    """

    perms: list[Permutation]
    ncycles: np.ndarray  # ncycles[s, t] = #cycles(tau sigma^{-1})
    steps: tuple[Step, ...]
    heads: tuple[np.ndarray, ...]
    lasts: tuple[np.ndarray, ...]
    odd_words: np.ndarray  # [:, t] = positions of the traced words of tau
    even_words: np.ndarray  # [:, s] = positions of the traced words of sigma
    free_steps: tuple[Step, ...]
    free_sums: np.ndarray  # [k, s] = 1 if trie node k (by length) is sigma's open word


@lru_cache(maxsize=None)
def _plan(m: int) -> _Plan:
    if not 1 <= m <= MAX_HALF_ORDER:
        raise ValueError(f"unsupported order m={m}")
    perms = all_permutations(m)
    # #cycles(tau sigma^-1) depends on the product alone: count the cycles of
    # the m! permutations once and look each product up by its rank, its
    # digits read in base m (all_permutations is in lexicographic order)
    table = np.array(perms)
    place = m ** np.arange(m - 1, -1, -1)
    counts = np.array([len(cycles_of(p)) for p in perms])
    products = table[np.arange(len(perms))[None, :, None], np.argsort(table)[:, None, :]]
    ncycles = counts[np.searchsorted(table @ place, products @ place)]
    ncycles.flags.writeable = False
    letters = 2 * m - 1
    free, even = [], []
    for sigma in perms:
        # Even side: block a (holding X_{2a}, letter 2a - 1; block 0 = open
        # slot) is followed by block (sigma(a) + 1) mod m; the cycle through 0
        # is the open word.
        open_cycle, *closed = cycles_of(tuple((sigma[a] + 1) % m for a in range(m)))
        free.append(tuple(2 * b - 1 for b in open_cycle[1:]))
        even.append([tuple(2 * b - 1 for b in cyc) for cyc in closed])
    odd = [[tuple(2 * a for a in cyc) for cyc in cycles_of(inverse(tau))] for tau in perms]

    longer = sorted({w for ws in odd + even for w in ws if len(w) > 1}, key=lambda w: (len(w), w))
    steps, index = _trie([w[:-1] for w in longer], letters)
    by_length = [
        [w for w in longer if len(w) == n] for n in range(2, max(map(len, longer), default=1) + 1)
    ]
    position = {w: k for k, w in enumerate([(a,) for a in range(letters)] + longer)}

    free_steps, free_index = _trie(free, letters)
    offsets = np.cumsum([0, 1, letters, *(len(parent) for parent, _ in free_steps)])
    free_sums = np.zeros((offsets[-1], len(perms)))
    for s, word in enumerate(free):
        free_sums[offsets[len(word)] + free_index[word], s] = 1.0
    return _Plan(
        perms,
        ncycles,
        steps,
        tuple(np.array([index[w[:-1]] for w in ws], dtype=np.intp) for ws in by_length),
        tuple(np.array([w[-1] for w in ws], dtype=np.intp) for ws in by_length),
        _positions(odd, position),
        _positions(even, position),
        free_steps,
        free_sums,
    )


@lru_cache(maxsize=None)
def _wg_matrix(m: int, d: int) -> np.ndarray:
    """Wg[s, t] = Wg(tau sigma^{-1}) at dimension d: the pseudo-inverse Gram matrix.

    For d < m the Gram matrix has rank sum (f^lambda)^2 over the partitions
    lambda of m with at most d rows.  Its nonzero eigenvalues are at least 1;
    the zero ones come out below 2e-12, at least 1000 times below the cut,
    1e-12 times the largest.  ``rcond``, not ``rtol``, which needs numpy >= 2.
    """
    wg = np.linalg.pinv(float(d) ** _plan(m).ncycles, rcond=1e-12, hermitian=True)
    wg.flags.writeable = False
    return wg


# typed: True and 2.0 equal 1 and 2 as keys, and would skip the check
@lru_cache(maxsize=None, typed=True)
def weingarten_table(m: int, d: int) -> dict[Partition, float]:
    """Wg values for every conjugacy class of S_m at dimension d, an integer >= 1."""
    check_dim("d", d, 1)
    row = _wg_matrix(m, d)[0]
    return {conjugacy_class_of(p): float(w) for p, w in zip(_plan(m).perms, row)}


def weingarten(sigma_class: Partition, d: int) -> float:
    """Weingarten function of a conjugacy class (cycle type) at dimension d.

    The class is a partition of m, weakly decreasing positive integers;
    anything else is refused with ValueError.
    """
    parts = tuple(sigma_class)
    positive = all(
        isinstance(k, (int, np.integer)) and not isinstance(k, bool) and k >= 1 for k in parts
    )
    if not (parts and positive and list(parts) == sorted(parts, reverse=True)):
        raise ValueError(f"a class is weakly decreasing positive integers, got {sigma_class!r}")
    return weingarten_table(sum(parts), d)[parts]


def _levels(ops: np.ndarray, steps: tuple[Step, ...]):
    """Yield the products of the trie nodes by length from 1: ``ops``, then
    one stacked matmul per longer length.  Only the current length is kept
    alive, which bounds the memory of a call to a few stacks of d x d."""
    level = ops
    yield level
    for parent, letter in steps:
        level = level[parent] @ ops[letter]
        yield level


def moment_function(xs, d: int) -> np.ndarray:
    """Exact Haar average of the word U X1 U^dag X2 U X3 U^dag ... X_{n-1} U^dag.

    ``xs`` holds the n-1 fixed operators (n even, 2 <= n <= 2 MAX_HALF_ORDER);
    all contractions come from the per-m plan rather than hand-expanded term
    lists.  Every d >= 1 is supported: below d = n/2 the Weingarten matrix is
    the Gram pseudo-inverse.

    Each trie length costs one stacked d x d matmul, 0, 0, 4, 25 and 122
    products in all for m = 1..5, and the traces of each word length one
    ``einsum``.  The Weingarten sum and the open-word sums are ``einsum`` as
    well: OpenBLAS threads a matrix-vector product as it does a GEMM, which
    made an m = 5, d = 8 call take 8.0 ms instead of 1.7 ms on one BLAS
    thread (2-vCPU Xeon, OpenBLAS 0.3.31); it now takes 0.25 ms either way.
    Each product of a stack is its own d x d GEMM, below the threading
    threshold m n k = 2^16 for d <= 40.
    """
    check_dim("d", d, 1)
    mats = [as_matrix(x, d) for x in xs]
    if len(mats) % 2 != 1 or not 1 <= len(mats) <= 2 * MAX_HALF_ORDER - 1:
        raise ValueError(
            f"need an odd number of operators between 1 and {2 * MAX_HALF_ORDER - 1}, "
            f"got {len(mats)}"
        )
    m = (len(mats) + 1) // 2
    wg = _wg_matrix(m, d)
    plan = _plan(m)

    ops = np.stack(mats)
    traces = [np.einsum("nii->n", ops)]
    traces += [
        np.einsum("nij,nji->n", level[heads], ops[lasts])
        for heads, lasts, level in zip(plan.heads, plan.lasts, _levels(ops, plan.steps))
    ]
    traces = np.concatenate([*traces, [1.0]])
    coef = np.einsum("st,t->s", wg, traces[plan.odd_words].prod(axis=0))
    coef *= traces[plan.even_words].prod(axis=0)

    weights = np.einsum("ks,s->k", plan.free_sums, coef)
    result = np.diag(np.full(d, weights[0]))  # the empty open word
    weights = weights[1:]
    for level in _levels(ops, plan.free_steps):
        result += np.einsum("k,kij->ij", weights[: len(level)], level)
        weights = weights[len(level) :]
    return result


def fourth_moment_closed(x1, x2, x3, d: int) -> np.ndarray:
    """Closed form of the fourth moment average of U X1 U^dag X2 U X3 U^dag."""
    check_dim("d", d, 2)
    x1, x2, x3 = (as_matrix(x, d) for x in (x1, x2, x3))
    t1 = np.trace(x1)
    t3 = np.trace(x3)
    t31 = np.trace(x3 @ x1)
    t2 = np.trace(x2)
    denom = d * (d**2 - 1)
    eye = np.eye(d, dtype=complex)
    return ((d * t31 - t1 * t3) * t2 / denom) * eye + (
        (d * t1 * t3 - t31) / denom
    ) * x2
