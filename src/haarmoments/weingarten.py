"""Symmetric-group combinatorics and exact unitary-group moment functions.

Implements the Collins-Sniady integration formula for words of up to ten
unitaries (m <= 5): the Haar average of U X1 U^dag X2 U X3 U^dag ... is a
double sum over permutation pairs (sigma, tau) in S_m x S_m whose delta
contractions split the X's into traced words plus one free word carrying the
outer indices, each pair weighted by Wg(tau sigma^{-1}).

Wg is a class function, exact from the characters of S_m (Collins & Sniady,
CMP 264, 773 (2006)): Wg(mu, d) = (1/m!) sum_lambda f^lambda chi^lambda(mu) /
prod_{boxes of lambda} (d + content) over the lambda |- m with at most d rows,
chi^lambda by the Murnaghan-Nakayama rule.  That cut is the pseudo-inverse of
the Gram matrix d^{#cycles(tau sigma^{-1})}, singular at d < m, so every d >= 1
works.  The odd-side traced words depend on tau alone and the even-side words
on sigma alone, so the double sum is one matrix-vector product.

The contraction is compiled once per m, independent of d: one prefix trie
holding the heads of the distinct traced words and the distinct open words,
and index arrays from every permutation to its words.  A call builds each
trie length with one stacked matmul into the call's own stack and takes each
trace as a dot product of a head with the word's last operator, transposed,
which needs no product: 0, 0, 4, 23 and 111 d x d products for m = 1..5.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
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


def partitions(m: int) -> list[Partition]:
    """Partitions of m as weakly decreasing tuples, (m) first."""
    if m == 0:
        return [()]
    return [(k, *rest) for k in range(m, 0, -1) for rest in partitions(m - k) if rest[:1] <= (k,)]


@lru_cache(maxsize=None)
def _character(shape: Partition, cls: Partition) -> int:
    """chi^shape(cls) by the Murnaghan-Nakayama rule on beta-sets: a rim hook of
    length k moves a bead k places down to a free place, signed by the beads passed."""
    def chi(beads: frozenset[int], hooks: Partition) -> int:
        if not hooks:
            return 1
        k = hooks[0]
        return sum(
            (-1) ** sum(b - k < c < b for c in beads) * chi(beads - {b} | {b - k}, hooks[1:])
            for b in beads if b >= k and b - k not in beads
        )

    return chi(frozenset(row + len(shape) - 1 - i for i, row in enumerate(shape)), cls)


def _trie(words: list[Word], letters: int) -> tuple[tuple[Step, ...], dict[Word, int]]:
    """Prefix trie of the products ``words`` need, its nodes numbered across
    lengths: node 0 is the empty word (I), nodes 1..letters the operators,
    then each longer length in turn.  The steps start at length 2: node k of
    length n is node parent[k] times operator letter[k].  Returns the steps
    and the node of every word and prefix.
    """
    index: dict[Word, int] = {(): 0} | {(a,): 1 + a for a in range(letters)}
    prefixes = {w[:n] for w in words for n in range(2, len(w) + 1)}
    steps = []
    for n in range(2, max(map(len, words), default=0) + 1):
        level = sorted(w for w in prefixes if len(w) == n)
        index |= {w: len(index) + k for k, w in enumerate(level)}
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

    Indexed like ``all_permutations(m)`` (the identity first).  Letters index the
    operator stack X1, X2, ..., X_{2m-1}: the odd operators are the even
    letters.  Traced words are cycles, so they start at their smallest letter:
    that is the canonical rotation, and equal traces share one word.

    The traced words of both sides are every single letter, then the longer
    ones.  Tr(X_w1 ... X_wn) = sum_ij (X_w1 ... X_w(n-1))_ij (X_wn)_ji, so
    only the head of a word, its first n - 1 letters, is a product: ``heads``
    holds the trie nodes of the heads (node 0, I, for a single letter) and
    ``lasts`` the last letters.  A word position one past the last stands for
    a trace of 1.  The open words are nodes of the same trie ``steps``.
    """

    classes: np.ndarray  # classes[s, t] = index in partitions(m) of the class of tau sigma^{-1}
    steps: tuple[Step, ...]
    heads: np.ndarray
    lasts: np.ndarray
    odd_words: np.ndarray  # [:, t] = positions of the traced words of tau
    even_words: np.ndarray  # [:, s] = positions of the traced words of sigma
    free_sums: np.ndarray  # [k, s] = 1 if trie node k is sigma's open word


@lru_cache(maxsize=None)
def _plan(m: int) -> _Plan:
    if not 1 <= m <= MAX_HALF_ORDER:
        raise ValueError(f"unsupported order m={m}")
    perms = all_permutations(m)
    # the class of tau sigma^-1 depends on the product alone: find the class
    # of the m! permutations once and look each product up by its rank, its
    # digits read in base m (all_permutations is in lexicographic order)
    table = np.array(perms)
    place = m ** np.arange(m - 1, -1, -1)
    shapes = partitions(m)
    kinds = np.array([shapes.index(conjugacy_class_of(p)) for p in perms])
    products = table[np.arange(len(perms))[None, :, None], np.argsort(table)[:, None, :]]
    classes = kinds[np.searchsorted(table @ place, products @ place)]
    classes.flags.writeable = False
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

    traced = [(a,) for a in range(letters)]
    traced += sorted({w for ws in odd + even for w in ws if len(w) > 1})
    steps, index = _trie([w[:-1] for w in traced] + free, letters)
    free_sums = np.zeros((len(index), len(perms)))
    free_sums[[index[w] for w in free], range(len(perms))] = 1.0
    position = {w: k for k, w in enumerate(traced)}
    return _Plan(
        classes,
        steps,
        np.array([index[w[:-1]] for w in traced], dtype=np.intp),
        np.array([w[-1] for w in traced], dtype=np.intp),
        _positions(odd, position),
        _positions(even, position),
        free_sums,
    )


@lru_cache(maxsize=None)
def _wg_matrix(m: int, d: int) -> np.ndarray:
    """Wg[s, t] = Wg(tau sigma^{-1}) at dimension d, each class value rounded once."""
    wg = np.array([float(weingarten(cls, d)) for cls in partitions(m)])[_plan(m).classes]
    wg.flags.writeable = False
    return wg


def weingarten(sigma_class: Partition, d: int) -> Fraction:
    """Weingarten function of a conjugacy class (cycle type) at dimension d, exactly:
    the class is a partition of m <= MAX_HALF_ORDER, weakly decreasing positive
    integers; anything else is refused with ValueError."""
    parts = tuple(sigma_class)
    positive = all(
        isinstance(k, (int, np.integer)) and not isinstance(k, bool) and k >= 1 for k in parts
    )
    if not (parts and positive and list(parts) == sorted(parts, reverse=True)):
        raise ValueError(f"a class is weakly decreasing positive integers, got {sigma_class!r}")
    check_dim("d", d, 1)
    parts, d, m = tuple(map(int, parts)), int(d), int(sum(parts))
    if m > MAX_HALF_ORDER:
        raise ValueError(f"unsupported order m={m}")
    shapes = [s for s in partitions(m) if len(s) <= d]
    boxes = [math.prod(d + j - i for i, row in enumerate(s) for j in range(row)) for s in shapes]
    common = math.lcm(*boxes)  # one integer sum: a Fraction per term costs more
    chis = [_character(s, (1,) * m) * _character(s, parts) for s in shapes]
    return Fraction(sum(c * common // b for c, b in zip(chis, boxes)), common * math.factorial(m))


def moment_function(xs, d: int) -> np.ndarray:
    """Exact Haar average of the word U X1 U^dag X2 U X3 U^dag ... X_{n-1} U^dag.

    ``xs`` holds the n-1 fixed operators (n even, 2 <= n <= 2 MAX_HALF_ORDER);
    all contractions come from the per-m plan rather than hand-expanded term
    lists.  Every d >= 1 is supported, with Wg rounded once per class from
    its exact character sum.

    One (nodes + 2 traced, d, d) stack holds I, the operators, one stacked
    matmul per trie length (0, 0, 4, 23 and 111 products for m = 1..5) and
    the heads and transposed last letters of the traced words.  Each call
    allocates its own stack, 1.5 MiB at m = 4 and 5.4 MiB at m = 5 (d = 32),
    so concurrent calls share nothing (DECISIONS.md).  Each trace is a dot
    product of d^2 entries, all in one batched matmul, and the open-word sum
    is one real GEMM, [Re w; Im w] against the float view of the nodes, of
    m n k = 4 nodes d^2.  OpenBLAS keeps the dots on the calling thread for
    d <= 32 (d^2 <= 1024) and the GEMM within ``linalg.REAL_GEMM_CAP`` up to
    d = 45 at m = 5 (495,616 at d = 32).  Larger d is computed all the same,
    but OpenBLAS threads both calls: at d = 128, m = 5, the 113 dots took
    1.8-2.2 ms against 3.8-4.5 ms on one BLAS thread with the other vCPU
    idle, and 4.6-4.8 against 4.0-4.6 ms with it busy.  The Weingarten sum and
    the open-word weights are matrix-vector products, which OpenBLAS threads
    like a GEMM (an m = 5, d = 8 call took 8.0 ms instead of 1.7 ms, 2-vCPU
    Xeon, OpenBLAS 0.3.31), so they are ``einsum``.  Each stacked product is
    its own d x d GEMM, unthreaded below m n k = 2^16 (d <= 40).
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

    nodes, traced = len(plan.free_sums), len(plan.lasts)
    stack = np.empty((nodes + 2 * traced, d, d), dtype=complex)
    stack[0] = 0
    stack[0].flat[:: d + 1] = 1
    for k, x in enumerate(mats, 1):
        stack[k] = x
    ops = stack[1 : len(mats) + 1]
    start = len(mats) + 1
    for parent, letter in plan.steps:
        np.matmul(stack[parent], ops[letter], out=stack[start : start + len(parent)])
        start += len(parent)
    heads, lasts = stack[nodes : nodes + traced], stack[nodes + traced :]
    # mode="clip" writes straight into out; "raise" would copy through a temporary
    np.take(stack[:nodes], plan.heads, axis=0, out=heads, mode="clip")
    np.take(ops.swapaxes(1, 2), plan.lasts, axis=0, out=lasts, mode="clip")
    traces = np.ones(traced + 1, dtype=complex)  # the last, 1, stands for a padded word
    rows, cols = heads.reshape(traced, 1, -1), lasts.reshape(traced, -1, 1)
    np.matmul(rows, cols, out=traces[:-1, None, None])
    coef = np.einsum("st,t->s", wg, traces[plan.odd_words].prod(axis=0))
    coef *= traces[plan.even_words].prod(axis=0)
    w = np.einsum("ks,s->k", plan.free_sums, coef).view(float).reshape(nodes, 2).T
    a, b = (w @ stack[:nodes].view(float).reshape(nodes, -1)).view(complex).reshape(2, d, d)
    return a + 1j * b


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
