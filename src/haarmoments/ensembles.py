"""Spectral-ensemble averages of the form-factor functions.

Each spectral function is a moment E[prod_a S(k_a t)] of
S(tau) = sum_j exp(-i E_j tau) = d f(tau) with integer multipliers k:
(1, -1), (2, -2), (1, 1, -2) and (1, 1, -1, -1).  Grouping coinciding level
indices by a set partition pi of the factors leaves one factor per block B,
at the summed multiplier k_B:

- POISSON, independent levels flat on [-2, 2]: pi contributes
  d!/(d - |pi|)! prod_B sinc(2 k_B t).
- GUE_NUMERIC, exact at finite d: the levels form a determinantal process
  with a projection kernel of scaled Hermite functions phi_k, and pi
  contributes sum_{sigma in S_|pi|} prod_{cycles c of sigma}
  (-1)^(|c| - 1) Tr prod_{B in c} G(k_B t), with the d x d blocks
  G(tau)_kl = int phi_k phi_l exp(-i E tau) dE.
- GUE_LARGE_D, the factorized large-d limit: prod_a d h(k_a t), with the
  semicircle transform h(t) = J1(2t)/t.

The sum is compiled once per tuple k into integer-coefficient terms: for
POISSON keyed by |pi| and the sorted |k_B| (sinc is even), for the GUE as
monomials in cycle traces keyed up to rotation.  Three identities leave two
blocks to build per time, G(t) and G(2t), and at most |c| - 2 matrix
products per trace: G(0) = I, so zero multipliers drop out of a key;
G(-tau) = conj G(tau), as the phi_k are real, so a negated key gives the
conjugate trace; G is symmetric, so a trace's last factor enters elementwise.

Every function takes a whole time grid at once: the GUE blocks G(k t) of
all its times come from one ``_gue_blocks`` call, each trace is taken once
per key over the stacked blocks, and sinc and h take the grid as an array.

Both GUE flavours share the <|H_ij|^2> = 1/d normalization, so every
ensemble lives on the spectral span [-2, 2].  ``EnsembleKind`` and the
spectrum sampler live in ``linalg``, where the Monte Carlo oracle reaches
them without this module.
"""

from __future__ import annotations

import collections
import dataclasses
import functools
import itertools
import math
import warnings

import numpy as np

from .closed_forms import FormFactorInputs, TimeCoeffs, time_coeffs
from .errors import DimensionError
from .linalg import WORD_CAP, BipartiteDims, EnsembleKind, check_dim, check_time
from .weingarten import cycles_of

GUE_NUMERIC_MAX_DIM = 16


def sinc(x):
    """sin(x)/x, 1 at x = 0: a float for a scalar x, else an array of its shape."""
    x = np.asarray(x, dtype=float)
    return np.divide(np.sin(x), x, out=np.ones(x.shape), where=x != 0.0)[()]


def bessel_j1_over_t(t):
    """h(t) = J1(2t)/t = (2/pi) int_0^pi sin^2(theta) cos(2t cos theta) dtheta:
    a float for a scalar t, else an array of its shape.

    The integrand is smooth, even and 2 pi-periodic, so the trapezoidal rule
    converges geometrically once the panel count n exceeds the bandwidth 2|t|
    (Trefethen & Weideman, SIAM Rev. 56, 385 (2014)).  The end points, where
    sin^2 vanishes, carry no weight.  Each t takes n = 2 ceil|t| + 32 panels,
    so its bits are the same alone as inside an array: the times of one n are
    summed together, a row each, in (time, node) pieces of at most WORD_CAP.
    """
    t = np.asarray(t, dtype=float)
    flat, out = t.ravel(), np.ones(t.size)
    nonzero = np.flatnonzero(flat)
    panels = 2.0 * np.ceil(np.abs(flat[nonzero])) + 32.0  # exact: no int64 to wrap
    for n in map(int, sorted(set(panels.tolist()))):
        rows, per = nonzero[panels == n], max(1, WORD_CAP // n)
        for piece in (rows[i : i + per] for i in range(0, rows.size, per)):
            total = -0.0  # the exact identity of +, so one node piece keeps every bit
            for j in range(1, n, WORD_CAP):
                theta = np.pi / n * np.arange(j, min(j + WORD_CAP, n))
                cos = np.cos(2.0 * flat[piece, None] * np.cos(theta))
                total = total + np.sum(np.sin(theta) ** 2 * cos, axis=-1)
            out[piece] = 2.0 / n * total
    return out.reshape(t.shape)[()]


def _gue_window(d: int) -> float:
    # Semicircle support [-2, 2] plus room for the Gaussian tails of the
    # highest Hermite function, whose square is below double precision there.
    return 2.0 + 12.0 / math.sqrt(d)


def _gue_step(d: int, tau):
    """Trapezoidal step of the GUE block integrals at |tau|, elementwise on an array.

    The integrands phi_k phi_l exp(-i E tau) are entire and decay like a
    Gaussian, so the trapezoidal rule converges geometrically once the
    Nyquist frequency 2 pi / h exceeds their bandwidth: |tau| from the phase,
    2d from the highest pair of Hermite functions and 12 sqrt(d) for the tails
    (Trefethen & Weideman, SIAM Rev. 56, 385 (2014)).
    """
    return 2.0 * math.pi / (np.abs(tau) + 2.0 * d + 12.0 * math.sqrt(d))


def _hermite_functions(e: np.ndarray, d: int) -> np.ndarray:
    """Scaled Hermite functions phi_0..phi_{d-1} at abscissae e, shape (d, len(e)).

    Stable three-term recurrence on the normalized functions; the weight
    exp(-d E^2 / 4) is carried inside each value, never split off.
    """
    y = np.sqrt(d / 2.0) * np.asarray(e, dtype=float)
    scale = (d / 2.0) ** 0.25
    out = np.empty((d, y.size), dtype=float)
    out[0] = scale * np.pi**-0.25 * np.exp(-0.5 * y * y)
    if d > 1:
        out[1] = math.sqrt(2.0) * y * out[0]
    for k in range(2, d):
        out[k] = math.sqrt(2.0 / k) * y * out[k - 1] - math.sqrt(
            (k - 1) / k
        ) * out[k - 2]
    return out


def _gue_blocks(taus, d: int) -> np.ndarray:
    """G(tau)_kl = int phi_k(E) phi_l(E) exp(-i E tau) dE for each tau of an
    array, shape (*taus.shape, d, d); G(0) is exactly I_d.

    The abscissae are E = h j, uniform and symmetric about E = 0, covering
    the window with the step h of ``_gue_step``.  phi_k has the parity of k,
    so the nodes E and -E pair up: G_kl is the cos transform, real, for
    k + l even and -i times the sin transform for k + l odd, each summed over
    the nodes E >= 0 with weight 2h (h at E = 0).

    The taus are taken in order of |tau| and cut into slices whose (tau,
    node) phase array holds at most WORD_CAP entries, or one tau whose own
    grid is larger.  A slice shares one grid, whose step is set by its
    largest |tau|, and one ``_hermite_functions`` evaluation.  A tau alone
    with more than WORD_CAP nodes sums them in pieces of WORD_CAP, each with
    its own Hermite values (the recurrence runs node by node).  The largest
    temporary holds d/2 real entries per phase entry, at most d/2 WORD_CAP,
    so neither a long grid nor a long time takes more memory.

    The products here and in ``_moment_function`` use einsum's own loops: at
    d <= 16 BLAS is no faster, and not calling it keeps its kernels out of
    the resident memory of a process that needs no other BLAS call.
    """
    taus = np.asarray(taus, dtype=float)
    flat = taus.ravel()
    out = np.empty((flat.size, d, d), dtype=complex)
    out[flat == 0.0] = np.eye(d)
    order = np.argsort(np.abs(flat), kind="stable")
    order = order[flat[order] != 0.0]
    steps = _gue_step(d, flat[order])
    nodes = np.ceil(_gue_window(d) / steps) + 1.0  # E >= 0
    start = 0
    while start < order.size:
        # n taus from start hold n times the nodes of the last: True, then False
        fits = np.arange(1, order.size - start + 1) * nodes[start:] <= WORD_CAP
        stop = start + max(1, int(np.count_nonzero(fits)))
        idx, step, n = order[start:stop], steps[stop - 1], int(nodes[stop - 1])
        # -0.0 is the exact identity of +, so a one-piece sum keeps every bit
        g = np.full((idx.size, d, d), complex(-0.0, -0.0))
        for j in range(0, n, WORD_CAP):  # one piece unless one tau has more nodes
            e = step * np.arange(j, min(j + WORD_CAP, n))
            phi = _hermite_functions(e, d)
            even, odd = phi[0::2], phi[1::2]
            phase = np.multiply.outer(flat[idx], e)
            weight = np.where(e > 0.0, 2.0 * step, step)
            cos, sin = weight * np.cos(phase), weight * np.sin(phase)
            g[:, 0::2, 0::2] += np.einsum("tkn,ln->tkl", cos[:, None, :] * even, even)
            g[:, 1::2, 1::2] += np.einsum("tkn,ln->tkl", cos[:, None, :] * odd, odd)
            g[:, 0::2, 1::2] += -1j * np.einsum("tkn,ln->tkl", sin[:, None, :] * even, odd)
        g[:, 1::2, 0::2] = g[:, 0::2, 1::2].swapaxes(-1, -2)
        out[idx] = g
        start = stop
    return out.reshape(*taus.shape, d, d)


def _set_partitions(items: list) -> list:
    """Every partition of items into blocks, each block in the items' order."""
    if not items:
        return [[]]
    first, rest = items[0], items[1:]
    out = []
    for p in _set_partitions(rest):
        out.append([[first], *p])
        out += [[*p[:i], [first, *b], *p[i + 1 :]] for i, b in enumerate(p)]
    return out


def _cycle_key(ks: list[int]) -> tuple[int, ...]:
    """Trace key of a cycle: zero multipliers dropped, then its least rotation."""
    ks = tuple(k for k in ks if k)
    return min((ks[i:] + ks[:i] for i in range(len(ks))), default=())


@functools.cache
def _expansion(kind: EnsembleKind, ks: tuple[int, ...]) -> tuple:
    """E[prod_a S(k_a t)] as (key, integer coefficient) pairs: a POISSON key is
    (|pi|, sorted nonzero |k_B|), a GUE key the trace keys of one monomial."""
    terms = collections.Counter()
    for p in _set_partitions(list(ks)):
        sums = [sum(b) for b in p]
        if kind == EnsembleKind.POISSON:
            terms[len(sums), tuple(sorted(abs(s) for s in sums if s))] += 1
            continue
        for perm in itertools.permutations(range(len(sums))):
            cycles = cycles_of(perm)
            key = tuple(sorted(_cycle_key([sums[i] for i in c]) for c in cycles))
            terms[key] += (-1) ** (len(sums) - len(cycles))
    return tuple((key, c) for key, c in terms.items() if c)


def _moment_function(kind: EnsembleKind, d: int, t):
    """ks -> E[prod_a S(k_a t)] by the compiled expansion of the module docstring.

    t is one time or an array of times, and each moment an array of t's
    shape.  Blocks, traces and h values are cached for the life of the
    returned function, so the moments of one time grid share them.  A moment
    whose expansion needs a multiplier k > 0 not yet built builds G(k t) for
    every such k in one ``_gue_blocks`` call.  ``averaged_form_factors``
    checks d.
    """
    t = np.asarray(t, dtype=float)
    if kind == EnsembleKind.GUE_LARGE_D:
        h = functools.cache(lambda k: d * bessel_j1_over_t(k * t))
        return lambda ks: math.prod(h(abs(k)) for k in ks)
    if kind == EnsembleKind.POISSON:
        s = functools.cache(lambda k: sinc(2.0 * k * t))
        return lambda ks: sum(
            c * math.perm(d, n) * math.prod(map(s, sums))
            for (n, sums), c in _expansion(kind, tuple(ks))
        )
    if kind != EnsembleKind.GUE_NUMERIC:
        raise ValueError(f"no spectral moments for ensemble {kind}")
    if d > GUE_NUMERIC_MAX_DIM:
        raise DimensionError(f"GUE_NUMERIC needs d <= {GUE_NUMERIC_MAX_DIM}, got {d}")
    blocks = {}  # k > 0 -> G(k t), stacked over the times

    def block(k):
        return blocks[k] if k > 0 else blocks[-k].conj()

    @functools.cache
    def trace(key):
        flipped = _cycle_key([-k for k in key])  # the conjugate blocks
        if flipped < key:
            return trace(flipped).conjugate()
        if len(key) < 2:
            return np.einsum("...ii->...", block(key[0])) if key else d
        head = functools.reduce(
            lambda a, b: np.einsum("...ij,...jk->...ik", a, b), map(block, key[:-1])
        )
        return np.einsum("...ij,...ij->...", head, block(key[-1]))  # G symmetric

    def moment(ks):
        terms = _expansion(kind, tuple(ks))
        new = sorted({abs(k) for keys, _ in terms for key in keys for k in key} - blocks.keys())
        if new:
            blocks.update(zip(new, _gue_blocks(np.multiply.outer(new, t), d)))
        return sum(c * math.prod(map(trace, keys)) for keys, c in terms)

    return moment


@functools.cache
def _form_factors(kind: EnsembleKind, times: tuple[float, ...], d: int) -> FormFactorInputs:
    """The four spectral functions on a time grid as normalized moments of S,
    each a read-only array over the times.

    Cached on (kind, times, d), so curves that differ only in the initial
    state share one evaluation.  |f(t)|^4 comes first: its expansion needs
    both G(t) and G(2t), so one ``_gue_blocks`` call builds every block.
    """
    moment = _moment_function(kind, d, np.array(times))
    f4 = moment((1, 1, -1, -1)).real / d**4
    f2 = moment((1, -1)).real / d**2
    f2_2t = moment((2, -2)).real / d**2
    re_f2fc2t = moment((1, 1, -2)).real / d**3
    for a in (f2, f2_2t, re_f2fc2t, f4):
        a.flags.writeable = False
    return FormFactorInputs(f2=f2, f2_2t=f2_2t, re_f2fc2t=re_f2fc2t, f4=f4)


def averaged_form_factors(ensemble: EnsembleKind, t, d: int) -> FormFactorInputs:
    """The ensemble's averaged spectral functions at time t: floats for one
    time, arrays of its shape for an array of times, evaluated as one grid.

    POISSON, GUE_NUMERIC and GUE_LARGE_D have them; ``_moment_function``
    refuses any other ensemble with ValueError.
    """
    times = np.asarray(t, dtype=float)
    for x in times.flat:
        check_time(x)
    check_dim("d", d, 1)
    if ensemble == EnsembleKind.GUE_LARGE_D and d < GUE_NUMERIC_MAX_DIM:
        warnings.warn(f"GUE large-d limit used at small dimension d = {d}", stacklevel=2)
    ff = _form_factors(ensemble, tuple(times.ravel().tolist()), d)
    values = [getattr(ff, f.name) for f in dataclasses.fields(ff)]
    if times.ndim == 0:
        return FormFactorInputs(*(float(v[0]) for v in values))
    return FormFactorInputs(*(v.reshape(times.shape) for v in values))


def poisson_form_factors(t: float, d: int) -> FormFactorInputs:
    """Poisson (uncorrelated uniform levels) averages at time t."""
    return averaged_form_factors(EnsembleKind.POISSON, t, d)


def gue_form_factors(t: float, d: int, mode: EnsembleKind) -> FormFactorInputs:
    """GUE averages of the spectral functions at time t.

    GUE_NUMERIC: all four functions exact at finite d, from the blocks
    G(+-t), G(+-2t).  GUE_LARGE_D: everything factorizes through h(t).
    """
    if mode not in (EnsembleKind.GUE_NUMERIC, EnsembleKind.GUE_LARGE_D):
        raise ValueError(f"gue_form_factors expects a GUE mode, got {mode}")
    return averaged_form_factors(mode, t, d)


def averaged_time_coeffs(
    ensemble: EnsembleKind, t: float, dims: BipartiteDims
) -> TimeCoeffs:
    """Ensemble-averaged coefficients of the general time-dependent average."""
    return time_coeffs(averaged_form_factors(ensemble, t, dims.d), dims)

