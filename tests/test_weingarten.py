import itertools
import math
import sys
import threading
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction
from functools import reduce

import numpy as np
import pytest

from haarmoments.errors import DimensionError
from haarmoments.linalg import REAL_GEMM_CAP, RngStream
from haarmoments.mc import empirical_moments
from haarmoments.validate import sigma_ratio
from haarmoments.weingarten import (
    _character,
    _plan,
    _wg_matrix,
    all_permutations,
    conjugacy_class_of,
    cycles_of,
    fourth_moment_closed,
    inverse,
    moment_function,
    partitions,
    weingarten,
)

from conftest import haar_unitaries, random_complex, random_hermitian


def compose(p, q):
    """(p o q)(i) = p[q[i]]: the pairwise reference for the plan's class table."""
    return tuple(p[q[i]] for i in range(len(p)))


def test_conjugacy_classes():
    assert conjugacy_class_of((0, 1, 2, 3)) == (1, 1, 1, 1)
    assert conjugacy_class_of((1, 0, 2)) == (2, 1)
    assert conjugacy_class_of((1, 2, 3, 0)) == (4,)


def test_permutation_group_structure():
    perms = all_permutations(4)
    assert len(perms) == 24
    for p in perms:
        assert compose(p, inverse(p)) == (0, 1, 2, 3)
    # class sizes computed by brute force
    counts = {}
    for p in perms:
        counts[conjugacy_class_of(p)] = counts.get(conjugacy_class_of(p), 0) + 1
    assert counts == {(1, 1, 1, 1): 1, (2, 1, 1): 6, (2, 2): 3, (3, 1): 8, (4,): 6}


def _paper_weingarten(cls, d):
    m = sum(cls)
    if m == 2:
        return {(1, 1): 1 / (d**2 - 1), (2,): -1 / (d * (d**2 - 1))}[cls]
    if m == 3:
        return {
            (1, 1, 1): (d**2 - 2) / (d * (d**4 - 5 * d**2 + 4)),
            (2, 1): 1 / (-4 + 5 * d**2 - d**4),
            (3,): 2 / (4 * d - 5 * d**3 + d**5),
        }[cls]
    a = -36 + 49 * d**2 - 14 * d**4 + d**6
    return {
        (4,): -5 / (a * d),
        (3, 1): (-3 + 2 * d**2) / (a * d**2),
        (2, 2): (6 + d**2) / (a * d**2),
        (2, 1, 1): -1 / (9 * d - 10 * d**3 + d**5),
        (1, 1, 1, 1): (6 - 8 * d**2 + d**4) / (a * d**2),
    }[cls]


def test_weingarten_closed_forms():
    # exact: the printed rational functions evaluated in fractions
    for m in (2, 3, 4):
        for d in range(m, 65):
            for cls in partitions(m):
                assert weingarten(cls, d) == _paper_weingarten(cls, Fraction(d)), (m, d, cls)


def test_weingarten_second_order_values_are_exact():
    for d in range(2, 65):
        assert weingarten((1, 1), d) == Fraction(1, d**2 - 1), d
        assert weingarten((2,), d) == Fraction(-1, d * (d**2 - 1)), d


def test_partitions():
    assert partitions(4) == [(4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1)]
    assert [len(partitions(m)) for m in range(9)] == [1, 1, 2, 3, 5, 7, 11, 15, 22]


def _centralizer(cls):
    """z_mu = prod_k k^{a_k} a_k!, the order of the centralizer of class mu."""
    return math.prod(k**a * math.factorial(a) for k, a in Counter(cls).items())


@pytest.mark.parametrize("m", [1, 2, 3, 4, 5, 6])
def test_characters_are_column_orthogonal(m):
    # sum_lambda chi^lambda(mu) chi^lambda(nu) = delta_{mu nu} z_mu
    shapes = partitions(m)
    for mu in shapes:
        for nu in shapes:
            total = sum(_character(shape, mu) * _character(shape, nu) for shape in shapes)
            assert total == (_centralizer(mu) if mu == nu else 0), (mu, nu)


@pytest.mark.parametrize("m", [1, 2, 3, 4, 5, 6, 7, 8])
def test_character_of_the_identity_is_the_irrep_dimension(m):
    dims = [_character(shape, (1,) * m) for shape in partitions(m)]
    assert dims == [_irrep_dim(shape) for shape in partitions(m)]
    assert sum(f**2 for f in dims) == math.factorial(m)


def _irrep_dim(shape):
    """f^lambda, the number of standard Young tableaux, by the hook-length formula."""
    columns = [sum(1 for row in shape if row > j) for j in range(shape[0])]
    hooks = math.prod(
        (row - j) + (columns[j] - i) - 1 for i, row in enumerate(shape) for j in range(row)
    )
    return math.factorial(sum(shape)) // hooks


@pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
def test_gram_identity(m):
    # Wg is the pseudo-inverse of G[s, t] = d^{#cycles(tau sigma^-1)}: its
    # inverse for d >= m, and for d < m of rank sum (f^lambda)^2 over the
    # partitions of m with at most d rows.  The character values agree with
    # the floating-point pseudo-inverse, whose zero eigenvalues come out
    # below 2e-12, 1000 times below its cut (6.8e-15 relative at worst).
    perms = all_permutations(m)
    ncycles = np.array(
        [[len(cycles_of(compose(tau, inverse(sigma)))) for tau in perms] for sigma in perms]
    )
    for d in (*range(1, 17), 32):
        gram = float(d) ** ncycles
        wg = _wg_matrix(m, d)
        pinv = np.linalg.pinv(gram, rcond=1e-12, hermitian=True)
        assert np.max(np.abs(wg - pinv)) <= 1e-13 * np.max(np.abs(pinv)), d
        assert np.max(np.abs(gram @ wg @ gram - gram)) <= 1e-13 * np.max(gram), d
        assert np.max(np.abs(wg @ gram @ wg - wg)) <= 1e-13 * np.max(np.abs(wg)), d
        if d >= m:
            assert np.max(np.abs(gram @ wg - np.eye(len(gram)))) <= 1e-13, d
        rank = sum(_irrep_dim(shape) ** 2 for shape in partitions(m) if len(shape) <= d)
        assert np.linalg.matrix_rank(gram, hermitian=True) == rank, d


def test_weingarten_values():
    assert weingarten((1, 1), 2) == Fraction(1, 3)
    assert weingarten((2,), 2) == Fraction(-1, 6)
    # the closed-form denominator at d = 4 is a = 1260, giving -5/5040
    assert weingarten((4,), 4) == Fraction(-1, 1008)
    # below d = m: the partitions with more than d rows are left out
    assert weingarten((5,), 3) == Fraction(113, 302400)


def test_weingarten_singular_below_m():
    # the Gram matrix is singular for d < m, and its pseudo-inverse still gives
    # the Haar average: at d = 1, U is a phase, G is all ones, Wg = 1/(m!)^2
    # and E^(2m) is the product of the 1 x 1 operators
    gen = np.random.default_rng(1001)
    for m in range(1, 6):
        for cls in partitions(m):
            assert weingarten(cls, 1) == Fraction(1, math.factorial(m) ** 2), (m, cls)
        xs = [random_complex(gen, 1) for _ in range(2 * m - 1)]
        product = math.prod(x[0, 0] for x in xs)
        assert abs(moment_function(xs, 1)[0, 0] - product) <= 1e-14 * abs(product), m
    # the closed form divides by d (d^2 - 1)
    with pytest.raises(DimensionError):
        fourth_moment_closed(*[np.eye(1)] * 3, 1)


def test_weingarten_refuses_orders_beyond_the_plans():
    with pytest.raises(ValueError, match="unsupported order m=6"):
        weingarten((6,), 3)


@pytest.mark.parametrize(
    "fn, args, error, match",
    [
        (weingarten, ((2,), 0), DimensionError, "d must be >= 1"),
        (weingarten, ((1, 1), -2), DimensionError, "d must be >= 1"),
        (weingarten, ((1, 1), 1.5), DimensionError, "an integer"),
        (weingarten, ((1, 1), True), DimensionError, "an integer"),
        (weingarten, ((1, 2), 3), ValueError, "weakly decreasing"),
        (weingarten, ((2, 0), 3), ValueError, "weakly decreasing"),
        (weingarten, ((), 3), ValueError, "weakly decreasing"),
        (weingarten, ((1.0, 1), 3), ValueError, "weakly decreasing"),
    ],
    ids=["d0", "d-2", "d1.5", "dTrue", "class12", "class20", "class-empty", "class-float"],
)
def test_weingarten_refuses_bad_dimensions_and_classes(fn, args, error, match):
    # d is an integer >= 1 and a class weakly decreasing positive integers;
    # anything else is refused, never answered or a bare KeyError
    _wg_matrix(2, 1)  # a d = 1 matrix built first must not answer d = True
    with pytest.raises(error, match=match):
        fn(*args)


def test_second_moment():
    out = moment_function([np.diag([2.0, 3.0])], 2)
    assert np.allclose(out, 2.5 * np.eye(2), atol=1e-14)


def test_fourth_moment_identity_sandwich(gen):
    x = random_complex(gen, 3)
    out = moment_function([np.eye(3), x, np.eye(3)], 3)
    assert np.allclose(out, x, atol=1e-12)


def test_fourth_moment_inner_identity(gen):
    x1, x3 = random_complex(gen, 3), random_complex(gen, 3)
    out = moment_function([x1, np.eye(3), x3], 3)
    assert np.allclose(out, np.trace(x1 @ x3) / 3 * np.eye(3), atol=1e-12)


def test_fourth_moment_closed_matches_general(gen):
    for d in (2, 3, 4):
        for _ in range(17):
            xs = [random_complex(gen, d) for _ in range(3)]
            a = moment_function(xs, d)
            b = fourth_moment_closed(*xs, d)
            assert np.max(np.abs(a - b)) <= 1e-10
    for _ in range(16):
        xs = [random_complex(gen, 2) for _ in range(3)]
        assert np.max(np.abs(moment_function(xs, 2) - fourth_moment_closed(*xs, 2))) <= 1e-10


def test_moment_function_linearity(gen):
    d = 3
    xs = [random_complex(gen, d) for _ in range(5)]
    y = random_complex(gen, d)
    alpha, beta = 0.7 - 0.2j, -1.3 + 0.9j
    for slot in (0, 1, 4):
        combo = list(xs)
        combo[slot] = alpha * xs[slot] + beta * y
        lhs = moment_function(combo, d)
        a = moment_function(xs, d)
        with_y = list(xs)
        with_y[slot] = y
        b = moment_function(with_y, d)
        assert np.max(np.abs(lhs - (alpha * a + beta * b))) <= 1e-10


def test_sixth_moment_thermal_identity(gen):
    # doubled basis sum over E^(6)(e^{-bD}/Z, I x |j><l|, e^{-iDt}, rho, e^{iDt})
    # collapses to 2/d_S for any spectrum, beta, t and state
    ds = de = 2
    d = ds * de
    levels = gen.standard_normal(d)
    beta, t = 0.7, 1.3
    boltz = np.exp(-beta * levels)
    x1 = np.diag(boltz / boltz.sum()).astype(complex)
    x3 = np.diag(np.exp(-1j * levels * t))
    x5 = np.diag(np.exp(1j * levels * t))
    a = random_complex(gen, d)
    rho0 = a @ a.conj().T
    rho0 /= np.trace(rho0).real
    total = 0.0
    eye_e = np.eye(de)
    for j in range(de):
        for l in range(de):
            x2 = np.kron(np.eye(ds), np.outer(eye_e[:, j], eye_e[:, l]))
            e6 = moment_function([x1, x2, x3, rho0, x5], d)
            for i in range(ds):
                total += e6[i * de + j, i * de + l]
    assert 2 * total == pytest.approx(2 / ds, abs=1e-10)


def test_u00_moments_against_formula_and_sampling():
    # <|U00|^(2m)> = m! (d-1)! / (d+m-1)!
    d, n = 3, 1_000_000
    p0 = np.zeros((d, d), dtype=complex)
    p0[0, 0] = 1.0
    assert moment_function([p0], d)[0, 0].real == pytest.approx(1 / d, abs=1e-14)
    assert moment_function([p0] * 3, d)[0, 0].real == pytest.approx(
        2 / (d * (d + 1)), abs=1e-14
    )
    u00 = np.empty(n, dtype=complex)
    chunk = 50_000
    for i in range(n // chunk):
        u = haar_unitaries(d, chunk, RngStream(55, i))
        u00[i * chunk : (i + 1) * chunk] = u[:, 0, 0]
    for m, target in ((1, 1 / d), (2, 2 / (d * (d + 1)))):
        vals = np.abs(u00) ** (2 * m)
        se = vals.std(ddof=1) / np.sqrt(n)
        assert sigma_ratio(target, vals.mean(), se) <= 1


def test_trace_preservation_against_mc(gen):
    d = 3
    xs = [random_complex(gen, d) for _ in range(5)]
    ana = np.trace(moment_function(xs, d))
    (est,) = empirical_moments([xs], d, 20_000, RngStream(66))
    mc_trace = np.trace(est.mean)
    se = float(np.sqrt(np.sum(np.diag(est.stderr) ** 2)))
    assert sigma_ratio(ana, mc_trace, se) <= 1


def test_moment_function_rejects_bad_patterns(gen):
    with pytest.raises(ValueError):
        moment_function([np.eye(2)] * 2, 2)
    with pytest.raises(ValueError, match="between 1 and 9"):
        moment_function([np.eye(6)] * 11, 6)


def test_moment_function_checks_dimensions_first():
    # mixed shapes would fail to stack with a plain ValueError
    with pytest.raises(DimensionError):
        moment_function([np.eye(3), np.eye(2), np.eye(3)], 3)
    with pytest.raises(DimensionError):
        moment_function([np.eye(2)] * 3, 3)
    with pytest.raises(DimensionError):
        moment_function([np.ones((3, 2))], 3)
    # every operator is checked before their count
    with pytest.raises(DimensionError):
        moment_function([np.eye(2)] * 2, 3)
    with pytest.raises(DimensionError, match="matrix dim 3 != d = 2"):
        fourth_moment_closed(np.eye(2), np.eye(3), np.eye(2), 2)
    # a d that is not an integer is refused, even where the operators fit it
    for d, x in ((2.0, np.eye(2)), (True, np.eye(1))):
        with pytest.raises(DimensionError, match="d must be >= 1 and an integer"):
            moment_function([x], d)
    with pytest.raises(DimensionError, match="d must be >= 2 and an integer"):
        fourth_moment_closed(*[np.eye(2)] * 3, 2.0)


def test_moment_function_takes_any_iterable(gen):
    xs = [random_complex(gen, 3) for _ in range(5)]
    want = moment_function(xs, 3)
    np.testing.assert_array_equal(moment_function(tuple(xs), 3), want)
    np.testing.assert_array_equal(moment_function((x for x in xs), 3), want)


def test_moment_function_keeps_the_blas_rule():
    # the open-word sum is one real GEMM of m n k = 4 nodes d^2, which
    # OpenBLAS keeps on the calling thread within REAL_GEMM_CAP, and each
    # trace is a dot product of d^2 entries, unthreaded at d^2 <= 1024
    for m in range(1, 6):
        nodes = len(_plan(m).free_sums)
        for d in range(1, 33):
            assert 4 * nodes * d * d <= REAL_GEMM_CAP, (m, d)
            assert d * d <= 1024, (m, d)
    assert 4 * len(_plan(5).free_sums) * 32**2 == 495_616


def _reference_moment(xs, d):
    """The per-permutation Collins-Sniady sum that the compiled plan replaced:
    every product and trace built one word at a time."""
    m = (len(xs) + 1) // 2
    perms = all_permutations(m)
    odd_ops, even_ops = xs[0::2], xs[1::2]

    def product(ops, word):
        return reduce(np.matmul, (ops[i] for i in word), np.eye(d, dtype=complex))

    def traced(ops, words_per_perm):
        out = np.ones(len(words_per_perm), dtype=complex)
        for i, words in enumerate(words_per_perm):
            for word in words:
                out[i] *= np.trace(product(ops, word))
        return out

    free, even = [], []
    for sigma in perms:
        open_cycle, *closed = cycles_of(tuple((sigma[a] + 1) % m for a in range(m)))
        free.append(tuple(b - 1 for b in open_cycle[1:]))
        even.append([tuple(b - 1 for b in cyc) for cyc in closed])
    odd = [cycles_of(inverse(tau)) for tau in perms]
    coef = (_wg_matrix(m, d) @ traced(odd_ops, odd)) * traced(even_ops, even)
    return sum(c * product(even_ops, word) for word, c in zip(free, coef))


@pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
def test_compiled_contraction_matches_reference(m):
    gen = np.random.default_rng([1313, m])
    for d in (m, m + 1, 8, 32):
        ops = [random_complex(gen, d) / np.sqrt(d) for _ in range(2 * m - 1)]
        v, w = gen.standard_normal((2, d)) + 1j * gen.standard_normal((2, d))
        rank_one = np.outer(v, w.conj()) / d
        patterns = [ops]
        for slot in {0, m - 1, 2 * m - 2}:
            patterns.append(ops[:slot] + [np.eye(d)] + ops[slot + 1 :])
            patterns.append(ops[:slot] + [rank_one] + ops[slot + 1 :])
        for xs in patterns:
            ref = _reference_moment(xs, d)
            got = moment_function(xs, d)
            assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref)), (m, d)


def test_plan_classes_match_pairwise_construction():
    for m in range(1, 6):
        perms = all_permutations(m)
        pairwise = [
            [conjugacy_class_of(compose(tau, inverse(sigma))) for tau in perms] for sigma in perms
        ]
        classes = [[partitions(m)[k] for k in row] for row in _plan(m).classes]
        assert classes == pairwise, m


def test_contraction_plan_size():
    # distinct odd traced, even traced and open words, and d x d products
    sizes, products = [], []
    for m in range(1, 6):
        plan = _plan(m)
        pad = len(plan.lasts)
        sizes.append(
            (
                len(np.setdiff1d(plan.odd_words, [pad])),
                len(np.setdiff1d(plan.even_words, [pad])),
                int(np.count_nonzero(plan.free_sums.any(axis=1))),
            )
        )
        products.append(sum(len(parent) for parent, _ in plan.steps))
    assert sizes == [(1, 0, 1), (3, 1, 2), (8, 3, 5), (24, 8, 16), (89, 24, 65)]
    assert products == [0, 0, 4, 23, 111]


def _on_fresh_thread(fn):
    out = []
    worker = threading.Thread(target=lambda: out.append(fn()))
    worker.start()
    worker.join(timeout=60)
    assert not worker.is_alive()
    return out[0]


def test_concurrent_moment_function_calls_match_serial_bits():
    # every call allocates its own product stack, so concurrent calls are the
    # serial calls bit for bit; more threads than cores, switching often
    gen = np.random.default_rng(61)
    calls = [
        ([random_complex(gen, d) for _ in range(order - 1)], d)
        for order in range(2, 11, 2)
        for d in (1, 2, 5, 16)
    ] * 5
    serial = [moment_function(xs, d) for xs, d in calls]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with ThreadPoolExecutor(4) as pool:
            parallel = list(pool.map(lambda call: moment_function(*call), calls, timeout=60))
    finally:
        sys.setswitchinterval(interval)
    for want, got in zip(serial, parallel):
        np.testing.assert_array_equal(got, want)


def test_moment_function_after_a_larger_call_matches_a_fresh_thread():
    # a small call after a large one on the same thread reads nothing the
    # large one left behind: it returns the bits of the same call made alone
    # on a new thread
    gen = np.random.default_rng(62)
    calls = [
        ([random_complex(gen, d) for _ in range(order - 1)], d)
        for order, d in [(10, 32), (4, 3), (2, 1)]
    ]
    got = _on_fresh_thread(lambda: [moment_function(xs, d) for xs, d in calls])
    for (xs, d), value in zip(calls, got):
        np.testing.assert_array_equal(value, _on_fresh_thread(lambda: moment_function(xs, d)))


@pytest.mark.parametrize("d", [1, 2, 3, 5, 6, 9])
def test_u00_moments_all_orders(d):
    # <|U00|^(2m)> = m! (d-1)! / (d+m-1)!, the (0, 0) entry of E^(2m)(P0, ..., P0)
    p0 = np.zeros((d, d))
    p0[0, 0] = 1.0
    for m in range(1, 6):
        exact = math.factorial(m) * math.factorial(d - 1) / math.factorial(d + m - 1)
        value = moment_function([p0] * (2 * m - 1), d)[0, 0]
        assert value.real == pytest.approx(exact, rel=1e-14), m
        assert abs(value.imag) <= 1e-14 * exact


def _near_identity_unitary(gen, d, s):
    ev, v = np.linalg.eigh(random_hermitian(gen, d))
    return (v * np.exp(1j * s * ev)) @ v.conj().T


@pytest.mark.parametrize("d, order", [(3, 8), (3, 10), (4, 10), (5, 10)])
def test_tenth_moment_against_mc(d, order):
    # unitary operators keep each word unitary, so the entrywise stderr is
    # small enough to resolve misordered odd-side traces or free words; the
    # d < order / 2 cases take the Gram pseudo-inverse
    n = 40_000
    gen = np.random.default_rng(1010)
    xs = [_near_identity_unitary(gen, d, 0.4) for _ in range(order - 1)]
    exact = moment_function(xs, d)
    (est,) = empirical_moments([xs], d, n, RngStream(1010))
    assert sigma_ratio(exact, est.mean, est.stderr) <= 1


def test_tenth_moment_identity_slots(gen):
    # U X1 U^dag I U X3 U^dag ... = U (X1 X3) U^dag ...: an identity in any
    # inner slot reduces E^(10) to E^(8) of the merged word
    d = 5
    xs = [random_complex(gen, d) / np.sqrt(d) for _ in range(9)]
    for slot in range(1, 8):
        with_identity = xs[:slot] + [np.eye(d)] + xs[slot + 1 :]
        merged = xs[: slot - 1] + [xs[slot - 1] @ xs[slot + 1]] + xs[slot + 2 :]
        lhs, rhs = moment_function(with_identity, d), moment_function(merged, d)
        assert np.max(np.abs(lhs - rhs)) <= 1e-13 * np.max(np.abs(rhs)), slot


def _pinned_inputs(m, d):
    gen = np.random.default_rng([2013, m, d])
    return [random_complex(gen, d) / np.sqrt(d) for _ in range(2 * m - 1)]


# moment_function values from the character-table route that the Gram-inverse
# route replaced: (m, d, E[0, 0], E[d - 1, 1], Tr E) on _pinned_inputs(m, d)
CHARACTER_TABLE_MOMENTS = [
    (3, 3,
     (-0.1176021655527763-0.11326703928671722j),
     (0.018167521201995572+0.049771892041856725j),
     (-0.03862629757755226-0.1525273992031232j)),
    (3, 4,
     (0.15511560437857563+0.05410477282750545j),
     (0.017967084012368247+0.005569689247359759j),
     (0.45129332724839116+0.28448476946075685j)),
    (3, 8,
     (0.014123775306120037+0.003981413254754301j),
     (0.01443849401334114+0.006309844842064529j),
     (0.1196318395471312+0.006727464502149495j)),
    (4, 4,
     (-0.0501938260467078+0.12154221141318106j),
     (0.10052836952398402-0.11309513812042024j),
     (-0.20772163694862522+0.12004726049976108j)),
    (4, 8,
     (0.0018052900648366035+0.005782586633643053j),
     (-0.001814308249083708+0.001448960380279468j),
     (0.00337139085848204+0.04445844781428944j)),
]


def test_moment_function_matches_character_table_route():
    for m, d, e00, e_last1, tr in CHARACTER_TABLE_MOMENTS:
        value = moment_function(_pinned_inputs(m, d), d)
        for got, ref in ((value[0, 0], e00), (value[d - 1, 1], e_last1), (np.trace(value), tr)):
            assert abs(got - ref) <= 1e-13 * abs(ref), (m, d)


def _binary_icosahedral_group():
    """The 120 unit quaternions of the binary icosahedral group as SU(2)
    matrices: the 24 Hurwitz units, and the 96 even permutations of
    (+-phi, +-1, +-1/phi, 0) / 2.  It is a unitary 5-design (Gross, Audenaert
    & Eisert, J. Math. Phys. 48, 052104 (2007)), so its average equals the
    Haar average of any word with at most five U and five U^dag."""
    phi = (1 + math.sqrt(5)) / 2
    quats = [tuple(s * (k == j) for k in range(4)) for j in range(4) for s in (1, -1)]
    quats += list(itertools.product((0.5, -0.5), repeat=4))
    for perm in itertools.permutations(range(4)):
        inversions = sum(perm[i] > perm[j] for i in range(4) for j in range(i + 1, 4))
        if inversions % 2 == 0:
            for signs in itertools.product((1, -1), repeat=3):
                base = [s * v / 2 for s, v in zip(signs, (phi, 1.0, 1 / phi))] + [0.0]
                quats.append(tuple(base[perm[k]] for k in range(4)))
    a, b, c, e = np.array(quats).T
    return np.stack([[a + 1j * b, c + 1j * e], [-c + 1j * e, a - 1j * b]]).transpose(2, 0, 1)


def test_binary_icosahedral_group_is_a_5_design_only():
    group = _binary_icosahedral_group()
    assert len(group) == 120
    # closed under products, each product one of the 120 elements
    keys = {tuple(np.round(g.ravel(), 12)) for g in group}
    products = np.round((group[:, None] @ group[None]).reshape(-1, 4), 12)
    assert len(keys) == 120 and {tuple(p) for p in products} == keys
    # frame potentials: the Catalan numbers of U(2) up to t = 5, not at t = 6
    traces = np.abs(np.trace(group, axis1=1, axis2=2)) ** 2
    potentials = [float(np.mean(traces**t)) for t in range(1, 7)]
    assert potentials == pytest.approx([1, 2, 5, 14, 42, 133], rel=1e-12)


@pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
def test_moment_function_matches_design_at_d2(m):
    # exact oracle for d = 2 < m: the group average of U X1 U^dag X2 U ... U^dag
    group = _binary_icosahedral_group()
    gen = np.random.default_rng([1202, m])
    for _ in range(4):
        xs = [random_complex(gen, 2) for _ in range(2 * m - 1)]
        word = group
        for k, x in enumerate(xs):
            word = word @ x @ (group.conj().transpose(0, 2, 1) if k % 2 == 0 else group)
        exact = word.mean(axis=0)
        got = moment_function(xs, 2)
        assert np.max(np.abs(got - exact)) <= 1e-12 * np.max(np.abs(exact)), m
