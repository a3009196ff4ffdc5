"""Independent oracles for the b-function engine.

The sympy oracle builds each selected semi-invariant f_j = det d^V_{S_j} on
Rep(Q, alpha) with a symbolic V and checks the defining identity

    f*(d)^m f^{s+m} = kappa_m * b_m(s) * f^s

at integer points s, where f*(d) replaces each coordinate of f by the
partial derivative in it (f has rational coefficients, so f* = f).  The
constant kappa_m depends only on how f is scaled, never on s; applying the
f_j(d) one at a time gives kappa_m = prod_j kappa_{e_j}^{m_j}.

The degree oracle needs no sympy: a homogeneous f_j satisfies
f_j(2V) = 2^{deg f_j} f_j(V), and b_m must have the degree of f^m in s.
"""

import itertools
import random
from fractions import Fraction

import pytest

from qsing.brackets import (
    BracketTerm,
    compute_bfunction,
    expand,
    family_from_terms,
)
from qsing.decomp import generic_decomposition, perp_simples
from qsing.orbits import make_spec

from oracles import (evaluate, evaluate_semiinvariant, generator_bc,
                     hom_matrix_dvw, realize, rep)


def _coordinates(q, dims):
    """Coordinates of Rep(Q, dims): (arrow index, row, column)."""
    return [(ai, i, j) for ai, (t, h) in enumerate(q.arrows)
            for i in range(dims[h - 1]) for j in range(dims[t - 1])]


def _symbolic_semiinvariants(sympy, q, alpha, simples):
    """[Poly f_j] with f_j = det d^V_{S_j} in the coordinates of V.

    d^V_S is affine in V, so its symbolic matrix is d^0_S plus, for every
    coordinate x_k, x_k times (d^{E_k}_S - d^0_S), with E_k the
    representation whose only nonzero entry is a 1 at coordinate k.
    """
    coords = _coordinates(q, alpha)
    gens = sympy.symbols(f"x0:{len(coords)}")
    fs = []
    for root in simples:
        s = realize(q, root)
        base = hom_matrix_dvw(rep(q, alpha, {}), s)
        mat = sympy.Matrix(base.nrows, base.ncols,
                           lambda r, c: sympy.Rational(base.rows[r][c]))
        for x, coord in zip(gens, coords):
            unit = hom_matrix_dvw(rep(q, alpha, {coord: 1}), s)
            for r in range(base.nrows):
                for c in range(base.ncols):
                    d = unit.rows[r][c] - base.rows[r][c]
                    if d:
                        mat[r, c] += sympy.Rational(d) * x
        fs.append(sympy.Poly(mat.det(method="berkowitz"), *gens))
    return fs


def _apply_dual(f, g):
    """f*(d) g for polynomials over the rationals (f* = f)."""
    out = g * 0
    for mon, coeff in f.terms():
        spec = [(x, e) for x, e in zip(g.gens, mon) if e]
        out += (g.diff(*spec) if spec else g) * coeff
    return out


def _power(fs, exps):
    out = fs[0].one
    for f, e in zip(fs, exps):
        out = out * f ** e
    return out


def _dual_power_applied(fs, m, g):
    """f*(d)^m g = prod_j f_j*(d)^{m_j} g."""
    for f, mj in zip(fs, m):
        for _ in range(mj):
            g = _apply_dual(f, g)
    return g


def _kappa(sympy, fs, fam, m, s):
    """The constant kappa with f*(d)^m f^{s+m} = kappa * b_m(s) * f^s.

    Fails unless f^s divides the left side with a constant quotient."""
    lhs = _dual_power_applied(
        fs, m, _power(fs, [a + b for a, b in zip(s, m)]))
    quo, rem = lhs.div(_power(fs, s))
    assert rem.is_zero, f"f^s does not divide f*(d)^m f^(s+m) at m={m}, s={s}"
    assert quo.is_ground, f"quotient is not constant at m={m}, s={s}"
    b = evaluate(fam, m, s)
    assert b != 0
    return quo.LC() / sympy.Rational(b)


@pytest.fixture(scope="module")
def a4_oracle(a4):
    """A4 (1->2->3->4), alpha = (1,2,2,1): 8 coordinates, two simples."""
    sympy = pytest.importorskip("sympy")
    alpha = (1, 2, 2, 1)
    simples = perp_simples(a4, generic_decomposition(a4, alpha)).simples
    fam = compute_bfunction(a4, alpha, simples)
    fs = _symbolic_semiinvariants(sympy, a4, alpha, simples)
    kappa = {m: _kappa(sympy, fs, fam, m, (0, 0)) for m in ((1, 0), (0, 1))}
    return sympy, fam, fs, kappa


def test_oracle_a4_identity(a4_oracle):
    """f*(d)^m f^{s+m} = kappa_m b_m(s) f^s on s in {0..3}^2.

    The family has a mixed bracket: [s]^{01}_{0,2} [s]^{10}_{0,1}
    [s]^{11}_{1,2}.  For these m every b_m has degree at most 3 in each
    s_i, so the 4 x 4 grid determines b_m; one kappa for all s means the
    engine's b_m is the b-function up to the scale of f.
    """
    sympy, fam, fs, kappa = a4_oracle
    assert fam.offsets == family_from_terms(2, [
        BracketTerm((0, 1), 0, 2), BracketTerm((1, 0), 0, 1),
        BracketTerm((1, 1), 1, 2),
    ]).offsets
    assert all(k != 0 for k in kappa.values())
    expected = {**kappa, (1, 1): kappa[(1, 0)] * kappa[(0, 1)]}
    for m in ((1, 0), (0, 1), (1, 1)):
        for s in itertools.product(range(4), repeat=2):
            assert _kappa(sympy, fs, fam, m, s) == expected[m], (m, s)


def test_oracle_a4_generator_shift(a4_oracle):
    """The c- shift of the oracle's ``generator_bc``.

    With c+ and c- the positive and negative parts of c,
    f^{-c-} f*(d)^{c+} f^{s+c} = b_{c+}(s + c-) f^s, and b_{c+}(s + c-) is
    the product of the factors of ``oracles.generator_bc(fam, c)`` (the
    binomials of b_c are the extra factor that puts b_c in B~).  Checked
    at every s in {0..2}^2 with s + c >= 0.  So sympy checks the oracle,
    and the oracle checks the package's root hyperplanes
    (``tests/test_bsato.py``).
    """
    sympy, fam, fs, kappa = a4_oracle
    for c in ((2, -1), (-1, 2), (3, -2)):
        cplus = tuple(max(x, 0) for x in c)
        cminus = tuple(x - p for x, p in zip(c, cplus))
        factors = generator_bc(fam, c)[0]
        scale = kappa[(1, 0)] ** cplus[0] * kappa[(0, 1)] ** cplus[1]
        for s in itertools.product(range(3), repeat=2):
            if any(a + b < 0 for a, b in zip(s, c)):
                continue
            lhs = _power(fs, [-x for x in cminus]) * _dual_power_applied(
                fs, cplus, _power(fs, [a + b for a, b in zip(s, c)]))
            value = Fraction(1)
            for (g, const), cnt in factors.items():
                value *= (sum(gi * si for gi, si in zip(g, s)) + const) ** cnt
            assert lhs == _power(fs, s) * (scale * sympy.Rational(value)), (c, s)


def _degree(v, v2, s):
    """deg of the homogeneous f = det d^V_S from f(2V) = 2^deg f(V)."""
    base = evaluate_semiinvariant(v, s)
    assert base != 0, "V must lie off the zero set of the semi-invariant"
    ratio = evaluate_semiinvariant(v2, s) / base
    assert ratio.denominator == 1 and ratio.numerator & (ratio.numerator - 1) == 0
    return ratio.numerator.bit_length() - 1


@pytest.mark.parametrize("n", [1, 2])
def test_e8_pos_degree(e8, e8_alpha, n):
    """deg b_m = sum_j m_j deg f_j for the e8-pos family, deg f = (7n, 19n)."""
    alpha = e8_alpha(n)
    spec = make_spec(e8, alpha, (2, 4))
    fam = compute_bfunction(e8, alpha, spec.selected_simples)
    rng = random.Random(0)
    values = {x: rng.randint(-3, 3) for x in _coordinates(e8, alpha)}
    v = rep(e8, alpha, values)
    v2 = rep(e8, alpha, {x: 2 * a for x, a in values.items()})
    deg_f = [_degree(v, v2, realize(e8, root)) for root in spec.selected_simples]
    assert deg_f == [7 * n, 19 * n]
    for m in ((1, 0), (0, 1), (1, 1), (2, 3)):
        deg_b = sum(expand(fam, m).values())
        assert deg_b == sum(mj * d for mj, d in zip(m, deg_f)), m
