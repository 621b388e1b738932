from fractions import Fraction

from voacalc.exact import QQi, exact_det, gauss_solve


def test_exact_det_of_integer_matrix_is_fraction():
    det = exact_det([[2, 1], [1, 1]])
    assert isinstance(det, Fraction) and det == 1
    det = exact_det([[3, 1, 0], [1, 3, 1], [0, 1, 3]])
    assert isinstance(det, Fraction) and det == 21


def test_gauss_solve_of_integer_system_is_fraction():
    sol = gauss_solve([[2, 1], [1, 1]], [1, 0])
    assert all(isinstance(x, Fraction) for x in sol)
    assert sol == [1, -1]
    sol = gauss_solve([[3, 0], [0, 3]], [1, 2])
    assert all(isinstance(x, Fraction) for x in sol)
    assert sol == [Fraction(1, 3), Fraction(2, 3)]


def test_gauss_solve_gaussian_rationals():
    sol = gauss_solve([[QQi(0, 1), QQi(1)], [QQi(1), QQi(1)]],
                      [QQi(1), QQi(2)])
    # i x + y = 1, x + y = 2
    x, y = sol
    assert QQi(0, 1) * x + y == 1 and x + y == 2
