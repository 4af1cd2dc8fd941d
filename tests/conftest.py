import mpmath
import numpy as np
import pytest

import edgemle as e


def mp_ulps(got, exact):
    """|got - exact| in units of the float spacing at the mpmath value ``exact``.

    The spacing of a subnormal, or of 0, is the least subnormal.
    """
    return float(abs(mpmath.mpf(float(got)) - exact)
                 / max(np.spacing(abs(float(exact))), 5e-324))


def logistic_table(built):
    """x, f, f1..f6 of the logistic ``built`` on 1401 points of [-14, 14]."""
    x = np.linspace(-14, 14, 1401)
    f = built.pdf(x)
    return {"x": x, "f": f, **{f"f{j}": p * f for j, p in enumerate(built.psi_chain(x, 6), 1)}}


@pytest.fixture(scope="session")
def normal_model():
    return e.normal()


@pytest.fixture(scope="session")
def logistic_model():
    return e.logistic()


@pytest.fixture(scope="session")
def t7_model():
    return e.student_t(7)


@pytest.fixture(scope="session")
def normal_moments(normal_model):
    return e.compute_moment_set(normal_model)


@pytest.fixture(scope="session")
def logistic_moments(logistic_model):
    return e.compute_moment_set(logistic_model)


@pytest.fixture(scope="session")
def t7_moments(t7_model):
    return e.compute_moment_set(t7_model)


#: exact values for the logistic family, from t = tanh(x/2) distributed as
#: 2U - 1 with U uniform: E t^(2k) = 1/(2k+1), psi1 = -t, psi2 = (3t^2-1)/2,
#: psi3 = 2t - 3t^3.
LOGISTIC_EXACT = {
    "fisher": 1.0 / 3.0,
    "eta": {2: 9 / 5, 3: 0.0, 4: 9 / 5, 5: 0.0, 6: 0.0,
            7: 27 / 7, 8: 54 / 35, 9: 207 / 35, 10: 72 / 35},
    "a": (0.0, 1 / 3, 0.0, -1 / 15, 0.0, 1 / 21),
}

#: Gaussian moment identities: psi1 = -x, psi2 = x^2-1, psi3 = 3x - x^3.
NORMAL_EXACT = {
    "fisher": 1.0,
    "eta": {2: 2.0, 3: 0.0, 4: 3.0, 5: 0.0, 6: 0.0, 7: 15.0, 8: 8.0, 9: 6.0, 10: 6.0},
    "a": (0.0, 1.0, 0.0, 0.0, 0.0, 0.0),
}
