import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sparsemotion.liegroup import (
    RigidTransform,
    Twist,
    exp_twist_vector,
    skew,
)


def vec3(rng, scale=1.0):
    return rng.uniform(-scale, scale, 3)


def unit3(rng):
    v = rng.normal(size=3)
    return v / np.linalg.norm(v)


def exp_of(xi: Twist, theta):
    """exp_twist_vector of theta times the twist xi, the 6-vector (v, w)."""
    return exp_twist_vector(theta * np.concatenate([xi.linear, xi.angular]))


def unit_form_exp(rho):
    """(R, t) of the twist 6-vector rho = (v, w) in two steps: the unit
    twist xi = (v, w)/|w|, then the closed form of exp(theta xi) at
    theta = |w|; the translation v below |w| = 1e-8."""
    v, w = rho[:3], rho[3:]
    angle = np.linalg.norm(w)
    if angle < 1e-8:
        return np.eye(3), v
    xi = Twist(angular=w / angle, linear=v / angle)
    K = skew(xi.angular)
    s, c = np.sin(angle), np.cos(angle)
    R = np.eye(3) + s * K + (1.0 - c) * (K @ K)
    t = ((np.eye(3) - R) @ np.cross(xi.angular, xi.linear)
         + np.outer(xi.angular, xi.angular) @ xi.linear * angle)
    return R, t


def random_transform(rng):
    xi = Twist(angular=unit3(rng), linear=vec3(rng))
    return exp_of(xi, rng.uniform(-math.pi, math.pi))


class TestSkew:
    def test_zero(self):
        assert np.array_equal(skew(np.zeros(3)), np.zeros((3, 3)))

    def test_cross_product_identity(self):
        out = skew(np.array([1.0, 0, 0])) @ np.array([0.0, 1, 0])
        np.testing.assert_allclose(out, [0, 0, 1], atol=1e-15)

    def test_matches_cross_product(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            p, q = vec3(rng, 5), vec3(rng, 5)
            np.testing.assert_allclose(skew(p) @ q, np.cross(p, q), atol=1e-14)

    def test_antisymmetric(self):
        rng = np.random.default_rng(1)
        S = skew(vec3(rng))
        np.testing.assert_allclose(S, -S.T, atol=0)


class TestRigidTransform:
    def test_identity(self):
        T = RigidTransform.identity()
        np.testing.assert_array_equal(T.matrix(), np.eye(4))
        assert T.is_valid(tol=0.0)

    def test_renormalized_restores_orthogonality(self):
        rng = np.random.default_rng(4)
        T = random_transform(rng)
        drifted = RigidTransform(T.rotation + 1e-6 * rng.normal(size=(3, 3)),
                                 T.translation)
        fixed = drifted.renormalized()
        np.testing.assert_allclose(fixed.rotation.T @ fixed.rotation, np.eye(3),
                                   atol=1e-12)
        assert abs(np.linalg.det(fixed.rotation) - 1.0) < 1e-12


class TestExpTwist:
    def test_zero_angle_is_identity(self):
        rng = np.random.default_rng(5)
        xi = Twist(angular=unit3(rng), linear=vec3(rng))
        T = exp_of(xi, 0.0)
        np.testing.assert_allclose(T.rotation, np.eye(3), atol=1e-15)
        np.testing.assert_allclose(T.translation, 0, atol=1e-15)

    def test_quarter_turn_about_z(self):
        xi = Twist(angular=np.array([0.0, 0, 1]), linear=np.zeros(3))
        T = exp_of(xi, math.pi / 2)
        np.testing.assert_allclose(T.rotation @ [1.0, 0, 0] + T.translation,
                                   [0, 1, 0], atol=1e-14)

    def test_matches_matrix_exponential_series(self):
        rng = np.random.default_rng(6)
        for _ in range(10):
            xi = Twist(angular=unit3(rng), linear=vec3(rng))
            theta = 0.3
            X = xi.hat() * theta
            series = np.eye(4)
            term = np.eye(4)
            for k in range(1, 21):
                term = term @ X / k
                series = series + term
            np.testing.assert_allclose(exp_of(xi, theta).matrix(), series,
                                       atol=1e-10)

    def test_angle_additivity(self):
        rng = np.random.default_rng(7)
        xi = Twist(angular=unit3(rng), linear=vec3(rng))
        a, b = 0.4, -0.9
        lhs = exp_of(xi, a).compose(exp_of(xi, b))
        rhs = exp_of(xi, a + b)
        np.testing.assert_allclose(lhs.matrix(), rhs.matrix(), atol=1e-10)

    @given(st.floats(-math.pi, math.pi), st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_output_is_rigid_transform(self, theta, seed):
        rng = np.random.default_rng(seed)
        xi = Twist(angular=unit3(rng), linear=vec3(rng))
        T = exp_of(xi, theta)
        assert T.is_valid(tol=1e-10)

    def test_small_angle_branch_continuous(self):
        """1e-9 takes the pure-translation return below _SMALL_ANGLE, 1e-7
        the closed form."""
        rng = np.random.default_rng(8)
        xi = Twist(angular=unit3(rng), linear=vec3(rng))
        near = exp_of(xi, 1e-9)
        far = exp_of(xi, 1e-7)
        np.testing.assert_allclose(near.translation / 1e-9,
                                   far.translation / 1e-7, rtol=1e-5)

    def test_pure_translation_twist(self):
        xi = Twist(angular=np.zeros(3), linear=np.array([1.0, -2, 0.5]))
        T = exp_of(xi, 2.0)
        np.testing.assert_allclose(T.rotation, np.eye(3), atol=1e-15)
        np.testing.assert_allclose(T.translation, [2.0, -4, 1.0], atol=1e-14)

    def test_exp_twist_vector_matches_unit_form(self):
        """Bit for bit the two-step form: the unit twist (v, w)/|w|, then its
        closed form through the angle |w|."""
        rng = np.random.default_rng(9)
        n = 10_000
        axes = rng.normal(size=(n, 3))
        axes /= np.linalg.norm(axes, axis=1)[:, None]
        w = axes * 10.0 ** rng.uniform(-9, math.log10(3.0), n)[:, None]
        rhos = np.hstack([rng.uniform(-1, 1, (n, 3)), w])
        got = [exp_twist_vector(rho) for rho in rhos]
        want = [unit_form_exp(rho) for rho in rhos]
        np.testing.assert_array_equal([T.rotation for T in got],
                                      [R for R, _ in want])
        np.testing.assert_array_equal([T.translation for T in got],
                                      [t for _, t in want])
