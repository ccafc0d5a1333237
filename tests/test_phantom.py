"""Closed-form Fourier samples checked against hand values and quadrature."""

import numpy as np
import pytest

from conftest import formula_samples, quadrature_samples, signals_allclose
from lpk.core import KGrid, centered_grid
from lpk.io import read_json, write_json
from lpk.phantom import (
    Modulator,
    Phantom,
    Primitive,
    fourier_samples,
    make_sensitivities,
    modulated_samples,
    samples_at,
    phantom_from_json,
    phantom_to_json,
)


def boxcar(center=0.0, half=0.25, amp=1.0, fov=1.0):
    return Phantom((Primitive("boxcar", (center,), (half,), amp),), (fov,))


def points(locs, amps, fov=1.0):
    prims = tuple(
        Primitive("point", (x,), (0.0,), a) for x, a in zip(locs, amps)
    )
    return Phantom(prims, (fov,))


class TestPrimitiveInvariants:
    def test_support_must_fit_fov(self):
        with pytest.raises(ValueError):
            boxcar(center=0.4, half=0.2)  # 0.4 + 0.2 > 0.5

    def test_point_extent_zero(self):
        with pytest.raises(ValueError):
            Phantom((Primitive("point", (0.1,), (0.05,), 1.0),), (1.0,))

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            Phantom((Primitive("blob", (0.0,), (0.1,), 1.0),), (1.0,))

    def test_empty_primitive_list(self):
        with pytest.raises(ValueError):
            Phantom((), (1.0,))


class TestFourierSamples:
    def test_half_fov_boxcar_closed_form(self):
        sig = fourier_samples(boxcar(), centered_grid(9, 1.0))
        # n = 0..3 sit at positions 4..7 of the grid [-4, 4].
        want = [0.5, 1 / np.pi, 0.0, -1 / (3 * np.pi)]
        np.testing.assert_allclose(sig.values[4:8], want, rtol=0, atol=1e-15)

    def test_point_source_exponential(self):
        sig = fourier_samples(points([0.25], [1.0]), centered_grid(9, 1.0))
        assert np.allclose(sig.values[4:8], [1, -1j, -1, 1j], atol=1e-15)

    def test_two_point_comb(self):
        sig = fourier_samples(points([0.0, -0.5], [1.0, 1.0]), centered_grid(9, 1.0))
        n = np.arange(-4, 5)
        assert np.allclose(sig.values, 1.0 + (-1.0) ** n, atol=1e-14)

    def test_additive_over_primitives(self):
        g = centered_grid(17, 1.0)
        a = boxcar(0.1, 0.15, 2.0)
        b = boxcar(-0.2, 0.1, 1.0 - 1.0j)
        both = Phantom(a.primitives + b.primitives, (1.0,))
        assert np.allclose(
            fourier_samples(both, g).values,
            fourier_samples(a, g).values + fourier_samples(b, g).values,
            rtol=1e-14,
        )

    def test_conjugate_symmetry_real_symmetric(self):
        sig = fourier_samples(boxcar(), centered_grid(33, 1.0))
        assert np.allclose(sig.values, np.conj(sig.values[::-1]), atol=1e-14)

    def test_fov_mismatch_rejected(self):
        with pytest.raises(ValueError):
            fourier_samples(boxcar(fov=2.0), centered_grid(9, 1.0))

    def test_fov_scaling(self):
        # Doubling B doubles the raw integral of the same-shaped support.
        wide = Phantom((Primitive("boxcar", (0.0,), (0.5,), 1.0),), (2.0,))
        sig = fourier_samples(wide, centered_grid(9, 2.0))
        assert sig.values[4] == pytest.approx(1.0)  # n = 0

    def test_ellipse_dc_is_area(self):
        ph = Phantom(
            (Primitive("ellipse", (0.0, 0.0), (0.3, 0.2), 1.0),), (1.0, 1.0)
        )
        sig = fourier_samples(ph, centered_grid((9, 9), (1.0, 1.0)))
        assert sig.values[4, 4] == pytest.approx(np.pi * 0.3 * 0.2, rel=1e-12)  # n = (0, 0)


class TestQuadratureOracle:
    """Trapezoid quadrature of the defining integral vs the closed forms."""

    @pytest.mark.parametrize(
        "ph",
        [
            boxcar(),
            boxcar(0.1, 0.2, 1.5 - 0.5j),
            Phantom(
                (
                    Primitive("boxcar", (-0.2, ), (0.1,), 2.0),
                    Primitive("boxcar", (0.25,), (0.15,), 1.0j),
                ),
                (1.0,),
            ),
        ],
    )
    def test_closed_forms_match_quadrature(self, ph):
        g = centered_grid(33, 1.0)
        exact = fourier_samples(ph, g)
        quad = quadrature_samples(ph, g)
        err = np.abs(exact.values - quad.values)
        scale = np.max(np.abs(exact.values))
        assert np.max(err) <= 1e-9 * scale

    def test_modulated_closed_form_matches_quadrature(self):
        ph = boxcar()
        mod = Modulator(np.array([1.0, 0.5]), (0,))  # c(x) = (1 + 0.5 e^{i2pix})/B
        g = centered_grid(17, 1.0)
        exact = modulated_samples(ph, mod, g)
        quad = quadrature_samples(ph, g, modulator=mod)
        assert np.max(np.abs(exact.values - quad.values)) <= 1e-9


class TestFormulaOracle:
    """The closed forms, evaluated on real arithmetic where they can be,
    against the formulas evaluated as written: equal bitwise."""

    AMPLITUDES = (1.0, -0.7, 0.6 + 0.2j, -1.5 - 0.5j, 2j, complex(-0.3, 0.0))

    @staticmethod
    def meshes(dims):
        """Index arrays through 0 (a full mesh, and in 2D a broadcast pair)
        and single indices."""
        if dims == 1:
            return [(np.arange(-40, 41),), (np.asarray(0),), (np.asarray(-3),)]
        n0, n1 = np.arange(-9, 10), np.arange(-6, 8)
        return [
            tuple(np.meshgrid(n0, n1, indexing="ij")), (n0[:, None], n1[None, :]),
            (np.asarray(0), np.asarray(2)),
        ]

    @pytest.mark.parametrize("kind", ["boxcar", "point"])
    @pytest.mark.parametrize("center", [
        (0.0,), (0.1,), (-0.2,), (0.0, 0.0), (0.15, 0.0), (0.0, -0.15), (0.2, -0.1),
    ])
    @pytest.mark.parametrize("fov", [0.5, 1.0, 2.0])
    def test_samples_are_the_formula_bitwise(self, kind, center, fov):
        dims = len(center)
        half = (0.2 * fov, 0.25 * fov)[:dims] if kind == "boxcar" else (0.0,) * dims
        for amp in self.AMPLITUDES:
            p = Primitive(kind, tuple(c * fov for c in center), half, amp)
            for mesh in self.meshes(dims):
                got = samples_at(Phantom((p,), (fov,) * dims), mesh)
                assert np.array_equal(got, formula_samples(p, mesh, (fov,) * dims))

    def test_random_boxcars_are_the_formula_bitwise(self):
        rng = np.random.default_rng(7)
        for _ in range(300):
            dims = int(rng.integers(1, 3))
            fov = tuple(rng.choice([0.5, 1.0, 2.0], size=dims))
            half = tuple(b * rng.uniform(0.01, 0.3) for b in fov)
            center = tuple(
                0.0 if rng.random() < 0.5 else rng.uniform(-1, 1) * (b / 2 - w)
                for b, w in zip(fov, half)
            )
            amp = complex(*rng.choice([0.0, 1.0, -1.0], size=2) * rng.normal(size=2))
            p = Primitive("boxcar", center, half, amp)
            for mesh in self.meshes(dims):
                got = samples_at(Phantom((p,), fov), mesh)
                assert np.array_equal(got, formula_samples(p, mesh, fov))


class TestModulatedSamples:
    def test_identity_modulator(self):
        ph = boxcar()
        g = centered_grid(17, 1.0)
        mod = Modulator(np.array([1.0]), (0,))  # c(x) = 1/B * B = 1 at B = 1
        assert signals_allclose(modulated_samples(ph, mod, g), fourier_samples(ph, g))

    def test_harmonic_shift(self):
        ph = boxcar()
        g = centered_grid(17, 1.0)
        wide = centered_grid(19, 1.0)
        mod = Modulator(np.array([1.0]), (1,))  # c(x) = e^{i 2 pi x / B}
        shifted = modulated_samples(ph, mod, g)
        base = fourier_samples(ph, wide)
        # shifted[n] = base[n - 1] for n in [-8, 8]: base's positions 0..16.
        np.testing.assert_allclose(shifted.values, base.values[:17], rtol=0, atol=1e-14)

    def test_two_tap_combination(self):
        ph = boxcar()
        g = centered_grid(9, 1.0)
        mod = Modulator(np.array([1.0, 0.5]), (0,))
        out = modulated_samples(ph, mod, g)
        base = fourier_samples(ph, centered_grid(11, 1.0))
        # out[n] = base[n] + 0.5 base[n - 1] for n in [-4, 4], base on [-5, 5].
        expect = base.values[1:10] + 0.5 * base.values[:9]
        np.testing.assert_allclose(out.values, expect, rtol=0, atol=1e-14)


    def test_modulators_compare_by_identity(self):
        # Like every other value type that holds an array: == and hash
        # raised for a modulator of more than one coefficient.
        a = Modulator(np.array([1.0, 0.5]), (0,))
        b = Modulator(np.array([1.0, 0.5]), (0,))
        assert a == a and a != b
        assert hash(a) == hash(a)
        assert {a, b, a} == {a, b} and len({a, b}) == 2


class TestMakeSensitivities:
    def test_deterministic(self):
        a = make_sensitivities(4, 2, seed=9)
        b = make_sensitivities(4, 2, seed=9)
        for ma, mb in zip(a, b):
            assert np.array_equal(ma.coeffs, mb.coeffs)

    def test_single_constant_channel(self):
        (mod,) = make_sensitivities(1, 0, seed=0)
        x = np.linspace(-0.5, 0.5, 64, endpoint=False)
        vals = mod.eval_spatial(x, (1.0,))
        assert np.ptp(np.abs(vals)) < 1e-12
        assert np.abs(vals[0]) > 0

    def test_sum_of_squares_bounded(self):
        mods = make_sensitivities(8, 2, seed=3)
        x = np.linspace(-0.5, 0.5, 512, endpoint=False)
        sos = sum(np.abs(m.eval_spatial(x, (1.0,))) ** 2 for m in mods)
        assert sos.min() >= 0.1 * sos.max()

    def test_2d_channels(self):
        mods = make_sensitivities(2, 1, seed=5, dims=2)
        assert mods[0].coeffs.shape == (3, 3)


class TestPhantomJson:
    def test_round_trip(self, tmp_path):
        ph = Phantom(
            (
                Primitive("boxcar", (0.1,), (0.2,), 1.0 - 2.0j),
                Primitive("point", (-0.3,), (0.0,), 0.5j),
            ),
            (1.0,),
        )
        path = tmp_path / "p.phantom.json"
        write_json(path, phantom_to_json(ph))
        back = phantom_from_json(read_json(path))
        assert back.fov == ph.fov
        for a, b in zip(back.primitives, ph.primitives):
            assert (a.kind, a.center, a.extent, a.amplitude) == (
                b.kind,
                b.center,
                b.extent,
                b.amplitude,
            )

    def test_json_doc_shape(self):
        doc = phantom_to_json(boxcar())
        assert doc["kind"] == "phantom"
        assert doc["primitives"][0]["amplitude"] == [1.0, 0.0]
        rebuilt = phantom_from_json(doc)
        assert rebuilt.primitives[0].extent == (0.25,)
