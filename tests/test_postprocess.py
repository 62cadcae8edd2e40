import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from spfeat._checks import MAX_FEATURE
from spfeat.errors import EmptyFeaturesError, InvalidParameterError, InvalidWindowError
from spfeat.features import FeatureMatrix, extract_derivative
from spfeat.postprocess import FRAME_BLOCK, cmvn, cmvnw

matrices = arrays(
    np.float64,
    st.tuples(st.integers(2, 30), st.integers(1, 8)),
    elements=st.floats(-100, 100),
)


def cmvnw_loop(x, win_size, variance_normalization=False):
    """Per-frame oracle: each window's statistics from NumPy's mean/std."""
    half = win_size // 2
    padded = np.pad(x, ((half, half), (0, 0)), mode="edge")
    y = np.empty_like(x)
    for t in range(x.shape[0]):
        segment = padded[t : t + win_size]
        y[t] = x[t] - segment.mean(axis=0)
        if variance_normalization:
            y[t] = y[t] / (segment.std(axis=0) + 1e-10)
    return y


def _features(num_frames, dims, seed):
    rng = np.random.default_rng(seed)
    return rng.normal(loc=rng.uniform(-20, 20), scale=rng.uniform(0.5, 10),
                      size=(num_frames, dims))


B = FRAME_BLOCK
FRAME_COUNTS = [1, 2, B - 1, B, B + 1, 2 * B + 3, 1100]


class TestCmvn:
    def test_mean_only(self):
        out = cmvn(np.array([[1.0, 2.0], [3.0, 4.0]]))
        np.testing.assert_array_equal(out, [[-1, -1], [1, 1]])

    def test_variance_normalization(self):
        out = cmvn(np.array([[1.0, 2.0], [3.0, 4.0]]), variance_normalization=True)
        np.testing.assert_allclose(out, [[-1, -1], [1, 1]], atol=1e-9)

    def test_constant_matrix(self):
        out = cmvn(np.full((5, 3), 4.2))
        np.testing.assert_array_equal(out, 0.0)

    def test_empty(self):
        with pytest.raises(EmptyFeaturesError):
            cmvn(np.zeros((0, 4)))

    @pytest.mark.parametrize("bad", [5.0, np.array(5.0), np.zeros((2, 3, 4))],
                             ids=["float", "0-d", "3-d"])
    def test_rejects_scalars_and_3d(self, bad):
        with pytest.raises(InvalidParameterError, match="got shape"):
            cmvn(bad)

    def test_preserves_feature_matrix(self):
        feats = FeatureMatrix(
            data=np.arange(6, dtype=float).reshape(3, 2),
            frame_energies=np.ones(3),
        )
        out = cmvn(feats)
        assert isinstance(out, FeatureMatrix)
        assert out.frame_energies is feats.frame_energies

    def test_single_frame_variance_is_zero_output(self):
        # population sigma of one frame is 0; the guard keeps this finite
        out = cmvn(np.array([[3.0, -1.0]]), variance_normalization=True)
        np.testing.assert_array_equal(out, 0.0)

    @given(matrices)
    @settings(max_examples=100)
    def test_zero_mean(self, x):
        out = cmvn(x)
        bound = 1e-10 * max(1.0, np.abs(x).max())
        assert np.abs(out.mean(axis=0)).max() <= bound

    @given(matrices)
    @settings(max_examples=100)
    def test_unit_std(self, x):
        out = cmvn(x, variance_normalization=True)
        sigma = out.std(axis=0)
        # the additive 1e-10 guard biases sigma by 1e-10/std, so columns
        # need std >= 0.1 for the 1e-8 bound to be reachable
        live = x.std(axis=0) >= 0.1
        assert np.abs(sigma[live] - 1).max(initial=0) <= 1e-8

    @given(matrices)
    @settings(max_examples=50)
    def test_idempotent_mean_only(self, x):
        once = cmvn(x)
        np.testing.assert_allclose(cmvn(once), once, atol=1e-12)

    @given(matrices, st.floats(-50, 50))
    @settings(max_examples=50)
    def test_shift_invariance(self, x, shift):
        np.testing.assert_allclose(cmvn(x + shift), cmvn(x), atol=1e-12)


class TestCmvnw:
    def test_window_three(self):
        col = np.array([[0.0], [3.0], [6.0]])
        out = cmvnw(col, win_size=3)
        np.testing.assert_array_equal(out, [[-1.0], [0.0], [1.0]])

    def test_window_five_over_three_frames(self):
        col = np.array([[0.0], [3.0], [6.0]])
        out = cmvnw(col, win_size=5)
        np.testing.assert_allclose(out, [[-1.8], [0.0], [1.8]], atol=1e-12)

    def test_constant_column(self):
        out = cmvnw(np.full((7, 2), 9.0), win_size=3)
        np.testing.assert_array_equal(out, 0.0)

    @pytest.mark.parametrize("bad", [2, 4, 1, 0, -3, 3.0, 5.5, "5", True, None,
                                     65536, 65537, 2**40 + 1])
    def test_invalid_window(self, bad):
        with pytest.raises(InvalidWindowError):
            cmvnw(np.ones((5, 1)), win_size=bad)

    def test_widest_window(self):
        # 65,535 frames, all but three of them edge padding
        out = cmvnw(np.ones((3, 2)), win_size=65535, variance_normalization=True)
        np.testing.assert_array_equal(out, 0.0)

    def test_empty(self):
        with pytest.raises(EmptyFeaturesError):
            cmvnw(np.zeros((0, 2)), win_size=3)

    @pytest.mark.parametrize("bad", [np.arange(10.0), np.float64(1.0), np.ones((2, 3, 4))])
    def test_rejects_non_matrix(self, bad):
        with pytest.raises(InvalidParameterError, match="T x D"):
            cmvnw(bad, win_size=3)

    @pytest.mark.parametrize("variance", [False, True])
    def test_interior_matches_brute_force(self, variance):
        rng = np.random.default_rng(21)
        x = rng.normal(size=(40, 5))
        win = 7
        half = win // 2
        out = cmvnw(x, win_size=win, variance_normalization=variance)
        for t in range(half, 40 - half):
            window = x[t - half : t + half + 1]
            expected = x[t] - window.mean(axis=0)
            if variance:
                expected = expected / (window.std(axis=0) + 1e-10)
            np.testing.assert_array_equal(out[t], expected)

    def test_preserves_feature_matrix(self):
        feats = FeatureMatrix(data=np.random.default_rng(0).normal(size=(9, 2)))
        out = cmvnw(feats, win_size=3)
        assert isinstance(out, FeatureMatrix)

    def test_integer_feature_matrix(self):
        data = np.array([[0, 1], [3, 4], [6, 8]])
        out = cmvnw(FeatureMatrix(data=data), win_size=3)
        np.testing.assert_array_equal(out.data, cmvnw(data.astype(float), win_size=3))

    def test_numpy_integer_window(self):
        x = _features(20, 3, 4)
        np.testing.assert_array_equal(cmvnw(x, win_size=np.int64(5)), cmvnw(x, win_size=5))

    @pytest.mark.parametrize("variance", [False, True])
    @pytest.mark.parametrize("dims", [2, 13, 39])
    @pytest.mark.parametrize("win", [3, 9, 301])
    @pytest.mark.parametrize("frames", FRAME_COUNTS)
    def test_bit_identical_to_loop(self, frames, win, dims, variance):
        # covers T < win (edge replication fills whole windows) and block edges
        x = _features(frames, dims, seed=frames * 1000 + win + dims)
        out = cmvnw(x, win_size=win, variance_normalization=variance)
        expected = cmvnw_loop(x, win, variance)
        assert out.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("variance", [False, True])
    @pytest.mark.parametrize("win", [3, 9, 301])
    @pytest.mark.parametrize("frames", FRAME_COUNTS)
    def test_single_column_close_to_loop(self, frames, win, variance):
        # with one column NumPy's reduction sums pairwise, so only rounding
        # may differ.  The output is a difference, so its rounding follows
        # the input scale, and with variance it is divided by std + 1e-10:
        # a constant window (T = 1) turns that rounding into large noise.
        x = _features(frames, 1, seed=frames + win)
        out = cmvnw(x, win_size=win, variance_normalization=variance)
        expected = cmvnw_loop(x, win, variance)
        atol = np.full_like(x, 1e-12 * np.abs(x).max())
        if variance:
            padded = np.pad(x, ((win // 2, win // 2), (0, 0)), mode="edge")
            windows = np.lib.stride_tricks.sliding_window_view(padded, win, axis=0)
            atol /= windows.std(axis=-1) + 1e-10
        assert np.all(np.abs(out - expected) <= 1e-12 * np.abs(expected) + atol)

    def test_negative_zero_matches_loop(self):
        x = np.full((6, 3), -0.0)
        x[:, 2] = 1.5
        for variance in (False, True):
            out = cmvnw(x, win_size=3, variance_normalization=variance)
            assert out.tobytes() == cmvnw_loop(x, 3, variance).tobytes()


def cmvn_by_std(x, variance_normalization):
    """Oracle: centring and scaling through ndarray.mean and ndarray.std."""
    y = x - x.mean(axis=0)
    if variance_normalization:
        y = y / (x.std(axis=0) + 1e-10)
    return y


@pytest.mark.parametrize("num_frames", [1, 2, 63, 64, 65, 1024, 1025])
@pytest.mark.parametrize("dims", [1, 2, 13, 39])
@pytest.mark.parametrize("variance", [False, True])
def test_cmvn_bitwise_against_std(num_frames, dims, variance):
    x = _features(num_frames, dims, seed=num_frames * dims)
    assert cmvn(x, variance).tobytes() == cmvn_by_std(x, variance).tobytes()


def test_cmvn_bitwise_on_one_column_vector():
    x = np.random.default_rng(3).normal(size=1025) * 4 + 2
    assert cmvn(x, True).tobytes() == cmvn_by_std(x, True).tobytes()


@pytest.mark.parametrize("call", [
    lambda: cmvn("abc"),
    lambda: cmvn([[1.0], ["x"]], True),
    lambda: cmvnw([["a"]], 3),
    lambda: cmvnw(FeatureMatrix(data=[[object()]]), 3),
], ids=["cmvn-str", "cmvn-mixed", "cmvnw-str", "cmvnw-object"])
def test_non_numeric_features_rejected(call):
    with pytest.raises(InvalidParameterError, match="array of reals"):
        call()


BEYOND_THE_FEATURE_BOUND = [
    lambda: cmvn(np.array([[1e300], [-1e300]]), variance_normalization=True),
    lambda: extract_derivative(np.array([[1e308], [-1e308], [1e308]])),
    lambda: cmvnw(np.full((5, 2), 1e200) * [[1], [-1], [1], [-1], [1]], 3, True),
]


@pytest.mark.parametrize("call", BEYOND_THE_FEATURE_BOUND, ids=["cmvn", "delta", "cmvnw"])
def test_features_beyond_the_bound_rejected(call):
    # each overflowed here once: cmvn gave [[0.], [-0.]], the delta +-inf
    with pytest.raises(InvalidParameterError, match=r"must be <= 1e\+130"):
        call()


def test_features_at_the_bound_stay_finite():
    x = np.array([[MAX_FEATURE], [-MAX_FEATURE], [MAX_FEATURE]])
    np.testing.assert_allclose(cmvn(x[:2], True), [[1.0], [-1.0]], rtol=1e-15)
    for out in (extract_derivative(x), cmvnw(x, 3, True)):
        assert np.isfinite(out).all()
