"""Exact properties of mfe, compared by bytes.

Scaling: every stage of mfe is linear in the samples or squares them, and
scaling by a power of two rounds exactly as the unscaled value does, so
mfe(2**k x) is 4**k mfe(x) bit for bit, away from the energy floor and
from overflow.

Locality: pre-emphasis spreads sample i to y[i] and y[i + 1], so of the
frames t (samples tS .. tS + L - 1 of y) only those with
tS - 1 <= i < tS + L can see it.  mfe runs MFE_BLOCK frames at a time;
the block edges must not widen that set.
"""

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from spfeat.audio_io import AudioBuffer
from spfeat.features import ENERGY_FLOOR, MFE_BLOCK, FeatureConfig, mfe
from spfeat.preprocess import WINDOW_TYPES


def _noise(seed, n, fs):
    return AudioBuffer(np.random.default_rng(seed).uniform(-0.5, 0.5, n), fs)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 12000),
       window=st.sampled_from(WINDOW_TYPES), zero_padding=st.booleans())
def test_scaling_by_powers_of_two_is_exact(seed, n, window, zero_padding):
    signal = _noise(seed, n if zero_padding else n + 320, 16000)
    config = FeatureConfig(window=window, zero_padding=zero_padding)
    base = mfe(signal, config)
    # far above the floor, so it clips neither base nor base * 4**-4; frame
    # energies sum whole spectra, so they are at least each filter's energy
    assume(base.data.min() > 1e6 * ENERGY_FLOOR)
    for k in range(-4, 5):
        scaled = mfe(AudioBuffer(signal.samples * 2.0**k, 16000), config)
        assert scaled.data.tobytes() == (base.data * 4.0**k).tobytes(), k
        assert scaled.frame_energies.tobytes() == (base.frame_energies * 4.0**k).tobytes(), k


# 8 kHz: L = 160 and S = 80 samples, so a signal of about MFE_BLOCK frames
# stays short
FS, L, S = 8000, 160, 80


@st.composite
def _changes(draw):
    n = draw(st.integers((MFE_BLOCK - 2) * S, (MFE_BLOCK + 70) * S))
    # sample i at offset d from the start of frame t: a slip shows at the
    # ends of the frames that hold it, and at the block edge
    t = draw(st.one_of(st.integers(0, n // S), st.integers(MFE_BLOCK - 2, MFE_BLOCK + 1)))
    d = draw(st.one_of(st.sampled_from([-2, -1, 0, 1, L - 2, L - 1, L]), st.integers(0, S - 1)))
    return n, min(max(t * S + d, 0), n - 1)


@settings(max_examples=40, deadline=None)
@given(change=_changes(), seed=st.integers(0, 2**32 - 1),
       window=st.sampled_from(WINDOW_TYPES), zero_padding=st.booleans())
def test_a_sample_changes_only_the_frames_that_hold_it(change, seed, window, zero_padding):
    n, i = change
    signal = _noise(seed, n, FS)
    changed = signal.samples.copy()
    changed[i] += 0.25 if changed[i] < 0 else -0.25
    config = FeatureConfig(window=window, zero_padding=zero_padding)
    before, after = mfe(signal, config), mfe(AudioBuffer(changed, FS), config)

    starts = np.arange(before.num_frames) * S
    holds = (starts - 1 <= i) & (i < starts + L)
    for old, new in [(before.data, after.data),
                     (before.frame_energies, after.frame_energies)]:
        assert old[~holds].tobytes() == new[~holds].tobytes()
        # without zero padding, a sample past the last frame is held by none
        if window != "hanning":  # hanning's zero end weights can hide a change
            assert (old != new).reshape(len(old), -1).any(axis=1)[holds].all()
