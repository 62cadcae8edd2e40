"""End-to-end oracle: mfe, lmfe, mfcc, deltas, cmvn and cmvnw against a
reference written from the definitions, over a grid of valid configs.

The reference shares no code with spfeat.  It frames the pre-emphasized
signal by index, windows with ``np.hamming``/``np.hanning``, takes the DFT
by its defining sum (cosine and sine tables with the angle reduced exactly
in integers), builds the triangles from the mel formulas, takes the DCT-II
by its defining sum, and gathers deltas and sliding windows by clipped
indices.

Error model.  Every tolerance is a bound on |spfeat - reference| that the
reference carries alongside each value, stage by stage.  It sums the
rounding errors of both computations, in units of u = 2**-53, with Higham's
gamma_n = n u / (1 - n u) for n roundings in a row; it is first order in u,
and the terms it drops are u times the ones it keeps.

- Frames: pre-emphasis rounds alpha x[t-1] and the difference, so y[t]
  is within u (|y[t]| + alpha |x[t-1]|) per side.  A window entry is
  within 16 u per side: its cosine argument, at most 2 pi, takes 3
  roundings, then the cosine and a0 - a1 cos.  The product z = y w rounds
  once.
- DFT, per bin: the errors of z add up, sum |dz|.  The defining sum of L
  terms is within gamma_L + 16 u of sum |z| in each of its real and
  imaginary parts; 16 u covers a table entry, whose angle 2 pi r / N
  takes 2 roundings.  rfft is held to Higham's FFT bound (Theorem
  24.2), ||dX||_2 <= (log2 N + 1) eta sqrt(N) ||z||_2 with eta = 8 u:
  radix-2/4 passes, one more for the real-input split, twiddles within
  2 u.
- Power: |X|^2 / N moves by at most (2 |X| e_X + e_X^2) / N, plus 3
  roundings on each side.
- Filter edges: the mel conversion, linspace and its inverse leave the
  two sides' edges within e_edge = 32 (1 + ln(1 + f_hi/700)) (f_hi +
  700) u.  A triangle is 1 / gap Lipschitz in each edge, so a weight
  moves by at most 2 e_edge / (gap - 2 e_edge), plus 3 roundings on each
  side, at the bins less than e_edge outside its support; at the other
  bins both weights are 0.
- Energies: sum_k (e_P (W + e_W) + P e_W), plus gamma_K of the sum on each
  side; frame energies sum_k e_P plus gamma_K.  The floor is 1-Lipschitz.
- Log: e_E / max(floor, E - e_E), plus one rounding of the log per side.
- DCT: the library's cosine argument, up to pi M, is within 3 u
  relative; the reference reduces it below 2 pi first.  So two basis
  entries differ by at most sqrt(2/M) (3 pi M + 24) u, and the sum takes
  gamma_M on each side.
- Deltas: the coefficients n / (2 sum n^2) carry the input bounds;
  gamma_(2h+3) of the weighted absolute sum on each side.
- cmvn, and cmvnw per window: the mean carries the mean input bound plus
  gamma_(T+1) of the mean absolute value per side; the std moves by at
  most the rms of the centred inputs' bounds (Minkowski) plus gamma_(T+2)
  + 4 u of itself; the quotient y / (s + 1e-10) by (e_y + |z| e_b) /
  (b - e_b) plus 2 u |z|.
"""

import math
from typing import NamedTuple

import numpy as np
import pytest

from spfeat.audio_io import AudioBuffer
from spfeat.features import FeatureConfig, extract_derivative, lmfe, mfcc, mfe
from spfeat.postprocess import cmvn, cmvnw

U = np.finfo(np.float64).eps / 2
FLOOR = np.finfo(np.float64).eps  # energies are floored at eps
GUARD = 1e-10  # added to the std before dividing
ALPHA = 0.97


def gamma(n):
    return n * U / (1 - n * U)


def window(kind, length):
    return {"rectangular": np.ones, "hamming": np.hamming, "hanning": np.hanning}[kind](length)


def frames(series, fs, case):
    """Rows t of a series: samples tS .. tS + L - 1, zero past the end."""
    length = math.floor(case.frame_s * fs + 0.5)
    stride = math.floor(case.stride_s * fs + 0.5)
    n = len(series)
    if case.padding:  # the fewest frames that hold every sample
        count = 1 + max(0, -(-(n - length) // stride))
    else:  # the most frames that fit
        count = 1 + (n - length) // stride
    idx = stride * np.arange(count)[:, None] + np.arange(length)
    return np.concatenate([series, np.zeros(max(0, idx.max() + 1 - n))])[idx]


def power_with_bound(x, fs, case):
    """|DFT_N|^2 / N of the windowed, pre-emphasized frames by the defining sum,
    for bins 0 .. N/2, and its bound."""
    y = frames(np.concatenate([x[:1], x[1:] - ALPHA * x[:-1]]), fs, case)
    behind = frames(np.concatenate([[0], ALPHA * np.abs(x[:-1])]), fs, case)
    n_fft, length = case.fft_length, y.shape[1]
    z = y * window(case.window, length)
    # both sides: pre-emphasis, the window entry (16 u each), the product
    e_z = 2 * U * (np.abs(y) + behind) + 32 * U * np.abs(y) + 2 * U * np.abs(z)
    turns = np.outer(np.arange(length), np.arange(n_fft // 2 + 1)) % n_fft  # exact
    angle = 2 * np.pi * turns / n_fft
    re, im = z @ np.cos(angle), z @ np.sin(angle)
    power = (re * re + im * im) / n_fft
    l1 = np.abs(z).sum(axis=1, keepdims=True)
    l2 = np.sqrt((z * z).sum(axis=1, keepdims=True))
    e_x = (e_z.sum(axis=1, keepdims=True)
           + math.sqrt(2) * (gamma(length) + 16 * U) * l1
           + (math.log2(n_fft) + 1) * 8 * U * math.sqrt(n_fft) * l2)
    e_p = (2 * np.sqrt(n_fft * power) * e_x + e_x * e_x) / n_fft + 2 * gamma(3) * power
    return power, e_p


def mel(f):
    return 2595 * np.log10(1 + f / 700)


def filterbank_with_bound(case, fs):
    """M triangles with edges equally spaced in mel over the band, at the bin frequencies."""
    low, high = case.band
    high = fs / 2 if high is None else high
    edges = 700 * (10 ** (np.linspace(mel(low), mel(high), case.num_filters + 2)
                          / 2595) - 1)
    edges[0], edges[-1] = low, high
    gap = np.diff(edges).min()
    assert gap >= fs / case.fft_length, "the grid holds only valid configs"
    f = np.arange(case.fft_length // 2 + 1) * fs / case.fft_length
    left, peak, right = edges[:-2, None], edges[1:-1, None], edges[2:, None]
    weights = np.maximum(0, np.minimum((f - left) / (peak - left), (right - f) / (right - peak)))
    e_edge = 32 * (1 + math.log(1 + high / 700)) * (high + 700) * U
    # past an edge moved by e_edge both triangles are exactly 0
    support = (f > left - e_edge) & (f < right + e_edge)
    return weights, support * (2 * e_edge / (gap - 2 * e_edge) + 2 * gamma(3))


def dct_with_bound(data, e_data, case):
    """Orthonormal DCT-II rows by the defining sum, the kept coefficients only."""
    m = case.num_filters
    k, n = np.arange(m)[:, None], np.arange(m)
    basis = np.cos(np.pi * ((k * (2 * n + 1)) % (4 * m)) / (2 * m)) * np.sqrt(2 / m)
    basis[0] /= math.sqrt(2)
    e_basis = math.sqrt(2 / m) * (3 * np.pi * m + 24) * U
    abs_data = np.abs(data)
    out = data @ basis.T
    e_out = (e_data @ (np.abs(basis) + e_basis).T + e_basis * abs_data.sum(axis=1, keepdims=True)
             + 2 * gamma(m) * abs_data @ np.abs(basis).T)
    kept = slice(int(case.dc_elimination), int(case.dc_elimination) + case.num_cepstral)
    return out[:, kept], e_out[:, kept]


def delta_with_bound(c, e_c, half):
    """d_t = sum_n n (c[t+n] - c[t-n]) / (2 sum n^2), past either end the edge row."""
    t, last = np.arange(len(c)), len(c) - 1
    denom = 2 * sum(n * n for n in range(1, half + 1))
    d, e_d, mass = 0, 0, 0
    for n in range(1, half + 1):
        ahead, behind = np.minimum(t + n, last), np.maximum(t - n, 0)
        d = d + n * (c[ahead] - c[behind])
        e_d = e_d + n * (e_c[ahead] + e_c[behind])
        mass = mass + n * (np.abs(c[ahead]) + np.abs(c[behind]))
    return d / denom, (e_d + 2 * gamma(2 * half + 3) * mass) / denom


def normalize_with_bound(x, e_x, windows, variance):
    """Row t of x minus the mean of its window, over the window's std + guard with
    variance.  windows[j] picks row j of every frame's window: an index array, or a
    one-row slice when all frames share the window."""
    width = len(windows)

    def mean_over(rows_of):
        return sum(rows_of(w) for w in windows) / width

    mean = mean_over(lambda w: x[w])
    e_mean = (mean_over(lambda w: e_x[w])
              + 2 * gamma(width + 1) * mean_over(lambda w: np.abs(x[w])))
    y = x - mean
    e_y = e_x + e_mean + 2 * U * (np.abs(x) + np.abs(mean))
    if not variance:
        return y, e_y
    std = np.sqrt(mean_over(lambda w: (x[w] - mean) ** 2))
    e_std = (np.sqrt(mean_over(lambda w: (e_x[w] + e_mean) ** 2))
             + (gamma(width + 2) + 4 * U) * std)
    b = std + GUARD
    e_b = e_std + 2 * U * b
    assert np.all(b > e_b)
    z = y / b
    return z, (e_y + np.abs(z) * e_b) / (b - e_b) + 2 * U * np.abs(z)


def reference(x, fs, case):
    """Each stage's (value, bound), from the definitions."""
    power, e_p = power_with_bound(x, fs, case)
    weights, e_w = filterbank_with_bound(case, fs)
    raw = power @ weights.T
    e_raw = e_p @ (weights + e_w).T + power @ e_w.T + 2 * gamma(power.shape[1]) * raw
    energies = np.maximum(raw, FLOOR)
    total = power.sum(axis=1)
    e_total = e_p.sum(axis=1) + 2 * gamma(power.shape[1]) * total
    logs = np.log(energies)
    e_logs = e_raw / np.maximum(FLOOR, energies - e_raw) + 2 * U * np.abs(logs)
    ceps, e_ceps = dct_with_bound(logs, e_logs, case)
    d, e_d = delta_with_bound(ceps, e_ceps, case.half_width)
    dd, e_dd = delta_with_bound(d, e_d, case.half_width)
    stacked, e_stacked = np.hstack([ceps, d, dd]), np.hstack([e_ceps, e_d, e_dd])
    count, half = len(stacked), case.win_size // 2
    everywhere = [slice(j, j + 1) for j in range(count)]
    sliding = [np.clip(np.arange(count) + j, 0, count - 1) for j in range(-half, half + 1)]
    return {
        "mfe": (energies, e_raw),
        "frame_energies": (np.maximum(total, FLOOR), e_total),
        "lmfe": (logs, e_logs),
        "mfcc": (ceps, e_ceps),
        "derivatives": (stacked, e_stacked),
        "cmvn": normalize_with_bound(stacked, e_stacked, everywhere, case.variance),
        "cmvnw": normalize_with_bound(stacked, e_stacked, sliding, case.variance),
    }


class Case(NamedTuple):
    window: str
    fft_length: int
    fs: int
    num_filters: int
    num_cepstral: int
    padding: bool
    dc_elimination: bool
    half_width: int
    variance: bool
    win_size: int
    seconds: float
    frame_s: float = 0.020
    stride_s: float = 0.010
    band: tuple = (0.0, None)
    dtype: str = "float64"

    def config(self):
        return FeatureConfig(
            alpha=ALPHA, frame_length_s=self.frame_s, frame_stride_s=self.stride_s,
            window=self.window, fft_length=self.fft_length, num_filters=self.num_filters,
            num_cepstral=self.num_cepstral, low_freq=self.band[0], high_freq=self.band[1],
            dc_elimination=self.dc_elimination, zero_padding=self.padding)

    def signal(self, seed):
        """Noise plus a tone, so the filters see several orders of magnitude."""
        n = int(self.seconds * self.fs) + seed % 7
        rng = np.random.default_rng(seed)
        t = np.arange(n) / self.fs
        x = 0.3 * rng.uniform(-1, 1, n) + 0.6 * np.sin(2 * np.pi * 0.05 * self.fs * t)
        if self.dtype == "int16":
            return (x * 30000).astype(np.int16)
        return x.astype(self.dtype)


# window, N, fs, M, C, padding, dc, half-width, variance, cmvnw window, seconds, [framing, band,
# dtype]; every config valid, including filter edges at least one bin apart
CASES = [
    Case("rectangular", 256, 8000, 1, 1, True, False, 1, False, 3, 0.5),
    Case("hamming", 512, 8000, 26, 13, False, True, 2, True, 5, 0.6, 0.025, 0.010, (300.0, 3400.0)),
    Case("hanning", 1024, 8000, 40, 12, True, False, 3, True, 301, 10.5),  # crosses MFE_BLOCK
    Case("rectangular", 2048, 8000, 64, 13, False, True, 2, False, 31, 0.7, 0.030, 0.015),
    Case("hamming", 256, 8000, 41, 20, True, True, 3, True, 9, 0.4, dtype="int16"),
    Case("hamming", 256, 16000, 20, 13, True, True, 1, True, 3, 0.5, 0.016, 0.008),
    Case("hanning", 512, 16000, 40, 13, True, False, 2, True, 301, 0.9),
    Case("rectangular", 512, 16000, 26, 26, False, False, 3, False, 9, 0.5, 0.025, 0.010),
    Case("hamming", 1024, 16000, 64, 20, False, True, 1, True, 101, 0.6),
    Case("hanning", 2048, 16000, 2, 1, True, True, 2, False, 3, 0.4, band=(100.0, 7000.0)),
    Case("rectangular", 1024, 16000, 7, 7, True, False, 3, True, 5, 0.3, 0.064, 0.032,
         dtype="float32"),
    Case("hamming", 256, 48000, 13, 13, False, False, 3, True, 5, 0.3, 0.005, 0.0025),
    Case("rectangular", 512, 48000, 24, 13, True, True, 2, False, 301, 0.3, 0.010, 0.005),
    Case("hanning", 1024, 48000, 40, 13, True, False, 1, True, 31, 0.4),
    Case("hamming", 2048, 48000, 64, 24, False, True, 3, True, 11, 0.5, 0.040, 0.020,
         (20.0, 20000.0)),
    Case("hanning", 2048, 48000, 1, 1, False, False, 1, False, 3, 0.3, 0.025, 0.010),
]


def test_grid_covers_every_value():
    assert {c.window for c in CASES} == {"rectangular", "hamming", "hanning"}
    assert {c.fft_length for c in CASES} == {256, 512, 1024, 2048}
    assert {c.fs for c in CASES} == {8000, 16000, 48000}
    assert {1, 64} <= {c.num_filters for c in CASES}
    assert {c.padding for c in CASES} == {c.dc_elimination for c in CASES} == {True, False}
    assert {c.half_width for c in CASES} == {1, 2, 3}
    assert {c.variance for c in CASES} == {True, False}


@pytest.mark.parametrize("index", range(len(CASES)))
def test_pipeline_within_error_bound_of_reference(index):
    case = CASES[index]
    x = case.signal(seed=index)
    signal, config = AudioBuffer(x, case.fs), case.config()
    energies, cepstra = mfe(signal, config), mfcc(signal, config)
    stacked = extract_derivative(cepstra, case.half_width)
    got = {
        "mfe": energies.data,
        "frame_energies": energies.frame_energies,
        "lmfe": lmfe(signal, config).data,
        "mfcc": cepstra.data,
        "derivatives": stacked.data,
        "cmvn": cmvn(stacked, case.variance).data,
        "cmvnw": cmvnw(stacked, case.win_size, case.variance).data,
    }
    for stage, (want, bound) in reference(x.astype(np.float64), case.fs, case).items():
        assert got[stage].shape == want.shape, stage
        excess = np.abs(got[stage] - want) / bound
        assert excess.max() <= 1, (stage, excess.max())
