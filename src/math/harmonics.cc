#include "math/harmonics.hh"

#include <algorithm>
#include <cmath>

#include "common/logging.hh"
#include "math/fft.hh"
#include "math/matrix.hh"

namespace iceb::math
{

namespace
{

/** |e^{ia} - 1| below which the Dirichlet quotient would lose its
 * digits to cancellation, so the sum is taken term by term. */
constexpr double kDirectSumBelow = 1e-2;

/** a * b without std::complex's NaN-recovery branch (C99 Annex G),
 * which keeps the X^T y loop from vectorizing; ~20% of the fit. */
Complex
mul(Complex a, Complex b)
{
    return {a.real() * b.real() - a.imag() * b.imag(),
            a.real() * b.imag() + a.imag() * b.real()};
}

/** sum_{t<n} e^{i angle t}, given step = e^{i angle} and
 * span = e^{i n angle}. */
Complex
dirichletSum(Complex step, Complex span, double angle, std::size_t n)
{
    const double dr = step.real() - 1.0;
    const double di = step.imag();
    const double den = dr * dr + di * di;
    if (den >= kDirectSumBelow * kDirectSumBelow) {
        // (span - 1) / (step - 1), divided out by hand: std::complex
        // division is a library call guarding against overflow that
        // |step - 1| >= 1e-2 rules out.
        const double nr = span.real() - 1.0;
        const double ni = span.imag();
        return {(nr * dr + ni * di) / den, (ni * dr - nr * di) / den};
    }
    double re = 0.0;
    double im = 0.0;
    for (std::size_t t = 0; t < n; ++t) {
        const double a = angle * static_cast<double>(t);
        re += std::cos(a);
        im += std::sin(a);
    }
    return {re, im};
}

/**
 * Least-squares coefficients of sum_i a_i cos(w_i t) + b_i sin(w_i t)
 * over t < n at w_i = 2 pi ws.frequencies[i], left in ws.xty as
 * (a_0, b_0, a_1, b_1, ...). Returns false when the normal equations
 * are singular.
 */
bool
fitAtFrequencies(const double *series, std::size_t n,
                 HarmonicsWorkspace &ws)
{
    const std::vector<double> &freq = ws.frequencies;
    const std::size_t m = freq.size();
    const std::size_t terms = 2 * m;
    const double len = static_cast<double>(n);

    ws.step.resize(m);
    ws.span.resize(m);
    for (std::size_t i = 0; i < m; ++i) {
        const double w = 2.0 * M_PI * freq[i];
        ws.step[i] = Complex(std::cos(w), std::sin(w));
        ws.span[i] = Complex(std::cos(w * len), std::sin(w * len));
    }

    // Normal matrix X^T X. Products of the basis functions are cosines
    // and sines at w_i +- w_j, so each entry is half the sum or
    // difference of two Dirichlet sums D(w_i - w_j) and D(w_i + w_j):
    // real parts for cos*cos and sin*sin, imaginary for the mixed.
    ws.xtx.resize(terms * terms);
    double *xtx = ws.xtx.data();
    for (std::size_t i = 0; i < m; ++i) {
        const double wi = 2.0 * M_PI * freq[i];
        for (std::size_t j = i; j < m; ++j) {
            const double wj = 2.0 * M_PI * freq[j];
            const Complex diff = j == i
                ? Complex(len, 0.0)
                : dirichletSum(mul(ws.step[i], std::conj(ws.step[j])),
                               mul(ws.span[i], std::conj(ws.span[j])),
                               wi - wj, n);
            const Complex sum = dirichletSum(mul(ws.step[i], ws.step[j]),
                                             mul(ws.span[i], ws.span[j]),
                                             wi + wj, n);
            const std::size_t ci = 2 * i, si = ci + 1;
            const std::size_t cj = 2 * j, sj = cj + 1;
            xtx[ci * terms + cj] = xtx[cj * terms + ci] =
                0.5 * (diff.real() + sum.real());
            xtx[si * terms + sj] = xtx[sj * terms + si] =
                0.5 * (diff.real() - sum.real());
            xtx[ci * terms + sj] = xtx[sj * terms + ci] =
                0.5 * (sum.imag() - diff.imag());
            xtx[si * terms + cj] = xtx[cj * terms + si] =
                0.5 * (sum.imag() + diff.imag());
        }
    }
    // The ridge keeps the system definite when two peaks of a
    // flat-topped spectrum refine onto one frequency: their columns
    // coincide, and the solve splits the amplitude between them.
    for (std::size_t a = 0; a < terms; ++a)
        xtx[a * terms + a] += 1e-9;

    // X^T y: one rotation recurrence e^{i w t} per frequency.
    ws.xty.assign(terms, 0.0);
    ws.rotor.assign(m, Complex(1.0, 0.0));
    double *xty = ws.xty.data();
    for (std::size_t t = 0; t < n; ++t) {
        const double y = series[t];
        for (std::size_t i = 0; i < m; ++i) {
            xty[2 * i] += y * ws.rotor[i].real();
            xty[2 * i + 1] += y * ws.rotor[i].imag();
            ws.rotor[i] = mul(ws.rotor[i], ws.step[i]);
        }
    }

    return solveSpdInPlace(xtx, terms, xty);
}

} // namespace

double
Harmonic::evaluate(double t) const
{
    return amplitude * std::cos(2.0 * M_PI * frequency * t + phase);
}

std::vector<Harmonic>
decompose(const std::vector<double> &series, std::size_t max_components)
{
    const std::size_t n = series.size();
    if (n < 2)
        return {};

    const std::vector<Complex> spectrum = fftReal(series);
    std::vector<Harmonic> harmonics;
    harmonics.reserve(n / 2);

    // Real input: bins k and N-k are conjugate pairs that combine into
    // one cosine of amplitude 2|X_k|/N. The Nyquist bin (even N only)
    // is self-conjugate and scales by 1/N.
    const double scale = 2.0 / static_cast<double>(n);
    for (std::size_t k = 1; k <= n / 2; ++k) {
        const bool nyquist = (n % 2 == 0) && (k == n / 2);
        const double amp =
            std::abs(spectrum[k]) * (nyquist ? 0.5 * scale : scale);
        if (amp < 1e-12)
            continue;
        Harmonic h;
        h.amplitude = amp;
        h.frequency = static_cast<double>(k) / static_cast<double>(n);
        h.phase = std::arg(spectrum[k]);
        harmonics.push_back(h);
    }

    std::sort(harmonics.begin(), harmonics.end(),
              [](const Harmonic &a, const Harmonic &b) {
                  return a.amplitude > b.amplitude;
              });
    if (max_components > 0 && harmonics.size() > max_components)
        harmonics.resize(max_components);
    return harmonics;
}

double
evaluateHarmonics(const std::vector<Harmonic> &harmonics, double t)
{
    double acc = 0.0;
    for (const auto &h : harmonics)
        acc += h.evaluate(t);
    return acc;
}

std::size_t
countSignificantHarmonics(const std::vector<double> &series,
                          double relative_threshold)
{
    ICEB_ASSERT(relative_threshold > 0.0 && relative_threshold <= 1.0,
                "threshold must be in (0, 1]");
    const std::size_t n = series.size();
    if (n < 4)
        return 0;
    const std::vector<Complex> spectrum = fftReal(series);
    const std::size_t half = n / 2;
    std::vector<double> magnitude(half + 1, 0.0);
    double peak = 0.0;
    for (std::size_t k = 1; k <= half; ++k) {
        magnitude[k] = std::abs(spectrum[k]);
        peak = std::max(peak, magnitude[k]);
    }
    if (peak < 1e-9)
        return 0;
    // Count spectral *peaks* (local maxima) above the relative
    // threshold; plateau bins and the noise floor do not count as
    // separate harmonics.
    const double cutoff = peak * relative_threshold;
    std::size_t count = 0;
    for (std::size_t k = 1; k <= half; ++k) {
        const double left = k > 1 ? magnitude[k - 1] : 0.0;
        const double right = k < half ? magnitude[k + 1] : 0.0;
        if (magnitude[k] >= cutoff && magnitude[k] >= left &&
            magnitude[k] > right) {
            ++count;
        }
    }
    return count;
}

std::vector<Harmonic>
decomposeForExtrapolation(const std::vector<double> &series,
                          std::size_t max_components)
{
    std::vector<Harmonic> out;
    HarmonicsWorkspace ws;
    decomposeForExtrapolation(series.data(), series.size(),
                              max_components, out, ws);
    return out;
}

void
decomposeForExtrapolation(const double *series, std::size_t n,
                          std::size_t max_components,
                          std::vector<Harmonic> &out,
                          HarmonicsWorkspace &ws)
{
    if (n < 8 || max_components == 0) {
        out = decompose(std::vector<double>(series, series + n),
                        max_components);
        return;
    }

    if (!ws.plan || ws.plan->size() != n)
        ws.plan = fftPlanFor(n);
    ws.spectrum.resize(n);
    ws.plan->forwardReal(series, ws.spectrum.data(), ws.fft);

    const std::size_t half = n / 2;
    ws.magnitude.assign(half + 1, 0.0);
    for (std::size_t k = 1; k <= half; ++k)
        ws.magnitude[k] = std::abs(ws.spectrum[k]);

    decomposeFromMagnitudes(series, n, max_components, out, ws);
}

void
decomposeFromMagnitudes(const double *series, std::size_t n,
                        std::size_t max_components,
                        std::vector<Harmonic> &out,
                        HarmonicsWorkspace &ws, bool /*fast_trig*/)
{
    ICEB_ASSERT(n >= 8 && max_components >= 1,
                "decomposeFromMagnitudes needs n >= 8 and components >= 1");
    const std::size_t half = n / 2;
    ICEB_ASSERT(ws.magnitude.size() == half + 1,
                "magnitude buffer must cover bins 0..n/2");
    out.clear();

    // Spectral peak picking over k = 1..n/2.
    const std::vector<double> &magnitude = ws.magnitude;
    std::vector<SpectralPeak> &peaks = ws.peaks;
    peaks.clear();
    for (std::size_t k = 1; k <= half; ++k) {
        const double left = k > 1 ? magnitude[k - 1] : 0.0;
        const double right = k < half ? magnitude[k + 1] : 0.0;
        if (magnitude[k] >= left && magnitude[k] >= right &&
            magnitude[k] > 1e-12) {
            peaks.push_back(SpectralPeak{k, magnitude[k]});
        }
    }
    if (peaks.empty())
        return;
    std::sort(peaks.begin(), peaks.end(),
              [](const SpectralPeak &a, const SpectralPeak &b) {
                  return a.magnitude > b.magnitude;
              });
    if (peaks.size() > max_components)
        peaks.resize(max_components);

    // Quadratic interpolation of log-magnitudes refines each peak's
    // frequency off the bin grid.
    std::vector<double> &frequencies = ws.frequencies;
    frequencies.clear();
    for (const SpectralPeak &peak : peaks) {
        double delta = 0.0;
        const std::size_t k = peak.bin;
        if (k > 1 && k < half) {
            const double lm = std::log(magnitude[k - 1] + 1e-12);
            const double cm = std::log(magnitude[k] + 1e-12);
            const double rm = std::log(magnitude[k + 1] + 1e-12);
            const double denom = lm - 2.0 * cm + rm;
            if (std::fabs(denom) > 1e-12)
                delta = std::clamp(0.5 * (lm - rm) / denom, -0.5, 0.5);
        }
        frequencies.push_back(
            (static_cast<double>(k) + delta) / static_cast<double>(n));
    }

    if (!fitAtFrequencies(series, n, ws)) {
        out = decompose(std::vector<double>(series, series + n),
                        max_components);
        return;
    }

    for (std::size_t i = 0; i < frequencies.size(); ++i) {
        const double a = ws.xty[2 * i];
        const double b = ws.xty[2 * i + 1];
        Harmonic h;
        h.amplitude = std::sqrt(a * a + b * b);
        h.frequency = frequencies[i];
        // a*cos(wt) + b*sin(wt) = A*cos(wt + phase).
        h.phase = std::atan2(-b, a);
        out.push_back(h);
    }
    std::sort(out.begin(), out.end(),
              [](const Harmonic &x, const Harmonic &y) {
                  return x.amplitude > y.amplitude;
              });
}

double
dominantPeriod(const std::vector<double> &series)
{
    const std::vector<Harmonic> top = decompose(series, 1);
    if (top.empty() || top.front().amplitude < 1e-9)
        return 0.0;
    return 1.0 / top.front().frequency;
}

} // namespace iceb::math
