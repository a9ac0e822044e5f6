#include "seed_predictor.hh"

#include <algorithm>
#include <cmath>
#include <complex>
#include <cstdlib>
#include <numeric>

#include "math/fft.hh"
#include "math/harmonics.hh"
#include "math/polyfit.hh"
#include "math/stats.hh"

namespace seed
{

namespace
{

using iceb::math::Complex;

std::vector<Complex>
fftReal(const std::vector<double> &data)
{
    std::vector<Complex> complex_data;
    complex_data.reserve(data.size());
    for (double value : data)
        complex_data.emplace_back(value, 0.0);
    return iceb::math::fft(complex_data);
}

/** Solve the n x n row-major system a x = b, n = b.size(). */
std::vector<double>
solveLinearSystem(const std::vector<double> &a,
                  const std::vector<double> &b, bool *singular)
{
    const std::size_t n = b.size();
    if (singular)
        *singular = false;

    std::vector<std::vector<double>> work(n, std::vector<double>(n + 1));
    for (std::size_t r = 0; r < n; ++r) {
        for (std::size_t c = 0; c < n; ++c)
            work[r][c] = a[r * n + c];
        work[r][n] = b[r];
    }

    for (std::size_t col = 0; col < n; ++col) {
        std::size_t pivot = col;
        for (std::size_t r = col + 1; r < n; ++r)
            if (std::fabs(work[r][col]) > std::fabs(work[pivot][col]))
                pivot = r;
        if (std::fabs(work[pivot][col]) < 1e-12) {
            if (singular) {
                *singular = true;
                return std::vector<double>(n, 0.0);
            }
            std::abort();
        }
        std::swap(work[col], work[pivot]);

        for (std::size_t r = col + 1; r < n; ++r) {
            const double factor = work[r][col] / work[col][col];
            if (factor == 0.0)
                continue;
            for (std::size_t c = col; c <= n; ++c)
                work[r][c] -= factor * work[col][c];
        }
    }

    std::vector<double> x(n, 0.0);
    for (std::size_t r = n; r-- > 0;) {
        double acc = work[r][n];
        for (std::size_t c = r + 1; c < n; ++c)
            acc -= work[r][c] * x[c];
        x[r] = acc / work[r][r];
    }
    return x;
}

iceb::math::Polynomial
polyfitSeries(const std::vector<double> &y, std::size_t degree)
{
    const std::size_t terms = degree + 1;
    std::vector<double> x(y.size());
    std::iota(x.begin(), x.end(), 0.0);

    std::vector<double> ata(terms * terms);
    std::vector<double> aty(terms, 0.0);
    std::vector<double> powers(2 * degree + 1, 0.0);
    for (std::size_t i = 0; i < x.size(); ++i) {
        double xk = 1.0;
        for (std::size_t k = 0; k < powers.size(); ++k) {
            powers[k] += xk;
            if (k < terms)
                aty[k] += xk * y[i];
            xk *= x[i];
        }
    }
    for (std::size_t r = 0; r < terms; ++r)
        for (std::size_t c = 0; c < terms; ++c)
            ata[r * terms + c] = powers[r + c];

    bool singular = false;
    std::vector<double> coeffs =
        seed::solveLinearSystem(ata, aty, &singular);
    if (singular) {
        const double mean = std::accumulate(y.begin(), y.end(), 0.0) /
            static_cast<double>(y.size());
        std::vector<double> fallback(terms, 0.0);
        fallback[0] = mean;
        return iceb::math::Polynomial(std::move(fallback));
    }
    return iceb::math::Polynomial(std::move(coeffs));
}

std::vector<double>
detrend(const std::vector<double> &y, const iceb::math::Polynomial &trend)
{
    std::vector<double> out(y.size());
    for (std::size_t i = 0; i < y.size(); ++i)
        out[i] = y[i] - trend.evaluate(static_cast<double>(i));
    return out;
}

std::vector<iceb::math::Harmonic>
decompose(const std::vector<double> &series, std::size_t max_components)
{
    const std::size_t n = series.size();
    if (n < 2)
        return {};

    const std::vector<Complex> spectrum = fftReal(series);
    std::vector<iceb::math::Harmonic> harmonics;
    harmonics.reserve(n / 2);

    const double scale = 2.0 / static_cast<double>(n);
    for (std::size_t k = 1; k <= n / 2; ++k) {
        const bool nyquist = (n % 2 == 0) && (k == n / 2);
        const double amp =
            std::abs(spectrum[k]) * (nyquist ? 0.5 * scale : scale);
        if (amp < 1e-12)
            continue;
        iceb::math::Harmonic h;
        h.amplitude = amp;
        h.frequency = static_cast<double>(k) / static_cast<double>(n);
        h.phase = std::arg(spectrum[k]);
        harmonics.push_back(h);
    }

    std::sort(harmonics.begin(), harmonics.end(),
              [](const iceb::math::Harmonic &a,
                 const iceb::math::Harmonic &b) {
                  return a.amplitude > b.amplitude;
              });
    if (max_components > 0 && harmonics.size() > max_components)
        harmonics.resize(max_components);
    return harmonics;
}

std::vector<iceb::math::Harmonic>
decomposeForExtrapolation(const std::vector<double> &series,
                          std::size_t max_components)
{
    const std::size_t n = series.size();
    if (n < 8 || max_components == 0)
        return decompose(series, max_components);

    const std::vector<Complex> spectrum = fftReal(series);
    const std::size_t half = n / 2;

    std::vector<double> magnitude(half + 1, 0.0);
    for (std::size_t k = 1; k <= half; ++k)
        magnitude[k] = std::abs(spectrum[k]);

    struct Peak
    {
        std::size_t bin;
        double magnitude;
    };
    std::vector<Peak> peaks;
    for (std::size_t k = 1; k <= half; ++k) {
        const double left = k > 1 ? magnitude[k - 1] : 0.0;
        const double right = k < half ? magnitude[k + 1] : 0.0;
        if (magnitude[k] >= left && magnitude[k] >= right &&
            magnitude[k] > 1e-12) {
            peaks.push_back(Peak{k, magnitude[k]});
        }
    }
    if (peaks.empty())
        return {};
    std::sort(peaks.begin(), peaks.end(),
              [](const Peak &a, const Peak &b) {
                  return a.magnitude > b.magnitude;
              });
    if (peaks.size() > max_components)
        peaks.resize(max_components);

    std::vector<double> frequencies;
    for (const Peak &peak : peaks) {
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

    const std::size_t terms = 2 * frequencies.size();
    std::vector<double> xtx(terms * terms, 0.0);
    std::vector<double> xty(terms, 0.0);
    std::vector<double> row(terms, 0.0);
    for (std::size_t t = 0; t < n; ++t) {
        for (std::size_t i = 0; i < frequencies.size(); ++i) {
            const double angle = 2.0 * M_PI * frequencies[i] *
                static_cast<double>(t);
            row[2 * i] = std::cos(angle);
            row[2 * i + 1] = std::sin(angle);
        }
        for (std::size_t a = 0; a < terms; ++a) {
            xty[a] += row[a] * series[t];
            for (std::size_t b = 0; b < terms; ++b)
                xtx[a * terms + b] += row[a] * row[b];
        }
    }
    for (std::size_t a = 0; a < terms; ++a)
        xtx[a * terms + a] += 1e-9;
    bool singular = false;
    const std::vector<double> coeffs =
        seed::solveLinearSystem(xtx, xty, &singular);
    if (singular)
        return decompose(series, max_components);

    std::vector<iceb::math::Harmonic> harmonics;
    harmonics.reserve(frequencies.size());
    for (std::size_t i = 0; i < frequencies.size(); ++i) {
        const double a = coeffs[2 * i];
        const double b = coeffs[2 * i + 1];
        iceb::math::Harmonic h;
        h.amplitude = std::sqrt(a * a + b * b);
        h.frequency = frequencies[i];
        h.phase = std::atan2(-b, a);
        harmonics.push_back(h);
    }
    std::sort(harmonics.begin(), harmonics.end(),
              [](const iceb::math::Harmonic &x,
                 const iceb::math::Harmonic &y) {
                  return x.amplitude > y.amplitude;
              });
    return harmonics;
}

} // namespace

Predictor::Predictor(iceb::predictors::FftPredictorConfig config)
    : config_(config)
{
    window_.reserve(config_.window);
}

void
Predictor::observe(double concurrency)
{
    if (window_.size() == config_.window)
        window_.erase(window_.begin());
    window_.push_back(std::max(0.0, concurrency));
}

std::vector<double>
Predictor::forecastHorizon(std::size_t horizon) const
{
    std::vector<double> out(horizon, 0.0);
    if (window_.empty())
        return out;
    const bool all_zero = std::all_of(window_.begin(), window_.end(),
                                      [](double v) { return v == 0.0; });
    if (all_zero)
        return out;
    if (window_.size() < config_.min_samples) {
        std::fill(out.begin(), out.end(),
                  std::max(0.0, iceb::math::mean(window_)));
        return out;
    }

    const iceb::math::Polynomial trend =
        polyfitSeries(window_, config_.poly_degree);
    const std::vector<double> residual = seed::detrend(window_, trend);
    const std::vector<iceb::math::Harmonic> harmonics =
        decomposeForExtrapolation(residual, config_.harmonics);

    for (std::size_t step = 0; step < horizon; ++step) {
        const double t = static_cast<double>(window_.size() + step);
        const double forecast =
            trend.evaluate(t) + iceb::math::evaluateHarmonics(harmonics, t);
        out[step] = std::max(0.0, forecast);
    }
    return out;
}

} // namespace seed
