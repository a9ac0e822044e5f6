#include "stage_reference.hh"

#include <algorithm>
#include <cmath>

#include "math/fft.hh"
#include "math/harmonics.hh"
#include "math/polyfit.hh"
#include "math/stats.hh"

namespace stage
{

Reference::Reference(iceb::predictors::FftPredictorConfig config)
    : config_(config)
{
}

void
Reference::observe(double concurrency)
{
    if (window_.size() == config_.window)
        window_.erase(window_.begin());
    window_.push_back(std::max(0.0, concurrency));
}

void
Reference::forecastHorizon(std::size_t horizon,
                           std::vector<double> &out) const
{
    namespace math = iceb::math;
    out.assign(horizon, 0.0);
    if (std::all_of(window_.begin(), window_.end(),
                    [](double v) { return v == 0.0; }))
        return;
    if (window_.size() < config_.min_samples) {
        std::fill(out.begin(), out.end(),
                  std::max(0.0, math::mean(window_)));
        return;
    }

    const std::size_t n = window_.size();
    math::Polynomial trend;
    math::PolyfitWorkspace poly_ws;
    math::polyfitSeries(window_.data(), n, config_.poly_degree, trend,
                        poly_ws);
    std::vector<double> residual;
    math::detrendInto(window_.data(), n, trend, residual);

    math::HarmonicsWorkspace ws;
    ws.plan = math::fftPlanFor(n);
    ws.spectrum.resize(n);
    ws.plan->forwardReal(residual.data(), ws.spectrum.data(), ws.fft);
    ws.magnitude.assign(n / 2 + 1, 0.0);
    for (std::size_t k = 1; k <= n / 2; ++k)
        ws.magnitude[k] = std::abs(ws.spectrum[k]);
    std::vector<math::Harmonic> harmonics;
    math::decomposeFromMagnitudes(residual.data(), n, config_.harmonics,
                                  harmonics, ws);

    for (std::size_t step = 0; step < horizon; ++step) {
        const double t = static_cast<double>(n + step);
        out[step] = std::max(
            0.0, trend.evaluate(t) + math::evaluateHarmonics(harmonics, t));
    }
}

} // namespace stage
