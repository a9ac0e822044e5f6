#include "predictors/fft_predictor.hh"

namespace iceb::predictors
{

FftPredictor::FftPredictor(FftPredictorConfig config)
    : config_(config)
{
    pool_.addFunction(config_);
}

void
FftPredictor::observe(double concurrency)
{
    pool_.observe(0, concurrency);
}

double
FftPredictor::predictNext()
{
    pool_.forecastAll(1);
    return pool_.forecast(0)[0];
}

std::vector<double>
FftPredictor::forecastHorizon(std::size_t horizon)
{
    std::vector<double> out;
    forecastHorizon(horizon, out);
    return out;
}

void
FftPredictor::forecastHorizon(std::size_t horizon, std::vector<double> &out)
{
    pool_.forecastAll(horizon);
    const double *forecast = pool_.forecast(0);
    out.assign(forecast, forecast + horizon);
}

void
FftPredictor::reset()
{
    pool_ = ForecastPool();
    pool_.addFunction(config_);
}

} // namespace iceb::predictors
