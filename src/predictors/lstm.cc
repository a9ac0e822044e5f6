#include "predictors/lstm.hh"

#include <algorithm>
#include <cmath>

#include "common/logging.hh"
#include "common/rng.hh"

namespace iceb::predictors
{

namespace
{

/** Hidden/cell width. */
constexpr std::size_t kHidden = 16;
static_assert(kHidden >= 2, "LSTM hidden width too small");

inline double
sigmoid(double x)
{
    return 1.0 / (1.0 + std::exp(-x));
}

inline double
clip(double x, double bound)
{
    return std::clamp(x, -bound, bound);
}

} // namespace

LstmPredictor::LstmPredictor(LstmConfig config)
    : config_(config)
{
    ICEB_ASSERT(config_.window >= 4, "LSTM window too small");
    initWeights();
}

void
LstmPredictor::initWeights()
{
    Rng rng(config_.seed);
    const std::size_t h = kHidden;
    const std::size_t in = 1 + h; // [x, h_prev]
    const double bound = 1.0 / std::sqrt(static_cast<double>(in));
    auto init_matrix = [&](std::vector<double> &w) {
        w.resize(h * in);
        for (double &value : w)
            value = rng.uniform(-bound, bound);
    };
    init_matrix(w_i_);
    init_matrix(w_f_);
    init_matrix(w_o_);
    init_matrix(w_g_);
    b_i_.assign(h, 0.0);
    b_f_.assign(h, 1.0); // standard forget-gate bias init
    b_o_.assign(h, 0.0);
    b_g_.assign(h, 0.0);
    w_y_.resize(h);
    for (double &value : w_y_)
        value = rng.uniform(-bound, bound);
    b_y_ = 0.0;
}

double
LstmPredictor::normalize(double value) const
{
    return value / scale_;
}

double
LstmPredictor::denormalize(double value) const
{
    return value * scale_;
}

void
LstmPredictor::observe(double concurrency)
{
    concurrency = std::max(0.0, concurrency);
    if (window_.size() == config_.window)
        window_.erase(window_.begin());
    window_.push_back(concurrency);
    scale_ = std::max({scale_, concurrency, 1.0});

    if (window_.size() >= 4) {
        for (std::size_t e = 0; e < config_.epochs_per_observe; ++e)
            trainOneEpoch();
    }
}

double
LstmPredictor::forward(const std::vector<double> &inputs,
                       std::vector<StepCache> *caches) const
{
    const std::size_t h = kHidden;
    const std::size_t in = 1 + h;
    std::vector<double> h_prev(h, 0.0);
    std::vector<double> c_prev(h, 0.0);

    double output = 0.0;
    for (std::size_t t = 0; t < inputs.size(); ++t) {
        StepCache cache;
        cache.x_h.resize(in);
        cache.x_h[0] = normalize(inputs[t]);
        for (std::size_t j = 0; j < h; ++j)
            cache.x_h[1 + j] = h_prev[j];

        cache.i.resize(h);
        cache.f.resize(h);
        cache.o.resize(h);
        cache.g.resize(h);
        cache.c.resize(h);
        cache.h.resize(h);
        cache.tanh_c.resize(h);
        for (std::size_t j = 0; j < h; ++j) {
            double zi = b_i_[j], zf = b_f_[j], zo = b_o_[j],
                   zg = b_g_[j];
            const std::size_t row = j * in;
            for (std::size_t k = 0; k < in; ++k) {
                const double x = cache.x_h[k];
                zi += w_i_[row + k] * x;
                zf += w_f_[row + k] * x;
                zo += w_o_[row + k] * x;
                zg += w_g_[row + k] * x;
            }
            cache.i[j] = sigmoid(zi);
            cache.f[j] = sigmoid(zf);
            cache.o[j] = sigmoid(zo);
            cache.g[j] = std::tanh(zg);
            cache.c[j] = cache.f[j] * c_prev[j] +
                cache.i[j] * cache.g[j];
            cache.tanh_c[j] = std::tanh(cache.c[j]);
            cache.h[j] = cache.o[j] * cache.tanh_c[j];
        }
        h_prev = cache.h;
        c_prev = cache.c;

        output = b_y_;
        for (std::size_t j = 0; j < h; ++j)
            output += w_y_[j] * cache.h[j];
        if (caches)
            caches->push_back(std::move(cache));
    }
    return output;
}

void
LstmPredictor::trainOneEpoch()
{
    const std::size_t h = kHidden;
    const std::size_t in = 1 + h;
    const std::size_t steps = window_.size();
    if (steps < 2)
        return;

    // Forward with caches; target at step t is the (normalised) value
    // at t+1, so the prediction error is defined for t < steps-1.
    std::vector<StepCache> caches;
    caches.reserve(steps);
    forward(window_, &caches);

    // Gradient accumulators.
    std::vector<double> gw_i(h * in, 0.0), gw_f(h * in, 0.0),
        gw_o(h * in, 0.0), gw_g(h * in, 0.0);
    std::vector<double> gb_i(h, 0.0), gb_f(h, 0.0), gb_o(h, 0.0),
        gb_g(h, 0.0);
    std::vector<double> gw_y(h, 0.0);
    double gb_y = 0.0;

    std::vector<double> dh_next(h, 0.0);
    std::vector<double> dc_next(h, 0.0);

    for (std::size_t t = steps; t-- > 0;) {
        const StepCache &cache = caches[t];
        std::vector<double> dh = dh_next;

        if (t + 1 < steps) {
            // Output-layer error at this step.
            double y = b_y_;
            for (std::size_t j = 0; j < h; ++j)
                y += w_y_[j] * cache.h[j];
            const double target = normalize(window_[t + 1]);
            const double dy = 2.0 * (y - target) /
                static_cast<double>(steps - 1);
            gb_y += dy;
            for (std::size_t j = 0; j < h; ++j) {
                gw_y[j] += dy * cache.h[j];
                dh[j] += dy * w_y_[j];
            }
        }

        std::vector<double> dx_h(in, 0.0);
        std::vector<double> dc(h, 0.0);
        for (std::size_t j = 0; j < h; ++j) {
            const double do_ = dh[j] * cache.tanh_c[j];
            dc[j] = dc_next[j] +
                dh[j] * cache.o[j] *
                    (1.0 - cache.tanh_c[j] * cache.tanh_c[j]);
            const double di = dc[j] * cache.g[j];
            const double dg = dc[j] * cache.i[j];
            const double c_prev =
                t > 0 ? caches[t - 1].c[j] : 0.0;
            const double df = dc[j] * c_prev;

            const double zi = di * cache.i[j] * (1.0 - cache.i[j]);
            const double zf = df * cache.f[j] * (1.0 - cache.f[j]);
            const double zo = do_ * cache.o[j] * (1.0 - cache.o[j]);
            const double zg = dg * (1.0 - cache.g[j] * cache.g[j]);

            gb_i[j] += zi;
            gb_f[j] += zf;
            gb_o[j] += zo;
            gb_g[j] += zg;
            const std::size_t row = j * in;
            for (std::size_t k = 0; k < in; ++k) {
                const double x = cache.x_h[k];
                gw_i[row + k] += zi * x;
                gw_f[row + k] += zf * x;
                gw_o[row + k] += zo * x;
                gw_g[row + k] += zg * x;
                dx_h[k] += zi * w_i_[row + k] + zf * w_f_[row + k] +
                    zo * w_o_[row + k] + zg * w_g_[row + k];
            }
        }
        for (std::size_t j = 0; j < h; ++j) {
            dh_next[j] = dx_h[1 + j];
            dc_next[j] = dc[j] * cache.f[j];
        }
    }

    // Clipped SGD step.
    constexpr double kLearningRate = 0.05;
    constexpr double kGradClip = 1.0;
    auto apply = [&](std::vector<double> &w,
                     const std::vector<double> &g) {
        for (std::size_t k = 0; k < w.size(); ++k)
            w[k] -= kLearningRate * clip(g[k], kGradClip);
    };
    apply(w_i_, gw_i);
    apply(w_f_, gw_f);
    apply(w_o_, gw_o);
    apply(w_g_, gw_g);
    apply(b_i_, gb_i);
    apply(b_f_, gb_f);
    apply(b_o_, gb_o);
    apply(b_g_, gb_g);
    apply(w_y_, gw_y);
    b_y_ -= kLearningRate * clip(gb_y, kGradClip);
}

double
LstmPredictor::predictNext()
{
    if (window_.empty())
        return 0.0;
    const double normalized = forward(window_, nullptr);
    return std::max(0.0, denormalize(normalized));
}

void
LstmPredictor::reset()
{
    window_.clear();
    scale_ = 1.0;
    initWeights();
}

} // namespace iceb::predictors
