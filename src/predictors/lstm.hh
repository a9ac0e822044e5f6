/**
 * @file
 * From-scratch single-layer LSTM predictor.
 *
 * Exists to reproduce the paper's Fig. 11: a "complex learning-based
 * prediction mechanism" that yields marginally better forecasts than
 * the FFT-based FIP but at a prohibitive (hundreds of times larger)
 * per-interval overhead. Trains online with truncated backpropagation
 * through time over the local window on every observation.
 */

#ifndef ICEB_PREDICTORS_LSTM_HH
#define ICEB_PREDICTORS_LSTM_HH

#include <cstdint>
#include <vector>

#include "predictors/predictor.hh"

namespace iceb::predictors
{

/**
 * LSTM training configuration (the hidden width, learning rate and
 * gradient clip are constants in lstm.cc).
 */
struct LstmConfig
{
    std::size_t window = 60;           //!< BPTT window (intervals)
    std::size_t epochs_per_observe = 4; //!< online training intensity
    std::uint64_t seed = 0x15D7'0001ull;
};

/**
 * One-step-ahead LSTM forecaster.
 */
class LstmPredictor : public Predictor
{
  public:
    explicit LstmPredictor(LstmConfig config = {});

    const char *name() const override { return "lstm"; }
    void observe(double concurrency) override;
    double predictNext() override;
    void reset() override;

    const LstmConfig &config() const { return config_; }

  private:
    struct StepCache
    {
        std::vector<double> x_h; //!< [x, h_prev] concatenated
        std::vector<double> i, f, o, g, c, h, tanh_c;
    };

    void initWeights();
    /** Forward over the window; fills caches when training. */
    double forward(const std::vector<double> &inputs,
                   std::vector<StepCache> *caches) const;
    void trainOneEpoch();
    double normalize(double value) const;
    double denormalize(double value) const;

    LstmConfig config_;
    std::vector<double> window_;
    double scale_ = 1.0; //!< running max for normalisation

    // Gate weights: each gate has a (hidden x (1 + hidden)) input
    // matrix and a bias vector; output layer is (1 x hidden) + bias.
    std::vector<double> w_i_, w_f_, w_o_, w_g_;
    std::vector<double> b_i_, b_f_, b_o_, b_g_;
    std::vector<double> w_y_;
    double b_y_ = 0.0;
};

} // namespace iceb::predictors

#endif // ICEB_PREDICTORS_LSTM_HH
