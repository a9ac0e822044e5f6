/**
 * @file
 * Spectral (harmonic) decomposition of real time series.
 *
 * IceBreaker's FIP models a detrended invocation-concurrency window as
 * a sum of its top-n harmonics, each a cosine with amplitude,
 * frequency and phase taken from the FFT, then extrapolates one
 * interval into the future (Sec. 3.1, Eq. for f(t_k + 1)).
 */

#ifndef ICEB_MATH_HARMONICS_HH
#define ICEB_MATH_HARMONICS_HH

#include <cstddef>
#include <memory>
#include <vector>

#include "math/fft.hh"

namespace iceb::math
{

/** One sinusoidal component: amplitude * cos(2*pi*frequency*t + phase). */
struct Harmonic
{
    double amplitude = 0.0; //!< peak amplitude in concurrency units
    double frequency = 0.0; //!< cycles per interval (k / N)
    double phase = 0.0;     //!< radians

    /** Evaluate this component at (continuous) time t. */
    double evaluate(double t) const;
};

/**
 * Decompose a real series into its harmonics sorted by descending
 * amplitude. The DC bin is excluded (the FIP's polynomial trend
 * carries the level); for even N the Nyquist bin is included with the
 * appropriate 1/N scaling.
 *
 * @param series Detrended samples at t = 0..N-1.
 * @param max_components Keep at most this many (0 keeps all).
 */
std::vector<Harmonic> decompose(const std::vector<double> &series,
                                std::size_t max_components);

/** Sum of harmonic contributions at time t. */
double evaluateHarmonics(const std::vector<Harmonic> &harmonics, double t);

/**
 * Count "significant" harmonics: spectral peaks whose amplitude is at
 * least @p relative_threshold of the largest component. Reproduces the
 * paper's Fig. 5(b) census (25% of functions have >= 1 extra harmonic,
 * 98% have < 10).
 */
std::size_t countSignificantHarmonics(const std::vector<double> &series,
                                      double relative_threshold = 0.2);

/**
 * Dominant period of the series in intervals (1 / frequency of the
 * largest harmonic); 0 when the series has no oscillatory component.
 */
double dominantPeriod(const std::vector<double> &series);

/** One spectral peak candidate (exposed for workspace reuse). */
struct SpectralPeak
{
    std::size_t bin = 0;
    double magnitude = 0.0;
};

/**
 * Reusable scratch for the extrapolation-grade decomposition
 * (decomposeFromMagnitudes): a transform plan, spectrum/magnitude
 * buffers, peak lists and the least-squares system. Owned by the
 * caller so repeated decompositions allocate nothing in steady state.
 */
struct HarmonicsWorkspace
{
    std::shared_ptr<const FftPlan> plan; //!< plan for the last length
    FftScratch fft;
    std::vector<Complex> spectrum;
    std::vector<double> magnitude;       //!< |X_k| for k = 0..n/2
    std::vector<SpectralPeak> peaks;
    std::vector<double> frequencies;
    std::vector<Complex> step;           //!< e^{i w} per frequency
    std::vector<Complex> span;           //!< e^{i n w} per frequency
    std::vector<Complex> rotor;          //!< e^{i w t} during the X^T y pass
    std::vector<double> xtx;             //!< terms x terms, row-major
    std::vector<double> xty;             //!< X^T y, solved in place
};

/**
 * Extrapolation-grade decomposition of a detrended series, given its
 * bin magnitudes (ws.magnitude[0..n/2], DC ignored) from a real FFT.
 * Harmonics at exact FFT bin frequencies k/N all wrap at t = N (the
 * "forecast" would equal the window's first sample), so this: (1)
 * finds the top spectral peaks, (2) refines each peak frequency by
 * quadratic interpolation of the log-magnitude spectrum, and (3)
 * least-squares fits amplitude and phase at the refined frequencies.
 * The result genuinely extrapolates beyond the window. Requires
 * n >= 8 and max_components >= 1.
 *
 * The least-squares fit never forms the n x 2m design matrix. Over a
 * contiguous window every normal-matrix entry is built from Dirichlet
 * sums sum_{t<n} e^{i a t} = (e^{i n a} - 1) / (e^{i a} - 1) at
 * a = w_i +- w_j, so the matrix costs 4m cos/sin calls and O(m^2)
 * complex arithmetic; X^T y costs one rotation recurrence per
 * frequency; the 2m x 2m system, with a 1e-9 ridge, is solved by
 * Cholesky. A numerically singular system falls back to decompose().
 *
 * This is the stage reference: the batched forecast kernels run the
 * same stages across 8 lanes (predictors/forecast_kernels.hh) and are
 * tested bit for bit against it.
 *
 * @p fast_trig is ignored: there is one fit. The parameter stays for
 * source compatibility with callers that still pass it.
 */
void decomposeFromMagnitudes(const double *series, std::size_t n,
                             std::size_t max_components,
                             std::vector<Harmonic> &out,
                             HarmonicsWorkspace &ws, bool fast_trig = false);

// Stages of decomposeFromMagnitudes shared with the batched kernels,
// which run the fit's array stages across lanes and call these for
// the per-lane rest, so both paths execute one compiled copy of each.

/** |e^{ia} - 1| below which a Dirichlet sum is summed term by term:
 * the quotient (e^{ina} - 1) / (e^{ia} - 1) loses its digits there. */
inline constexpr double kDirectSumBelow = 1e-2;

/** Ridge added to the normal matrix's diagonal, which keeps the
 * system definite when two refined peaks coincide. */
inline constexpr double kFitRidge = 1e-9;

/** sum_{t<n} e^{i angle t}, summed term by term. */
Complex directDirichletSum(double angle, std::size_t n);

/**
 * Peak picking and log-parabola refinement: the top @p max_components
 * local maxima of ws.magnitude[1..n/2], strongest first, refined off
 * the bin grid into ws.frequencies, with each frequency's step e^{iw}
 * and span e^{inw} (w = 2 pi f) in ws.step and ws.span. Returns the
 * number of peaks m (0 when the spectrum has none).
 */
std::size_t refinedPeaks(std::size_t n, std::size_t max_components,
                         HarmonicsWorkspace &ws);

/**
 * Amplitudes, phases and the final sort: the harmonics of the solved
 * least-squares coefficients ws.xty = (a_0, b_0, a_1, b_1, ...) at
 * ws.frequencies, by descending amplitude, into @p out.
 */
void harmonicsFromFit(const HarmonicsWorkspace &ws,
                      std::vector<Harmonic> &out);

} // namespace iceb::math

#endif // ICEB_MATH_HARMONICS_HH
