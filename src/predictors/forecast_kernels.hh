/**
 * @file
 * Batched (structure-of-arrays) forecast kernels for the FIP.
 *
 * One block forecasts up to kLanes functions at a time: the trend
 * fit, detrend, real FFT and the harmonic fit's normal matrix, X^T y
 * and Cholesky solve walk lane-major SoA arrays so the inner loops
 * run over the kLanes axis and vectorize. The translation unit is
 * compiled with wider codegen (-march=x86-64-v3 when available, see
 * src/predictors/CMakeLists.txt) but always with -ffp-contract=off
 * and without value-unsafe optimisations, so every lane executes the
 * exact IEEE operation sequence of math's scalar stages, the FIP's
 * stage reference:
 *
 *  - the trend fit reuses the shared SeriesPowerTable chain powers
 *    and replays one FactoredSystem per fit length (bit-identical
 *    to polyfitSeries, see math/matrix.hh), and the detrend repeats
 *    detrendInto's Horner recurrence;
 *  - the batched FFT runs the same butterfly/chirp sequence as
 *    FftPlan::forwardReal from the plan's own tables, with complex
 *    arithmetic written out in the operand order std::complex lowers
 *    to;
 *  - the harmonic fit replays math::decomposeFromMagnitudes per lane:
 *    peak picking, the trig of each frequency, the direct Dirichlet
 *    sums and the final sort call math's own compiled stages, and the
 *    array stages repeat its operation order. A lane with fewer peaks
 *    than the block's largest count is padded with identity rows and
 *    columns, which leaves its solution bit for bit unchanged.
 *
 * A lane's forecast is therefore bit-identical to those stages
 * composed over its window (enforced by test) at every window length
 * n >= 8, whichever block and lane position it is fitted in, which is
 * what lets the pool fit warm-up lanes at n = their sample count
 * through the same kernels.
 */

#ifndef ICEB_PREDICTORS_FORECAST_KERNELS_HH
#define ICEB_PREDICTORS_FORECAST_KERNELS_HH

#include <array>
#include <cstddef>
#include <vector>

#include "math/fft.hh"
#include "math/harmonics.hh"
#include "math/matrix.hh"
#include "math/polyfit.hh"

namespace iceb::predictors::kernels
{

/** Functions forecast together per block (the SoA lane count). */
constexpr std::size_t kLanes = 8;

/**
 * Immutable inputs shared by every block a pool fits at one length:
 * the cached plan and fit tables for that length.
 */
struct BlockContext
{
    const math::FftPlan *plan = nullptr; //!< plan for length window
    std::size_t window = 0;              //!< samples per function
    std::size_t degree = 2;              //!< trend polynomial order
    std::size_t harmonics = 10;          //!< top-n components kept
    /** Shared Vandermonde powers/power sums for the trend fit. */
    const math::SeriesPowerTable *powers = nullptr;
    /** Factored normal matrix, replayed per lane. */
    const math::FactoredSystem *trend_system = nullptr;
};

/**
 * Per-thread scratch for one block. SoA arrays are indexed
 * [entry * kLanes + lane]; prepare() sizes everything for a context
 * and allocates nothing once capacities cover the longest window.
 */
struct BlockScratch
{
    std::vector<double> window;    //!< gathered input, filled by caller
    std::vector<double> resid;     //!< detrended residual
    std::vector<double> coeffs;    //!< trend coefficients, [k*kLanes+l]
    std::vector<double> aty;       //!< normal-equation rhs, [k*kLanes+l]
    std::vector<double> spec_re;   //!< spectrum bins 0..n/2
    std::vector<double> spec_im;
    std::vector<double> magnitude; //!< |spectrum| bins 0..n/2
    std::vector<double> fft_re;    //!< Bluestein pow2 work buffer
    std::vector<double> fft_im;
    std::vector<double> packed_re; //!< packed half-length signal
    std::vector<double> packed_im;
    /** Harmonic fit, per peak i: refined frequency, e^{iw}, e^{inw}. */
    std::vector<double> freq;
    std::vector<double> step_re, step_im;
    std::vector<double> span_re, span_im;
    /** Normal matrix as a packed lower triangle, row r at r(r+1)/2. */
    std::vector<double> gram;
    std::vector<double> xty;       //!< X^T y, solved in place
    std::vector<double> lane_rhs;  //!< contiguous per-lane solve buffer
    math::HarmonicsWorkspace hws;
    math::Polynomial trend_poly;
    /** Each lane's harmonics from the last fitHarmonicsBatch. */
    std::array<std::vector<math::Harmonic>, kLanes> harm;

    /** Size all buffers for @p ctx (no-op once capacity exists). */
    void prepare(const BlockContext &ctx);
};

/**
 * Forecast lanes 0..lanes-1 of one gathered block. The caller fills
 * scratch.window for those lanes and zero-fills the other columns,
 * and receives out[step * kLanes + lane] for each of the @p horizon
 * steps of each of them. Requires window >= 8.
 */
void forecastBlock(const BlockContext &ctx, std::size_t lanes,
                   std::size_t horizon, BlockScratch &scratch,
                   double *out);

/**
 * The harmonic fit of lanes 0..lanes-1, bit-identical per lane to
 * math::decomposeFromMagnitudes(ctx.window, ctx.harmonics). Lane l
 * fits the residual resid[i * kLanes + l] (i < window) at the peaks
 * of its bin magnitudes magnitude[k * kLanes + l] (k = 0..window/2,
 * DC ignored) and leaves its harmonics in scratch.harm[l]. Peak
 * picking, the trig of each frequency and the final sort run per lane
 * through math's shared stages; the normal matrix, X^T y and the
 * Cholesky solve run across lanes. Requires window >= 8 and scratch
 * prepared for @p ctx.
 */
void fitHarmonicsBatch(const BlockContext &ctx, std::size_t lanes,
                       const double *resid, const double *magnitude,
                       BlockScratch &scratch);

/**
 * SoA forward real DFT of kLanes series at once: reads
 * in[i * kLanes + lane] for i < n and writes spectrum bins 0..n/2 to
 * out_re/out_im (same indexing). Runs the exact operation sequence of
 * FftPlan::forwardReal per lane (exposed for the golden tests).
 */
void forwardRealBatch(const math::FftPlan &plan, const double *in,
                      double *out_re, double *out_im,
                      BlockScratch &scratch);

} // namespace iceb::predictors::kernels

#endif // ICEB_PREDICTORS_FORECAST_KERNELS_HH
