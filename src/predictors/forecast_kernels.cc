#include "predictors/forecast_kernels.hh"

#include <algorithm>

#include "common/logging.hh"

namespace iceb::predictors::kernels
{

namespace
{

constexpr std::size_t L = kLanes;

/**
 * Radix-2 kernel over plan.pow2Length() points for all lanes at once,
 * mirroring FftPlan::pow2InPlace: same bit-reversal swaps, same
 * table-driven butterflies, complex products written in the operand
 * order std::complex multiplication lowers to (re = a.re*b.re -
 * a.im*b.im, im = a.re*b.im + a.im*b.re for finite values), so each
 * lane's values match the scalar transform bit for bit.
 */
void
pow2BatchInPlace(const math::FftPlan &plan, double *re, double *im,
                 bool inverse)
{
    const std::size_t p = plan.pow2Length();
    const std::uint32_t *bitrev = plan.bitrev().data();
    for (std::size_t i = 0; i < p; ++i) {
        const std::size_t j = bitrev[i];
        if (j > i) {
            for (std::size_t l = 0; l < L; ++l) {
                std::swap(re[i * L + l], re[j * L + l]);
                std::swap(im[i * L + l], im[j * L + l]);
            }
        }
    }

    const math::Complex *table = plan.twiddles(inverse).data();
    for (std::size_t len = 2; len <= p; len <<= 1) {
        const std::size_t half = len / 2;
        for (std::size_t start = 0; start < p; start += len) {
            for (std::size_t k = 0; k < half; ++k) {
                const double wr = table[k].real();
                const double wi = table[k].imag();
                double *er = re + (start + k) * L;
                double *ei = im + (start + k) * L;
                double *odr = re + (start + k + half) * L;
                double *odi = im + (start + k + half) * L;
                for (std::size_t l = 0; l < L; ++l) {
                    const double ar = odr[l];
                    const double ai = odi[l];
                    const double oddr = ar * wr - ai * wi;
                    const double oddi = ar * wi + ai * wr;
                    const double br = er[l];
                    const double bi = ei[l];
                    er[l] = br + oddr;
                    ei[l] = bi + oddi;
                    odr[l] = br - oddr;
                    odi[l] = bi - oddi;
                }
            }
        }
        table += half;
    }

    if (inverse) {
        const double scale = 1.0 / static_cast<double>(p);
        for (std::size_t idx = 0; idx < p * L; ++idx) {
            re[idx] *= scale;
            im[idx] *= scale;
        }
    }
}

/**
 * Batched Bluestein forward transform (the FftPlan::forward non-pow2
 * path): chirp-multiply into a zero-padded buffer, pow2 forward,
 * kernel multiply, pow2 inverse (1/m-scaled), chirp-multiply out.
 * in_im may be null for real input (treated as literal 0.0 so the
 * operation sequence matches the scalar complex transform of a
 * zero-imaginary signal). out may alias in. Writes all n bins.
 */
void
bluesteinForwardBatch(const math::FftPlan &plan, const double *in_re,
                      const double *in_im, double *out_re,
                      double *out_im, BlockScratch &s)
{
    const std::size_t n = plan.size();
    const std::size_t m = plan.pow2Length();
    const math::Complex *chirp = plan.chirp().data();
    const math::Complex *kernel = plan.kernelFft().data();

    std::fill(s.fft_re.begin(), s.fft_re.end(), 0.0);
    std::fill(s.fft_im.begin(), s.fft_im.end(), 0.0);
    double *ar = s.fft_re.data();
    double *ai = s.fft_im.data();
    for (std::size_t i = 0; i < n; ++i) {
        const double cr = chirp[i].real();
        const double ci = chirp[i].imag();
        for (std::size_t l = 0; l < L; ++l) {
            const double xr = in_re[i * L + l];
            const double xi = in_im != nullptr ? in_im[i * L + l] : 0.0;
            ar[i * L + l] = xr * cr - xi * ci;
            ai[i * L + l] = xr * ci + xi * cr;
        }
    }

    pow2BatchInPlace(plan, ar, ai, false);
    for (std::size_t i = 0; i < m; ++i) {
        const double br = kernel[i].real();
        const double bi = kernel[i].imag();
        for (std::size_t l = 0; l < L; ++l) {
            const double xr = ar[i * L + l];
            const double xi = ai[i * L + l];
            ar[i * L + l] = xr * br - xi * bi;
            ai[i * L + l] = xr * bi + xi * br;
        }
    }
    pow2BatchInPlace(plan, ar, ai, true);

    for (std::size_t i = 0; i < n; ++i) {
        const double cr = chirp[i].real();
        const double ci = chirp[i].imag();
        for (std::size_t l = 0; l < L; ++l) {
            const double xr = ar[i * L + l];
            const double xi = ai[i * L + l];
            out_re[i * L + l] = xr * cr - xi * ci;
            out_im[i * L + l] = xr * ci + xi * cr;
        }
    }
}

} // namespace

void
BlockScratch::prepare(const BlockContext &ctx)
{
    const std::size_t n = ctx.window;
    const std::size_t terms = ctx.degree + 1;
    window.resize(n * L);
    resid.resize(n * L);
    coeffs.resize(terms * L);
    aty.resize(terms * L);
    spec_re.resize((n / 2 + 1) * L);
    spec_im.resize((n / 2 + 1) * L);
    packed_re.resize(n * L);
    packed_im.resize(n * L);
    lane_rhs.resize(terms);
    lane_series.resize(n);

    const math::FftPlan *half = ctx.plan->halfPlan();
    std::size_t pow2_work = 0;
    if (half != nullptr) {
        if (!half->isPow2())
            pow2_work = half->pow2Length();
    } else if (!ctx.plan->isPow2()) {
        pow2_work = ctx.plan->pow2Length();
    }
    fft_re.resize(pow2_work * L);
    fft_im.resize(pow2_work * L);
}

void
forwardRealBatch(const math::FftPlan &plan, const double *in,
                 double *out_re, double *out_im, BlockScratch &scratch)
{
    const std::size_t n = plan.size();
    ICEB_ASSERT(n >= 2, "batched real FFT needs n >= 2");
    const math::FftPlan *half_plan = plan.halfPlan();
    if (half_plan == nullptr) {
        // Odd length: complex transform of the (zero-imaginary) real
        // signal, then keep bins 0..n/2 (mirrors forwardReal's
        // fallback through forward()).
        bluesteinForwardBatch(plan, in, nullptr,
                              scratch.packed_re.data(),
                              scratch.packed_im.data(), scratch);
        const std::size_t bins = n / 2 + 1;
        std::copy(scratch.packed_re.begin(),
                  scratch.packed_re.begin() +
                      static_cast<std::ptrdiff_t>(bins * L),
                  out_re);
        std::copy(scratch.packed_im.begin(),
                  scratch.packed_im.begin() +
                      static_cast<std::ptrdiff_t>(bins * L),
                  out_im);
        return;
    }

    // Pack sample pairs into an n/2-point complex signal, transform,
    // and unpack - the same split-spectrum identities as
    // FftPlan::forwardReal, restricted to the bins 0..n/2 the
    // magnitude pass consumes.
    const std::size_t h = n / 2;
    double *zr = scratch.packed_re.data();
    double *zi = scratch.packed_im.data();
    for (std::size_t j = 0; j < h; ++j) {
        for (std::size_t l = 0; l < L; ++l) {
            zr[j * L + l] = in[(2 * j) * L + l];
            zi[j * L + l] = in[(2 * j + 1) * L + l];
        }
    }
    if (half_plan->isPow2())
        pow2BatchInPlace(*half_plan, zr, zi, false);
    else
        bluesteinForwardBatch(*half_plan, zr, zi, zr, zi, scratch);

    const math::Complex *rtw = plan.realTwiddles().data();
    for (std::size_t k = 0; k < h; ++k) {
        const std::size_t ks = (h - k) % h;
        const double twr = rtw[k].real();
        const double twi = rtw[k].imag();
        for (std::size_t l = 0; l < L; ++l) {
            const double zkr = zr[k * L + l];
            const double zki = zi[k * L + l];
            const double zsr = zr[ks * L + l];
            const double zsi = -zi[ks * L + l];
            const double evr = 0.5 * (zkr + zsr);
            const double evi = 0.5 * (zki + zsi);
            const double dr = zkr - zsr;
            const double di = zki - zsi;
            // odd = Complex(0.0, -0.5) * (zk - zs), written in the
            // lowered operand order; the 0.0 products are kept so the
            // signed-zero behaviour matches the scalar path exactly.
            const double odr = 0.0 * dr - (-0.5) * di;
            const double odi = 0.0 * di + (-0.5) * dr;
            const double ror = twr * odr - twi * odi;
            const double roi = twr * odi + twi * odr;
            out_re[k * L + l] = evr + ror;
            out_im[k * L + l] = evi + roi;
            if (k == 0) {
                out_re[h * L + l] = evr - ror;
                out_im[h * L + l] = evi - roi;
            }
        }
    }
}

void
forecastBlock(const BlockContext &ctx, const bool *active,
              std::size_t horizon, BlockScratch &scratch, double *out)
{
    const std::size_t n = ctx.window;
    const std::size_t terms = ctx.degree + 1;
    ICEB_ASSERT(n >= 8, "forecastBlock needs window >= 8");
    ICEB_ASSERT(ctx.plan != nullptr && ctx.powers != nullptr &&
                    ctx.trend_system != nullptr,
                "forecastBlock needs prepared length caches");

    double *window = scratch.window.data();
    double *aty = scratch.aty.data();
    double *coeffs = scratch.coeffs.data();
    double *resid = scratch.resid.data();

    // Trend fit: the normal-equation rhs sum_i i^k * y_i per lane,
    // accumulated in the same ascending-i order (and from the same
    // chain powers) as polyfitSeries.
    std::fill(scratch.aty.begin(), scratch.aty.end(), 0.0);
    const double *xpow = ctx.powers->xpow.data();
    for (std::size_t i = 0; i < n; ++i) {
        const double *xrow = xpow + i * terms;
        const double *w = window + i * L;
        for (std::size_t k = 0; k < terms; ++k) {
            const double xk = xrow[k];
            double *dst = aty + k * L;
            for (std::size_t l = 0; l < L; ++l)
                dst[l] += xk * w[l];
        }
    }
    if (ctx.trend_system->singular()) {
        // Degenerate normal matrix: every lane falls back to its mean
        // level, matching polyfitSeries' singular path (ascending
        // accumulation order).
        for (std::size_t l = 0; l < L; ++l) {
            double sum = 0.0;
            for (std::size_t i = 0; i < n; ++i)
                sum += window[i * L + l];
            for (std::size_t k = 0; k < terms; ++k)
                coeffs[k * L + l] = 0.0;
            coeffs[l] = sum / static_cast<double>(n);
        }
    } else {
        double *rhs = scratch.lane_rhs.data();
        for (std::size_t l = 0; l < L; ++l) {
            for (std::size_t k = 0; k < terms; ++k)
                rhs[k] = aty[k * L + l];
            ctx.trend_system->solve(rhs, rhs);
            for (std::size_t k = 0; k < terms; ++k)
                coeffs[k * L + l] = rhs[k];
        }
    }

    // Detrend: per-lane Horner evaluation with the scalar
    // Polynomial::evaluate recurrence (including the leading
    // acc = 0*t + c_top step, for exactness).
    for (std::size_t i = 0; i < n; ++i) {
        const double t = static_cast<double>(i);
        double acc[L];
        for (std::size_t l = 0; l < L; ++l)
            acc[l] = 0.0;
        for (std::size_t k = terms; k-- > 0;) {
            const double *ck = coeffs + k * L;
            for (std::size_t l = 0; l < L; ++l)
                acc[l] = acc[l] * t + ck[l];
        }
        const double *w = window + i * L;
        double *r = resid + i * L;
        for (std::size_t l = 0; l < L; ++l)
            r[l] = w[l] - acc[l];
    }

    forwardRealBatch(*ctx.plan, resid, scratch.spec_re.data(),
                     scratch.spec_im.data(), scratch);

    // Harmonic fit + horizon evaluation per active lane.
    const std::size_t half = n / 2;
    const double *spec_re = scratch.spec_re.data();
    const double *spec_im = scratch.spec_im.data();
    for (std::size_t l = 0; l < L; ++l) {
        if (!active[l])
            continue;
        scratch.hws.magnitude.assign(half + 1, 0.0);
        for (std::size_t k = 1; k <= half; ++k) {
            scratch.hws.magnitude[k] = std::abs(
                math::Complex(spec_re[k * L + l], spec_im[k * L + l]));
        }
        double *series = scratch.lane_series.data();
        for (std::size_t i = 0; i < n; ++i)
            series[i] = resid[i * L + l];
        math::decomposeFromMagnitudes(series, n, ctx.harmonics,
                                      scratch.harm, scratch.hws);

        double *rhs = scratch.lane_rhs.data();
        for (std::size_t k = 0; k < terms; ++k)
            rhs[k] = coeffs[k * L + l];
        scratch.trend_poly.assign(rhs, terms);
        for (std::size_t step = 0; step < horizon; ++step) {
            const double t = static_cast<double>(n + step);
            const double forecast = scratch.trend_poly.evaluate(t) +
                math::evaluateHarmonics(scratch.harm, t);
            out[step * L + l] = std::max(0.0, forecast);
        }
    }
}

} // namespace iceb::predictors::kernels
