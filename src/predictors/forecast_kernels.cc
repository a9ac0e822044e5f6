#include "predictors/forecast_kernels.hh"

#include <algorithm>
#include <cmath>

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

/** Offset of row r of a packed lower triangle. */
constexpr std::size_t
packedRow(std::size_t r)
{
    return r * (r + 1) / 2;
}

/**
 * The quotient branch of math's dirichletSum, (span - 1) / (step - 1)
 * divided out by hand in the same operand order; also returns
 * |step - 1|^2, which decides whether the direct sum replaces it.
 */
inline void
dirichletQuotient(double step_re, double step_im, double span_re,
                  double span_im, double &re, double &im, double &den)
{
    const double dr = step_re - 1.0;
    const double di = step_im;
    den = dr * dr + di * di;
    const double nr = span_re - 1.0;
    const double ni = span_im;
    re = (nr * dr + ni * di) / den;
    im = (ni * dr - nr * di) / den;
}

/** Whether math's dirichletSum takes the direct sum at @p den. */
inline bool
needsDirectSum(double den)
{
    return !(den >= math::kDirectSumBelow * math::kDirectSumBelow);
}

/**
 * X^T X across lanes at the first @p peaks frequencies, as math's
 * fitAtFrequencies builds it per lane: the same Dirichlet sums, the
 * same entries written in the same order (for i == j the last write
 * of the symmetric pair wins, as there), and the ridge. Only the
 * lower triangle is kept; it is all the Cholesky solve reads. A
 * (lane, pair) whose step is within 1e-2 of 1 gets its direct sum,
 * computed by math's own loop, in place of the quotient.
 */
void
batchGram(std::size_t n, std::size_t peaks, const std::size_t *lane_peaks,
          std::size_t lanes, BlockScratch &s)
{
    const double len = static_cast<double>(n);
    const double *freq = s.freq.data();
    const double *step_re = s.step_re.data();
    const double *step_im = s.step_im.data();
    const double *span_re = s.span_re.data();
    const double *span_im = s.span_im.data();
    double *g = s.gram.data();
    for (std::size_t i = 0; i < peaks; ++i) {
        const double *sri = step_re + i * L;
        const double *sii = step_im + i * L;
        const double *pri = span_re + i * L;
        const double *pii = span_im + i * L;
        const std::size_t ci = 2 * i, si = ci + 1;
        for (std::size_t j = i; j < peaks; ++j) {
            const double *srj = step_re + j * L;
            const double *sij = step_im + j * L;
            const double *prj = span_re + j * L;
            const double *pij = span_im + j * L;
            double diff_re[L], diff_im[L], diff_den[L];
            double sum_re[L], sum_im[L], sum_den[L];
            if (j == i) {
                for (std::size_t l = 0; l < L; ++l) {
                    diff_re[l] = len;
                    diff_im[l] = 0.0;
                    diff_den[l] = 1.0;
                }
            } else {
                // mul(step_i, conj(step_j)), mul(span_i, conj(span_j)).
                for (std::size_t l = 0; l < L; ++l) {
                    const double sjc = -sij[l];
                    const double pjc = -pij[l];
                    dirichletQuotient(
                        sri[l] * srj[l] - sii[l] * sjc,
                        sri[l] * sjc + sii[l] * srj[l],
                        pri[l] * prj[l] - pii[l] * pjc,
                        pri[l] * pjc + pii[l] * prj[l], diff_re[l],
                        diff_im[l], diff_den[l]);
                }
            }
            // mul(step_i, step_j), mul(span_i, span_j).
            for (std::size_t l = 0; l < L; ++l) {
                dirichletQuotient(sri[l] * srj[l] - sii[l] * sij[l],
                                  sri[l] * sij[l] + sii[l] * srj[l],
                                  pri[l] * prj[l] - pii[l] * pij[l],
                                  pri[l] * pij[l] + pii[l] * prj[l],
                                  sum_re[l], sum_im[l], sum_den[l]);
            }
            for (std::size_t l = 0; l < lanes; ++l) {
                if (j >= lane_peaks[l])
                    continue; // padding, overwritten below
                const double wi = 2.0 * M_PI * freq[i * L + l];
                const double wj = 2.0 * M_PI * freq[j * L + l];
                if (needsDirectSum(diff_den[l])) {
                    const math::Complex d =
                        math::directDirichletSum(wi - wj, n);
                    diff_re[l] = d.real();
                    diff_im[l] = d.imag();
                }
                if (needsDirectSum(sum_den[l])) {
                    const math::Complex d =
                        math::directDirichletSum(wi + wj, n);
                    sum_re[l] = d.real();
                    sum_im[l] = d.imag();
                }
            }

            // One loop per destination: stores through two pointers
            // into one array would keep the loop scalar.
            const std::size_t cj = 2 * j, sj = cj + 1;
            double *cc = g + (packedRow(cj) + ci) * L;
            double *ss = g + (packedRow(sj) + si) * L;
            if (j == i) {
                double *sc = g + (packedRow(si) + ci) * L;
                for (std::size_t l = 0; l < L; ++l)
                    cc[l] = 0.5 * (diff_re[l] + sum_re[l]) + math::kFitRidge;
                for (std::size_t l = 0; l < L; ++l)
                    ss[l] = 0.5 * (diff_re[l] - sum_re[l]) + math::kFitRidge;
                for (std::size_t l = 0; l < L; ++l)
                    sc[l] = 0.5 * (sum_im[l] + diff_im[l]);
                continue;
            }
            double *sc = g + (packedRow(sj) + ci) * L;
            double *cs = g + (packedRow(cj) + si) * L;
            for (std::size_t l = 0; l < L; ++l)
                cc[l] = 0.5 * (diff_re[l] + sum_re[l]);
            for (std::size_t l = 0; l < L; ++l)
                ss[l] = 0.5 * (diff_re[l] - sum_re[l]);
            for (std::size_t l = 0; l < L; ++l)
                sc[l] = 0.5 * (sum_im[l] - diff_im[l]);
            for (std::size_t l = 0; l < L; ++l)
                cs[l] = 0.5 * (sum_im[l] + diff_im[l]);
        }
    }
}

/**
 * X^T y across lanes: per frequency, one rotation recurrence e^{iwt}
 * over the window, each lane summing in ascending t as math's
 * fitAtFrequencies does. Rotors and sums live in local lane arrays so
 * the lane loops vectorize.
 */
void
batchXty(std::size_t n, std::size_t peaks, const double *resid,
         BlockScratch &s)
{
    for (std::size_t i = 0; i < peaks; ++i) {
        double rot_re[L], rot_im[L], st_re[L], st_im[L];
        double acc_re[L], acc_im[L];
        for (std::size_t l = 0; l < L; ++l) {
            rot_re[l] = 1.0;
            rot_im[l] = 0.0;
            st_re[l] = s.step_re[i * L + l];
            st_im[l] = s.step_im[i * L + l];
            acc_re[l] = 0.0;
            acc_im[l] = 0.0;
        }
        for (std::size_t t = 0; t < n; ++t) {
            const double *y = resid + t * L;
            for (std::size_t l = 0; l < L; ++l) {
                acc_re[l] += y[l] * rot_re[l];
                acc_im[l] += y[l] * rot_im[l];
                const double re = rot_re[l] * st_re[l] - rot_im[l] * st_im[l];
                const double im = rot_re[l] * st_im[l] + rot_im[l] * st_re[l];
                rot_re[l] = re;
                rot_im[l] = im;
            }
        }
        for (std::size_t l = 0; l < L; ++l) {
            s.xty[2 * i * L + l] = acc_re[l];
            s.xty[(2 * i + 1) * L + l] = acc_im[l];
        }
    }
}

/**
 * math::solveSpdInPlace across lanes on the packed lower triangle:
 * the same Cholesky-Banachiewicz order and both substitutions, with
 * the solution left in s.xty. ok[l] is cleared for a lane with a
 * pivot not above kSpdMinPivot; its values are then meaningless.
 */
void
batchCholesky(std::size_t terms, BlockScratch &s, bool *ok)
{
    double *g = s.gram.data();
    double *b = s.xty.data();
    for (std::size_t j = 0; j < terms; ++j) {
        double *row_j = g + packedRow(j) * L;
        double pivot[L];
        for (std::size_t l = 0; l < L; ++l)
            pivot[l] = row_j[j * L + l];
        for (std::size_t k = 0; k < j; ++k)
            for (std::size_t l = 0; l < L; ++l)
                pivot[l] -= row_j[k * L + l] * row_j[k * L + l];
        double diag[L];
        for (std::size_t l = 0; l < L; ++l) {
            ok[l] = ok[l] && pivot[l] > math::kSpdMinPivot;
            diag[l] = std::sqrt(pivot[l]);
            row_j[j * L + l] = diag[l];
        }
        for (std::size_t i = j + 1; i < terms; ++i) {
            double *row_i = g + packedRow(i) * L;
            double acc[L];
            for (std::size_t l = 0; l < L; ++l)
                acc[l] = row_i[j * L + l];
            for (std::size_t k = 0; k < j; ++k)
                for (std::size_t l = 0; l < L; ++l)
                    acc[l] -= row_i[k * L + l] * row_j[k * L + l];
            for (std::size_t l = 0; l < L; ++l)
                row_i[j * L + l] = acc[l] / diag[l];
        }
    }

    // Forward substitution L z = b, then back substitution L^T x = z.
    for (std::size_t i = 0; i < terms; ++i) {
        const double *row_i = g + packedRow(i) * L;
        double acc[L];
        for (std::size_t l = 0; l < L; ++l)
            acc[l] = b[i * L + l];
        for (std::size_t k = 0; k < i; ++k)
            for (std::size_t l = 0; l < L; ++l)
                acc[l] -= row_i[k * L + l] * b[k * L + l];
        for (std::size_t l = 0; l < L; ++l)
            acc[l] /= row_i[i * L + l];
        std::copy(acc, acc + L, b + i * L);
    }
    for (std::size_t i = terms; i-- > 0;) {
        double acc[L];
        for (std::size_t l = 0; l < L; ++l)
            acc[l] = b[i * L + l];
        for (std::size_t k = i + 1; k < terms; ++k) {
            const double *lki = g + (packedRow(k) + i) * L;
            for (std::size_t l = 0; l < L; ++l)
                acc[l] -= lki[l] * b[k * L + l];
        }
        const double *lii = g + (packedRow(i) + i) * L;
        for (std::size_t l = 0; l < L; ++l)
            acc[l] /= lii[l];
        std::copy(acc, acc + L, b + i * L);
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
    magnitude.resize((n / 2 + 1) * L);
    packed_re.resize(n * L);
    packed_im.resize(n * L);
    const std::size_t peaks = ctx.harmonics;
    freq.resize(peaks * L);
    step_re.resize(peaks * L);
    step_im.resize(peaks * L);
    span_re.resize(peaks * L);
    span_im.resize(peaks * L);
    gram.resize(packedRow(2 * peaks) * L);
    xty.resize(2 * peaks * L);
    lane_rhs.resize(terms);

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
forecastBlock(const BlockContext &ctx, std::size_t lanes,
              std::size_t horizon, BlockScratch &scratch, double *out)
{
    const std::size_t n = ctx.window;
    const std::size_t terms = ctx.degree + 1;
    ICEB_ASSERT(n >= 8, "forecastBlock needs window >= 8");
    ICEB_ASSERT(lanes <= L, "forecastBlock fits at most kLanes lanes");
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

    // Bin magnitudes, DC left at 0 as the scalar path leaves it.
    const std::size_t half = n / 2;
    double *magnitude = scratch.magnitude.data();
    for (std::size_t l = 0; l < lanes; ++l)
        magnitude[l] = 0.0;
    for (std::size_t k = 1; k <= half; ++k) {
        for (std::size_t l = 0; l < lanes; ++l) {
            magnitude[k * L + l] =
                std::abs(math::Complex(scratch.spec_re[k * L + l],
                                       scratch.spec_im[k * L + l]));
        }
    }
    fitHarmonicsBatch(ctx, lanes, resid, magnitude, scratch);

    // Horizon evaluation per lane.
    for (std::size_t l = 0; l < lanes; ++l) {
        double *rhs = scratch.lane_rhs.data();
        for (std::size_t k = 0; k < terms; ++k)
            rhs[k] = coeffs[k * L + l];
        scratch.trend_poly.assign(rhs, terms);
        for (std::size_t step = 0; step < horizon; ++step) {
            const double t = static_cast<double>(n + step);
            const double forecast = scratch.trend_poly.evaluate(t) +
                math::evaluateHarmonics(scratch.harm[l], t);
            out[step * L + l] = std::max(0.0, forecast);
        }
    }
}

void
fitHarmonicsBatch(const BlockContext &ctx, std::size_t lanes,
                  const double *resid, const double *magnitude,
                  BlockScratch &scratch)
{
    const std::size_t n = ctx.window;
    const std::size_t half = n / 2;
    ICEB_ASSERT(n >= 8 && ctx.harmonics >= 1,
                "fitHarmonicsBatch needs window >= 8 and harmonics >= 1");
    ICEB_ASSERT(lanes <= L, "fitHarmonicsBatch fits at most kLanes lanes");
    ICEB_ASSERT(scratch.freq.size() >= ctx.harmonics * L,
                "fitHarmonicsBatch needs scratch prepared for ctx");

    // Per lane, through math's shared stage: peak picking, log
    // refinement and each frequency's cos/sin, scattered into the
    // SoA arrays.
    math::HarmonicsWorkspace &hws = scratch.hws;
    std::size_t lane_peaks[L] = {};
    std::size_t peaks = 0;
    for (std::size_t l = 0; l < lanes; ++l) {
        hws.magnitude.resize(half + 1);
        for (std::size_t k = 0; k <= half; ++k)
            hws.magnitude[k] = magnitude[k * L + l];
        const std::size_t m = math::refinedPeaks(n, ctx.harmonics, hws);
        for (std::size_t i = 0; i < m; ++i) {
            scratch.freq[i * L + l] = hws.frequencies[i];
            scratch.step_re[i * L + l] = hws.step[i].real();
            scratch.step_im[i * L + l] = hws.step[i].imag();
            scratch.span_re[i * L + l] = hws.span[i].real();
            scratch.span_im[i * L + l] = hws.span[i].imag();
        }
        lane_peaks[l] = m;
        peaks = std::max(peaks, m);
    }
    for (std::vector<math::Harmonic> &harm : scratch.harm)
        harm.clear();
    if (peaks == 0)
        return;

    // A lane with fewer peaks than the block's largest count (and a
    // lane past `lanes`) is padded to it: its padded peaks get a
    // stand-in step, and whatever their rows and columns compute is
    // then overwritten with identity and a zero right-hand side. The
    // Cholesky factor's leading block stays exactly the lane's own,
    // every padded term the lane's solution meets is an exact +0, and
    // x - (+0) == x, so its solution is unchanged bit for bit.
    for (std::size_t i = 0; i < peaks; ++i) {
        for (std::size_t l = 0; l < L; ++l) {
            if (i < lane_peaks[l])
                continue;
            scratch.step_re[i * L + l] = 0.0;
            scratch.step_im[i * L + l] = 1.0;
            scratch.span_re[i * L + l] = 0.0;
            scratch.span_im[i * L + l] = 1.0;
        }
    }
    batchGram(n, peaks, lane_peaks, lanes, scratch);
    batchXty(n, peaks, resid, scratch);
    const std::size_t terms = 2 * peaks;
    for (std::size_t l = 0; l < L; ++l) {
        for (std::size_t r = 2 * lane_peaks[l]; r < terms; ++r) {
            double *row = scratch.gram.data() + packedRow(r) * L;
            for (std::size_t c = 0; c <= r; ++c)
                row[c * L + l] = c == r ? 1.0 : 0.0;
            scratch.xty[r * L + l] = 0.0;
        }
    }
    bool ok[L];
    for (std::size_t l = 0; l < L; ++l)
        ok[l] = true;
    batchCholesky(terms, scratch, ok);

    // Per lane: amplitudes, phases and sort through math's shared
    // stage, or decompose() where the lane's own system is singular.
    for (std::size_t l = 0; l < lanes; ++l) {
        const std::size_t m = lane_peaks[l];
        if (m == 0)
            continue;
        if (!ok[l]) {
            std::vector<double> series(n);
            for (std::size_t i = 0; i < n; ++i)
                series[i] = resid[i * L + l];
            scratch.harm[l] = math::decompose(series, ctx.harmonics);
            continue;
        }
        hws.frequencies.resize(m);
        hws.xty.resize(2 * m);
        for (std::size_t i = 0; i < m; ++i) {
            hws.frequencies[i] = scratch.freq[i * L + l];
            hws.xty[2 * i] = scratch.xty[2 * i * L + l];
            hws.xty[2 * i + 1] = scratch.xty[(2 * i + 1) * L + l];
        }
        math::harmonicsFromFit(hws, scratch.harm[l]);
    }
}

} // namespace iceb::predictors::kernels
