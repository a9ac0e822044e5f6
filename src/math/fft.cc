#include "math/fft.hh"

#include <cmath>
#include <mutex>
#include <unordered_map>

#include "common/logging.hh"

namespace iceb::math
{

namespace
{

/** Reverse the low log2(n) bits of i. */
std::size_t
bitReverse(std::size_t i, int log2n)
{
    std::size_t out = 0;
    for (int b = 0; b < log2n; ++b) {
        out = (out << 1) | (i & 1);
        i >>= 1;
    }
    return out;
}

/** Core radix-2 butterfly pass; inverse selects conjugate twiddles. */
void
fftPow2Impl(std::vector<Complex> &data, bool inverse)
{
    const std::size_t n = data.size();
    ICEB_ASSERT(isPowerOfTwo(n), "radix-2 FFT needs a power-of-two length");
    int log2n = 0;
    while ((std::size_t{1} << log2n) < n)
        ++log2n;

    for (std::size_t i = 0; i < n; ++i) {
        const std::size_t j = bitReverse(i, log2n);
        if (j > i)
            std::swap(data[i], data[j]);
    }

    for (std::size_t len = 2; len <= n; len <<= 1) {
        const double angle =
            (inverse ? 2.0 : -2.0) * M_PI / static_cast<double>(len);
        const Complex w_len(std::cos(angle), std::sin(angle));
        for (std::size_t start = 0; start < n; start += len) {
            Complex w(1.0, 0.0);
            for (std::size_t k = 0; k < len / 2; ++k) {
                const Complex even = data[start + k];
                const Complex odd = data[start + k + len / 2] * w;
                data[start + k] = even + odd;
                data[start + k + len / 2] = even - odd;
                w *= w_len;
            }
        }
    }

    if (inverse) {
        const double scale = 1.0 / static_cast<double>(n);
        for (auto &value : data)
            value *= scale;
    }
}

/**
 * Bluestein's chirp-z transform: express the forward DFT as a
 * convolution and evaluate it with power-of-two FFTs.
 */
std::vector<Complex>
bluestein(const std::vector<Complex> &data)
{
    const std::size_t n = data.size();
    std::size_t m = 1;
    while (m < 2 * n + 1)
        m <<= 1;

    std::vector<Complex> chirp(n);
    for (std::size_t i = 0; i < n; ++i) {
        // i*i may overflow for huge n; series lengths here are small.
        const double angle = -M_PI *
            static_cast<double>(i) * static_cast<double>(i) /
            static_cast<double>(n);
        chirp[i] = Complex(std::cos(angle), std::sin(angle));
    }

    std::vector<Complex> a(m, Complex(0.0, 0.0));
    std::vector<Complex> b(m, Complex(0.0, 0.0));
    for (std::size_t i = 0; i < n; ++i)
        a[i] = data[i] * chirp[i];
    b[0] = std::conj(chirp[0]);
    for (std::size_t i = 1; i < n; ++i)
        b[i] = b[m - i] = std::conj(chirp[i]);

    fftPow2Impl(a, false);
    fftPow2Impl(b, false);
    for (std::size_t i = 0; i < m; ++i)
        a[i] *= b[i];
    fftPow2Impl(a, true);

    std::vector<Complex> out(n);
    for (std::size_t i = 0; i < n; ++i)
        out[i] = a[i] * chirp[i];
    return out;
}

} // namespace

bool
isPowerOfTwo(std::size_t n)
{
    return n >= 1 && (n & (n - 1)) == 0;
}

std::vector<Complex>
fft(const std::vector<Complex> &data)
{
    ICEB_ASSERT(!data.empty(), "fft of empty signal");
    if (isPowerOfTwo(data.size())) {
        std::vector<Complex> copy = data;
        fftPow2Impl(copy, false);
        return copy;
    }
    return bluestein(data);
}

std::vector<Complex>
fftReal(const std::vector<double> &data)
{
    ICEB_ASSERT(!data.empty(), "fft of empty signal");
    const std::shared_ptr<const FftPlan> plan = fftPlanFor(data.size());
    FftScratch scratch;
    std::vector<Complex> out(data.size());
    plan->forwardReal(data.data(), out.data(), scratch);
    return out;
}

std::vector<Complex>
dftDirect(const std::vector<Complex> &data)
{
    const std::size_t n = data.size();
    std::vector<Complex> out(n, Complex(0.0, 0.0));
    for (std::size_t k = 0; k < n; ++k) {
        for (std::size_t t = 0; t < n; ++t) {
            const double angle = -2.0 * M_PI *
                static_cast<double>(k) * static_cast<double>(t) /
                static_cast<double>(n);
            out[k] += data[t] * Complex(std::cos(angle), std::sin(angle));
        }
    }
    return out;
}

// --------------------------------------------------------------- FftPlan

FftPlan::FftPlan(std::size_t n)
    : FftPlan(n, true)
{
}

FftPlan::FftPlan(std::size_t n, bool build_real_path)
    : n_(n), is_pow2_(isPowerOfTwo(n))
{
    ICEB_ASSERT(n >= 1, "FftPlan needs a positive length");
    if (is_pow2_) {
        pow2_len_ = n_;
    } else {
        pow2_len_ = 1;
        while (pow2_len_ < 2 * n_ + 1)
            pow2_len_ <<= 1;
    }
    buildPow2Tables();
    if (!is_pow2_)
        buildBluestein();

    if (build_real_path && n_ >= 2 && n_ % 2 == 0) {
        // The n/2 sub-plan only needs complex transforms, so it skips
        // its own real path (bounds the construction recursion).
        half_.reset(new FftPlan(n_ / 2, false));
        real_tw_.resize(n_ / 2);
        for (std::size_t k = 0; k < n_ / 2; ++k) {
            const double angle =
                -2.0 * M_PI * static_cast<double>(k) /
                static_cast<double>(n_);
            real_tw_[k] = Complex(std::cos(angle), std::sin(angle));
        }
    }
}

void
FftPlan::buildPow2Tables()
{
    const std::size_t p = pow2_len_;
    int log2n = 0;
    while ((std::size_t{1} << log2n) < p)
        ++log2n;

    bitrev_.resize(p);
    for (std::size_t i = 0; i < p; ++i)
        bitrev_[i] = static_cast<std::uint32_t>(bitReverse(i, log2n));

    // Per-stage twiddles, generated with the same incremental
    // w *= w_len recurrence as fftPow2Impl so table-driven butterflies
    // reproduce its results bit for bit.
    tw_fwd_.reserve(p > 1 ? p - 1 : 0);
    tw_inv_.reserve(p > 1 ? p - 1 : 0);
    for (std::size_t len = 2; len <= p; len <<= 1) {
        for (const bool inverse : {false, true}) {
            const double angle =
                (inverse ? 2.0 : -2.0) * M_PI / static_cast<double>(len);
            const Complex w_len(std::cos(angle), std::sin(angle));
            std::vector<Complex> &table = inverse ? tw_inv_ : tw_fwd_;
            Complex w(1.0, 0.0);
            for (std::size_t k = 0; k < len / 2; ++k) {
                table.push_back(w);
                w *= w_len;
            }
        }
    }
}

void
FftPlan::buildBluestein()
{
    const std::size_t n = n_;
    const std::size_t m = pow2_len_;
    chirp_fwd_.resize(n);
    for (std::size_t i = 0; i < n; ++i) {
        // i*i may overflow for huge n; series lengths here are small.
        // Same expression order as bluestein() above, so the cached
        // chirp is bit-identical to the fresh one.
        const double angle = -M_PI *
            static_cast<double>(i) * static_cast<double>(i) /
            static_cast<double>(n);
        chirp_fwd_[i] = Complex(std::cos(angle), std::sin(angle));
    }

    // The convolution kernel b depends only on the chirp, so its
    // forward transform is computed once here instead of per call.
    bfft_fwd_.assign(m, Complex(0.0, 0.0));
    bfft_fwd_[0] = std::conj(chirp_fwd_[0]);
    for (std::size_t i = 1; i < n; ++i)
        bfft_fwd_[i] = bfft_fwd_[m - i] = std::conj(chirp_fwd_[i]);
    pow2InPlace(bfft_fwd_.data(), false);
}

void
FftPlan::pow2InPlace(Complex *data, bool inverse) const
{
    const std::size_t n = pow2_len_;
    for (std::size_t i = 0; i < n; ++i) {
        const std::size_t j = bitrev_[i];
        if (j > i)
            std::swap(data[i], data[j]);
    }

    const Complex *table = (inverse ? tw_inv_ : tw_fwd_).data();
    for (std::size_t len = 2; len <= n; len <<= 1) {
        const std::size_t half = len / 2;
        for (std::size_t start = 0; start < n; start += len) {
            for (std::size_t k = 0; k < half; ++k) {
                const Complex even = data[start + k];
                const Complex odd = data[start + k + half] * table[k];
                data[start + k] = even + odd;
                data[start + k + half] = even - odd;
            }
        }
        table += half;
    }

    if (inverse) {
        const double scale = 1.0 / static_cast<double>(n);
        for (std::size_t i = 0; i < n; ++i)
            data[i] *= scale;
    }
}

void
FftPlan::forward(const Complex *in, Complex *out, FftScratch &scratch) const
{
    if (is_pow2_) {
        if (out != in) {
            for (std::size_t i = 0; i < n_; ++i)
                out[i] = in[i];
        }
        pow2InPlace(out, false);
        return;
    }
    const std::size_t n = n_;
    const std::size_t m = pow2_len_;
    std::vector<Complex> &a = scratch.work;
    a.assign(m, Complex(0.0, 0.0));
    for (std::size_t i = 0; i < n; ++i)
        a[i] = in[i] * chirp_fwd_[i];
    pow2InPlace(a.data(), false);
    for (std::size_t i = 0; i < m; ++i)
        a[i] *= bfft_fwd_[i];
    pow2InPlace(a.data(), true);
    for (std::size_t i = 0; i < n; ++i)
        out[i] = a[i] * chirp_fwd_[i];
}

void
FftPlan::forwardReal(const double *in, Complex *out,
                     FftScratch &scratch) const
{
    if (!half_) {
        // Odd or unit length: no packing, run the complex transform.
        std::vector<Complex> &c = scratch.packed;
        c.resize(n_);
        for (std::size_t i = 0; i < n_; ++i)
            c[i] = Complex(in[i], 0.0);
        forward(c.data(), out, scratch);
        return;
    }

    // Pack pairs of real samples into one complex signal of length
    // h = n/2, transform once, then split the result into the even-
    // and odd-sample spectra E and O: X_k = E_k + W^k O_k and
    // X_{k+h} = E_k - W^k O_k with W = exp(-2*pi*i/n).
    const std::size_t h = n_ / 2;
    std::vector<Complex> &z = scratch.packed;
    z.resize(h);
    for (std::size_t j = 0; j < h; ++j)
        z[j] = Complex(in[2 * j], in[2 * j + 1]);
    half_->forward(z.data(), z.data(), scratch);

    for (std::size_t k = 0; k < h; ++k) {
        const Complex zk = z[k];
        const Complex zs = std::conj(z[(h - k) % h]);
        const Complex even = 0.5 * (zk + zs);
        const Complex odd = Complex(0.0, -0.5) * (zk - zs);
        const Complex rotated = real_tw_[k] * odd;
        out[k] = even + rotated;
        out[k + h] = even - rotated;
    }
}

std::shared_ptr<const FftPlan>
fftPlanFor(std::size_t n)
{
    static std::mutex mutex;
    static std::unordered_map<std::size_t,
                              std::shared_ptr<const FftPlan>> cache;
    std::lock_guard<std::mutex> lock(mutex);
    auto it = cache.find(n);
    if (it != cache.end())
        return it->second;
    auto plan = std::make_shared<const FftPlan>(n);
    cache.emplace(n, plan);
    return plan;
}

} // namespace iceb::math
