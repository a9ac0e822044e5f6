#include "bench_probe.hh"

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <new>

namespace
{
std::atomic<long long> g_alloc_count{0};
} // namespace

void *
operator new(std::size_t size)
{
    g_alloc_count.fetch_add(1, std::memory_order_relaxed);
    if (void *p = std::malloc(size))
        return p;
    throw std::bad_alloc();
}

void
operator delete(void *ptr) noexcept
{
    std::free(ptr);
}

void
operator delete(void *ptr, std::size_t) noexcept
{
    std::free(ptr);
}

namespace bench
{

long long
allocationCount()
{
    return g_alloc_count.load(std::memory_order_relaxed);
}

std::string
digestHex(std::uint64_t digest)
{
    char buffer[20];
    std::snprintf(buffer, sizeof(buffer), "0x%016llx",
                  static_cast<unsigned long long>(digest));
    return buffer;
}

} // namespace bench
