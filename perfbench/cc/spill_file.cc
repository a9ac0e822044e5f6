/**
 * @file
 * Keeps the streamed ingest's spill file inside the benchmark's own
 * directory: the benchmark reads and writes nothing outside the checkout
 * it runs from, and a spill file under /tmp would break that.
 *
 * The spill I/O itself is unchanged (same sizes, same sequential
 * writes and reads); only the directory differs, so source.ingest_s
 * and setup_s follow the file system of the build directory instead of
 * /tmp's.
 *
 * sim::StreamingWorkloadSource spills sorted chunks to std::tmpfile(),
 * which glibc always creates under /tmp. This definition takes
 * precedence over the C library's for the benchmark binary (the static
 * library's call resolves to it at link time) and creates the same kind
 * of anonymous file -- opened read/write, unlinked at once, removed by
 * the kernel on close -- in the directory set by setSpillDirectory().
 */

#include <stdio.h>
#include <stdlib.h>
#include <unistd.h>

#include <string>

namespace perfbench
{

namespace
{
std::string &
spillDirectory()
{
    static std::string dir = ".";
    return dir;
}
} // namespace

void
setSpillDirectory(const std::string &dir)
{
    spillDirectory() = dir;
}

} // namespace perfbench

extern "C" FILE *
tmpfile(void)
{
    std::string path = perfbench::spillDirectory() + "/spill-XXXXXX";
    const int fd = mkstemp(path.data());
    if (fd < 0)
        return nullptr;
    unlink(path.c_str());
    FILE *file = fdopen(fd, "w+b");
    if (file == nullptr)
        close(fd);
    return file;
}
