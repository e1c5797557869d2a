#include "harness.hh"

#include <sys/resource.h>

#include <algorithm>
#include <fstream>
#include <stdexcept>

#include "util/rng.hh"

namespace perfbench {

int
SpanLog::open(const std::string &name)
{
    const int id = static_cast<int>(spans_.size());
    Span s;
    s.name = name;
    s.t0 = secondsSince(origin_);
    s.parent = stack_.empty() ? -1 : stack_.back();
    spans_.push_back(std::move(s));
    stack_.push_back(id);
    return id;
}

void
SpanLog::close(int id)
{
    if (stack_.empty() || stack_.back() != id)
        throw std::logic_error("span closed out of order");
    spans_[static_cast<size_t>(id)].t1 = secondsSince(origin_);
    stack_.pop_back();
}

double
SpanLog::selfSeconds(size_t i) const
{
    double self = spans_[i].t1 - spans_[i].t0;
    for (const Span &s : spans_) {
        if (s.parent == static_cast<int>(i))
            self -= s.t1 - s.t0;
    }
    return self;
}

double
SpanLog::totalSeconds(const std::string &name) const
{
    double sum = 0.0;
    for (const Span &s : spans_) {
        if (s.name == name)
            sum += s.t1 - s.t0;
    }
    return sum;
}

double
SpanLog::selfSecondsOf(const std::string &name) const
{
    double sum = 0.0;
    for (size_t i = 0; i < spans_.size(); ++i) {
        if (spans_[i].name == name)
            sum += selfSeconds(i);
    }
    return sum;
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const size_t n = v.size();
    return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double
peakRssMiB()
{
    // VmHWM is this address space's high-water mark. getrusage's
    // ru_maxrss survives exec, so a small child of a large parent
    // would report the parent's peak; use it only as a fallback.
    std::ifstream status("/proc/self/status");
    for (std::string line; std::getline(status, line);) {
        if (line.rfind("VmHWM:", 0) == 0)
            return std::stod(line.substr(6)) / 1024.0; // kB -> MiB
    }
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

uint64_t
fnv1a(const void *data, size_t n, uint64_t h)
{
    const auto *p = static_cast<const unsigned char *>(data);
    for (size_t i = 0; i < n; ++i) {
        h ^= p[i];
        h *= 0x100000001b3ull;
    }
    return h;
}

uint64_t
deriveSeed(uint64_t seed, const std::string &name)
{
    return pim::util::Rng(seed).stream(name).next();
}

} // namespace perfbench
