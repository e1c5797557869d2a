/**
 * @file
 * Measurement plumbing shared by the perfbench workloads: host-wall
 * spans kept in memory (name, start, end, parent), the per-iteration
 * result every workload returns, and small helpers (medians, hashing,
 * peak RSS).
 *
 * Spans are recorded by the benchmark around its own calls into the
 * simulator's layers; nothing inside the library is instrumented. All
 * spans of one run are opened and closed on the main thread, so they
 * nest strictly and a span's self time is its duration minus the sum
 * of its children's durations.
 */

#ifndef PERFBENCH_HARNESS_HH
#define PERFBENCH_HARNESS_HH

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

/** Seconds elapsed since @p start. */
inline double
secondsSince(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

/** Host-wall spans of one traced iteration. */
class SpanLog
{
  public:
    struct Span
    {
        std::string name;
        double t0 = 0.0;
        double t1 = 0.0;
        /** Index of the enclosing span, -1 for a root. */
        int parent = -1;
    };

    SpanLog() : origin_(Clock::now()) {}

    /** Open a span as a child of the innermost open span. */
    int open(const std::string &name);
    /** Close span @p id (must be the innermost open span). */
    void close(int id);

    const std::vector<Span> &spans() const { return spans_; }

    /** Duration of span @p i minus the durations of its children. */
    double selfSeconds(size_t i) const;

    /** Summed durations of every span called @p name. */
    double totalSeconds(const std::string &name) const;

    /** Summed self times of every span called @p name. */
    double selfSecondsOf(const std::string &name) const;

  private:
    Clock::time_point origin_;
    std::vector<Span> spans_;
    std::vector<int> stack_;
};

/**
 * RAII span: records into @p log when it is non-null, and costs one
 * pointer test otherwise (the untraced runs pass nullptr).
 */
class Scope
{
  public:
    Scope(SpanLog *log, const char *name)
        : log_(log), id_(log != nullptr ? log->open(name) : -1)
    {
    }
    ~Scope()
    {
        if (log_ != nullptr)
            log_->close(id_);
    }
    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

  private:
    SpanLog *log_;
    int id_;
};

/** What one run of a workload is asked to do. */
struct Params
{
    uint64_t seed = 1;
    /** Host worker threads simulating DPUs. */
    unsigned threads = 1;
    /** Tiny sizes for the benchmark's own tests. */
    bool smoke = false;
    /** Attach the library's recorders/registries and fill layers. */
    bool traced = false;
    /** Take the reference path (runGraphUpdate, ServingEngine::run)
     *  instead of the stepper, for the equality check. */
    bool reference = false;
};

/** Outcome of one iteration (set-up plus measured phase). */
struct Iteration
{
    double setupSec = 0.0;
    double wallSec = 0.0;
    uint64_t attempted = 0;
    uint64_t failed = 0;
    /** Simulated results: deterministic in (workload, seed), compared
     *  exactly across iterations, thread counts and tracing. */
    std::map<std::string, double> sim;
    /** Per-layer values of a traced iteration. */
    std::map<std::string, double> layers;
    /** Correctness failures found by the workload's own checks. */
    std::vector<std::string> errors;
};

/** Median of @p v (0 for an empty vector). */
double median(std::vector<double> v);

/** Process peak resident set size in MiB. */
double peakRssMiB();

/** 64-bit FNV-1a over @p n bytes, chained from @p h. */
uint64_t fnv1a(const void *data, size_t n,
               uint64_t h = 0xcbf29ce484222325ull);

/** Hash one trivially copyable value into @p h. */
template <typename T>
uint64_t
hashValue(const T &v, uint64_t h)
{
    return fnv1a(&v, sizeof(v), h);
}

/**
 * A hash packed into a double for the sim map: the low 52 bits, which
 * a double holds exactly, so equal hashes compare equal as doubles.
 */
inline double
hashToDouble(uint64_t h)
{
    return static_cast<double>(h & ((uint64_t{1} << 52) - 1));
}

/** Child seed of @p seed for the input stream called @p name. */
uint64_t deriveSeed(uint64_t seed, const std::string &name);

} // namespace perfbench

#endif // PERFBENCH_HARNESS_HH
