/**
 * @file
 * Shared pieces of the neobench driver: clocks, the span tracer, the
 * metric table and the correctness ledger.
 *
 * Everything here measures from outside the program: the benchmark
 * times its own calls into the repository's public functions and
 * records a span around each one. Nothing under src/ is instrumented.
 */

#ifndef NEO_PERFBENCH_COMMON_HPP
#define NEO_PERFBENCH_COMMON_HPP

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

namespace bench
{

/** Seconds on the monotonic clock. */
inline double
monoNow()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/** User + system CPU seconds of this process, all threads. */
inline double
cpuNow()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
           1e-6 * static_cast<double>(ru.ru_utime.tv_usec +
                                      ru.ru_stime.tv_usec);
}

/** Peak resident set of this process so far, in MB. */
inline double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

inline double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/**
 * In-memory span recorder. Spans carry a name, a start, an end, the
 * index of the enclosing span (-1 at the top) and a group id shared
 * by every span of one check, preset or job. Nothing is written until
 * write() at the end of the run; when disabled, open() records
 * nothing and the Scope below only reads the clock.
 */
class Tracer
{
  public:
    struct Span
    {
        std::string name;
        double start = 0.0;
        double end = 0.0;
        int parent = -1;
        std::uint32_t group = 0;
    };

    explicit Tracer(bool on) : on_(on) {}

    bool on() const { return on_; }

    int
    open(const std::string &name, std::uint32_t group, double start)
    {
        if (!on_)
            return -1;
        const int parent = stack_.empty() ? -1 : stack_.back();
        spans_.push_back({name, start, 0.0, parent, group});
        stack_.push_back(static_cast<int>(spans_.size()) - 1);
        return stack_.back();
    }

    void
    close(int idx, double end)
    {
        if (idx < 0)
            return;
        spans_[static_cast<std::size_t>(idx)].end = end;
        if (!stack_.empty() && stack_.back() == idx)
            stack_.pop_back();
    }

    /** A count observed at a layer boundary, kept beside the spans. */
    void
    count(const std::string &name, std::uint32_t group, double value)
    {
        if (on_)
            counts_.push_back({name, group, value});
    }

    /** Write spans and counts as one JSON document. */
    bool write(const std::string &path) const;

  private:
    struct Count
    {
        std::string name;
        std::uint32_t group;
        double value;
    };
    bool on_;
    std::vector<Span> spans_;
    std::vector<int> stack_;
    std::vector<Count> counts_;
};

/** Times one call into a layer; records it as a span when tracing. */
class Scope
{
  public:
    Scope(Tracer &tr, const std::string &name, std::uint32_t group)
        : tr_(tr), start_(monoNow()),
          idx_(tr.open(name, group, start_))
    {
    }
    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;
    ~Scope() { stop(); }

    /** Close the span (once) and return its length in seconds. */
    double
    stop()
    {
        if (!stopped_) {
            end_ = monoNow();
            tr_.close(idx_, end_);
            stopped_ = true;
        }
        return end_ - start_;
    }

  private:
    Tracer &tr_;
    double start_;
    double end_ = 0.0;
    int idx_;
    bool stopped_ = false;
};

/**
 * The run's result: metrics by name with their unit, the operations
 * attempted and failed, and every correctness check that did not
 * hold. Printed as the single JSON line the benchmark contract asks
 * for.
 */
class Report
{
  public:
    void
    metric(const std::string &name, double value, const char *unit)
    {
        metrics_[name] = {value, unit};
    }

    /** Record a correctness check; a false @p ok marks the run wrong. */
    bool
    expect(bool ok, const std::string &what)
    {
        if (!ok) {
            std::fprintf(stderr, "neobench: CHECK FAILED: %s\n",
                         what.c_str());
            failures_.push_back(what);
        }
        return ok;
    }

    bool correct() const { return failures_.empty(); }

    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;

    void print() const;

  private:
    std::map<std::string, std::pair<double, std::string>> metrics_;
    std::vector<std::string> failures_;
};

/**
 * Instance sizes of one workload. "paper" uses the paper's sizes;
 * "small" one size below, where the fixed cost of each check, job and
 * simulation weighs more. The parametric sweep is the same in both.
 */
struct Sizes
{
    std::size_t openN = 5;   ///< NeoMESI open, modified method
    std::size_t germanN = 6; ///< german, in process
    std::size_t jobN = 6;    ///< the service's verified jobs
    std::uint64_t simOpsPerCore = 5000;
};

/** The sizes of workload @p name; false when there is no such one. */
inline bool
sizesFor(const std::string &name, Sizes &out)
{
    if (name == "paper") {
        out = Sizes{};
        return true;
    }
    if (name == "small") {
        out = Sizes{4, 5, 5, 1000};
        return true;
    }
    return false;
}

/** Options shared by every in-process phase. */
struct Options
{
    /** verify, sim or service-reference. */
    std::string phase;
    /** paper or small: the workload, which fixes the sizes. */
    std::string workload = "paper";
    Sizes sizes;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    /** Monotonic time (CLOCK_MONOTONIC seconds) at which this process
     *  was spawned, as its parent read it just before the spawn
     *  (--started-at); main()'s entry when not given. Set-up time is
     *  measured from here, so it includes loading the program. */
    double t0 = 0.0;
    std::string outDir = ".bench_out";
    /** Deliberately wrong input for the benchmark's own tests:
     *  "mutant", "nsmesi" or "count" (see README.md). */
    std::string inject;
};

int runVerify(const Options &opt, Report &rep, Tracer &tr);
int runSim(const Options &opt, Report &rep, Tracer &tr);
int runServiceReference(const Options &opt);

} // namespace bench

#endif // NEO_PERFBENCH_COMMON_HPP
