/**
 * @file
 * Spans recorded by the benchmark's own code around its calls into
 * gpuperf's layers. Spans live in memory and are written once, at
 * exit, as Chrome trace-event JSON (chrome://tracing, Perfetto).
 *
 * A Tracer is used from one thread at a time: the traced pass is
 * sequential, so a span's parent is simply the innermost open span.
 * Work timed on other threads (the parallel calibration in set-up)
 * is added afterwards with add().
 */
#ifndef GPUBENCH_TRACE_H
#define GPUBENCH_TRACE_H

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace gpubench {

using Clock = std::chrono::steady_clock;

/** Seconds from @p t0 to now. */
double secondsSince(Clock::time_point t0);

struct Span
{
    std::string name;
    uint64_t id = 0;
    uint64_t parent = 0;  ///< 0 = a root span
    uint64_t request = 0; ///< the request the work belongs to
    double start = 0.0;   ///< seconds since the tracer was made
    double end = 0.0;
    int lane = 1; ///< trace-viewer row (tid)
};

class Tracer
{
  public:
    /**
     * A disabled tracer times scopes but records nothing. Span times
     * are seconds since @p epoch.
     */
    explicit Tracer(bool enabled, Clock::time_point epoch = Clock::now());

    /** Times a block; records it as a span when the tracer is on. */
    class Scope
    {
      public:
        Scope(Tracer &tracer, const char *name, uint64_t request);
        ~Scope();
        Scope(const Scope &) = delete;
        Scope &operator=(const Scope &) = delete;

      private:
        Tracer &tracer_;
        const char *name_;
        uint64_t request_;
        uint64_t id_ = 0;
        uint64_t parent_ = 0;
        double start_ = 0.0;
    };

    /**
     * Record a root span timed elsewhere (seconds since epoch()), on
     * its own viewer row @p lane.
     */
    void add(const std::string &name, uint64_t request, double start,
             double end, int lane);

    bool enabled() const { return enabled_; }
    Clock::time_point epoch() const { return epoch_; }
    const std::vector<Span> &spans() const { return spans_; }

    /** Total duration of the spans named @p name, seconds. */
    double total(const std::string &name) const;
    /** Spans named @p name. */
    size_t count(const std::string &name) const;
    /**
     * Self time per span name: each span's duration minus the part
     * its child spans cover.
     */
    std::map<std::string, double> selfSeconds() const;

    /** Write every span as Chrome trace-event JSON. */
    bool writeChrome(const std::string &path) const;

  private:
    double now() const { return secondsSince(epoch_); }

    bool enabled_;
    Clock::time_point epoch_;
    uint64_t nextId_ = 0;
    uint64_t open_ = 0; ///< innermost open span (0 = none)
    std::vector<Span> spans_;
};

} // namespace gpubench

#endif // GPUBENCH_TRACE_H
