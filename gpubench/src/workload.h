/**
 * @file
 * The three workloads, generated from a seed, and the machinery that
 * deploys gpuperf-serve for them and drives it over api::ServeClient.
 *
 * A workload is a Plan: every request it may send (built up front, so
 * the same seed always yields the same requests in the same order),
 * which of them set-up pre-warms, a closed-loop stream and an
 * open-loop arrival schedule. A Deployment is one running server on a
 * fresh store, with its forked fleet workers.
 */
#ifndef GPUBENCH_WORKLOAD_H
#define GPUBENCH_WORKLOAD_H

#include <sys/types.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "api/request.h"
#include "api/server.h"
#include "trace.h"

namespace gpubench {

struct Options
{
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    /** Tiny sizes: the self-test's quick run of every workload. */
    bool tiny = false;
    std::string workerBin;
    /** Scratch root (relative, so socket paths stay short). */
    std::string workDir;
    /** Chrome trace output of a traced run. */
    std::string traceOut;
};

/** splitmix64: a portable stream, identical for equal seeds. */
class Rng
{
  public:
    explicit Rng(uint64_t seed) : state_(seed) {}
    uint64_t next();
    /** Uniform in [0, n). */
    uint64_t below(uint64_t n) { return next() % n; }
    /** Uniform in [0, 1). */
    double unit() { return (next() >> 11) * 0x1.0p-53; }

  private:
    uint64_t state_;
};

struct Arrival
{
    double due = 0.0; ///< seconds after the phase starts
    size_t request = 0;
    int step = 0; ///< index of the offered rate
};

struct Plan
{
    std::string name;
    /** Calibrated cold in set-up. */
    std::vector<gpuperf::arch::GpuSpec> specs;
    /** Forked `gpuperf-worker serve` processes. */
    int workers = 0;
    /** Extra server endpoint options ("&key=value..."). */
    std::string serverQuery;
    /** Every request the workload may send. */
    std::vector<gpuperf::api::AnalysisRequest> requests;
    /** Sent by set-up, in order (the pre-warmed working set). */
    std::vector<size_t> prewarm;
    /** One closed-loop client's stream, in order (may be empty). */
    std::vector<size_t> closed;
    /** Closed-loop requests of the fixed-count (traced) run. */
    size_t closedFixed = 0;
    /** Open-loop offered rates (requests/s), ascending. */
    std::vector<double> rates;
    /** Seconds of each rate's window, back to back. */
    std::vector<double> windows;
    /**
     * The leading steps whose requests give the open loop's latency
     * metrics; the steps after them only probe goodput_rps.
     */
    size_t latencySteps = 0;
    std::vector<Arrival> arrivals;
    int unixConns = 0;
    int tcpConns = 0;
    /** Requests whose cells define model_err_*. */
    std::vector<size_t> accuracy;
    /** Latency limit of goodput_rps, ms. */
    double limitMs = 0.0;
    /** Latency metrics come from the open loop (else the closed). */
    bool latencyFromOpen = false;
};

Plan makePlan(const Options &o);

/** One server on a fresh store, with its fleet workers. */
struct Deployment
{
    std::string dir;
    std::string store;
    std::string sock;
    std::unique_ptr<gpuperf::api::Server> server;
    std::vector<pid_t> workers;
    double setupSeconds = 0.0;
    /** Per spec: calibrationFor start and end, seconds since t0. */
    struct Calibration
    {
        std::string spec;
        double start = 0.0;
        double end = 0.0;
    };
    std::vector<Calibration> calibrations;

    Deployment() = default;
    Deployment(const Deployment &) = delete;
    Deployment &operator=(const Deployment &) = delete;
    ~Deployment() { stop(); }

    /** Stop the server and workers, remove the store. Idempotent. */
    void stop();
    /** @p req as the server sees it (the forced store root). */
    gpuperf::api::AnalysisRequest
    serverSide(gpuperf::api::AnalysisRequest req) const;
};

/**
 * Set-up: start the server (and workers) on a fresh store, calibrate
 * every spec cold (one thread per spec), send the pre-warm requests.
 * @p t0 anchors the recorded calibration times.
 */
std::unique_ptr<Deployment> deploy(const Plan &plan, const Options &o,
                                   int trial, Clock::time_point t0);

/** Kill every worker process still running (exit paths). */
void killAllWorkers();

/** Nearest-rank percentile @p p of sorted @p v (0 if empty). */
double percentile(const std::vector<double> &v, double p);

/** percentile(v, 50) of @p v, sorted here. */
double median(std::vector<double> v);

/**
 * The tail percentile of @p n samples: the highest of p99.9, p99,
 * p95, p90 and p75 with at least ten samples beyond it (else p50).
 */
double tailPercentile(size_t n);

/** Two result cells equal under api::responsesEqual. */
bool cellsEqual(const gpuperf::driver::BatchResult &a,
                const gpuperf::driver::BatchResult &b);

struct Sample
{
    size_t request = 0;
    bool open = false; ///< open-loop tenant
    int step = -1;     ///< open loop: rate index
    int conn = 0;      ///< client connection (0 = the closed loop)
    double due = 0.0;  ///< seconds after the phase start
    double sent = 0.0;
    double firstCell = -1.0;
    double done = 0.0;
    std::string error; ///< non-empty: no kDone (kError, disconnect)
    size_t cellsOk = 0;
    size_t cellsFailed = 0;
    /** A streamed kCell differed from its kDone cell, or was missing. */
    bool streamMismatch = false;
    gpuperf::api::AnalysisResponse response;

    double latencyMs() const { return (done - due) * 1e3; }
    double firstCellMs() const { return (firstCell - due) * 1e3; }
};

struct Phase
{
    Clock::time_point start; ///< Sample times are seconds after this
    std::vector<Sample> samples;
    double wall = 0.0;
    double lateMaxMs = 0.0; ///< open loop: worst send lateness
    size_t openSent = 0;
};

/**
 * Drive the deployment: the closed loop (until the open loop's
 * schedule ends, or @p seconds without one; exactly
 * plan.closedFixed requests when @p fixedCount) beside the open loop.
 */
Phase runPhase(const Plan &plan, Deployment &dep, bool fixedCount,
               double seconds);

} // namespace gpubench

#endif // GPUBENCH_WORKLOAD_H
