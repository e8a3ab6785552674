/**
 * @file
 * gpubench: one served end-to-end benchmark of gpuperf.
 *
 *   gpubench --workload NAME --seed N --seconds S --trace 0|1
 *            --worker-bin PATH --work-dir DIR [--trace-out FILE] [--tiny]
 *
 * Starts an in-process api::Server on a fresh store, drives it over
 * api::ServeClient with the named workload generated from the seed,
 * checks every response against an in-process AnalysisService run of
 * the same request, and prints the metrics. --trace 0 prints the
 * end-to-end metrics; --trace 1 runs a fixed-count served pass, then
 * the traced per-layer pass (layers.h), and prints the per-layer
 * metrics. The last line of standard output is one JSON object:
 * {"correct", "attempted", "failed", "metrics": {name: {value, unit}}}.
 * gpubench/README.md describes the workloads and metrics.
 */

#include <signal.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <mutex>
#include <set>
#include <thread>

#include "api/codecs.h"
#include "api/service.h"
#include "common/fnv.h"
#include "layers.h"
#include "store/serializer.h"
#include "trace.h"
#include "workload.h"

using namespace gpuperf;
using namespace gpubench;

namespace {

/** Exits the process (workers killed) if a run overstays its budget. */
class Watchdog
{
  public:
    explicit Watchdog(double seconds)
        : thread_([this, seconds] {
              std::unique_lock<std::mutex> lock(mutex_);
              if (!cv_.wait_for(lock, std::chrono::duration<double>(seconds),
                                [this] { return done_; })) {
                  std::cerr << "gpubench: run exceeded " << seconds
                            << " s, aborting\n";
                  killAllWorkers();
                  _exit(3);
              }
          })
    {
    }
    ~Watchdog()
    {
        {
            std::lock_guard<std::mutex> lock(mutex_);
            done_ = true;
        }
        cv_.notify_all();
        thread_.join();
    }
    Watchdog(const Watchdog &) = delete;
    Watchdog &operator=(const Watchdog &) = delete;

  private:
    std::mutex mutex_;
    std::condition_variable cv_;
    bool done_ = false;
    std::thread thread_;
};

[[noreturn]] void
usage(const std::string &why)
{
    std::cerr << "gpubench: " << why
              << "\nusage: gpubench --workload cold-sweep|warm-interactive|"
                 "mixed-fleet --seed N --seconds S --trace 0|1 "
                 "--worker-bin PATH --work-dir DIR [--trace-out FILE] "
                 "[--tiny]\n";
    std::exit(2);
}

Options
parseArgs(int argc, char **argv)
{
    Options o;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        if (a == "--tiny") {
            o.tiny = true;
            continue;
        }
        if (i + 1 >= argc)
            usage("missing value for " + a);
        const std::string v = argv[++i];
        try {
            if (a == "--workload")
                o.workload = v;
            else if (a == "--seed")
                o.seed = std::stoull(v);
            else if (a == "--seconds")
                o.seconds = std::stod(v);
            else if (a == "--trace")
                o.trace = std::stoi(v) != 0;
            else if (a == "--worker-bin")
                o.workerBin = v;
            else if (a == "--work-dir")
                o.workDir = v;
            else if (a == "--trace-out")
                o.traceOut = v;
            else
                usage("unknown argument " + a);
        } catch (const std::logic_error &) {
            usage("bad value for " + a);
        }
    }
    if (o.workload.empty() || o.workDir.empty() || o.workerBin.empty())
        usage("--workload, --work-dir and --worker-bin are required");
    if (!(o.seconds > 0.0 && o.seconds <= 60.0))
        usage("--seconds must be in (0, 60]");
    return o;
}

/**
 * Effective parallelism right now: one thread per hardware thread
 * each doing the same fixed work, against one thread alone; median
 * of three rounds. About 1 on a host that lends this run one core.
 */
double
effectiveCores()
{
    const unsigned n = std::max(1u, std::thread::hardware_concurrency());
    auto spin = [](unsigned threads) {
        std::vector<uint64_t> sink(threads * 8, 0);
        const auto t0 = Clock::now();
        std::vector<std::thread> ts;
        for (unsigned t = 0; t < threads; ++t) {
            ts.emplace_back([&sink, t] {
                uint64_t x = t;
                for (uint64_t k = 0; k < 40000000; ++k)
                    x = x * 6364136223846793005ull + k;
                sink[t * 8] = x;
            });
        }
        for (std::thread &t : ts)
            t.join();
        return secondsSince(t0);
    };
    std::vector<double> ratios;
    for (int r = 0; r < 3; ++r) {
        const double one = spin(1);
        ratios.push_back(n * one / spin(n));
    }
    std::sort(ratios.begin(), ratios.end());
    return ratios[1];
}

/**
 * Restart the process's peak-RSS mark, so the peak read afterwards
 * covers serving only (not the discarded set-up trials).
 */
void
resetPeakRss()
{
    std::ofstream("/proc/self/clear_refs") << "5";
}

/** Peak RSS since the last reset, MB. */
double
peakRssMb()
{
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line))
        if (line.rfind("VmHWM:", 0) == 0)
            return std::stod(line.substr(6)) / 1024.0;
    struct rusage ru {};
    ::getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

std::string
requestBytes(const api::AnalysisRequest &req)
{
    store::ByteWriter w;
    api::writeRequest(w, req);
    return w.bytes();
}

/** Reference responses, computed in-process without a store. */
struct Reference
{
    std::map<std::string, api::AnalysisResponse> byRequest;
    std::map<size_t, double> seconds; ///< single-thread runs only
};

Reference
runReference(const Plan &plan, Deployment &dep,
             const std::vector<size_t> &order, bool singleThread)
{
    api::AnalysisService ref;
    std::vector<std::pair<size_t, api::AnalysisRequest>> todo;
    std::set<std::string> queued;
    std::set<int> policies;
    for (size_t r : order) {
        api::AnalysisRequest req = plan.requests[r];
        if (singleThread) {
            // Timed against the traced pass: one thread, and a fresh
            // store like the server's.
            req.exec.numThreads = 1;
            req.store.storeDir = dep.dir + "/reference";
        }
        if (!queued.insert(requestBytes(plan.requests[r])).second)
            continue;
        policies.insert(req.exec.numThreads);
        todo.emplace_back(r, std::move(req));
    }
    // Calibration is set-up's job; the reference adopts its tables.
    const api::AnalysisRequest policy = dep.serverSide(plan.requests.front());
    for (int threads : policies) {
        api::AnalysisRequest p = todo.front().second;
        p.exec.numThreads = threads;
        for (const arch::GpuSpec &spec : plan.specs)
            ref.adoptCalibration(
                p, spec, dep.server->service().calibrationFor(policy, spec));
    }

    Reference out;
    std::vector<api::AnalysisResponse> resp(todo.size());
    std::vector<double> secs(todo.size(), 0.0);
    std::atomic<size_t> next{0};
    auto work = [&] {
        for (size_t i; (i = next++) < todo.size();) {
            const auto t0 = Clock::now();
            resp[i] = ref.execute(todo[i].second);
            secs[i] = secondsSince(t0);
        }
    };
    const unsigned lanes =
        singleThread ? 1
                     : std::min(4u, std::max(1u, std::thread::
                                                     hardware_concurrency()));
    std::vector<std::thread> threads;
    for (unsigned t = 0; t < lanes; ++t)
        threads.emplace_back(work);
    for (std::thread &t : threads)
        t.join();
    for (size_t i = 0; i < todo.size(); ++i) {
        out.byRequest[requestBytes(plan.requests[todo[i].first])] =
            std::move(resp[i]);
        if (singleThread)
            out.seconds[todo[i].first] = secs[i];
    }
    return out;
}

void
printJson(bool correct, size_t attempted, size_t failed,
          const std::vector<Metric> &metrics)
{
    std::string s = "{\"correct\": ";
    s += correct ? "true" : "false";
    s += ", \"attempted\": " + std::to_string(attempted);
    s += ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
    char buf[256];
    for (size_t i = 0; i < metrics.size(); ++i) {
        std::snprintf(buf, sizeof(buf),
                      "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                      i ? ", " : "", metrics[i].name.c_str(),
                      std::isfinite(metrics[i].value) ? metrics[i].value
                                                      : 0.0,
                      metrics[i].unit.c_str());
        s += buf;
    }
    s += "}}";
    std::cout << s << std::endl;
}

void
printTable(const char *title, const std::vector<Metric> &metrics)
{
    std::cout << title << "\n";
    char buf[256];
    for (const Metric &m : metrics) {
        std::snprintf(buf, sizeof(buf), "  %-34s %16.6g %s\n",
                      m.name.c_str(), m.value, m.unit.c_str());
        std::cout << buf;
    }
}

int
run(const Options &o)
{
    const auto t0 = Clock::now();
    const double cores = effectiveCores();
    std::cout << "gpubench " << o.workload << " seed " << o.seed << " ("
              << o.seconds << " s, trace " << o.trace
              << "): host.effective_cores " << cores << " of "
              << std::thread::hardware_concurrency() << "\n";

    const Plan plan = makePlan(o);
    std::filesystem::create_directories(o.workDir);

    // Set-up, several times on fresh stores; the last one serves.
    const int trials = o.trace || o.tiny ? 1 : 3;
    std::vector<double> setups;
    std::unique_ptr<Deployment> dep;
    for (int t = 0; t < trials; ++t) {
        if (dep)
            dep->stop();
        dep = deploy(plan, o, t, t0);
        setups.push_back(dep->setupSeconds);
    }

    const api::AnalysisRequest policy =
        dep->serverSide(plan.requests.front());
    driver::BatchRunner *exec = &dep->server->service().executorFor(policy);
    const uint64_t fs0 = exec->funcsimsComputed();
    const uint64_t tm0 = exec->timingsComputed();
    const api::ServerStats before = dep->server->stats();
    resetPeakRss();
    const Phase phase = runPhase(plan, *dep, o.trace, o.seconds);
    const api::ServerStats after = dep->server->stats();
    const double rss_mb = peakRssMb();
    exec = &dep->server->service().executorFor(policy);
    const uint64_t funcsims = exec->funcsimsComputed() - fs0;
    const uint64_t timings = exec->timingsComputed() - tm0;

    // Correctness, outside the timed phase.
    std::vector<size_t> order = plan.accuracy;
    for (const Sample &s : phase.samples)
        order.push_back(s.request);
    const Reference ref = runReference(plan, *dep, order, o.trace);
    size_t failed = 0, mismatches = 0;
    std::vector<bool> bad(phase.samples.size(), false);
    for (size_t i = 0; i < phase.samples.size(); ++i) {
        const Sample &s = phase.samples[i];
        bad[i] = !s.error.empty() || s.cellsFailed > 0 || s.streamMismatch;
        if (s.error.empty()) {
            const auto &want =
                ref.byRequest.at(requestBytes(plan.requests[s.request]));
            std::string why;
            if (!api::responsesEqual(s.response, want, &why)) {
                ++mismatches;
                bad[i] = true;
                if (mismatches <= 3)
                    std::cerr << "gpubench: request "
                              << plan.requests[s.request].jobName
                              << " differs from the reference: " << why
                              << "\n";
            }
        } else if (failed < 3) {
            std::cerr << "gpubench: request "
                      << plan.requests[s.request].jobName
                      << " failed: " << s.error << "\n";
        }
        failed += bad[i] ? 1 : 0;
    }
    std::vector<double> err_pct;
    for (size_t r : plan.accuracy)
        for (const driver::BatchResult &c :
             ref.byRequest.at(requestBytes(plan.requests[r])).cells)
            if (c.ok)
                err_pct.push_back(c.analysis.errorFraction() * 100.0);
    std::sort(err_pct.begin(), err_pct.end());

    // Latency from the tenant the workload names; on an open loop,
    // from its latency steps only. Each figure is the median over
    // three consecutive thirds of the samples (in due order) of that
    // third's value, so a short stall of a shared host moves one
    // third, not the figure.
    std::vector<const Sample *> timed;
    size_t ok_cells = 0;
    for (const Sample &s : phase.samples) {
        ok_cells += s.cellsOk;
        if (s.open == plan.latencyFromOpen &&
            (!s.open || static_cast<size_t>(s.step) < plan.latencySteps))
            timed.push_back(&s);
    }
    constexpr size_t kThirds = 3;
    const double tail_p = tailPercentile(timed.size() / kThirds);
    std::vector<double> p50s, tails, firsts;
    for (size_t t = 0; t < kThirds; ++t) {
        std::vector<double> lat, first;
        for (size_t i = t * timed.size() / kThirds;
             i < (t + 1) * timed.size() / kThirds; ++i) {
            lat.push_back(timed[i]->latencyMs());
            first.push_back(timed[i]->firstCellMs());
        }
        std::sort(lat.begin(), lat.end());
        p50s.push_back(percentile(lat, 50.0));
        tails.push_back(percentile(lat, tail_p));
        firsts.push_back(median(first));
    }

    // Goodput. Closed loop: requests meeting the limit, with no
    // failure, per second. Open loop: the offered rate at which the
    // step tail reaches the limit, interpolated between the last step
    // that meets it and the first that misses. Queueing delay grows
    // as 1 / (1 - load), so 1 / tail falls about linearly with the
    // rate near capacity: the interpolation is linear in 1 / tail. A
    // step with a failed request misses outright, so the estimate
    // stops at the step below; it is 0 if the first step misses.
    double goodput = 0.0;
    std::vector<std::string> step_lines;
    if (plan.latencyFromOpen) {
        const size_t steps = plan.rates.size();
        std::vector<std::vector<double>> step_lat(steps);
        std::vector<size_t> step_bad(steps, 0);
        for (size_t i = 0; i < phase.samples.size(); ++i) {
            const Sample &s = phase.samples[i];
            if (!s.open)
                continue;
            step_lat[s.step].push_back(s.latencyMs());
            step_bad[s.step] += bad[i] ? 1 : 0;
        }
        // One percentile for every step, so their tails compare.
        size_t fewest = phase.samples.size();
        for (std::vector<double> &l : step_lat) {
            std::sort(l.begin(), l.end());
            fewest = std::min(fewest, l.size());
        }
        const double step_p = tailPercentile(fewest);
        double below = 0.0; // tail of the last step that met the limit
        bool reached = false;
        for (size_t k = 0; k < steps; ++k) {
            const double tail = percentile(step_lat[k], step_p);
            const bool meets = step_bad[k] == 0 && tail <= plan.limitMs;
            if (!reached && meets) {
                goodput = plan.rates[k];
                below = tail;
            } else if (!reached) {
                reached = true;
                if (k > 0 && step_bad[k] == 0)
                    goodput += (plan.rates[k] - plan.rates[k - 1]) *
                               (1.0 / below - 1.0 / plan.limitMs) /
                               (1.0 / below - 1.0 / tail);
            }
            char buf[200];
            std::snprintf(buf, sizeof(buf),
                          "  offered %6.1f req/s%s: p50 %.3f ms, p%g %.3f ms "
                          "(n=%zu, %zu failed), %s the %.0f ms limit\n",
                          plan.rates[k],
                          k < plan.latencySteps ? " (latency)" : "",
                          percentile(step_lat[k], 50.0), step_p, tail,
                          step_lat[k].size(), step_bad[k],
                          meets ? "meets" : "misses", plan.limitMs);
            step_lines.push_back(buf);
        }
        if (!reached)
            step_lines.push_back("  every step meets the limit: "
                                 "goodput_rps is the top offered rate\n");
    } else {
        size_t met = 0;
        for (size_t i = 0; i < phase.samples.size(); ++i)
            met += !phase.samples[i].open && !bad[i] &&
                           phase.samples[i].latencyMs() <= plan.limitMs
                       ? 1
                       : 0;
        goodput = met / phase.wall;
    }

    const size_t attempted = std::max<size_t>(phase.samples.size(), 1);
    std::vector<Metric> e2e = {
        {"setup_s", median(setups), "s"},
        {"cells_per_s", ok_cells / phase.wall, "1/s"},
        {"latency_p50_ms", median(p50s), "ms"},
        {"latency_tail_ms", median(tails), "ms"},
        {"first_cell_p50_ms", median(firsts), "ms"},
        {"goodput_rps", goodput, "1/s"},
        {"peak_rss_mb", rss_mb, "MB"},
        {"model_err_p50_pct", percentile(err_pct, 50.0), "%"},
        {"model_err_max_pct", err_pct.empty() ? 0.0 : err_pct.back(), "%"},
    };
    std::cout << "setup trials:";
    for (double s : setups)
        std::cout << " " << s << " s";
    std::cout << "\nlatency tail = p" << tail_p << " of each third of "
              << timed.size()
              << " requests (" << (plan.latencyFromOpen ? "open" : "closed")
              << " loop), limit " << plan.limitMs << " ms\n";
    for (const std::string &l : step_lines)
        std::cout << l;
    // The seed-determined facts, for the self-test's repeat checks.
    uint64_t digest = kFnvOffsetBasis;
    for (const api::AnalysisRequest &req : plan.requests)
        digest = fnv1a64(requestBytes(req), digest);
    for (const Arrival &a : plan.arrivals) {
        char due[64];
        std::snprintf(due, sizeof(due), "%.17g@%zu", a.due, a.request);
        digest = fnv1a64(std::string(due), digest);
    }
    char facts[160];
    std::snprintf(facts, sizeof(facts),
                  "inputs: digest=%016llx model_err_p50_pct=%.17g "
                  "model_err_max_pct=%.17g\n",
                  static_cast<unsigned long long>(digest), e2e[7].value,
                  e2e[8].value);
    std::cout << facts;
    std::vector<Metric> shown = e2e;
    shown.push_back({"error_rate",
                     static_cast<double>(failed) / attempted, "ratio"});
    printTable("end-to-end:", shown);

    bool correct = failed == 0 && mismatches == 0 && !phase.samples.empty();
    if (!o.trace) {
        dep->stop();
        printJson(correct, attempted, failed, e2e);
        return 0;
    }

    // --- Traced run ------------------------------------------------------
    // Spans are timed from t0: set-up's calibrations, the served
    // exchanges (one viewer row per connection), then the layer pass.
    Tracer tracer(true, t0);
    for (size_t i = 0; i < dep->calibrations.size(); ++i)
        tracer.add("model.calibrate", 0, dep->calibrations[i].start,
                   dep->calibrations[i].end, 2 + static_cast<int>(i));
    const double served_at =
        std::chrono::duration<double>(phase.start - t0).count();
    for (size_t i = 0; i < phase.samples.size(); ++i) {
        const Sample &s = phase.samples[i];
        tracer.add("client.run", i + 1, served_at + s.sent,
                   served_at + s.done, 10 + s.conn);
    }
    std::vector<Metric> layers;
    auto add = [&](const std::string &name, double v,
                   const std::string &unit) {
        layers.push_back({name, v, unit});
    };
    add("host.effective_cores", cores, "cores");
    add("model.calibrate.busy_s", tracer.total("model.calibrate"), "s");
    add("model.calibrate.specs", static_cast<double>(plan.specs.size()),
        "count");

    ServedRun served{plan, *dep, phase, ref.seconds};
    const size_t traced_mismatch = tracedLayers(served, tracer, layers);
    correct = correct && traced_mismatch == 0;

    store::StoreStats st = after.store.total();
    const store::StoreStats st0 = before.store.total();
    const double hits = static_cast<double>(st.hits - st0.hits);
    const double misses = static_cast<double>(st.misses - st0.misses);
    add("store.hits", hits, "count");
    add("store.misses", misses, "count");
    add("store.hit_ratio", hits + misses > 0 ? hits / (hits + misses) : 0.0,
        "ratio");
    add("store.bytes_read",
        static_cast<double>(st.bytesRead - st0.bytesRead), "bytes");
    add("store.bytes_written",
        static_cast<double>(st.bytesWritten - st0.bytesWritten), "bytes");
    add("driver.funcsims_computed", static_cast<double>(funcsims), "count");
    add("driver.timings_computed", static_cast<double>(timings), "count");
    add("driver.cells_per_funcsim",
        funcsims ? static_cast<double>(ok_cells) / funcsims : 0.0, "ratio");
    add("api.server.rejected",
        static_cast<double>(after.rejectedRequests + after.rejectedClients),
        "count");
    add("api.server.disconnects", static_cast<double>(after.disconnects),
        "count");
    const api::DispatchStats &f = after.fleet;
    const api::DispatchStats &f0 = before.fleet;
    const double small_n =
        static_cast<double>(f.waitSmallCount - f0.waitSmallCount);
    add("api.dispatch.wait_small_ms_mean",
        small_n > 0 ? (f.waitSmallMsTotal - f0.waitSmallMsTotal) / small_n
                    : 0.0,
        "ms");
    add("api.dispatch.wait_large_ms_max", f.waitLargeMsMax, "ms");
    add("api.dispatch.queue_depth_peak",
        static_cast<double>(f.queueDepthPeak), "count");
    add("api.dispatch.cells_remote",
        static_cast<double>(f.cellsCompletedRemote - f0.cellsCompletedRemote),
        "count");
    add("api.dispatch.cells_local",
        static_cast<double>(f.cellsLocal - f0.cellsLocal), "count");
    add("api.dispatch.redispatched",
        static_cast<double>(f.cellsRedispatched - f0.cellsRedispatched),
        "count");
    const double cost_n =
        static_cast<double>(f.costErrorSamples - f0.costErrorSamples);
    add("sched.cost_err_ms_mean",
        cost_n > 0 ? (f.costErrorAbsMsSum - f0.costErrorAbsMsSum) / cost_n
                   : 0.0,
        "ms");
    add("gen.late_ms_max", phase.lateMaxMs, "ms");
    add("gen.sent", static_cast<double>(phase.openSent), "count");
    add("latency.tail_pct", tail_p, "%");
    add("latency.samples", static_cast<double>(timed.size()), "count");
    dep->stop();

    std::cout << "per-layer self time (traced pass):\n";
    char buf[200];
    for (const auto &[name, self] : tracer.selfSeconds()) {
        std::snprintf(buf, sizeof(buf), "  %-20s %6zu spans %12.3f ms\n",
                      name.c_str(), tracer.count(name), self * 1e3);
        std::cout << buf;
    }
    printTable("per-layer:", layers);
    if (!o.traceOut.empty()) {
        if (!tracer.writeChrome(o.traceOut))
            throw std::runtime_error("cannot write " + o.traceOut);
        std::cout << "trace: " << o.traceOut << "\n";
    }
    printJson(correct, attempted, failed, layers);
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    ::signal(SIGPIPE, SIG_IGN);
    const Options o = parseArgs(argc, argv);
    Watchdog watchdog(170.0);
    int rc = 1;
    try {
        rc = run(o);
    } catch (const std::exception &e) {
        std::cerr << "gpubench: " << e.what() << "\n";
        killAllWorkers();
    }
    std::error_code ec;
    std::filesystem::remove_all(o.workDir, ec);
    return rc;
}
