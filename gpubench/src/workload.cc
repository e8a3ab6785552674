#include "workload.h"

#include <fcntl.h>
#include <signal.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <mutex>
#include <set>
#include <stdexcept>
#include <thread>

#include "api/client.h"
#include "api/codecs.h"

namespace gpubench {

using namespace gpuperf;

uint64_t
Rng::next()
{
    uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

namespace {

// --- Inputs --------------------------------------------------------------

constexpr int kFactories = 7;
const char *const kFactoryNames[kFactories] = {
    "saxpy",     "saxpy-strided", "shared-conflict", "stencil1d",
    "reduction", "spmv-ell",      "histogram"};

template <typename T, size_t N>
T
pick(Rng &rng, const T (&choices)[N])
{
    return choices[rng.below(N)];
}

/**
 * Registry arguments of one kernel of factory @p f, at the launch
 * sizes a GTX 285 (30 SMs) analysis is asked about; tiny runs scale
 * the grids down.
 */
api::CaseRef
drawRef(Rng &rng, int f, bool tiny)
{
    const int64_t scale = tiny ? 4 : 1;
    api::CaseRef ref;
    ref.factory = kFactoryNames[f];
    switch (f) {
      case 0: // saxpy: grid, block; a
        ref.iargs = {(120 + static_cast<int64_t>(rng.below(121))) / scale,
                     pick(rng, {128, 256})};
        ref.fargs = {0.5 + static_cast<double>(rng.below(1000)) / 100.0};
        break;
      case 1: // saxpy-strided: grid * block a power of two; stride
        ref.iargs = {pick(rng, {16, 32, 64, 128, 256}) / scale,
                     pick(rng, {64, 128, 256, 512}),
                     pick(rng, {2, 4, 8, 16, 32})};
        break;
      case 2: // shared-conflict: grid, block, stride, iterations
        ref.iargs = {(60 + static_cast<int64_t>(rng.below(61))) / scale,
                     pick(rng, {64, 128, 256}), pick(rng, {1, 2, 3, 4, 8}),
                     8 + static_cast<int64_t>(rng.below(25))};
        break;
      case 3: // stencil1d: grid, block
        ref.iargs = {(120 + static_cast<int64_t>(rng.below(121))) / scale,
                     pick(rng, {64, 128, 256})};
        break;
      case 4: // reduction: grid, power-of-two block
        ref.iargs = {(120 + static_cast<int64_t>(rng.below(121))) / scale,
                     pick(rng, {64, 128, 256})};
        break;
      case 5: // spmv-ell: block rows, blocks per row
        ref.iargs = {(1000 + static_cast<int64_t>(rng.below(801))) / scale,
                     2 + static_cast<int64_t>(rng.below(3))};
        break;
      default: // histogram: grid, block, bins, items per thread
               // (block * bins counters fit a GTX 285 SM's 16 KB)
        ref.iargs = {(45 + static_cast<int64_t>(rng.below(46))) / scale,
                     pick(rng, {64, 128}), pick(rng, {8, 16}),
                     2 + static_cast<int64_t>(rng.below(7))};
        break;
    }
    return ref;
}

std::string
refName(const api::CaseRef &ref)
{
    std::string name = ref.factory;
    for (int64_t v : ref.iargs)
        name += "/" + std::to_string(v);
    char buf[32];
    for (double v : ref.fargs) {
        std::snprintf(buf, sizeof(buf), "/%.17g", v);
        name += buf;
    }
    return name;
}

/**
 * Seed of the accuracy ledger: the kernels model_err_* is measured on
 * are the same for every seed, so the figure compares commits exactly
 * instead of varying with the inputs.
 */
constexpr uint64_t kLedgerSeed = 0x6c6564676572ull;

/** Kernels never drawn before in this plan. */
class KernelSource
{
  public:
    explicit KernelSource(bool tiny) : tiny_(tiny) {}

    /** A never-seen kernel of factory @p f (saxpy if f is used up). */
    api::KernelJob novel(Rng &rng, int f)
    {
        for (int attempt = 0;; ++attempt) {
            const api::CaseRef ref =
                drawRef(rng, attempt < 64 ? f : 0, tiny_);
            std::string name = refName(ref);
            if (seen_.insert(name).second)
                return api::KernelJob::fromRef(std::move(name), ref);
        }
    }

  private:
    bool tiny_;
    std::set<std::string> seen_;
};

arch::GpuSpec
fasterClock()
{
    // Timing-only variant: shares the GTX 285 funcsim fingerprint.
    arch::GpuSpec s = arch::GpuSpec::gtx285();
    s.name = "GTX 285 + 25% core clock";
    s.coreClockHz *= 1.25;
    return s;
}

api::AnalysisRequest
makeRequest(std::string job, std::vector<api::KernelJob> kernels,
            std::vector<arch::GpuSpec> specs, int threads,
            std::string client = "")
{
    api::AnalysisRequest req;
    req.jobName = std::move(job);
    req.clientId = std::move(client);
    req.kernels = std::move(kernels);
    req.specs = std::move(specs);
    req.sweep.noBankConflicts = true;
    req.sweep.warpsPerSm = {16.0, 32.0};
    req.exec.numThreads = threads;
    req.exec.delivery = api::ExecutionPolicy::Delivery::kStream;
    return req;
}

/** Pre-warm requests covering @p kernels x @p specs, 4 kernels each. */
void
addPrewarm(Plan &p, const std::vector<api::KernelJob> &kernels,
           int threads)
{
    for (size_t k = 0; k < kernels.size(); k += 4) {
        std::vector<api::KernelJob> chunk(
            kernels.begin() + k,
            kernels.begin() + std::min(kernels.size(), k + 4));
        p.prewarm.push_back(p.requests.size());
        p.requests.push_back(makeRequest(
            "prewarm-" + std::to_string(k / 4), std::move(chunk),
            p.specs, threads));
    }
}

/**
 * Random arrivals at each rate, one window each, back to back: a
 * Poisson process conditioned on its count (rate x window uniform
 * times), so every seed offers exactly the stated load.
 */
template <typename MakeRequest>
void
addArrivals(Plan &p, Rng &rng, MakeRequest make)
{
    double begin = 0.0;
    for (size_t step = 0; step < p.rates.size(); ++step) {
        const double window = p.windows[step];
        std::vector<double> due(
            static_cast<size_t>(std::lround(p.rates[step] * window)));
        for (double &t : due)
            t = begin + rng.unit() * window;
        std::sort(due.begin(), due.end());
        for (double t : due) {
            p.arrivals.push_back(
                {t, p.requests.size(), static_cast<int>(step)});
            p.requests.push_back(make(p.arrivals.size()));
        }
        begin += window;
    }
}

Plan
coldSweep(const Options &o)
{
    Plan p;
    p.name = o.workload;
    const arch::GpuSpec gtx = arch::GpuSpec::gtx285();
    const arch::GpuSpec fast = fasterClock();
    const arch::GpuSpec prime = arch::GpuSpec::gtx285PrimeBanks();
    p.specs = {gtx, fast, prime};
    KernelSource source(o.tiny);
    Rng ledger(kLedgerSeed);
    Rng seeded(o.seed);
    const int per_request = o.tiny ? 1 : 2;
    // The first requests are the accuracy ledger: 10 kernels per
    // factory.
    const size_t ledger_requests = o.tiny ? 2 : 35;
    // Sized well beyond what one run sends.
    const size_t cap = static_cast<size_t>(80.0 * o.seconds) + 16;
    for (size_t i = 0; i < cap; ++i) {
        Rng &rng = i < ledger_requests ? ledger : seeded;
        std::vector<api::KernelJob> kernels;
        for (int j = 0; j < per_request; ++j)
            kernels.push_back(source.novel(
                rng, static_cast<int>((i * per_request + j) % kFactories)));
        std::vector<arch::GpuSpec> specs =
            rng.below(2) ? std::vector<arch::GpuSpec>{gtx, fast, prime}
                         : std::vector<arch::GpuSpec>{fast, prime};
        p.closed.push_back(p.requests.size());
        p.requests.push_back(makeRequest("cold-" + std::to_string(i),
                                         std::move(kernels),
                                         std::move(specs), 0));
    }
    p.closedFixed = o.tiny ? 2 : 7;
    p.accuracy.assign(p.closed.begin(), p.closed.begin() + ledger_requests);
    p.limitMs = 250.0;
    return p;
}

Plan
warmInteractive(const Options &o)
{
    Plan p;
    p.name = o.workload;
    const arch::GpuSpec gtx = arch::GpuSpec::gtx285();
    const arch::GpuSpec fast = fasterClock();
    p.specs = {gtx, fast};
    // The working set and its popularity ranking are the ledger; the
    // seed draws the arrivals.
    KernelSource source(o.tiny);
    Rng ledger(kLedgerSeed);
    std::vector<api::KernelJob> working;
    const int per_factory = o.tiny ? 1 : 8;
    for (int k = 0; k < per_factory * kFactories; ++k)
        working.push_back(source.novel(ledger, k % kFactories));
    addPrewarm(p, working, 0);
    p.accuracy = p.prewarm;

    // The factories take turns; within one, popularity is skewed
    // (weight 1/(rank+1) over a fixed ranking). Every seed then sends
    // the same factory mix, whose warm costs differ several-fold.
    std::vector<std::vector<size_t>> by_factory(kFactories);
    for (size_t i = 0; i < working.size(); ++i)
        by_factory[i % kFactories].push_back(i);
    for (std::vector<size_t> &rank : by_factory)
        for (size_t i = rank.size(); i > 1; --i)
            std::swap(rank[i - 1], rank[ledger.below(i)]);
    std::vector<double> cdf;
    double sum = 0.0;
    for (int r = 0; r < per_factory; ++r)
        cdf.push_back(sum += 1.0 / static_cast<double>(r + 1));
    Rng rng(o.seed);
    p.rates = o.tiny ? std::vector<double>{50.0, 100.0}
                     : std::vector<double>{100.0, 200.0, 300.0};
    p.windows.assign(p.rates.size(),
                     o.seconds / static_cast<double>(p.rates.size()));
    p.latencySteps = p.rates.size();
    addArrivals(p, rng, [&](size_t n) {
        const std::vector<size_t> &rank = by_factory[n % kFactories];
        const double u = rng.unit() * sum;
        const size_t r = static_cast<size_t>(
            std::lower_bound(cdf.begin(), cdf.end(), u) - cdf.begin());
        const api::KernelJob &job =
            working[rank[std::min(r, rank.size() - 1)]];
        const uint64_t which = rng.below(3);
        std::vector<arch::GpuSpec> specs =
            which == 0 ? std::vector<arch::GpuSpec>{gtx}
            : which == 1 ? std::vector<arch::GpuSpec>{fast}
                         : std::vector<arch::GpuSpec>{gtx, fast};
        return makeRequest("warm-" + std::to_string(n), {job},
                           std::move(specs), 0);
    });
    // One TCP connection of four: TCP requests (a ~40 ms floor today)
    // stay a minority, so the median measures the unix path and the
    // tail the TCP one.
    p.unixConns = 3;
    p.tcpConns = 1;
    p.latencyFromOpen = true;
    p.limitMs = 100.0;
    return p;
}

Plan
mixedFleet(const Options &o)
{
    Plan p;
    p.name = o.workload;
    const arch::GpuSpec gtx = arch::GpuSpec::gtx285();
    p.specs = {gtx};
    p.workers = 2;
    p.serverQuery = "&sched=fair-share&worker-inflight=1";
    KernelSource source(o.tiny);
    Rng ledger(kLedgerSeed);
    // Requests run one thread each, on the workers.
    constexpr int kThreads = 1;

    std::vector<api::KernelJob> repeats;
    const int repeat_count = o.tiny ? 2 : 14;
    for (int k = 0; k < repeat_count; ++k)
        repeats.push_back(source.novel(ledger, k % kFactories));
    addPrewarm(p, repeats, kThreads);
    // Every kernel comes from the ledger stream, so each seed offers
    // the same costs; the seed draws the arrivals and the repeats. The
    // first batch requests complete the accuracy ledger.
    const size_t ledger_requests = o.tiny ? 1 : 21;
    std::vector<std::vector<api::KernelJob>> batches;
    const int per_request = o.tiny ? 2 : 3;
    for (size_t i = 0; i < ledger_requests; ++i) {
        batches.emplace_back();
        for (int j = 0; j < per_request; ++j)
            batches.back().push_back(source.novel(
                ledger,
                static_cast<int>((i * per_request + j) % kFactories)));
    }

    Rng rng(o.seed);
    // 60% of the run at about a third of the interactive capacity
    // (125-170 req/s on a 4-vCPU host) gives the latency metrics; a
    // ramp of four short steps that brackets it gives goodput_rps.
    if (o.tiny) {
        p.rates = {4.0, 8.0};
        p.windows.assign(2, o.seconds / 2.0);
    } else {
        p.rates = {40.0, 90.0, 130.0, 170.0, 210.0};
        p.windows = {o.seconds * 0.6};
        p.windows.resize(p.rates.size(), o.seconds * 0.1);
    }
    p.latencySteps = 1;
    int next_factory = 3;
    // One request in three repeats a pre-warmed cell: with half, the
    // median would sit on the edge between the warm and cold modes.
    addArrivals(p, rng, [&](size_t n) {
        api::KernelJob job =
            n % 3 == 0
                ? repeats[rng.below(repeats.size())]
                : source.novel(ledger, next_factory++ % kFactories);
        return makeRequest("interactive-" + std::to_string(n), {job},
                           {gtx}, kThreads, "interactive");
    });

    const size_t cap = static_cast<size_t>(40.0 * o.seconds) + 8;
    for (size_t i = 0; i < cap; ++i) {
        std::vector<api::KernelJob> kernels;
        if (i < batches.size())
            kernels = batches[i];
        else
            for (int j = 0; j < per_request; ++j)
                kernels.push_back(source.novel(
                    ledger,
                    static_cast<int>((i * per_request + j) % kFactories)));
        p.closed.push_back(p.requests.size());
        p.requests.push_back(makeRequest("batch-" + std::to_string(i),
                                         std::move(kernels), {gtx},
                                         kThreads, "batch"));
    }
    p.closedFixed = o.tiny ? 1 : 3;
    p.accuracy = p.prewarm;
    p.accuracy.insert(p.accuracy.end(), p.closed.begin(),
                      p.closed.begin() + ledger_requests);
    // Enough connections that the server, not the sender, saturates
    // first: each connection has one request in flight at a time.
    p.unixConns = 16;
    p.latencyFromOpen = true;
    p.limitMs = 250.0;
    return p;
}

// --- Deployment ----------------------------------------------------------

std::mutex g_workersMutex;
std::set<pid_t> g_workers;

pid_t
spawnWorker(const std::string &bin, const std::string &uri)
{
    const pid_t pid = ::fork();
    if (pid != 0)
        return pid;
    const int null_fd = ::open("/dev/null", O_WRONLY);
    if (null_fd >= 0) {
        ::dup2(null_fd, 1);
        ::dup2(null_fd, 2);
        ::close(null_fd);
    }
    ::execl(bin.c_str(), "gpuperf-worker", "serve", "--via", uri.c_str(),
            static_cast<char *>(nullptr));
    _exit(127);
}

/** Send @p req over @p client; throws unless every cell is ok. */
void
sendChecked(api::ServeClient &client, const api::AnalysisRequest &req)
{
    const api::AnalysisResponse resp = client.run(req);
    for (const driver::BatchResult &cell : resp.cells)
        if (!cell.ok)
            throw std::runtime_error("pre-warm cell " + cell.kernelName +
                                     " failed: " + cell.error);
}

} // namespace

Plan
makePlan(const Options &o)
{
    if (o.workload == "cold-sweep")
        return coldSweep(o);
    if (o.workload == "warm-interactive")
        return warmInteractive(o);
    if (o.workload == "mixed-fleet")
        return mixedFleet(o);
    throw std::runtime_error("unknown workload '" + o.workload + "'");
}

void
killAllWorkers()
{
    std::lock_guard<std::mutex> lock(g_workersMutex);
    for (pid_t pid : g_workers)
        ::kill(pid, SIGKILL);
}

void
Deployment::stop()
{
    if (server)
        server->stop();
    for (pid_t pid : workers) {
        ::kill(pid, SIGTERM);
        ::waitpid(pid, nullptr, 0);
        std::lock_guard<std::mutex> lock(g_workersMutex);
        g_workers.erase(pid);
    }
    workers.clear();
    server.reset();
    if (!dir.empty()) {
        std::error_code ec;
        std::filesystem::remove_all(dir, ec);
        dir.clear();
    }
}

api::AnalysisRequest
Deployment::serverSide(api::AnalysisRequest req) const
{
    req.store.storeDir = store;
    return req;
}

std::unique_ptr<Deployment>
deploy(const Plan &plan, const Options &o, int trial,
       Clock::time_point t0)
{
    auto dep = std::make_unique<Deployment>();
    const auto start = Clock::now();
    dep->dir = o.workDir + "/d" + std::to_string(trial);
    dep->store = dep->dir + "/store";
    dep->sock = dep->dir + "/s.sock";
    std::filesystem::create_directories(dep->store);

    // Every deployment listens on TCP too: the traced run measures
    // both transports' overhead on each workload.
    const api::Endpoint unix_ep = api::Endpoint::parse(
        "unix:" + dep->sock + "?store=" + dep->store + plan.serverQuery,
        api::Endpoint::Role::kServer);
    const api::Endpoint tcp_ep = api::Endpoint::parse(
        "tcp:127.0.0.1:0", api::Endpoint::Role::kServer);
    dep->server = std::make_unique<api::Server>(
        std::vector<api::Endpoint>{unix_ep, tcp_ep});
    dep->server->start();

    for (int w = 0; w < plan.workers; ++w) {
        const pid_t pid = spawnWorker(o.workerBin, "unix:" + dep->sock);
        if (pid < 0)
            throw std::runtime_error("fork failed");
        dep->workers.push_back(pid);
        std::lock_guard<std::mutex> lock(g_workersMutex);
        g_workers.insert(pid);
    }
    const auto reg_deadline = Clock::now() + std::chrono::seconds(30);
    while (dep->server->dispatcher().liveWorkers() <
           static_cast<size_t>(plan.workers)) {
        if (Clock::now() > reg_deadline)
            throw std::runtime_error("fleet workers did not register (" +
                                     o.workerBin + ")");
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }

    // Calibrate every spec cold, in parallel, on the executor the
    // workload's requests will use.
    const api::AnalysisRequest policy =
        dep->serverSide(plan.requests.front());
    dep->calibrations.resize(plan.specs.size());
    std::vector<std::thread> threads;
    std::vector<std::string> errors(plan.specs.size());
    for (size_t s = 0; s < plan.specs.size(); ++s) {
        threads.emplace_back([&, s] {
            Deployment::Calibration &c = dep->calibrations[s];
            c.spec = plan.specs[s].name;
            c.start = secondsSince(t0);
            try {
                dep->server->service().calibrationFor(policy,
                                                      plan.specs[s]);
            } catch (const std::exception &e) {
                errors[s] = e.what();
            }
            c.end = secondsSince(t0);
        });
    }
    for (std::thread &t : threads)
        t.join();
    for (const std::string &e : errors)
        if (!e.empty())
            throw std::runtime_error("calibration failed: " + e);

    if (!plan.prewarm.empty()) {
        api::ServeClient client = api::ServeClient::overUnix(dep->sock);
        for (size_t r : plan.prewarm)
            sendChecked(client, plan.requests[r]);
    }
    dep->setupSeconds = secondsSince(start);
    return dep;
}

// --- Statistics ----------------------------------------------------------

double
percentile(const std::vector<double> &v, double p)
{
    if (v.empty())
        return 0.0;
    size_t rank = static_cast<size_t>(std::ceil(p / 100.0 * v.size()));
    rank = std::min(std::max<size_t>(rank, 1), v.size());
    return v[rank - 1];
}

double
median(std::vector<double> v)
{
    std::sort(v.begin(), v.end());
    return percentile(v, 50.0);
}

double
tailPercentile(size_t n)
{
    for (double p : {99.9, 99.0, 95.0, 90.0, 75.0}) {
        const size_t rank = static_cast<size_t>(std::ceil(p / 100.0 * n));
        if (n >= rank + 10)
            return p;
    }
    return 50.0;
}

bool
cellsEqual(const driver::BatchResult &a, const driver::BatchResult &b)
{
    api::AnalysisResponse ra, rb;
    ra.cells = {a};
    rb.cells = {b};
    return api::responsesEqual(ra, rb);
}

// --- Phase ---------------------------------------------------------------

namespace {

/** One exchange, timed and checked stream-against-done. */
void
exchange(api::ServeClient &client, const api::AnalysisRequest &req,
         Clock::time_point t0, Sample &s)
{
    std::vector<std::pair<size_t, driver::BatchResult>> streamed;
    s.sent = secondsSince(t0);
    try {
        s.response = client.run(req, [&](size_t index,
                                          const driver::BatchResult &c) {
            if (s.firstCell < 0.0)
                s.firstCell = secondsSince(t0);
            streamed.emplace_back(index, c);
        });
        s.done = secondsSince(t0);
    } catch (const std::exception &e) {
        s.done = secondsSince(t0);
        s.error = e.what();
        return;
    }
    if (s.firstCell < 0.0)
        s.firstCell = s.done;
    std::vector<int> seen(s.response.cells.size(), 0);
    for (const auto &[index, cell] : streamed) {
        if (index >= seen.size() || seen[index]++ ||
            !cellsEqual(cell, s.response.cells[index]))
            s.streamMismatch = true;
    }
    if (std::count(seen.begin(), seen.end(), 1) !=
        static_cast<long>(seen.size()))
        s.streamMismatch = true;
    for (const driver::BatchResult &cell : s.response.cells)
        (cell.ok ? s.cellsOk : s.cellsFailed) += 1;
}

} // namespace

Phase
runPhase(const Plan &plan, Deployment &dep, bool fixedCount,
         double seconds)
{
    Phase phase;
    std::mutex mutex; // guards phase.samples
    double open_end = 0.0;
    for (double w : plan.windows)
        open_end += w;
    const double closed_end = plan.arrivals.empty() ? seconds : open_end;
    const int tcp_port = dep.server->tcpPort();
    std::atomic<size_t> next_arrival{0};
    std::vector<double> late(plan.unixConns + plan.tcpConns, 0.0);

    const auto t0 = Clock::now();
    phase.start = t0;
    std::vector<std::thread> threads;
    if (!plan.closed.empty()) {
        threads.emplace_back([&] {
            api::ServeClient client = api::ServeClient::overUnix(dep.sock);
            for (size_t i = 0; i < plan.closed.size(); ++i) {
                if (fixedCount ? i >= plan.closedFixed
                               : secondsSince(t0) >= closed_end)
                    break;
                Sample s;
                s.request = plan.closed[i];
                s.due = secondsSince(t0);
                exchange(client, plan.requests[s.request], t0, s);
                std::lock_guard<std::mutex> lock(mutex);
                phase.samples.push_back(std::move(s));
            }
        });
    }
    for (int c = 0; c < plan.unixConns + plan.tcpConns; ++c) {
        threads.emplace_back([&, c] {
            api::ServeClient client =
                c < plan.unixConns
                    ? api::ServeClient::overUnix(dep.sock)
                    : api::ServeClient::overTcp("127.0.0.1", tcp_port);
            for (;;) {
                const size_t i = next_arrival++;
                if (i >= plan.arrivals.size())
                    break;
                const Arrival &a = plan.arrivals[i];
                std::this_thread::sleep_until(
                    t0 + std::chrono::duration_cast<Clock::duration>(
                             std::chrono::duration<double>(a.due)));
                Sample s;
                s.request = a.request;
                s.open = true;
                s.step = a.step;
                s.conn = c + 1;
                s.due = a.due;
                late[c] = std::max(late[c], secondsSince(t0) - a.due);
                exchange(client, plan.requests[s.request], t0, s);
                std::lock_guard<std::mutex> lock(mutex);
                phase.samples.push_back(std::move(s));
            }
        });
    }
    for (std::thread &t : threads)
        t.join();
    phase.wall = secondsSince(t0);
    phase.openSent = plan.arrivals.size();
    for (double l : late)
        phase.lateMaxMs = std::max(phase.lateMaxMs, l * 1e3);
    std::sort(phase.samples.begin(), phase.samples.end(),
              [](const Sample &a, const Sample &b) {
                  return a.due < b.due;
              });
    return phase;
}

} // namespace gpubench
