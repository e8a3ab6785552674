#include "layers.h"

#include <algorithm>
#include <filesystem>
#include <memory>
#include <set>

#include "api/client.h"
#include "api/codecs.h"
#include "api/registry.h"
#include "funcsim/profile.h"
#include "model/session.h"
#include "store/profile_store.h"
#include "store/result_store.h"
#include "store/serializer.h"
#include "store/timing_store.h"
#include "timing/simulator.h"

namespace gpubench {

using namespace gpuperf;

namespace {

/** Span names of the layer calls (everything but the roots). */
const char *const kLayerSpans[] = {
    "prepare",          "funcsim",          "timing",
    "model.predict",    "store.read",       "store.write",
    "api.codec.encode", "api.codec.decode"};

/**
 * Everything one pass over the requests computes and keeps: the
 * layers' own stores in a scratch directory, and in-memory profiles,
 * timings and finished cells as the server's executor memoizes them.
 */
struct PassState
{
    explicit PassState(const std::string &dir)
        : profiles(dir + "/profiles"), timings(dir + "/timings"),
          results(dir + "/results")
    {
    }

    store::ProfileStore profiles;
    store::TimingStore timings;
    store::ResultStore results;
    std::map<std::string, std::shared_ptr<const funcsim::KernelProfile>>
        profileOf;
    std::map<std::string, std::shared_ptr<const timing::TimingResult>>
        timingOf;
    std::set<std::string> cells;
    std::map<std::string, std::shared_ptr<model::GlobalBenchMemo>> memos;

    uint64_t funcsimCalls = 0;
    uint64_t warpInstrs = 0;
    uint64_t timingCalls = 0;
    uint64_t warpOps = 0;
    uint64_t predictCalls = 0;
    uint64_t codecBytes = 0;
    size_t mismatches = 0;
};

std::string
cellKey(const api::KernelJob &job, const arch::GpuSpec &spec,
        const driver::SweepSpec &sweep)
{
    return job.name + "|" + spec.fingerprint() + "|" + sweep.fingerprint();
}

/** Tables the server calibrated for @p spec (a memo hit). */
std::shared_ptr<const model::CalibrationTables>
tablesFor(const ServedRun &run, const arch::GpuSpec &spec)
{
    return run.dep.server->service().calibrationFor(
        run.dep.serverSide(run.plan.requests.front()), spec);
}

/** A kernel's launch and profile key for one funcsim fingerprint. */
struct Prepared
{
    std::unique_ptr<driver::PreparedLaunch> launch;
    funcsim::RunOptions options;
    funcsim::ProfileKey key;
};

/**
 * The server's prepare step: run the case factory and derive the
 * profile key, which even a fully warm cell needs for its store keys.
 */
Prepared
prepare(Tracer &tr, uint64_t id, const api::KernelJob &job,
        const arch::GpuSpec &spec)
{
    Tracer::Scope s(tr, "prepare", id);
    Prepared p;
    const driver::KernelCase kc = api::materializeJob(job);
    p.launch = std::make_unique<driver::PreparedLaunch>(kc.make());
    p.options = p.launch->options;
    p.options.collectTrace = true;
    p.key = funcsim::makeProfileKey(p.launch->kernel, p.launch->cfg,
                                    p.options, spec, *p.launch->gmem);
    return p;
}

/** Compute one cell through the layers, as the server's graph does. */
driver::BatchResult
computeCell(const ServedRun &run, PassState &st, Tracer &tr, uint64_t id,
            const api::AnalysisRequest &req, const api::KernelJob &job,
            const arch::GpuSpec &spec, Prepared &prep)
{
    std::shared_ptr<const funcsim::KernelProfile> &profile =
        st.profileOf[prep.key.str()];
    if (!profile) {
        {
            Tracer::Scope s(tr, "store.read", id);
            (void)st.profiles.load(prep.key);
        }
        {
            Tracer::Scope s(tr, "funcsim", id);
            funcsim::FunctionalSimulator sim(spec);
            profile = std::make_shared<const funcsim::KernelProfile>(
                funcsim::profileKernel(sim, prep.launch->kernel,
                                       prep.launch->cfg,
                                       *prep.launch->gmem, prep.options,
                                       prep.key));
        }
        {
            Tracer::Scope s(tr, "store.write", id);
            st.profiles.save(*profile);
        }
        ++st.funcsimCalls;
        st.warpInstrs += profile->stats.totalWarpInstrs();
    }

    const arch::TimingFingerprint tfp = arch::TimingFingerprint::of(spec);
    std::shared_ptr<const timing::TimingResult> &timed =
        st.timingOf[profile->key.str() + "|" + tfp.key()];
    if (!timed) {
        {
            Tracer::Scope s(tr, "store.read", id);
            (void)st.timings.load(profile->key, tfp);
        }
        {
            Tracer::Scope s(tr, "timing", id);
            timing::TimingSimulator sim(spec);
            timed = std::make_shared<const timing::TimingResult>(
                sim.run(*profile));
        }
        {
            Tracer::Scope s(tr, "store.write", id);
            st.timings.save(profile->key, tfp, *timed);
        }
        ++st.timingCalls;
        st.warpOps += timed->totalOps;
    }

    driver::BatchResult cell;
    cell.kernelName = job.name;
    cell.specName = spec.name;
    {
        Tracer::Scope s(tr, "model.predict", id);
        std::shared_ptr<model::GlobalBenchMemo> &memo =
            st.memos[spec.fingerprint()];
        if (!memo)
            memo = std::make_shared<model::GlobalBenchMemo>();
        model::SessionConfig config;
        config.tables = tablesFor(run, spec);
        model::AnalysisSession session(spec, config);
        session.calibrator().shareGlobalMemo(memo);
        cell.analysis = session.analyzeMeasured(
            session.device().measure(*profile, *timed),
            profile->resources);
        if (!req.sweep.empty())
            cell.whatifs = driver::runSweep(session.model(),
                                            cell.analysis.input, req.sweep,
                                            cell.analysis.prediction);
        cell.ok = true;
    }
    ++st.predictCalls;
    return cell;
}

/** One request through the layers. Returns its wall time, s. */
double
passRequest(const ServedRun &run, PassState &st, Tracer &tr, uint64_t id,
            const Sample &sample)
{
    const auto t0 = Clock::now();
    const api::AnalysisRequest &req = run.plan.requests[sample.request];
    Tracer::Scope root(tr, "request", id);
    store::ByteWriter wreq;
    {
        Tracer::Scope s(tr, "api.codec.encode", id);
        api::writeRequest(wreq, req);
    }
    {
        Tracer::Scope s(tr, "api.codec.decode", id);
        store::ByteReader r(wreq.bytes());
        api::AnalysisRequest decoded;
        api::readRequest(r, &decoded);
    }
    const size_t ns = req.specs.size();
    for (size_t k = 0; k < req.kernels.size(); ++k) {
        // One prepare per distinct funcsim fingerprint, as the graph.
        std::map<std::string, Prepared> prepared;
        for (const arch::GpuSpec &spec : req.specs) {
            const std::string fp = arch::FuncsimFingerprint::of(spec).key();
            if (!prepared.count(fp))
                prepared[fp] = prepare(tr, id, req.kernels[k], spec);
        }
        for (size_t s = 0; s < ns; ++s) {
            const std::string key =
                cellKey(req.kernels[k], req.specs[s], req.sweep);
            {
                Tracer::Scope sp(tr, "store.read", id);
                (void)st.results.load(key);
            }
            if (st.cells.count(key))
                continue;
            driver::BatchResult cell = computeCell(
                run, st, tr, id, req, req.kernels[k], req.specs[s],
                prepared[arch::FuncsimFingerprint::of(req.specs[s]).key()]);
            {
                Tracer::Scope sp(tr, "store.write", id);
                st.results.save(key, cell);
            }
            st.cells.insert(key);
            const size_t index = k * ns + s;
            if (sample.error.empty() &&
                (index >= sample.response.cells.size() ||
                 !cellsEqual(cell, sample.response.cells[index])))
                ++st.mismatches;
        }
    }
    store::ByteWriter wresp;
    {
        Tracer::Scope s(tr, "api.codec.encode", id);
        api::writeResponse(wresp, sample.response);
    }
    {
        Tracer::Scope s(tr, "api.codec.decode", id);
        store::ByteReader r(wresp.bytes());
        api::AnalysisResponse decoded;
        api::readResponse(r, &decoded);
    }
    st.codecBytes += wreq.bytes().size() + wresp.bytes().size();
    return secondsSince(t0);
}

/**
 * Mark set-up's pre-warmed cells as already served, and store the
 * served copies so the pass reads them as the server did.
 */
void
seedPrewarmed(const ServedRun &run, PassState &st)
{
    std::set<std::string> warm;
    for (size_t r : run.plan.prewarm) {
        const api::AnalysisRequest &req = run.plan.requests[r];
        for (const api::KernelJob &job : req.kernels)
            for (const arch::GpuSpec &spec : req.specs)
                warm.insert(cellKey(job, spec, req.sweep));
    }
    for (const Sample &s : run.phase.samples) {
        const api::AnalysisRequest &req = run.plan.requests[s.request];
        const size_t ns = req.specs.size();
        for (size_t i = 0; i < s.response.cells.size(); ++i) {
            const std::string key = cellKey(req.kernels[i / ns],
                                            req.specs[i % ns], req.sweep);
            if (warm.count(key) && st.cells.insert(key).second)
                st.results.save(key, s.response.cells[i]);
        }
    }
    for (const std::string &key : warm)
        st.cells.insert(key);
}

} // namespace

size_t
tracedLayers(const ServedRun &run, Tracer &tracer,
             std::vector<Metric> &out)
{
    const std::string root = run.dep.dir + "/layers";
    PassState traced(root + "/traced");
    PassState plain(root + "/plain");
    seedPrewarmed(run, traced);
    seedPrewarmed(run, plain);

    // Every request twice, with and without span recording, in
    // alternating order: the difference is the tracing overhead.
    Tracer off(false);
    double wall_on = 0.0, wall_off = 0.0;
    std::map<uint64_t, bool> computed; // request id -> computed cells
    uint64_t id = 0;
    for (const Sample &s : run.phase.samples) {
        ++id;
        const uint64_t before = traced.predictCalls;
        if (id % 2) {
            wall_off += passRequest(run, plain, off, id, s);
            wall_on += passRequest(run, traced, tracer, id, s);
        } else {
            wall_on += passRequest(run, traced, tracer, id, s);
            wall_off += passRequest(run, plain, off, id, s);
        }
        computed[id] = traced.predictCalls != before;
    }

    // Transport: the same warm request served in-process, over the
    // unix socket and over TCP, a few rounds each.
    api::ServeClient unix_client = api::ServeClient::overUnix(run.dep.sock);
    api::ServeClient tcp_client =
        api::ServeClient::overTcp("127.0.0.1", run.dep.server->tcpPort());
    std::vector<double> unix_over, tcp_over;
    std::map<uint64_t, double> warm_exec;
    const size_t probes = std::min<size_t>(run.phase.samples.size(), 12);
    for (int round = 0; round < 3; ++round) {
        for (size_t i = 0; i < probes; ++i) {
            const uint64_t rid = i + 1;
            const api::AnalysisRequest &req =
                run.plan.requests[run.phase.samples[i].request];
            const api::AnalysisRequest local = run.dep.serverSide(req);
            auto t = Clock::now();
            {
                Tracer::Scope s(tracer, "execute", rid);
                run.dep.server->service().execute(local);
            }
            const double exec = secondsSince(t);
            t = Clock::now();
            {
                Tracer::Scope s(tracer, "client.unix", rid);
                unix_client.run(req);
            }
            unix_over.push_back((secondsSince(t) - exec) * 1e3);
            t = Clock::now();
            {
                Tracer::Scope s(tracer, "client.tcp", rid);
                tcp_client.run(req);
            }
            tcp_over.push_back((secondsSince(t) - exec) * 1e3);
            if (round == 2)
                warm_exec[rid] = exec;
        }
    }

    // Coverage: the layer spans' share of the in-process execute time
    // of the same request in the same state (cold requests against
    // the single-thread reference, warm ones against the warm run).
    std::map<uint64_t, double> layer_time;
    for (const Span &sp : tracer.spans())
        for (const char *name : kLayerSpans)
            if (sp.name == name)
                layer_time[sp.request] += sp.end - sp.start;
    double covered = 0.0, executed = 0.0;
    id = 0;
    for (const Sample &s : run.phase.samples) {
        ++id;
        double exec = -1.0;
        if (computed[id]) {
            auto it = run.coldExecSeconds.find(s.request);
            if (it != run.coldExecSeconds.end())
                exec = it->second;
        } else if (warm_exec.count(id)) {
            exec = warm_exec[id];
        }
        if (exec > 0.0) {
            covered += layer_time[id];
            executed += exec;
        }
    }

    const double fs_s = tracer.total("funcsim");
    const double tm_s = tracer.total("timing");
    const double enc = tracer.count("api.codec.encode");
    const double dec = tracer.count("api.codec.decode");
    auto add = [&](const std::string &name, double v,
                   const std::string &unit) {
        out.push_back({name, v, unit});
    };
    add("funcsim.busy_ms", fs_s * 1e3, "ms");
    add("funcsim.calls", static_cast<double>(traced.funcsimCalls), "count");
    add("funcsim.warp_instrs_per_s",
        fs_s > 0.0 ? traced.warpInstrs / fs_s : 0.0, "1/s");
    add("timing.busy_ms", tm_s * 1e3, "ms");
    add("timing.calls", static_cast<double>(traced.timingCalls), "count");
    add("timing.warp_ops_per_s", tm_s > 0.0 ? traced.warpOps / tm_s : 0.0,
        "1/s");
    add("model.predict.busy_ms", tracer.total("model.predict") * 1e3, "ms");
    add("model.predict.calls", static_cast<double>(traced.predictCalls),
        "count");
    add("store.read_ms", tracer.total("store.read") * 1e3, "ms");
    add("store.write_ms", tracer.total("store.write") * 1e3, "ms");
    add("api.codec.encode_us",
        enc > 0 ? tracer.total("api.codec.encode") * 1e6 / enc : 0.0, "us");
    add("api.codec.decode_us",
        dec > 0 ? tracer.total("api.codec.decode") * 1e6 / dec : 0.0, "us");
    add("api.codec.bytes",
        run.phase.samples.empty()
            ? 0.0
            : static_cast<double>(traced.codecBytes) /
                  run.phase.samples.size(),
        "bytes");
    add("api.transport.unix_overhead_ms", median(unix_over), "ms");
    add("api.transport.tcp_overhead_ms", median(tcp_over), "ms");
    add("trace.overhead_pct",
        wall_off > 0.0 ? (wall_on - wall_off) / wall_off * 100.0 : 0.0, "%");
    add("trace.coverage_frac", executed > 0.0 ? covered / executed : 0.0,
        "ratio");
    add("trace.cell_mismatches", static_cast<double>(traced.mismatches),
        "count");
    std::error_code ec;
    std::filesystem::remove_all(root, ec);
    return traced.mismatches;
}

} // namespace gpubench
