/**
 * @file
 * Measurement driver of the repository benchmark (see NOTES.md).
 *
 * One process runs one workload at one seed and prints one JSON
 * document of raw measurements on stdout; run.py turns it into the
 * benchmark's result line. Every timed and traced run uses the serial
 * engine on one host thread, whatever CABLES_ENGINE_* says.
 *
 *   perfbench_driver --workload svc-read|svc-write|splash --seed N
 *                    --seconds S [--trace 0|1] [--scale full|tiny]
 *                    [--inject-fail]
 *
 * The simulator is driven only through its public entry points:
 * svc::runService, apps::runProgram with the SPLASH suite, and
 * cs::Runtime with its component accessors (for the host probes).
 */

#include <signal.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cctype>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "apps/splash.hh"
#include "cables/runtime.hh"
#include "cables/shared.hh"
#include "prof/profiler.hh"
#include "sim/engine.hh"
#include "sim/trace.hh"
#include "svc/service.hh"
#include "util/json.hh"

using namespace cables;
using util::Json;

namespace {

using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/** Keeps probe results observable so loops are not elided. */
volatile uint64_t g_sink;

struct Args
{
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    bool tiny = false;
    bool injectFail = false;
};

[[noreturn]] void
usage(const char *why)
{
    std::fprintf(stderr,
                 "perfbench_driver: %s\nusage: perfbench_driver "
                 "--workload svc-read|svc-write|splash --seed N "
                 "--seconds S [--trace 0|1] [--scale full|tiny] "
                 "[--inject-fail]\n",
                 why);
    std::exit(2);
}

Args
parseArgs(int argc, char **argv)
{
    Args a;
    for (int i = 1; i < argc; ++i) {
        std::string k = argv[i];
        auto val = [&]() -> std::string {
            if (i + 1 >= argc)
                usage(("missing value for " + k).c_str());
            return argv[++i];
        };
        if (k == "--workload")
            a.workload = val();
        else if (k == "--seed")
            a.seed = std::strtoull(val().c_str(), nullptr, 10);
        else if (k == "--seconds")
            a.seconds = std::atof(val().c_str());
        else if (k == "--trace")
            a.trace = val() != "0";
        else if (k == "--scale") {
            std::string s = val();
            if (s != "full" && s != "tiny")
                usage("--scale takes full or tiny");
            a.tiny = s == "tiny";
        } else if (k == "--inject-fail")
            a.injectFail = true;
        else
            usage(("unknown argument " + k).c_str());
    }
    if (a.workload != "svc-read" && a.workload != "svc-write" &&
        a.workload != "splash")
        usage("unknown --workload");
    if (a.seconds < 0)
        usage("--seconds must be >= 0");
    return a;
}

/** FNV-1a over a canonical serialization: the determinism identity. */
uint64_t
fnv1a(const std::string &s, uint64_t h = 0xcbf29ce484222325ULL)
{
    for (unsigned char c : s) {
        h ^= c;
        h *= 0x100000001b3ULL;
    }
    return h;
}

/** The snapshot without the tracer's own bookkeeping (trace.*), which
 *  legitimately differs between traced and untraced runs. */
metrics::Snapshot
modelSnapshot(metrics::Snapshot s)
{
    for (auto it = s.counters.begin(); it != s.counters.end();) {
        if (it->first.rfind("trace.", 0) == 0)
            it = s.counters.erase(it);
        else
            ++it;
    }
    return s;
}

std::string
hex(uint64_t v)
{
    char buf[20];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(v));
    return buf;
}

/**
 * Fixed host reference work that shares no code with the simulator,
 * with the simulator's host mix: table read-modify-writes in cache
 * (ALU and branches), dependent loads over a 64 MiB heap (memory
 * latency) and a signal-mask system call (the kernel entry every
 * fiber switch makes). Timed beside every run so that host noise can
 * be told apart from the code under test.
 */
double
referenceS()
{
    static std::vector<uint32_t> table(1 << 16, 1);
    static std::vector<uint32_t> heap = [] {
        // One random cycle through 16 Mi slots (Sattolo's algorithm).
        std::vector<uint32_t> h(1u << 24);
        for (uint32_t i = 0; i < h.size(); ++i)
            h[i] = i;
        uint64_t x = 0x2545f4914f6cdd1dULL;
        for (uint32_t i = static_cast<uint32_t>(h.size()) - 1; i > 0;
             --i) {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            std::swap(h[i], h[x % i]);
        }
        return h;
    }();
    sigset_t mask;
    sigprocmask(SIG_SETMASK, nullptr, &mask);
    uint64_t x = 0x9e3779b97f4a7c15ULL, acc = 0;
    uint32_t cursor = 0;
    auto t0 = Clock::now();
    for (int i = 0; i < 800000; ++i) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        uint32_t &c = table[x & 0xffff];
        acc += c;
        c = static_cast<uint32_t>(acc ^ x);
        if (acc & 1)
            acc += 3;
        if ((i & 15) == 0)
            cursor = heap[cursor];
        if ((i & 127) == 0)
            sigprocmask(SIG_SETMASK, &mask, nullptr);
    }
    g_sink = acc + cursor;
    return secondsSince(t0);
}

/**
 * High-water RSS of a child process that makes exactly one whole run
 * (@p once) and exits: the workload's own peak, independent of how
 * many runs the timing loop happens to fit. Forked before the parent
 * has built anything, so the child starts from the bare process.
 */
double
peakRssOfOneRunMb(const std::function<void()> &once)
{
    std::fflush(nullptr);
    pid_t pid = fork();
    if (pid < 0) {
        std::perror("perfbench_driver: fork");
        std::exit(1);
    }
    if (pid == 0) {
        once();
        _exit(0);
    }
    int status = 0;
    if (waitpid(pid, &status, 0) != pid || !WIFEXITED(status) ||
        WEXITSTATUS(status) != 0) {
        std::fprintf(stderr, "perfbench_driver: RSS run failed\n");
        std::exit(1);
    }
    struct rusage ru;
    getrusage(RUSAGE_CHILDREN, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB on Linux
}

/** Exact nearest-rank percentile of @p v (sorted copy). */
double
nearestRank(std::vector<double> v, double pct)
{
    std::sort(v.begin(), v.end());
    size_t rank = static_cast<size_t>(
        std::ceil(pct / 100.0 * static_cast<double>(v.size())));
    rank = std::clamp<size_t>(rank, 1, v.size());
    return v[rank - 1];
}

/** Observers a run may carry (pure: results must not change). */
struct Observers
{
    sim::Tracer *tracer = nullptr;
    prof::Profiler *profiler = nullptr; ///< splash only
};

/** One whole run of the workload, as measured and as checked. */
struct Rep
{
    double wallS = 0;
    uint64_t attempted = 0;
    uint64_t failed = 0;
    std::vector<std::string> failedChecks;
    Json virt = Json::object();          ///< virtual end-to-end metrics
    std::vector<metrics::Snapshot> snaps; ///< one per Runtime
    uint64_t fingerprint = 0;
    Json extra = Json::object();         ///< workload-specific raw data

    Json
    toJson(bool withSnapshots) const
    {
        Json j = Json::object();
        j.set("wall_s", wallS);
        j.set("attempted", attempted);
        j.set("failed", failed);
        Json fc = Json::array();
        for (const std::string &c : failedChecks)
            fc.push(c);
        j.set("failed_checks", std::move(fc));
        j.set("virtual", virt);
        j.set("fingerprint", hex(fingerprint));
        j.set("extra", extra);
        if (withSnapshots) {
            Json sn = Json::array();
            for (const metrics::Snapshot &s : snaps)
                sn.push(s.toJson());
            j.set("snapshots", std::move(sn));
        }
        return j;
    }
};

// ------------------------------------------------------------------
// svc-read / svc-write
// ------------------------------------------------------------------

/**
 * The headline service shape (bench_service's base row): open
 * loop Poisson at 2800 req/s, Zipf 0.99, 4 shards on 4 service nodes
 * plus one spare, 32768 keys, 192-B values, epoch-heat homing, pools
 * on, autoscaler off. Only the GET share differs between the mixes.
 */
svc::ServiceConfig
serviceConfig(const Args &a, uint64_t requests)
{
    svc::ServiceConfig cfg;
    cfg.backend = cs::Backend::CableS;
    cfg.shards = 4;
    cfg.serviceNodes = 4;
    cfg.spareNodes = 1;
    cfg.clients = 2;
    cfg.keys = a.tiny ? 4096 : 32768;
    cfg.valueBytes = 192;
    cfg.payloadBytes = 64;
    cfg.readPct = a.workload == "svc-read" ? 90 : 50;
    cfg.zipfTheta = 0.99;
    cfg.requests = requests;
    cfg.arrival.kind = svc::ArrivalSpec::Kind::Poisson;
    cfg.arrival.rateRps = 2800.0;
    cfg.scale.enabled = false;
    cfg.serviceCompute = 2 * sim::US;
    cfg.seed = a.seed;
    cfg.poolEnabled = true;
    cfg.migration = svm::MigrationPolicy::EpochHeat;
    return cfg;
}

uint64_t
serviceRequests(const Args &a)
{
    return a.tiny ? 2000 : 200000;
}

Rep
runServiceRep(const Args &a, uint64_t requests, const Observers &obs,
              bool inject)
{
    svc::ServiceConfig cfg = serviceConfig(a, requests);
    svc::ServiceHooks hooks;
    hooks.tracer = obs.tracer;

    Rep rep;
    auto t0 = Clock::now();
    svc::ServiceResult r = svc::runService(cfg, sim::EngineConfig(), hooks);
    rep.wallS = secondsSince(t0);

    if (inject && r.completed > 0)
        r.completed -= 1; // self-test: one request "lost"

    // Output checks. The service counts every PUT as a hit, so the GET
    // side of the hit/miss identity is hits - puts.
    auto check = [&](bool ok, const char *name) {
        if (!ok)
            rep.failedChecks.push_back(name);
    };
    uint64_t shardSum = 0;
    for (const svc::ShardSummary &s : r.shards)
        shardSum += s.completed;
    check(r.injected == requests, "injected_eq_requests");
    check(r.completed == r.injected, "completed_eq_injected");
    check(r.gets + r.puts == r.completed, "gets_plus_puts_eq_completed");
    check(r.hits >= r.puts && (r.hits - r.puts) + r.misses == r.gets,
          "get_hits_plus_misses_eq_gets");
    check(shardSum == r.completed, "shard_sum_eq_completed");
    check(r.latAll.count() == r.completed, "latency_samples_eq_completed");

    rep.attempted = requests;
    rep.failed = rep.failedChecks.empty()
                     ? requests - std::min(requests, r.completed)
                     : requests;

    rep.virt.set("vmean_us", r.latAll.mean());
    rep.virt.set("vp50_us", r.latAll.p50());
    rep.virt.set("vp99_us", r.latAll.p99());
    rep.virt.set("vp999_us", r.latAll.p999());
    rep.virt.set("vpar_ms", sim::toMs(r.makespan));
    auto g = r.metrics.gauges.find("sim.max_time_ms");
    rep.virt.set("vtotal_ms",
                 g == r.metrics.gauges.end() ? 0.0 : g->second);

    Json shards = Json::array();
    uint64_t backlogPeak = 0;
    for (const svc::ShardSummary &s : r.shards) {
        shards.push(s.completed);
        backlogPeak = std::max(backlogPeak, s.backlogPeak);
    }
    rep.extra.set("shard_completed", std::move(shards));
    rep.extra.set("backlog_peak", backlogPeak);
    rep.extra.set("gets", r.gets);
    rep.extra.set("puts", r.puts);
    rep.extra.set("hits", r.hits);
    rep.extra.set("misses", r.misses);
    rep.extra.set("completed", r.completed);

    rep.snaps.push_back(modelSnapshot(r.metrics));
    std::string id = rep.snaps[0].toJson().dump() + rep.virt.dump() +
                     rep.extra.dump() +
                     std::to_string(r.latAll.count()) + "/" +
                     std::to_string(r.latAll.sum()) + "/" +
                     std::to_string(r.checksum);
    rep.fingerprint = fnv1a(id);
    return rep;
}

/** svc set-up: the same configuration with no requests (cluster
 *  build, node attach, bulk load, worker start and teardown). */
double
serviceSetupS(const Args &a, bool *ok)
{
    auto t0 = Clock::now();
    svc::ServiceResult r =
        svc::runService(serviceConfig(a, 0), sim::EngineConfig());
    double s = secondsSince(t0);
    *ok = r.injected == 0 && r.completed == 0;
    return s;
}

// ------------------------------------------------------------------
// splash
// ------------------------------------------------------------------

constexpr int kSplashProcs = 8;

apps::RunOptions
splashOptions(const Observers &obs)
{
    apps::RunOptions ro;
    ro.engine = sim::EngineConfig(); // serial, CABLES_ENGINE_* ignored
    ro.instr.tracer = obs.tracer;
    ro.instr.profiler = obs.profiler;
    return ro;
}

/** Span key of an app: "FFT" -> "fft", "WATER-SPATIAL" -> ... */
std::string
appKey(const std::string &name)
{
    std::string k = name;
    for (char &c : k)
        c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
    return k;
}

/**
 * The eight-app Figure 5 suite through m4 on the CableS backend at 8
 * processors. Each app runs on its own Runtime; @p makeObs supplies
 * fresh observers per app (a tracer or profiler observes one run).
 */
Rep
runSplashRep(const std::function<Observers(size_t)> &makeObs, bool inject,
             Json *profileTotals)
{
    Rep rep;
    Json spans = Json::object();
    std::vector<double> parUs;
    double parMs = 0, totalMs = 0;
    std::string id;
    const auto &suite = apps::splashSuite();
    auto t0 = Clock::now();
    for (size_t i = 0; i < suite.size(); ++i) {
        const apps::SplashAppEntry &e = suite[i];
        apps::AppOut out;
        auto ta = Clock::now();
        apps::RunResult r = apps::runProgram(
            apps::splashConfig(cs::Backend::CableS, kSplashProcs),
            [&](cs::Runtime &rt, apps::RunResult &) {
                m4::M4Env env(rt);
                e.run(env, kSplashProcs, out);
            },
            splashOptions(makeObs(i)));
        spans.set(appKey(e.name), secondsSince(ta));

        bool valid = out.valid && !(inject && i == 0);
        if (!valid)
            rep.failedChecks.push_back(appKey(e.name) + ".valid");
        if (r.registrationFailure)
            rep.failedChecks.push_back(appKey(e.name) +
                                       ".registration_failure");
        rep.attempted += 1;
        rep.failed += (valid && !r.registrationFailure) ? 0 : 1;

        parMs += sim::toMs(out.parallel);
        totalMs += sim::toMs(r.total);
        parUs.push_back(sim::toUs(out.parallel));
        rep.snaps.push_back(modelSnapshot(r.metrics));
        id += e.name + std::to_string(out.parallel) + "/" +
              std::to_string(r.total) + "/" +
              std::to_string(out.checksum) + "/" +
              rep.snaps.back().toJson().dump();

        if (profileTotals && r.profiled) {
            // Handler time is a cluster-wide aggregate, not a
            // per-thread category (see prof::Cat).
            for (int c = 0; c < prof::kNumCats; ++c) {
                auto cat = static_cast<prof::Cat>(c);
                const char *name = prof::catName(cat);
                const Json &v = cat == prof::Cat::Handler
                                    ? r.profile.get("handler").get("ticks")
                                    : r.profile.get("totals").get(name);
                const Json &prev = profileTotals->get(name);
                profileTotals->set(name, (prev.isNull() ? 0.0
                                                        : prev.asDouble()) +
                                             v.asDouble());
            }
        }
    }
    rep.wallS = secondsSince(t0);

    // "Requests" of the splash workload are app runs: the per-app
    // parallel-section times stand in for the latency distribution.
    double mean = 0;
    for (double v : parUs)
        mean += v;
    rep.virt.set("vmean_us", mean / static_cast<double>(parUs.size()));
    rep.virt.set("vp50_us", nearestRank(parUs, 50.0));
    rep.virt.set("vp99_us", nearestRank(parUs, 99.0));
    rep.virt.set("vp999_us", nearestRank(parUs, 99.9));
    rep.virt.set("vpar_ms", parMs);
    rep.virt.set("vtotal_ms", totalMs);
    rep.extra.set("app_spans_s", std::move(spans));
    rep.fingerprint = fnv1a(id + rep.virt.dump());
    return rep;
}

/**
 * splash set-up: for each of the eight app runs, Runtime construction
 * plus attaching the nodes an 8-processor app uses (eight live
 * threads meeting at one barrier), with no guest work.
 */
double
splashSetupS(bool *ok)
{
    *ok = true;
    auto t0 = Clock::now();
    for (size_t i = 0; i < apps::splashSuite().size(); ++i) {
        apps::RunResult r = apps::runProgram(
            apps::splashConfig(cs::Backend::CableS, kSplashProcs),
            [&](cs::Runtime &rt, apps::RunResult &) {
                int b = rt.barrierCreate();
                std::vector<int> tids;
                for (int t = 1; t < kSplashProcs; ++t)
                    tids.push_back(rt.threadCreate(
                        [&rt, b]() { rt.barrier(b, kSplashProcs); }));
                rt.barrier(b, kSplashProcs);
                for (int t : tids)
                    rt.join(t);
            },
            splashOptions({}));
        *ok = *ok && !r.registrationFailure;
    }
    return secondsSince(t0);
}

// ------------------------------------------------------------------
// Host probes: a layer's public function timed in a tight loop on a
// cluster shaped like the workload's.
// ------------------------------------------------------------------

/** Median of @p reps repetitions of @p probe. */
double
medianOf(int reps, const std::function<double()> &probe)
{
    std::vector<double> v;
    for (int i = 0; i < reps; ++i)
        v.push_back(probe());
    std::sort(v.begin(), v.end());
    return v[v.size() / 2];
}

/** Run @p body as the main thread of a fresh Runtime; @p body returns
 *  host ns per operation of the loop it times. */
double
onRuntime(const cs::ClusterConfig &cc,
          const std::function<double(cs::Runtime &)> &body)
{
    cs::Runtime rt(cc, sim::EngineConfig());
    double ns = -1;
    rt.run([&]() { ns = body(rt); });
    if (ns < 0) {
        std::fprintf(stderr, "perfbench_driver: probe run aborted: %s\n",
                     rt.abortReason().c_str());
        std::exit(1);
    }
    return ns;
}

double
nsPer(Clock::time_point t0, double ops)
{
    return std::chrono::duration<double, std::nano>(Clock::now() - t0)
               .count() /
           ops;
}

Json
runProbes(const cs::ClusterConfig &cc, bool tiny)
{
    const int reps = tiny ? 1 : 5;
    const int scale = tiny ? 10 : 1;
    Json p = Json::object();

    // sim: Engine two-fiber advance/sync (every step switches).
    p.set("sim.switch_ns", medianOf(reps, [&]() {
        sim::Engine e;
        const int iters = 50000 / scale;
        for (int t = 0; t < 2; ++t) {
            e.spawn("probe", [&e, iters]() {
                for (int i = 0; i < iters; ++i) {
                    e.advance(100);
                    e.sync();
                }
            }, t);
        }
        auto t0 = Clock::now();
        e.run();
        return nsPer(t0, static_cast<double>(e.switches()));
    }));

    // sim: a lone thread's Runtime::compute, host ns per virtual ms.
    p.set("sim.compute_ns_per_vms", medianOf(reps, [&]() {
        return onRuntime(cc, [&](cs::Runtime &rt) {
            const int chunks = 20;
            const sim::Tick chunk = 100 * sim::MS / scale;
            auto t0 = Clock::now();
            for (int i = 0; i < chunks; ++i)
                rt.compute(chunk);
            return nsPer(t0, chunks * sim::toMs(chunk));
        });
    }));

    // net: one page-sized transfer (pure timing model).
    p.set("net.transfer_ns", medianOf(reps, [&]() {
        cs::Runtime rt(cc, sim::EngineConfig());
        const int n = 400000 / scale;
        sim::Tick t = 0, sum = 0;
        auto t0 = Clock::now();
        for (int i = 0; i < n; ++i) {
            sum += rt.network().transfer(0, 1, svm::pageSize, t);
            t += 100 * sim::US;
        }
        double ns = nsPer(t0, n);
        g_sink = static_cast<uint64_t>(sum);
        return ns;
    }));

    // vmmc: remote write and remote fetch of one page from node 0.
    p.set("vmmc.write_ns", medianOf(reps, [&]() {
        return onRuntime(cc, [&](cs::Runtime &rt) {
            const int n = 200000 / scale;
            auto t0 = Clock::now();
            for (int i = 0; i < n; ++i)
                rt.comm().write(0, 1, svm::pageSize);
            return nsPer(t0, n);
        });
    }));
    p.set("vmmc.fetch_ns", medianOf(reps, [&]() {
        return onRuntime(cc, [&](cs::Runtime &rt) {
            const int n = 200000 / scale;
            auto t0 = Clock::now();
            for (int i = 0; i < n; ++i)
                rt.comm().fetch(0, 1, svm::pageSize);
            return nsPer(t0, n);
        });
    }));

    // svm: read of a valid page, and read fault on a remote-homed page.
    const size_t pages = 2048 / scale;
    p.set("svm.access_hit_ns", medianOf(reps, [&]() {
        return onRuntime(cc, [&](cs::Runtime &rt) {
            auto arr = cs::GArray<uint64_t>::alloc(
                rt, pages * svm::pageSize / sizeof(uint64_t));
            arr.span(0, arr.size(), true); // fault everything in
            const svm::GAddr base = arr.addr(0);
            const size_t bytes = pages * svm::pageSize;
            const int n = 4000000 / scale;
            auto t0 = Clock::now();
            for (int i = 0; i < n; ++i)
                rt.protocol().access(
                    0, base + (static_cast<size_t>(i) * 520) % bytes, 8,
                    false);
            return nsPer(t0, n);
        });
    }));
    p.set("svm.fault_ns", medianOf(reps, [&]() {
        return onRuntime(cc, [&](cs::Runtime &rt) {
            auto arr = cs::GArray<uint64_t>::alloc(
                rt, pages * svm::pageSize / sizeof(uint64_t));
            const size_t stride = svm::pageSize / sizeof(uint64_t);
            // First touch by node 1 homes every page there.
            rt.join(rt.threadCreateOn(1, [&]() {
                for (size_t pg = 0; pg < pages; ++pg)
                    arr.write(pg * stride, pg);
            }));
            uint64_t s = 0;
            auto t0 = Clock::now();
            for (size_t pg = 0; pg < pages; ++pg)
                s += arr.read(pg * stride);
            double ns = nsPer(t0, static_cast<double>(pages));
            g_sink = s;
            return ns;
        });
    }));

    // cables: uncontended lock/unlock pair on the master.
    p.set("cables.lock_pair_ns", medianOf(reps, [&]() {
        return onRuntime(cc, [&](cs::Runtime &rt) {
            int m = rt.mutexCreate();
            rt.mutexLock(m); // first use creates the lock
            rt.mutexUnlock(m);
            const int n = 100000 / scale;
            auto t0 = Clock::now();
            for (int i = 0; i < n; ++i) {
                rt.mutexLock(m);
                rt.mutexUnlock(m);
            }
            return nsPer(t0, n);
        });
    }));

    // cables: condition-variable ping-pong between the master and a
    // thread on node 1 (the client -> shard-worker handoff shape).
    p.set("cables.cond_handoff_ns", medianOf(reps, [&]() {
        return onRuntime(cc, [&](cs::Runtime &rt) {
            const int rounds = 5000 / scale;
            int m = rt.mutexCreate();
            int c = rt.condCreate();
            int turn = 0;
            auto player = [&](int me) {
                for (int i = 0; i < rounds; ++i) {
                    rt.mutexLock(m);
                    while (turn != me)
                        rt.condWait(c, m);
                    turn = 1 - me;
                    rt.condSignal(c);
                    rt.mutexUnlock(m);
                }
            };
            int tid = rt.threadCreateOn(1, [&]() { player(1); });
            rt.mutexLock(m); // first use creates the lock
            rt.mutexUnlock(m);
            auto t0 = Clock::now();
            player(0);
            rt.join(tid);
            return nsPer(t0, 2.0 * rounds);
        });
    }));

    // cables: create + join of a trivial thread on an attached node.
    p.set("cables.thread_create_us", medianOf(reps, [&]() {
        return onRuntime(cc, [&](cs::Runtime &rt) {
            rt.join(rt.threadCreateOn(1, []() {})); // attach node 1
            const int n = 500 / scale;
            auto t0 = Clock::now();
            for (int i = 0; i < n; ++i)
                rt.join(rt.threadCreateOn(1, []() {}));
            return nsPer(t0, n) / 1000.0;
        });
    }));

    // cables: one round of the pthread_barrier() extension, 8 threads.
    p.set("cables.barrier_round_us", medianOf(reps, [&]() {
        return onRuntime(cc, [&](cs::Runtime &rt) {
            const int P = 8, rounds = 400 / scale;
            int b = rt.barrierCreate();
            auto body = [&]() {
                for (int i = 0; i < rounds; ++i)
                    rt.barrier(b, P);
            };
            std::vector<int> tids;
            for (int i = 1; i < P; ++i)
                tids.push_back(rt.threadCreate(body));
            rt.barrier(b, P); // everyone attached and waiting
            auto t0 = Clock::now();
            for (int i = 1; i < rounds; ++i)
                rt.barrier(b, P);
            for (int t : tids)
                rt.join(t);
            return nsPer(t0, rounds - 1) / 1000.0;
        });
    }));

    // mem: cs_malloc + cs_free of one service value (pool path).
    p.set("mem.alloc_free_ns", medianOf(reps, [&]() {
        return onRuntime(cc, [&](cs::Runtime &rt) {
            rt.free(rt.malloc(192)); // first refill
            const int n = 200000 / scale;
            auto t0 = Clock::now();
            for (int i = 0; i < n; ++i)
                rt.free(rt.malloc(192));
            return nsPer(t0, n);
        });
    }));
    return p;
}

// ------------------------------------------------------------------

/** Repeat @p once until @p seconds elapsed and at least @p minReps. */
std::vector<Rep>
repeatFor(double seconds, int minReps, const std::function<Rep()> &once)
{
    std::vector<Rep> reps;
    auto t0 = Clock::now();
    while (static_cast<int>(reps.size()) < minReps ||
           secondsSince(t0) < seconds)
        reps.push_back(once());
    return reps;
}

Json
repsJson(const std::vector<Rep> &reps, bool snapshotFirst)
{
    Json arr = Json::array();
    for (size_t i = 0; i < reps.size(); ++i)
        arr.push(reps[i].toJson(snapshotFirst && i == 0));
    return arr;
}

} // namespace

int
main(int argc, char **argv)
{
    Args a = parseArgs(argc, argv);
    const bool svcWl = a.workload != "splash";
    const int minReps = 3;
    const int kSetupsPerRep = 3;

    Json doc = Json::object();
    doc.set("workload", a.workload);
    doc.set("seed", a.seed);
    doc.set("trace", a.trace);
    Json host = Json::object();
    host.set("host_cores",
             static_cast<uint64_t>(std::thread::hardware_concurrency()));
    host.set("build_type", PERFBENCH_BUILD_TYPE);
    host.set("compiler", PERFBENCH_COMPILER);
    host.set("engine", sim::EngineConfig().describe());
    doc.set("host", std::move(host));

    const uint64_t requests = serviceRequests(a);
    if (!a.trace) {
        doc.set("peak_rss_mb", peakRssOfOneRunMb([&]() {
            if (svcWl)
                runServiceRep(a, requests, {}, false);
            else
                runSplashRep([](size_t) { return Observers(); }, false,
                             nullptr);
        }));
    }
    doc.set("ops_per_rep",
            svcWl ? requests
                  : static_cast<uint64_t>(apps::splashSuite().size()));

    // Untraced whole runs, each preceded by a few set-up-only runs so
    // the set-up samples spread over the same window of host noise as
    // the whole runs. A reference reading brackets every sample (see
    // referenceS). The injected failure (self-test) hits the last
    // guaranteed rep, so the determinism reference stays the first one.
    const double budget = a.trace ? a.seconds / 2 : a.seconds;
    Json timeline = Json::array();
    auto mark = [&](const char *kind, double s) {
        Json e = Json::object();
        e.set("k", kind);
        e.set("s", s);
        timeline.push(std::move(e));
    };
    bool setupOk = true;
    int repNo = 0;
    auto plain = [&]() {
        for (int i = 0; i < kSetupsPerRep; ++i) {
            bool ok = false;
            mark("ref", referenceS());
            double s = svcWl ? serviceSetupS(a, &ok) : splashSetupS(&ok);
            mark("setup", s);
            setupOk = setupOk && ok;
        }
        mark("ref", referenceS());
        bool inject = a.injectFail && repNo++ == minReps - 1;
        Rep r = svcWl ? runServiceRep(a, requests, {}, inject)
                      : runSplashRep([](size_t) { return Observers(); },
                                     inject, nullptr);
        mark("rep", r.wallS);
        return r;
    };
    std::vector<Rep> reps = repeatFor(budget, minReps, plain);
    mark("ref", referenceS());
    doc.set("reps", repsJson(reps, a.trace));
    doc.set("timeline", std::move(timeline));
    doc.set("setup_ok", setupOk);

    if (a.trace) {
        // Traced runs: tracer with events and causal spans on.
        std::unique_ptr<sim::Tracer> tracer; // observes one run
        auto freshTracer = [&]() {
            tracer = std::make_unique<sim::Tracer>();
            tracer->enableSpans(true);
            return tracer.get();
        };
        std::vector<Rep> traced = repeatFor(budget / 2, minReps, [&]() {
            if (svcWl) {
                Observers o;
                o.tracer = freshTracer();
                return runServiceRep(a, requests, o, false);
            }
            return runSplashRep([&](size_t) {
                Observers o;
                o.tracer = freshTracer();
                return o;
            }, false, nullptr);
        });
        tracer.reset();
        doc.set("traced_reps", repsJson(traced, false));

        // Profiled runs (splash: the profiler installs only through
        // runProgram).
        if (!svcWl) {
            std::unique_ptr<prof::Profiler> profiler;
            Json totals = Json::object(); // of the first profiled run
            bool first = true;
            std::vector<Rep> profiled =
                repeatFor(budget / 2, minReps, [&]() {
                    Rep r = runSplashRep([&](size_t) {
                        profiler = std::make_unique<prof::Profiler>();
                        Observers o;
                        o.profiler = profiler.get();
                        return o;
                    }, false, first ? &totals : nullptr);
                    first = false;
                    return r;
                });
            doc.set("profiled_reps", repsJson(profiled, false));
            doc.set("profile_totals_ticks", std::move(totals));
        }

        cs::ClusterConfig cc =
            svcWl ? serviceConfig(a, requests).clusterConfig()
                  : apps::splashConfig(cs::Backend::CableS, kSplashProcs);
        doc.set("probes", runProbes(cc, a.tiny));
    }

    std::printf("%s\n", doc.dump().c_str());
    return 0;
}
