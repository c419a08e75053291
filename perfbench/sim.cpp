/**
 * @file
 * The sim phase of a workload: runOnce for NeoMESI on Fig 8's two-
 * cores-per-L2 organization, with the coherence checker on (as neosim
 * runs by default), over two PARSEC presets that load different
 * layers: canneal misses in L1 on ~88% of operations (network,
 * directories), swaptions on ~6% (L1 hits, cores, event queue). The
 * workload fixes the operations per core (paper: neosim's default
 * 5000; small: 1000). --seed is the simulator's workload seed.
 */

#include "common.hpp"
#include "core/sim_runner.hpp"
#include "core/system.hpp"
#include "workload/workload.hpp"

using namespace neo;

namespace bench
{

namespace
{

const char *const kPresets[] = {"canneal", "swaptions"};
constexpr std::uint32_t kNumPresets = 2;
/** Runs with and without the checker, per preset, in a traced run. */
constexpr int kCheckerPairs = 3;

/** Keeps the generator loop from being optimized away. */
volatile Addr g_sink = 0;

RunResult
simulate(const HierarchySpec &spec, const char *preset,
         const Options &opt, bool checker)
{
    RunConfig cfg;
    cfg.opsPerCore = opt.sizes.simOpsPerCore;
    cfg.seed = opt.seed;
    cfg.checkCoherence = checker;
    return runOnce(spec, parsecProfile(preset), cfg);
}

} // namespace

int
runSim(const Options &opt, Report &rep, Tracer &tr)
{
    Tracer untraced(false);
    const HierarchySpec spec = twoCoresPerL2Org(
        opt.inject == "nsmesi" ? ProtocolVariant::NSMESI
                               : ProtocolVariant::NeoMESI);
    double systemBuildMs = 0.0;
    std::uint64_t cores = 0;
    {
        EventQueue eq;
        Scope s(opt.trace ? tr : untraced, "core.System", 0);
        System sys(spec, eq);
        systemBuildMs = 1e3 * s.stop();
        cores = sys.numL1s();
    }
    const double setupS = monoNow() - opt.t0;
    const std::uint64_t ops = cores * opt.sizes.simOpsPerCore;

    struct Round
    {
        double wall[kNumPresets] = {};
        RunResult res[kNumPresets];
    };
    // Whole rounds until the run length is used. A traced run makes the
    // same untraced rounds and then one traced round, whose time is
    // compared with the untraced median.
    std::vector<Round> rounds;
    const double start = monoNow();
    for (;;) {
        const bool untracedDone =
            !rounds.empty() && monoNow() - start >= opt.seconds;
        if (untracedDone && !opt.trace)
            break;
        Tracer &rt = untracedDone ? tr : untraced;
        Round rd;
        for (std::uint32_t p = 0; p < kNumPresets; ++p) {
            const std::string who = std::string(kPresets[p]) + ": ";
            Scope s(rt, "runOnce", p);
            rd.res[p] = simulate(spec, kPresets[p], opt, true);
            rd.wall[p] = s.stop();
            const RunResult &r = rd.res[p];
            ++rep.attempted;
            if (exitCodeFor(r) != 0)
                ++rep.failed;
            rep.expect(r.violations.empty(),
                       who + "coherence checker reports " +
                           std::to_string(r.violations.size()) +
                           " violation(s)");
            rep.expect(!r.deadlocked && !r.watchdogFired,
                       who + "simulation deadlocked");
            rep.expect(r.l1Hits + r.l1Misses + r.l1Upgrades == ops,
                       who + "hits + misses + upgrades = " +
                           std::to_string(r.l1Hits + r.l1Misses +
                                          r.l1Upgrades) +
                           ", expected cores x ops = " +
                           std::to_string(ops));
            rep.expect(r.nonSiblingData == 0,
                       who + std::to_string(r.nonSiblingData) +
                           " non-sibling data transfers; NeoMESI "
                           "forwards only to siblings");
            // Same seed, same inputs: the simulated time must repeat.
            if (!rounds.empty())
                rep.expect(r.runtime == rounds.front().res[p].runtime,
                           who + "simulated runtime differs between "
                                 "rounds of one seed");
        }
        std::fprintf(stderr,
                     "neobench: round %zu%s: canneal %.3f s, swaptions "
                     "%.3f s\n",
                     rounds.size(), untracedDone ? " (traced)" : "",
                     rd.wall[0], rd.wall[1]);
        rounds.push_back(rd);
        if (untracedDone || !rep.correct())
            break;
    }
    const double peakMb = peakRssMb();
    if (!rep.correct())
        return 1;

    // The simulator's host speed is reported per layer by the traced
    // run only: as an end-to-end rate it drifted by more than its bound
    // between runs on a shared 4-CPU machine (README.md, "Left out").
    if (!opt.trace) {
        rep.metric("setup_s", setupS, "s");
        rep.metric("sim_cycles",
                   static_cast<double>(rounds.front().res[0].runtime +
                                       rounds.front().res[1].runtime),
                   "cycles");
        rep.metric("sim_peak_rss_mb", peakMb, "MB");
        return 0;
    }

    const Round &traced = rounds.back();
    rep.metric("core.system_build_ms", systemBuildMs, "ms");
    for (std::uint32_t p = 0; p < kNumPresets; ++p) {
        const std::string sfx = std::string(".") + kPresets[p];
        const RunResult &r = traced.res[p];
        const double wall = traced.wall[p];
        const double dops = static_cast<double>(ops);
        {
            Scope s(tr, "workload.WorkloadGen", p);
            WorkloadGen gen(parsecProfile(kPresets[p]),
                            static_cast<unsigned>(cores),
                            spec.root.geom.blockSize, opt.seed);
            Addr acc = 0;
            for (std::uint64_t i = 0; i < opt.sizes.simOpsPerCore; ++i)
                for (CoreId c = 0; c < cores; ++c)
                    acc ^= gen.next(c).addr;
            const double genS = s.stop();
            g_sink = g_sink + acc;
            rep.metric("workload.gen_ns_per_op" + sfx, 1e9 * genS / dops,
                       "ns");
        }
        // The checker's cost is a difference of two noisy walls: take
        // the median over interleaved pairs.
        std::vector<double> checkerMs;
        for (int k = 0; k < kCheckerPairs; ++k) {
            Scope with(tr, "runOnce", p);
            simulate(spec, kPresets[p], opt, true);
            const double withS = with.stop();
            Scope without(tr, "runOnce.no_checker", p);
            const RunResult nc =
                simulate(spec, kPresets[p], opt, false);
            checkerMs.push_back(1e3 * (withS - without.stop()));
            rep.expect(nc.runtime == r.runtime,
                       sfx + ": the end-of-run checker changed the "
                             "simulated runtime");
        }
        const double msgs = static_cast<double>(r.networkMessages);
        rep.metric("sim.host_ns_per_op" + sfx, 1e9 * wall / dops, "ns");
        rep.metric("network.msgs_per_op" + sfx, msgs / dops, "count");
        rep.metric("network.host_ns_per_msg" + sfx,
                   msgs > 0 ? 1e9 * wall / msgs : 0.0, "ns");
        rep.metric("mem.l1_miss_ratio" + sfx,
                   static_cast<double>(r.l1Misses) / dops, "ratio");
        rep.metric("protocol.l2_blocked_ratio" + sfx, r.blockedL2Fraction(),
                   "ratio");
        rep.metric("protocol.l3_blocked_ratio" + sfx, r.blockedL3Fraction(),
                   "ratio");
        rep.metric("protocol.checker_ms" + sfx, median(checkerMs), "ms");
    }
    std::vector<double> untracedWall;
    for (std::size_t i = 0; i + 1 < rounds.size(); ++i)
        untracedWall.push_back(rounds[i].wall[0] + rounds[i].wall[1]);
    rep.metric("trace.overhead_ratio.sim",
               (traced.wall[0] + traced.wall[1]) / median(untracedWall),
               "ratio");
    return 0;
}

} // namespace bench
