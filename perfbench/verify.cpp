/**
 * @file
 * The verify phase of a workload: the paper's push-button checks
 * (NeoMESI open by the modified method, the NeoMESI closed parametric
 * sweep to its cutoff, german), in process, at 4 threads, checked
 * against the sequential explorer run untimed; plus the reference
 * counts the service phase checks its verdicts against. The workload
 * fixes the instance sizes (paper: open N=5, german N=6; small: N=4
 * and N=5).
 *
 * The checked models are fixed by the paper, so the seed only picks
 * which reachable states the traced run replays layer by layer.
 */

#include <random>
#include <sstream>
#include <unordered_set>

#include "common.hpp"
#include "verif/explorer.hpp"
#include "verif/models/flat_closed.hpp"
#include "verif/models/flat_open.hpp"
#include "verif/models/german.hpp"
#include "verif/models/mutants.hpp"
#include "verif/parametric.hpp"
#include "verif/service/worker.hpp"
#include "verif/state_store.hpp"

using namespace neo;
using namespace neo::verif;

namespace bench
{

namespace
{

/** Explorer threads of the timed checks. */
constexpr unsigned kThreads = 4;
/** neoverify --parametric sweeps N = 1..8. */
constexpr std::size_t kSweepTo = 8;
/** Instance size of the symmetry-orbit check. */
constexpr std::size_t kSymmetryN = 3;
/** Reachable states the traced run replays per check. */
constexpr std::size_t kSample = 8192;
/** Fewest rounds of an untraced run, whatever its length. */
constexpr std::size_t kMinRounds = 3;
/** Timed passes per replayed operation; the median is reported. */
constexpr int kPasses = 5;
/** The corpus mutant that stands in for german under --inject. */
const char *const kGermanMutant = "german_grant_E_with_sharers";

/** The bounds neoverify applies by default. */
ExploreLimits
limitsFor(unsigned threads)
{
    ExploreLimits lim;
    lim.maxStates = 8'000'000;
    lim.maxSeconds = 600.0;
    lim.threads = threads;
    return lim;
}

/** One of the three checks of a round. */
struct Check
{
    std::string name;   ///< metric suffix, e.g. "neomesi_open"
    std::string metric; ///< its end-to-end metric
    bool sweep = false;
    /** Builds instance N (the sweep's factory; for a flat check the
     *  symmetry and sampling passes use it too). */
    ModelFactory factory;
    std::size_t n = 0;       ///< flat check: the checked instance
    TransitionSystem ts;     ///< flat check: built during set-up
    double buildMs = 0.0;    ///< flat check: its builder call
};

/** What one check produced: a single explore run for a flat check,
 *  the sweep's per-instance runs otherwise. */
struct Outcome
{
    VerifStatus status = VerifStatus::Verified;
    bool converged = true;
    std::size_t cutoff = 0;
    std::vector<ExploreResult> runs;
    std::vector<std::size_t> invariants; ///< |invariants| per run
    std::vector<std::size_t> views;      ///< sweep only
    double wall = 0.0;
    double cpu = 0.0;
    double exploreWall = 0.0; ///< time inside explore itself
    double buildMs = 0.0;     ///< sweep only: builder calls inside it

    std::uint64_t
    states() const
    {
        std::uint64_t s = 0;
        for (const auto &r : runs)
            s += r.statesExplored;
        return s;
    }
    std::uint64_t
    transitions() const
    {
        std::uint64_t t = 0;
        for (const auto &r : runs)
            t += r.transitionsFired;
        return t;
    }
};

Outcome
runCheck(const Check &c, unsigned threads, Tracer &tr, std::uint32_t group)
{
    Outcome o;
    const ExploreLimits lim = limitsFor(threads);
    const double cpu0 = cpuNow();
    Scope check(tr, "check." + c.name, group);
    if (!c.sweep) {
        Scope s(tr, "explore", group);
        o.runs.push_back(explore(c.ts, lim, false, true));
        o.exploreWall = s.stop();
        o.invariants.push_back(c.ts.invariants().size());
        o.status = o.runs.front().status;
    } else {
        // Wrapping the factory puts a span around every builder call
        // the sweep makes, from outside it.
        const ModelFactory traced = [&](std::size_t n, ModelShape &sh) {
            Scope b(tr, "models.build", group);
            TransitionSystem ts = c.factory(n, sh);
            o.buildMs += 1e3 * b.stop();
            o.invariants.push_back(ts.invariants().size());
            return ts;
        };
        Scope s(tr, "verifyParametric", group);
        ParametricResult pr = verifyParametric(traced, 1, kSweepTo, lim);
        s.stop();
        o.status = pr.status;
        o.converged = pr.converged;
        o.cutoff = pr.cutoff;
        o.runs = std::move(pr.perInstance);
        o.views = std::move(pr.abstractSetSizes);
        for (const auto &r : o.runs)
            o.exploreWall += r.seconds;
    }
    o.wall = check.stop();
    o.cpu = cpuNow() - cpu0;
    tr.count("states", group, static_cast<double>(o.states()));
    tr.count("transitions", group, static_cast<double>(o.transitions()));
    return o;
}

/** The paper's verdicts, and the logical invariant-check count every
 *  Verified run must have. */
void
checkVerdict(const Check &c, const Outcome &o, Report &rep)
{
    rep.expect(o.status == VerifStatus::Verified,
               c.name + ": verdict " + verifStatusName(o.status) +
                   ", expected VERIFIED");
    if (c.sweep)
        rep.expect(o.converged && o.cutoff >= 1,
                   c.name + ": sweep did not converge at a cutoff");
    if (o.status != VerifStatus::Verified)
        return;
    for (std::size_t i = 0; i < o.runs.size(); ++i) {
        const auto &r = o.runs[i];
        rep.expect(r.invariantChecks ==
                       r.statesExplored * o.invariants.at(i),
                   c.name + ": invariantChecks " +
                       std::to_string(r.invariantChecks) +
                       " != states x |invariants|");
    }
}

/** Exact fixpoint equality between two engines on one check. */
void
compareOutcomes(const Check &c, const Outcome &got, const Outcome &ref,
                Report &rep)
{
    const std::string who = c.name + " (4 threads vs sequential): ";
    rep.expect(got.status == ref.status, who + "status differs");
    rep.expect(got.cutoff == ref.cutoff && got.views == ref.views,
               who + "cutoff or view-set sizes differ");
    if (!rep.expect(got.runs.size() == ref.runs.size(),
                    who + "instance count differs"))
        return;
    for (std::size_t i = 0; i < got.runs.size(); ++i) {
        const auto &a = got.runs[i];
        const auto &b = ref.runs[i];
        const std::string at = who + "run " + std::to_string(i) + ": ";
        rep.expect(a.statesExplored == b.statesExplored,
                   at + "states " + std::to_string(a.statesExplored) +
                       " vs " + std::to_string(b.statesExplored));
        rep.expect(a.transitionsFired == b.transitionsFired,
                   at + "transitions differ");
        rep.expect(a.invariantChecks == b.invariantChecks,
                   at + "invariant checks differ");
        rep.expect(a.ruleFires == b.ruleFires, at + "rule fires differ");
    }
}

/**
 * Symmetry orbits: explore instance kSymmetryN with the canonicalizer
 * removed, map every state of that full space to its canonical image,
 * and demand as many distinct images as the reduced run has states.
 */
void
checkSymmetry(const Check &c, Report &rep)
{
    ModelShape shape;
    const TransitionSystem reduced = c.factory(kSymmetryN, shape);
    TransitionSystem full = c.factory(kSymmetryN, shape);
    full.setCanonicalizer({}, {});
    const auto &canon = reduced.canonicalizer();
    std::unordered_set<VState, VStateHash> images;
    const ExploreResult rf =
        explore(full, limitsFor(1), false, false, [&](const VState &s) {
            VState img = s;
            canon(img);
            images.insert(std::move(img));
        });
    const ExploreResult rr = explore(reduced, limitsFor(1), false, false);
    rep.expect(rf.status == VerifStatus::Verified &&
                   rr.status == VerifStatus::Verified &&
                   images.size() == rr.statesExplored,
               c.name + " N=" + std::to_string(kSymmetryN) + ": " +
                   std::to_string(images.size()) +
                   " canonical images of the full space vs " +
                   std::to_string(rr.statesExplored) + " reduced states");
}

/** Uniform sample of the reachable states of one instance. */
struct Reservoir
{
    explicit Reservoir(std::uint64_t seed) : rng(seed) {}

    void
    offer(const VState &s)
    {
        ++seen;
        if (keep.size() < kSample)
            keep.push_back(s);
        else if (const auto j = rng() % seen; j < kSample)
            keep[j] = s;
    }

    std::vector<VState> keep;
    std::uint64_t seen = 0;
    std::mt19937_64 rng;
};

volatile std::uint64_t g_sink = 0;

/** Median over kPasses of @p pass's seconds, per @p ops operations,
 *  in ns. @p prepare runs untimed before each pass. */
template <typename Prepare, typename Pass>
double
nsPerOp(std::size_t ops, Prepare prepare, Pass pass)
{
    std::vector<double> secs;
    for (int p = 0; p < kPasses; ++p) {
        prepare();
        const double t0 = monoNow();
        pass();
        secs.push_back(monoNow() - t0);
    }
    return ops ? 1e9 * median(secs) / static_cast<double>(ops) : 0.0;
}

/** Per-operation costs of each layer, replayed on sampled states. */
struct Replay
{
    double guardScanNs = 0, fireNs = 0, canonNs = 0, invariantNs = 0;
    double hashNs = 0, internFreshNs = 0, internHitNs = 0;
    double flatGuardRatio = 0, flatEffectRatio = 0;
};

Replay
replay(const TransitionSystem &ts, const std::vector<VState> &sample,
       Tracer &tr, std::uint32_t group)
{
    Scope span(tr, "replay", group);
    Replay out;
    const CompiledRules comp(ts);
    const std::size_t R = comp.size();
    std::size_t flatG = 0, flatE = 0;
    for (std::size_t r = 0; r < R; ++r) {
        flatG += comp.guardFlat(r);
        flatE += comp.effectFlat(r);
    }
    out.flatGuardRatio = R ? static_cast<double>(flatG) / R : 0.0;
    out.flatEffectRatio = R ? static_cast<double>(flatE) / R : 0.0;

    std::vector<std::pair<std::uint32_t, std::uint32_t>> firings;
    for (std::uint32_t i = 0; i < sample.size(); ++i)
        for (std::uint32_t r = 0; r < R; ++r)
            if (comp.guard(r, sample[i]))
                firings.emplace_back(i, r);

    {
        Scope s(tr, "ts.guard_scan", group);
        out.guardScanNs = nsPerOp(sample.size(), [] {}, [&] {
            std::uint64_t en = 0;
            for (const VState &st : sample)
                for (std::size_t r = 0; r < R; ++r)
                    en += comp.guard(r, st);
            g_sink = g_sink + en;
        });
    }
    std::vector<VState> succ(firings.size());
    {
        Scope s(tr, "ts.fire", group);
        out.fireNs = nsPerOp(firings.size(), [] {}, [&] {
            for (std::size_t k = 0; k < firings.size(); ++k) {
                succ[k] = sample[firings[k].first];
                comp.effect(firings[k].second, succ[k]);
            }
        });
    }
    std::vector<VState> work;
    const auto &canon = ts.canonicalizer();
    {
        Scope s(tr, "ts.canon", group);
        out.canonNs = nsPerOp(
            succ.size(), [&] { work = succ; },
            [&] {
                if (canon)
                    for (VState &st : work)
                        canon(st);
            });
    }
    {
        Scope s(tr, "ts.invariant", group);
        const auto &invs = ts.invariants();
        out.invariantNs = nsPerOp(sample.size(), [] {}, [&] {
            std::uint64_t ok = 0;
            for (const VState &st : sample)
                for (const auto &inv : invs)
                    ok += inv.check(st);
            g_sink = g_sink + ok;
        });
    }
    {
        Scope s(tr, "store.hash", group);
        out.hashNs = nsPerOp(work.size(), [] {}, [&] {
            std::uint64_t h = 0;
            for (const VState &st : work)
                h ^= stateHash(st.data(), st.size());
            g_sink = g_sink + h;
        });
    }
    {
        Scope s(tr, "store.intern", group);
        std::vector<double> fresh, hit;
        for (int p = 0; p < kPasses; ++p) {
            StateStore store(ts.numVars());
            std::uint64_t n = 0;
            const double t0 = monoNow();
            for (const VState &st : sample)
                n += store.intern(st).second;
            const double t1 = monoNow();
            for (const VState &st : sample)
                n += store.intern(st).second;
            const double t2 = monoNow();
            fresh.push_back(t1 - t0);
            hit.push_back(t2 - t1);
            g_sink = g_sink + n;
        }
        const double k = 1e9 / static_cast<double>(sample.size());
        out.internFreshNs = k * median(fresh);
        out.internHitNs = k * median(hit);
    }
    return out;
}

/** Explore the instance a check's replay samples (the flat instance,
 *  or the sweep's largest), collecting a seeded uniform sample. */
std::pair<TransitionSystem, std::vector<VState>>
sampleInstance(const Check &c, const Outcome &o, std::uint64_t seed,
               Tracer &tr, std::uint32_t group)
{
    Scope s(tr, "sample", group);
    ModelShape shape;
    const std::size_t n = c.sweep ? o.cutoff + 1 : c.n;
    TransitionSystem ts = c.sweep ? c.factory(n, shape) : c.ts;
    Reservoir res(seed);
    explore(ts, limitsFor(1), false, false,
            [&](const VState &st) { res.offer(st); });
    return {std::move(ts), std::move(res.keep)};
}

/** Per-layer metrics of one check from its traced outcome. */
void
layerMetrics(const Check &c, const Outcome &o, const Replay &rp,
             const Outcome &seqRef, Report &rep)
{
    const std::string sfx = "." + c.name;
    std::uint64_t evals = 0, skipped = 0, inPlace = 0, identity = 0;
    for (const auto &r : o.runs) {
        evals += r.guardEvals;
        skipped += r.guardEvalsSkipped;
        inPlace += r.inPlaceFirings;
        identity += r.canonIdentityHits;
    }
    const double S = static_cast<double>(o.states());
    const double T = static_cast<double>(o.transitions());
    const double d = S > 0 ? T / S : 0.0;
    rep.metric("models.build_ms" + sfx, c.sweep ? o.buildMs : c.buildMs,
               "ms");
    rep.metric("models.flat_guard_ratio" + sfx, rp.flatGuardRatio, "ratio");
    rep.metric("models.flat_effect_ratio" + sfx, rp.flatEffectRatio,
               "ratio");
    rep.metric("ts.guard_scan_ns" + sfx, rp.guardScanNs, "ns");
    rep.metric("ts.fire_ns" + sfx, rp.fireNs, "ns");
    rep.metric("ts.canon_ns" + sfx, rp.canonNs, "ns");
    rep.metric("ts.invariant_ns" + sfx, rp.invariantNs, "ns");
    rep.metric("ts.guard_evals_per_state" + sfx, evals / S, "count");
    rep.metric("ts.guard_skip_ratio" + sfx,
               evals + skipped ? double(skipped) / double(evals + skipped)
                               : 0.0,
               "ratio");
    rep.metric("ts.in_place_ratio" + sfx, T > 0 ? inPlace / T : 0.0,
               "ratio");
    rep.metric("ts.canon_identity_ratio" + sfx, T > 0 ? identity / T : 0.0,
               "ratio");
    rep.metric("store.hash_ns" + sfx, rp.hashNs, "ns");
    rep.metric("store.intern_fresh_ns" + sfx, rp.internFreshNs, "ns");
    rep.metric("store.intern_hit_ns" + sfx, rp.internHitNs, "ns");
    const ExploreResult &largest = o.runs.back();
    rep.metric("store.bytes_per_state" + sfx,
               largest.statesExplored
                   ? double(largest.memoryBytes) /
                         double(largest.statesExplored)
                   : 0.0,
               "B");
    const double nsPerState = 1e9 * o.exploreWall / S;
    rep.metric("explore.ns_per_state" + sfx, nsPerState, "ns");
    rep.metric("explore.cpu_ns_per_state" + sfx, 1e9 * o.cpu / S, "ns");
    const double predicted =
        rp.guardScanNs + d * (rp.fireNs + rp.canonNs + rp.hashNs) +
        rp.internFreshNs + (d - 1.0) * rp.internHitNs + rp.invariantNs;
    rep.metric("explore.unattributed_ns_per_state" + sfx,
               nsPerState - predicted, "ns");
    rep.metric("parallel.utilization" + sfx, o.cpu / (o.wall * kThreads),
               "ratio");
    rep.metric("parallel.speedup" + sfx, seqRef.wall / o.wall, "ratio");
    rep.metric("parallel.cpu_ratio" + sfx, o.cpu / seqRef.cpu, "ratio");
    if (c.sweep) {
        double inst = 0.0;
        for (const auto &r : o.runs)
            inst += r.seconds;
        rep.metric("parametric.instances_s", inst, "s");
        rep.metric("parametric.abstraction_s", o.wall - inst, "s");
        rep.metric("parametric.views",
                   static_cast<double>(o.views.at(o.cutoff - 1)), "count");
        rep.metric("parametric.states", S, "count");
    }
}

std::vector<Check>
makeChecks(const Options &opt, Tracer &tr)
{
    const VerifFeatures neo = VerifFeatures::neoMESI();
    std::vector<Check> checks(3);
    checks[0].name = "neomesi_open";
    checks[0].metric = "neomesi_open_s";
    checks[0].factory = openModelFactory(neo, CompositionMethod::Modified);
    checks[0].n = opt.sizes.openN;
    checks[1].name = "neomesi_cutoff";
    checks[1].metric = "neomesi_cutoff_s";
    checks[1].sweep = true;
    checks[1].factory = closedModelFactory(neo);
    checks[2].name = "german";
    checks[2].metric = "german_s";
    checks[2].factory = germanModelFactory();
    checks[2].n = opt.sizes.germanN;
    for (std::uint32_t g = 0; g < checks.size(); ++g) {
        Check &c = checks[g];
        if (c.sweep)
            continue;
        Scope s(tr, "models.build", g);
        ModelShape shape;
        if (c.name == "german" && opt.inject == "mutant")
            c.ts = findMutant(kGermanMutant)->build(shape);
        else
            c.ts = c.factory(c.n, shape);
        c.buildMs = 1e3 * s.stop();
    }
    return checks;
}

} // namespace

int
runVerify(const Options &opt, Report &rep, Tracer &tr)
{
    Tracer untraced(false);
    Tracer &setupTr = opt.trace ? tr : untraced;
    std::vector<Check> checks;
    {
        Scope s(setupTr, "setup", 0);
        checks = makeChecks(opt, setupTr);
    }
    const double setupS = monoNow() - opt.t0;

    // Whole rounds of the three checks until the run length is used,
    // and at least kMinRounds, so the median drops one slow round. A
    // traced run makes the same untraced rounds and then one traced
    // round, so it can report what the tracing itself costs against
    // the untraced median.
    std::vector<std::vector<Outcome>> rounds;
    std::vector<double> roundWall;
    const double start = monoNow();
    for (;;) {
        const bool untracedDone = rounds.size() >= kMinRounds &&
                                  monoNow() - start >= opt.seconds;
        if (untracedDone && !opt.trace)
            break;
        Tracer &rt = untracedDone ? tr : untraced;
        const double r0 = monoNow();
        std::vector<Outcome> outs;
        for (std::uint32_t g = 0; g < checks.size(); ++g) {
            outs.push_back(runCheck(checks[g], kThreads, rt, g));
            ++rep.attempted;
            if (outs.back().status != VerifStatus::Verified)
                ++rep.failed;
            checkVerdict(checks[g], outs.back(), rep);
        }
        roundWall.push_back(monoNow() - r0);
        std::fprintf(stderr, "neobench: round %zu%s:", rounds.size(),
                     untracedDone ? " (traced)" : "");
        for (std::size_t g = 0; g < outs.size(); ++g)
            std::fprintf(stderr, " %s %.3f s", checks[g].name.c_str(),
                         outs[g].wall);
        std::fprintf(stderr, "\n");
        rounds.push_back(std::move(outs));
        if (untracedDone || !rep.correct())
            break;
    }
    const double peakMb = peakRssMb();

    // Correctness checks that need more exploration, untimed: every
    // round against the sequential explorer, and the symmetry orbits.
    std::vector<Outcome> seqRef;
    if (rep.correct()) {
        for (std::uint32_t g = 0; g < checks.size(); ++g)
            seqRef.push_back(runCheck(checks[g], 1, untraced, g));
        if (opt.inject == "count")
            ++rounds.back().front().runs.front().statesExplored;
        for (const auto &outs : rounds)
            for (std::size_t g = 0; g < checks.size(); ++g)
                compareOutcomes(checks[g], outs[g], seqRef[g], rep);
    }
    if (rep.correct())
        for (const Check &c : checks)
            checkSymmetry(c, rep);
    if (!rep.correct())
        return 1;

    if (!opt.trace) {
        rep.metric("setup_s", setupS, "s");
        for (std::size_t g = 0; g < checks.size(); ++g) {
            std::vector<double> w;
            for (const auto &outs : rounds)
                w.push_back(outs[g].wall);
            rep.metric(checks[g].metric, median(w), "s");
        }
        std::vector<double> cpm;
        for (const auto &outs : rounds) {
            double cpu = 0.0, states = 0.0;
            for (const auto &o : outs) {
                cpu += o.cpu;
                states += static_cast<double>(o.states());
            }
            cpm.push_back(cpu / (states / 1e6));
        }
        rep.metric("cpu_s_per_mstate", median(cpm), "s");
        rep.metric("peak_rss_mb", peakMb, "MB");
        return 0;
    }

    const std::vector<Outcome> &traced = rounds.back();
    for (std::uint32_t g = 0; g < checks.size(); ++g) {
        auto [ts, sample] =
            sampleInstance(checks[g], traced[g], opt.seed, tr, g);
        const Replay rp = replay(ts, sample, tr, g);
        layerMetrics(checks[g], traced[g], rp, seqRef[g], rep);
    }
    const double tracedWall = roundWall.back();
    roundWall.pop_back();
    rep.metric("trace.overhead_ratio.verify",
               tracedWall / median(roundWall), "ratio");
    return 0;
}

int
runServiceReference(const Options &opt)
{
    // The service's verified jobs, as neoverify --submit names them;
    // buildJobModel is the builder the service's workers call.
    struct Job
    {
        const char *name;
        JobSpec spec;
    };
    std::vector<Job> jobs(2);
    jobs[0].name = "german";
    jobs[0].spec.features = "german";
    jobs[0].spec.n = opt.sizes.jobN;
    jobs[1].name = "neomesi_closed";
    jobs[1].spec.features = "neomesi";
    jobs[1].spec.system = "closed";
    jobs[1].spec.n = opt.sizes.jobN;
    std::ostringstream os;
    os << "{\"verified\": [";
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        ModelShape shape;
        std::string err;
        const TransitionSystem ts = buildJobModel(jobs[i].spec, shape, err);
        if (!err.empty()) {
            std::fprintf(stderr, "neobench: %s\n", err.c_str());
            return 1;
        }
        const ExploreResult r = explore(ts, limitsFor(1), false, true);
        os << (i ? ", " : "") << "{\"name\": \"" << jobs[i].name
           << "\", \"features\": \"" << jobs[i].spec.features
           << "\", \"system\": \"" << jobs[i].spec.system
           << "\", \"n\": " << jobs[i].spec.n << ", \"status\": \""
           << verifStatusName(r.status)
           << "\", \"states\": " << r.statesExplored
           << ", \"transitions\": " << r.transitionsFired
           << ", \"invchecks\": " << r.invariantChecks;
        if (opt.trace) {
            // What the service's verdict wait is measured against: the
            // same instance explored in process at 4 threads.
            const double t0 = monoNow();
            explore(ts, limitsFor(4), false, true);
            os << ", \"explore4_s\": " << monoNow() - t0;
        }
        os << "}";
    }
    os << "], \"mutants\": [";
    const auto &muts = mutantRegistry();
    for (std::size_t i = 0; i < muts.size(); ++i)
        os << (i ? ", " : "") << "{\"name\": \"" << muts[i].name
           << "\", \"violates\": \"" << muts[i].violates << "\"}";
    os << "]}";
    std::printf("%s\n", os.str().c_str());
    return 0;
}

} // namespace bench
